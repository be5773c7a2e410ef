// Parameterized invariant suite for the GPU simulator: physical sanity
// across every (format, device, matrix, ECC) combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "matgen/generators.hpp"
#include "sim_helpers.hpp"
#include "test_helpers.hpp"

namespace spmvm::gpusim {
namespace {

enum class MatKind { random_wide, banded, stencil, powerlaw, uniform };

Csr<double> make_matrix(MatKind kind) {
  switch (kind) {
    case MatKind::random_wide:
      return spmvm::testing::random_csr<double>(700, 700, 0, 48, 11);
    case MatKind::banded:
      return make_banded<double>(900, 6);
    case MatKind::stencil:
      return make_poisson2d<double>(30, 30);
    case MatKind::powerlaw:
      return make_powerlaw<double>(800, 9.0, 120, 12);
    case MatKind::uniform:
      return make_random_uniform<double>(600, 24, 13);
  }
  return {};
}

/// Simulate a registry format by name; "csr_scalar" (no storage format
/// of its own) runs the CSR-scalar kernel.
KernelResult simulate_kernel(const DeviceSpec& dev, const Csr<double>& a,
                             const std::string& name,
                             const SimOptions& opt = {}) {
  return name == "csr_scalar"
             ? simulate_csr_scalar(dev, a, opt)
             : spmvm::testing::simulate_named(dev, a, name, opt);
}

class SimInvariants
    : public ::testing::TestWithParam<
          std::tuple<MatKind, std::string, bool /*ecc*/, bool /*fermi*/>> {};

TEST_P(SimInvariants, PhysicallySane) {
  const auto& [mat, format, ecc, fermi] = GetParam();
  const auto a = make_matrix(mat);
  const auto dev =
      fermi ? DeviceSpec::tesla_c2070() : DeviceSpec::tesla_c1060();
  SimOptions opt;
  opt.ecc = ecc;
  const auto r = simulate_kernel(dev, a, format, opt);

  // Throughput is positive and below both roofs.
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_LT(r.gflops, dev.peak_flops(Precision::dp) / 1e9);
  EXPECT_LE(r.gflops,
            dev.bandwidth_bytes(ecc) / 1e9 / r.code_balance + 1.0);

  // Useful flops are exactly 2 nnz.
  EXPECT_EQ(r.stats.flops, 2 * static_cast<std::uint64_t>(a.nnz()));

  // Traffic can never undercut the compulsory matrix data (one value
  // per non-zero).
  EXPECT_GE(r.stats.dram_bytes(),
            static_cast<std::uint64_t>(a.nnz()) * sizeof(double));

  // Warp accounting.
  EXPECT_GT(r.stats.warps, 0u);
  EXPECT_GT(r.stats.warp_efficiency(), 0.0);
  EXPECT_LE(r.stats.warp_efficiency(), 1.0 + 1e-12);

  // Time composition.
  EXPECT_NEAR(r.seconds,
              std::max(r.mem_seconds, r.issue_seconds) + dev.kernel_launch_s,
              1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimInvariants,
    ::testing::Combine(
        ::testing::Values(MatKind::random_wide, MatKind::banded,
                          MatKind::stencil, MatKind::powerlaw,
                          MatKind::uniform),
        ::testing::Values("ellpack", "ellpack_r", "pjds", "sliced_ell",
                          "csr_scalar", "csr"),
        ::testing::Values(false, true), ::testing::Values(false, true)));

class EccOrdering : public ::testing::TestWithParam<std::string> {};

TEST_P(EccOrdering, EccNeverHelps) {
  const auto a = make_matrix(MatKind::random_wide);
  const auto dev = DeviceSpec::tesla_c2070();
  SimOptions on, off;
  on.ecc = true;
  off.ecc = false;
  EXPECT_GE(simulate_kernel(dev, a, GetParam(), off).gflops,
            simulate_kernel(dev, a, GetParam(), on).gflops);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EccOrdering,
                         ::testing::Values("ellpack", "ellpack_r", "pjds",
                                           "sliced_ell", "csr"));

TEST(SimDeterminism, RepeatedRunsIdentical) {
  const auto a = make_matrix(MatKind::powerlaw);
  const auto dev = DeviceSpec::tesla_c2070();
  const auto r1 = simulate_kernel(dev, a, "pjds");
  const auto r2 = simulate_kernel(dev, a, "pjds");
  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
  EXPECT_EQ(r1.stats.dram_bytes(), r2.stats.dram_bytes());
}

TEST(SimMonotonicity, MoreNnzMoreTime) {
  const auto dev = DeviceSpec::tesla_c2070();
  double prev = 0.0;
  for (index_t nnzr : {4, 16, 64}) {
    const auto a = make_random_uniform<double>(2000, nnzr, 21);
    const auto r = simulate_kernel(dev, a, "ellpack_r");
    EXPECT_GT(r.seconds, prev);
    prev = r.seconds;
  }
}

}  // namespace
}  // namespace spmvm::gpusim
