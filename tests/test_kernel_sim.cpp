#include "gpusim/kernel_sim.hpp"

#include <gtest/gtest.h>

#include "formats/registry.hpp"
#include "matgen/generators.hpp"
#include "test_helpers.hpp"

namespace spmvm::gpusim {
namespace {

const DeviceSpec kFermi = DeviceSpec::tesla_c2070();

template <class T>
Csr<T> imbalanced_matrix(index_t n, std::uint64_t seed) {
  // Wide row-length spread: the regime where pJDS beats ELLPACK-R.
  return spmvm::testing::random_csr<T>(n, n, 1, 64, seed);
}

TEST(KernelSim, UsefulLaneStepsEqualNnz) {
  const auto a = imbalanced_matrix<double>(512, 1);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto r = simulate(kFermi, e, "ellpack_r");
  EXPECT_EQ(r.stats.useful_lane_steps, static_cast<std::uint64_t>(a.nnz()));
  EXPECT_EQ(r.stats.flops, 2 * static_cast<std::uint64_t>(a.nnz()));

  const auto p = simulate(kFermi, spmvm::testing::pjds_image(a), "pjds");
  EXPECT_EQ(p.stats.useful_lane_steps, static_cast<std::uint64_t>(a.nnz()));
}

TEST(KernelSim, PlainEllpackLoadsFill) {
  const auto a = imbalanced_matrix<double>(512, 2);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto plain = simulate(kFermi, e, "ellpack", {}, /*full_width=*/true);
  const auto r = simulate(kFermi, e, "ellpack_r");
  // Plain ELLPACK transfers the zero fill; ELLPACK-R does not.
  EXPECT_GT(plain.stats.matrix_bytes, r.stats.matrix_bytes);
  EXPECT_GE(r.gflops, plain.gflops);
}

TEST(KernelSim, PjdsReducesWarpSteps) {
  const auto a = imbalanced_matrix<double>(2048, 3);
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r");
  const auto p = simulate(kFermi, spmvm::testing::pjds_image(a), "pjds");
  // Sorting removes the warp tails: fewer reserved steps, higher
  // efficiency (Fig. 2b vs 2c).
  EXPECT_LT(p.stats.warp_steps, r.stats.warp_steps);
  EXPECT_GT(p.stats.warp_efficiency(), r.stats.warp_efficiency());
}

TEST(KernelSim, PjdsFasterInSinglePrecisionOnImbalancedMatrix) {
  const auto a = imbalanced_matrix<float>(4096, 4);
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r", {false});
  const auto p = simulate(kFermi, spmvm::testing::pjds_image(a), "pjds", {false});
  EXPECT_GT(p.gflops, r.gflops);
}

TEST(KernelSim, EccReducesBandwidthBoundThroughput) {
  const auto a = spmvm::testing::random_csr<double>(4096, 4096, 100, 140, 5);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto ecc_on = simulate(kFermi, e, "ellpack_r", {true});
  const auto ecc_off = simulate(kFermi, e, "ellpack_r", {false});
  EXPECT_GT(ecc_off.gflops, ecc_on.gflops);
  // At most the bandwidth ratio 120/91.
  EXPECT_LT(ecc_off.gflops / ecc_on.gflops, 120.0 / 91.0 + 0.01);
}

TEST(KernelSim, BandedMatrixHasLowAlpha) {
  // Narrow band: consecutive rows reuse the same RHS lines -> most
  // gathers hit in L2 and measured alpha approaches the ideal 1/N_nzr.
  const auto a = make_banded<double>(8192, 8);
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r");
  EXPECT_LT(r.stats.measured_alpha(8), 0.3);
}

TEST(KernelSim, RandomMatrixHasHighAlpha) {
  const auto a = make_random_uniform<double>(200000, 8, 6);
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r");
  // Scattered gathers over a 1.6 MB vector >> 768 kB L2: mostly misses.
  EXPECT_GT(r.stats.measured_alpha(8), 0.8);
}

TEST(KernelSim, NoL2MeansNoReuse) {
  const auto a = make_banded<double>(4096, 8);
  const auto fermi = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                              "ellpack_r");
  const auto c1060 = simulate(DeviceSpec::tesla_c1060(),
                              spmvm::testing::ellpack_image(a, 32),
                              "ellpack_r");
  EXPECT_EQ(c1060.stats.rhs_line_hits, 0u);
  EXPECT_GT(c1060.stats.rhs_bytes, fermi.stats.rhs_bytes);
}

TEST(KernelSim, CsrScalarSlowerThanEllpackR) {
  const auto a = spmvm::testing::random_csr<double>(4096, 4096, 20, 40, 7);
  const auto csr = simulate_csr_scalar(kFermi, a);
  const auto er = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                           "ellpack_r");
  EXPECT_LT(csr.gflops, er.gflops);
}

TEST(KernelSim, KernelIsBandwidthOrIssueBound) {
  const auto a = imbalanced_matrix<double>(1024, 8);
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r");
  EXPECT_NEAR(r.seconds,
              std::max(r.mem_seconds, r.issue_seconds) + kFermi.kernel_launch_s,
              1e-12);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_LT(r.gflops, kFermi.peak_flops(Precision::dp) / 1e9);
}

TEST(KernelSim, SmallMatrixLosesBandwidth) {
  // Strong-scaling regime: a tiny per-GPU chunk cannot saturate the
  // memory system (Fig. 5a breakdown).
  const auto small = spmvm::testing::random_csr<double>(512, 512, 100, 140, 9);
  const auto big = spmvm::testing::random_csr<double>(65536, 65536, 100, 140, 9);
  const auto rs = simulate(kFermi, spmvm::testing::ellpack_image(small, 32),
                           "ellpack_r");
  const auto rb = simulate(kFermi, spmvm::testing::ellpack_image(big, 32),
                           "ellpack_r");
  EXPECT_LT(rs.gflops, rb.gflops);
}

TEST(KernelSim, SlicedEllMatchesEllpackRTraffic) {
  const auto a = imbalanced_matrix<double>(1024, 10);
  const auto s =
      simulate(kFermi, SlicedEll<double>::from_csr(a, 32), "sliced_ell");
  const auto r = simulate(kFermi, spmvm::testing::ellpack_image(a, 32),
                          "ellpack_r");
  // Same kernel semantics when σ = 1: identical useful work and
  // comparable traffic.
  EXPECT_EQ(s.stats.useful_lane_steps, r.stats.useful_lane_steps);
  EXPECT_EQ(s.stats.warp_steps, r.stats.warp_steps);
}

TEST(KernelSim, SortedSlicedEllApproachesPjds) {
  // Both in the symmetric basis: the matrix is permuted up front.
  const auto a = spmvm::testing::sorted_symmetric(
      imbalanced_matrix<double>(2048, 11), 2048);
  const auto sorted = simulate(
      kFermi, SlicedEll<double>::from_csr(a, 32, a.n_rows), "sell_c_sigma");
  const auto p = simulate(kFermi, spmvm::testing::pjds_image(a), "pjds");
  EXPECT_EQ(sorted.stats.warp_steps, p.stats.warp_steps);
}

TEST(RegistrySim, EverySimulatedFormatRunsAndSizes) {
  const auto a = spmvm::testing::random_csr<double>(256, 256, 1, 16, 12);
  for (const auto& e : formats::registry<double>().entries()) {
    if (!e.info.has_sim_kernel) continue;
    const auto r = e.builder(a, {}, e.info)->simulate(kFermi, {});
    ASSERT_TRUE(r.has_value()) << e.info.name;
    EXPECT_GT(r->gflops, 0.0) << e.info.name;
    ASSERT_NE(e.size, nullptr) << e.info.name;
    EXPECT_GT(e.size(a, {}).total_bytes(sizeof(double)), 0u) << e.info.name;
  }
}

TEST(DeviceBytes, PjdsSmallerThanEllpackOnImbalanced) {
  const auto a = imbalanced_matrix<double>(1024, 13);
  const auto& reg = formats::registry<double>();
  EXPECT_LT(reg.find("pjds")->size(a, {}).total_bytes(sizeof(double)),
            reg.find("ellpack_r")->size(a, {}).total_bytes(sizeof(double)));
}

}  // namespace
}  // namespace spmvm::gpusim
