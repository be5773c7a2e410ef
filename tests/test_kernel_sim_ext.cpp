// Tests for the simulator extensions: the CSR-vector kernel,
// simulate_format and device_bytes.
#include <gtest/gtest.h>

#include "gpusim/gpu_spmv.hpp"
#include "matgen/generators.hpp"
#include "test_helpers.hpp"

namespace spmvm::gpusim {
namespace {

const DeviceSpec kFermi = DeviceSpec::tesla_c2070();

TEST(CsrVector, BeatsScalarOnLongRows) {
  const auto a = spmvm::testing::random_csr<double>(2048, 2048, 100, 160, 1);
  const auto vec = simulate_csr_vector(kFermi, a);
  const auto scal = simulate_csr_scalar(kFermi, a);
  EXPECT_GT(vec.gflops, 2.0 * scal.gflops);
}

TEST(CsrVector, WastefulOnShortRows) {
  // One warp per 4-entry row: 28 idle lanes plus the reduction steps.
  const auto a = spmvm::testing::random_csr<double>(20000, 20000, 4, 4, 2);
  const auto vec = simulate_csr_vector(kFermi, a);
  const auto er = simulate(kFermi, SlicedEll<double>::ellpack(a, 32),
                           "ellpack_r");
  EXPECT_LT(vec.gflops, er.gflops);
  EXPECT_LT(vec.stats.warp_efficiency(), 0.25);
}

TEST(CsrVector, UsefulWorkEqualsNnz) {
  const auto a = spmvm::testing::random_csr<double>(512, 512, 0, 40, 3);
  const auto r = simulate_csr_vector(kFermi, a);
  EXPECT_EQ(r.stats.useful_lane_steps, static_cast<std::uint64_t>(a.nnz()));
}

TEST(CsrVector, CompetitiveWithEllpackROnUniformLongRows) {
  const auto a = make_random_uniform<double>(4096, 128, 4);
  const auto vec = simulate_csr_vector(kFermi, a);
  const auto er = simulate(kFermi, SlicedEll<double>::ellpack(a, 32),
                           "ellpack_r");
  EXPECT_GT(vec.gflops, 0.5 * er.gflops);
}

TEST(FormatKind, CsrVectorDispatches) {
  const auto a = spmvm::testing::random_csr<double>(256, 256, 1, 10, 7);
  const auto r = simulate_format(kFermi, a, FormatKind::csr_vector);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_STREQ(to_string(FormatKind::csr_vector), "CSR-vector");
}

TEST(ClusterFormat, PjdsOptionChangesDeviceBytes) {
  const auto a = spmvm::testing::random_csr<double>(1024, 1024, 1, 40, 8);
  EXPECT_LT(device_bytes(a, FormatKind::pjds),
            device_bytes(a, FormatKind::ellpack_r));
}

}  // namespace
}  // namespace spmvm::gpusim
