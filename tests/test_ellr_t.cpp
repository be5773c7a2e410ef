#include <gtest/gtest.h>

#include "gpusim/kernel_sim.hpp"
#include "matgen/generators.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm::gpusim {
namespace {

const DeviceSpec kFermi = DeviceSpec::tesla_c2070();

TEST(EllrT, TOneMatchesEllpackRScheduling) {
  const auto a = spmvm::testing::random_csr<double>(512, 512, 0, 24, 1);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto er = simulate(kFermi, e, "ellpack_r");
  const auto t1 = simulate_ellr_t(kFermi, e, 1);
  EXPECT_EQ(t1.stats.warp_steps, er.stats.warp_steps);
  EXPECT_EQ(t1.stats.useful_lane_steps, er.stats.useful_lane_steps);
}

TEST(EllrT, UsefulWorkEqualsNnzForAllT) {
  const auto a = spmvm::testing::random_csr<double>(300, 300, 0, 30, 2);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  for (int t : {1, 2, 4, 8, 16, 32}) {
    const auto r = simulate_ellr_t(kFermi, e, t);
    EXPECT_EQ(r.stats.useful_lane_steps,
              static_cast<std::uint64_t>(a.nnz()))
        << "T=" << t;
  }
}

TEST(EllrT, HigherTCutsWarpTailOnLongImbalancedRows) {
  // Long imbalanced rows: T > 1 shrinks the per-warp step count.
  const auto a = make_powerlaw<double>(4096, 40.0, 500, 3);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto t1 = simulate_ellr_t(kFermi, e, 1);
  const auto t8 = simulate_ellr_t(kFermi, e, 8);
  EXPECT_LT(t8.stats.warp_steps, t1.stats.warp_steps);
}

TEST(EllrT, OversizedTWastesLanesOnShortRows) {
  // N_nzr ~ 7 with T = 32: at most 7 of 32 lanes ever active.
  const auto a = make_random_uniform<double>(20000, 7, 4);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  const auto t32 = simulate_ellr_t(kFermi, e, 32);
  EXPECT_LT(t32.stats.warp_efficiency(), 0.3);
  const auto t1 = simulate_ellr_t(kFermi, e, 1);
  EXPECT_GT(t1.gflops, t32.gflops);
}

TEST(EllrT, BestTIsMatrixDependent) {
  // The tuning-parameter contrast with pJDS: the optimal T differs
  // between a short-row and a long-row matrix.
  const auto short_rows = make_random_uniform<double>(20000, 6, 5);
  const auto long_rows = make_random_uniform<double>(2000, 200, 6);
  auto best_t = [&](const Csr<double>& a) {
    const auto e = spmvm::testing::ellpack_image(a, 32);
    int best = 1;
    double best_gfs = 0.0;
    for (int t : {1, 2, 4, 8, 16, 32}) {
      const double g = simulate_ellr_t(kFermi, e, t).gflops;
      if (g > best_gfs) {
        best_gfs = g;
        best = t;
      }
    }
    return best;
  };
  EXPECT_LT(best_t(short_rows), best_t(long_rows));
}

TEST(EllrT, RejectsNonDivisorT) {
  const auto a = spmvm::testing::random_csr<double>(64, 64, 1, 4, 7);
  const auto e = spmvm::testing::ellpack_image(a, 32);
  EXPECT_THROW(simulate_ellr_t(kFermi, e, 3), Error);
  EXPECT_THROW(simulate_ellr_t(kFermi, e, 0), Error);
}

}  // namespace
}  // namespace spmvm::gpusim
