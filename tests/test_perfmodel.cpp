#include <gtest/gtest.h>

#include "matgen/generators.hpp"
#include "perfmodel/balance.hpp"
#include "perfmodel/model_eval.hpp"
#include "perfmodel/pcie_impact.hpp"
#include "sim_helpers.hpp"
#include "util/error.hpp"

namespace spmvm::perfmodel {
namespace {

TEST(Balance, PaperDpFormula) {
  // Eq. 1 in DP: (8 + 4 + 8α + 16/N_nzr)/2 = 6 + 4α + 8/N_nzr.
  EXPECT_DOUBLE_EQ(code_balance(8, 1.0, 16.0), 6.0 + 4.0 + 0.5);
  EXPECT_DOUBLE_EQ(code_balance(8, 0.0, 8.0), 6.0 + 1.0);
}

TEST(Balance, IdealAlphaGivesKappaZeroLimit) {
  const double nnzr = 20.0;
  const double b = code_balance(8, alpha_ideal(nnzr), nnzr);
  // 6 + 4/20 + 8/20 = 6.6 bytes/flop.
  EXPECT_NEAR(b, 6.6, 1e-12);
}

TEST(Balance, SpHalvesStaticTerms) {
  EXPECT_NEAR(code_balance(4, 0.0, 1e9), 4.0, 1e-8);  // (4+4)/2
}

TEST(Balance, SplitPenaltyMatchesPaper) {
  // Sec. III-A: result written twice adds 8/N_nzr bytes/flop in DP.
  EXPECT_DOUBLE_EQ(split_kernel_penalty(8, 144.0), 8.0 / 144.0);
}

TEST(Balance, RooflineCapsAtPeak) {
  EXPECT_DOUBLE_EQ(roofline_gflops(515.0, 91.0, 0.01), 515.0);
  EXPECT_DOUBLE_EQ(roofline_gflops(515.0, 91.0, 7.0), 91.0 / 7.0);
}

TEST(Balance, RejectsBadArguments) {
  EXPECT_THROW(code_balance(8, 0.5, 0.0), Error);
  EXPECT_THROW(code_balance(8, -0.1, 8.0), Error);
  EXPECT_THROW(bandwidth_bound_gflops(91.0, 0.0), Error);
}

TEST(PcieImpact, PaperThresholds) {
  // "In the worst case, α = 1/N_nzr and B_GPU ≳ 20 B_PCI lead to
  //  N_nzr <= 25."
  EXPECT_NEAR(nnzr_upper_for_50pct_penalty_worst_alpha(20.0), 25.0, 1.0);
  // "if α = 1 and B_GPU ≈ 10 B_PCI we have N_nzr <= 7."
  EXPECT_NEAR(nnzr_upper_for_50pct_penalty(10.0, 1.0), 7.0, 0.3);
  // "at B_GPU ≈ 10 B_PCI and α = 1 a value of N_nzr ≳ 80 is sufficient."
  EXPECT_NEAR(nnzr_lower_for_10pct_penalty(10.0, 1.0), 80.0, 1.0);
  // "at B_GPU ≈ 20 B_PCI and α = 1/N_nzr one arrives at N_nzr ≳ 266."
  EXPECT_NEAR(nnzr_lower_for_10pct_penalty_worst_alpha(20.0), 266.0, 2.0);
}

TEST(PcieImpact, TimesMatchEqTwo) {
  // T_MVM = 8N [N_nzr (α + 3/2) + 2] / B_GPU, T_PCI = 16N / B_PCI.
  const double n = 1e6;
  EXPECT_DOUBLE_EQ(t_mvm_seconds(n, 10.0, 0.5, 80.0),
                   8.0 * n * (10.0 * 2.0 + 2.0) / 80e9);
  EXPECT_DOUBLE_EQ(t_pci_seconds(n, 8.0), 16.0 * n / 8e9);
}

TEST(PcieImpact, FractionMonotoneInNnzr) {
  double prev = 1.0;
  for (double nnzr : {5.0, 15.0, 50.0, 150.0, 400.0}) {
    const double f = pcie_time_fraction(1e6, nnzr, 0.5, 91.0, 6.0);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(PcieImpact, FiftyPercentAtThreshold) {
  const double alpha = 1.0, ratio = 10.0;
  const double nnzr = nnzr_upper_for_50pct_penalty(ratio, alpha);
  // At the Eq. 3 threshold (ignoring the +2 vector term), T_PCI ≈ T_MVM.
  const double f = pcie_time_fraction(1e6, nnzr, alpha, 91.0, 9.1);
  EXPECT_NEAR(f, 0.5, 0.05);
}

TEST(ModelVsSim, BalancesAgreeWithinTolerance) {
  // Eq. 1 evaluated at the measured α must track the simulator's actual
  // bytes/flop; transaction rounding keeps them within ~25%.
  GenConfig cfg;
  cfg.scale = 64;
  const auto a = make_hmep<double>(cfg);
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto r = evaluate(dev, a, testing::simulate_named(dev, a, "ellpack_r"),
                          /*ecc=*/true);
  EXPECT_GT(r.alpha_measured, 0.0);
  EXPECT_NEAR(r.balance_sim / r.balance_model, 1.0, 0.25);
  EXPECT_GT(r.gflops_sim, 0.0);
  EXPECT_LT(r.gflops_with_pcie, r.gflops_sim);
}

TEST(ModelVsSim, ModelBoundsSimWhenBandwidthBound) {
  // For a high-N_nzr matrix the kernel is bandwidth-bound and the Eq. 1
  // prediction is an upper bound within rounding.
  const auto a = make_random_uniform<double>(30000, 120, 5);
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto r = evaluate(dev, a, testing::simulate_named(dev, a, "ellpack_r"),
                          /*ecc=*/true);
  EXPECT_LT(r.gflops_sim, r.gflops_model * 1.3);
}

}  // namespace
}  // namespace spmvm::perfmodel
