#include <gtest/gtest.h>

#include "gpusim/cpu_node.hpp"
#include "gpusim/pcie.hpp"
#include "matgen/generators.hpp"
#include "sim_helpers.hpp"
#include "test_helpers.hpp"

namespace spmvm::gpusim {
namespace {

using spmvm::testing::simulate_named;

const DeviceSpec kFermi = DeviceSpec::tesla_c2070();

TEST(Pcie, LatencyPlusBandwidth) {
  DeviceSpec d = kFermi;
  d.pcie_gbs = 5.0;
  d.pcie_latency_s = 1e-5;
  EXPECT_DOUBLE_EQ(pcie_seconds(d, 0), 0.0);
  EXPECT_DOUBLE_EQ(pcie_seconds(d, 5'000'000), 1e-5 + 1e-3);
}

TEST(Pcie, TransfersScaleWithVectorSizeNotNnz) {
  const auto sparse7 = make_random_uniform<double>(20000, 7, 1);
  const auto dense100 = make_random_uniform<double>(20000, 100, 2);
  const auto k7 = simulate_named(kFermi, sparse7, "ellpack_r");
  const auto k100 = simulate_named(kFermi, dense100, "ellpack_r");
  const auto t7 = with_pcie_transfers(kFermi, k7, 20000, 20000, 8);
  const auto t100 = with_pcie_transfers(kFermi, k100, 20000, 20000, 8);
  EXPECT_NEAR(t7.pcie_seconds, t100.pcie_seconds, 1e-12);
  // Low N_nzr: transfers dominate; high N_nzr: kernel dominates (Eq. 3/4).
  EXPECT_GT(t7.pcie_seconds, t7.kernel_seconds);
  EXPECT_LT(t100.pcie_seconds, t100.kernel_seconds);
}

TEST(Pcie, PenaltyShrinksWithNnzr) {
  double prev_ratio = 1e9;
  for (index_t nnzr : {5, 20, 80}) {
    const auto a = make_random_uniform<double>(30000, nnzr, 3);
    const auto k = simulate_named(kFermi, a, "ellpack_r");
    const auto t = with_pcie_transfers(kFermi, k, a.n_rows, a.n_cols, 8);
    const double ratio = t.gflops_kernel / t.gflops_total;
    EXPECT_LT(ratio, prev_ratio) << "nnzr=" << nnzr;
    prev_ratio = ratio;
  }
}

TEST(CpuNode, WestmereCrsInPaperBallpark) {
  // Table I last row: 3.9-5.8 GF/s for the four matrices (DP CRS).
  const auto node = CpuNodeSpec::westmere_ep();
  GenConfig cfg;
  cfg.scale = 64;
  const auto dlr1 = simulate_csr(node, make_dlr1<double>(cfg));
  EXPECT_GT(dlr1.gflops, 3.0);
  EXPECT_LT(dlr1.gflops, 8.0);
}

TEST(CpuNode, AlphaMeasuredNotAssumed) {
  const auto node = CpuNodeSpec::westmere_ep();
  const auto banded = simulate_csr(node, make_banded<double>(20000, 4));
  const auto random = simulate_csr(
      node, make_random_uniform<double>(2000000, 8, 4));
  EXPECT_LT(banded.alpha, 0.5);
  EXPECT_GT(random.alpha, banded.alpha);
  EXPECT_GT(banded.gflops, random.gflops);
}

TEST(CpuNode, EmptyMatrixIsZero) {
  Coo<double> coo(0, 0);
  const auto r = simulate_csr(CpuNodeSpec::westmere_ep(),
                              Csr<double>::from_coo(std::move(coo)));
  EXPECT_DOUBLE_EQ(r.gflops, 0.0);
}

TEST(GpuVsCpu, HighNnzrFavorsGpuLowNnzrDoesNot) {
  // Sec. III: HMEp/sAMG (N_nzr ~ 15/7) fall below a CPU node once PCIe
  // is included; DLR-class matrices (N_nzr > 100) keep a clear margin.
  const auto node = CpuNodeSpec::westmere_ep();
  GenConfig cfg;
  cfg.scale = 64;

  const auto samg = make_samg<double>(cfg);
  const auto k_samg = simulate_named(kFermi, samg, "ellpack_r");
  const auto t_samg = with_pcie_transfers(kFermi, k_samg, samg.n_rows,
                                          samg.n_cols, 8);
  const auto c_samg = simulate_csr(node, samg);
  EXPECT_LT(t_samg.gflops_total, 1.5 * c_samg.gflops);

  GenConfig cfg_dlr;
  cfg_dlr.scale = 8;
  const auto dlr1 = make_dlr1<double>(cfg_dlr);
  const auto k_dlr = simulate_named(kFermi, dlr1, "ellpack_r");
  const auto t_dlr = with_pcie_transfers(kFermi, k_dlr, dlr1.n_rows,
                                         dlr1.n_cols, 8);
  const auto c_dlr = simulate_csr(node, dlr1);
  EXPECT_GT(t_dlr.gflops_total, 1.2 * c_dlr.gflops);
}

}  // namespace
}  // namespace spmvm::gpusim
