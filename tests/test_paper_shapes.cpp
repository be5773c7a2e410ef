// End-to-end shape tests: the headline claims of the paper, asserted
// through the full pipeline (generator -> format -> simulator) at small
// scale. These are the same checks EXPERIMENTS.md documents, kept green
// by CI.
#include <gtest/gtest.h>

#include "sparse/footprint.hpp"
#include "gpusim/cpu_node.hpp"
#include "gpusim/gpu_spmv.hpp"
#include "gpusim/pcie.hpp"
#include "matgen/suite.hpp"

namespace spmvm {
namespace {

using gpusim::DeviceSpec;
using gpusim::FormatKind;
using gpusim::SimOptions;

double reduction(const Csr<double>& a) {
  return data_reduction_percent(SlicedEll<double>::pjds(a),
                                SlicedEll<double>::ellpack(a, 32));
}

/// Simulated GF/s with the L2 scaled like the matrix (see DESIGN.md).
double gfs(const Csr<double>& a, double scale, FormatKind kind, bool ecc) {
  DeviceSpec dev = DeviceSpec::tesla_c2070();
  dev.l2_bytes =
      static_cast<std::size_t>(static_cast<double>(dev.l2_bytes) / scale);
  SimOptions opt;
  opt.ecc = ecc;
  return gpusim::simulate_format(dev, a, kind, opt).gflops;
}

TEST(PaperShapes, TableOneReductionOrdering) {
  // sAMG > DLR2 > HMEp > DLR1, each within a band of the paper's value.
  const double dlr1 = reduction(make_named("DLR1", 32).matrix);
  const double dlr2 = reduction(make_named("DLR2", 64).matrix);
  const double hmep = reduction(make_named("HMEp", 128).matrix);
  const double samg = reduction(make_named("sAMG", 128).matrix);
  EXPECT_GT(samg, dlr2);
  EXPECT_GT(dlr2, hmep);
  EXPECT_GT(hmep, dlr1);
  EXPECT_NEAR(dlr1, 17.5, 7.0);
  EXPECT_NEAR(dlr2, 48.0, 10.0);
  EXPECT_NEAR(hmep, 36.0, 8.0);
  EXPECT_NEAR(samg, 68.4, 10.0);
}

TEST(PaperShapes, PjdsWinsSinglePrecisionOnDlr1) {
  // Table I: SP ECC=0, DLR1: 22.1 -> 27.6 (+25 %). Require a clear win.
  const auto m = make_named("DLR1", 32);
  Csr<float> af;
  af.n_rows = m.matrix.n_rows;
  af.n_cols = m.matrix.n_cols;
  af.row_ptr = m.matrix.row_ptr;
  af.col_idx = m.matrix.col_idx;
  af.val.assign(m.matrix.val.begin(), m.matrix.val.end());
  const auto dev = DeviceSpec::tesla_c2070();
  const double er =
      gpusim::simulate_format(dev, af, FormatKind::ellpack_r, {false}).gflops;
  const double pj =
      gpusim::simulate_format(dev, af, FormatKind::pjds, {false}).gflops;
  EXPECT_GT(pj, 1.05 * er);
}

TEST(PaperShapes, PjdsNearParityDoublePrecisionOnDlr1) {
  // Table I: DP ECC=1, DLR1: 12.9 vs 12.9 — within a few percent.
  const auto a = make_named("DLR1", 32).matrix;
  const double er = gfs(a, 32, FormatKind::ellpack_r, true);
  const double pj = gfs(a, 32, FormatKind::pjds, true);
  EXPECT_NEAR(pj / er, 1.0, 0.12);
}

TEST(PaperShapes, EccCostBoundedByBandwidthRatio) {
  const auto a = make_named("DLR2", 128).matrix;
  const double off = gfs(a, 128, FormatKind::ellpack_r, false);
  const double on = gfs(a, 128, FormatKind::ellpack_r, true);
  EXPECT_GT(off, on);
  EXPECT_LE(off / on, 120.0 / 91.0 + 0.02);
}

TEST(PaperShapes, WestmereRowInPaperBand) {
  // Table I last row: 3.9 .. 5.8 GF/s; allow a generous band.
  const auto cpu = gpusim::CpuNodeSpec::westmere_ep();
  for (const char* name : {"DLR1", "sAMG"}) {
    const auto r = gpusim::simulate_csr(cpu, make_named(name, 64).matrix);
    EXPECT_GT(r.gflops, 2.5) << name;
    EXPECT_LT(r.gflops, 9.0) << name;
  }
}

TEST(PaperShapes, PjdsOverheadVsMinimumIsTiny) {
  // Paper: < 0.01 % overhead vs storing only non-zeros at br = 32 for the
  // test matrices; require well under 1 % for the stand-ins.
  for (const char* name : {"DLR1", "DLR2", "HMEp", "sAMG"}) {
    const auto a = make_named(name, 128).matrix;
    const auto p = SlicedEll<double>::pjds(a);
    EXPECT_LT(footprint(p).overhead_vs_minimum(), 0.01) << name;
  }
}

TEST(PaperShapes, Dlr2FullScaleCapacityClaim) {
  // Extrapolated full-scale DP footprints: ELLPACK(-R) > 3 GB > pJDS.
  const double scale = 64;
  const auto a = make_named("DLR2", scale).matrix;
  const double gb_er =
      static_cast<double>(gpusim::device_bytes(a, FormatKind::ellpack_r)) *
      scale / 1e9;
  const double gb_pjds =
      static_cast<double>(gpusim::device_bytes(a, FormatKind::pjds)) * scale /
      1e9;
  EXPECT_GT(gb_er, 3.0);
  EXPECT_LT(gb_pjds, 3.0);
}

}  // namespace
}  // namespace spmvm
