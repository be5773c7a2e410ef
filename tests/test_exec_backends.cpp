// Cross-backend contract of the execution engine: the host, gpusim, and
// hybrid backends must produce bit-identical products for every
// registered storage format (gpusim executes the same host-mirror
// kernels; no plan relabels columns, so each of hybrid's parts
// accumulates a row's entries in the same order as the unsplit kernel), and
// the engine's staging/selection model must be deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "gpusim/device_runtime.hpp"
#include "matgen/generators.hpp"
#include "obs/ledger.hpp"
#include "solver/cg.hpp"
#include "solver/operator.hpp"
#include "util/error.hpp"

using namespace spmvm;

namespace {

Csr<double> test_matrix() {
  GenConfig cfg;
  cfg.scale = 512;  // smoke-sized sAMG: irregular rows, a few thousand nnz
  return make_samg<double>(cfg);
}

std::vector<double> test_x(index_t n_cols) {
  std::vector<double> x(static_cast<std::size_t>(n_cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + static_cast<double>(i % 7) * 0.125;  // exact binary fractions
  return x;
}

/// Independent serial CSR reference (no library kernel involved).
std::vector<double> reference(const Csr<double>& a,
                              const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i) {
    double acc = 0.0;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      acc += a.val[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(
                 a.col_idx[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// The paper's capacity example at 1/32 scale: a C2050 with 1/32 of
/// its memory.
exec::EngineOptions small_c2050() {
  exec::EngineOptions opt;
  opt.device = gpusim::DeviceSpec::tesla_c2050();
  opt.device.dram_bytes /= 32;
  return opt;
}

/// Bind + one product on `backend`, original basis, deterministic opts.
std::vector<double> product(exec::Engine<double>& eng, const char* backend,
                            const Csr<double>& a, const char* format,
                            const std::vector<double>& x,
                            exec::LaunchOptions launch = {}) {
  formats::PlanOptions opts;
  opts.probe = false;
  const auto bound = eng.bind(backend, a, format, opts, launch);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows), -1.0);
  bound->apply(std::span<const double>(x), std::span<double>(y));
  return y;
}

}  // namespace

TEST(ExecBackends, ListAndLookup) {
  exec::Engine<double> eng;
  const auto infos = eng.list();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_STREQ(infos[0].name, "host");
  EXPECT_STREQ(infos[1].name, "gpusim");
  EXPECT_STREQ(infos[2].name, "hybrid");
  EXPECT_FALSE(infos[0].uses_device);
  EXPECT_TRUE(infos[1].uses_device);
  EXPECT_TRUE(infos[2].uses_device);
  EXPECT_NE(eng.find("gpusim"), nullptr);
  EXPECT_EQ(eng.find("cuda"), nullptr);
  EXPECT_THROW(eng.at("cuda"), Error);
  EXPECT_TRUE(exec::is_backend_name("auto"));
  EXPECT_FALSE(exec::is_backend_name("cpu"));
}

TEST(ExecBackends, BitIdenticalAcrossBackendsForEveryFormat) {
  const Csr<double> a = test_matrix();
  const std::vector<double> x = test_x(a.n_cols);
  const std::vector<double> ref = reference(a, x);

  exec::Engine<double> eng;
  for (const formats::FormatInfo& info : formats::registry<double>().list()) {
    SCOPED_TRACE(info.name);
    const std::vector<double> host = product(eng, "host", a, info.name, x);
    const std::vector<double> sim = product(eng, "gpusim", a, info.name, x);
    const std::vector<double> hyb = product(eng, "hybrid", a, info.name, x);
    ASSERT_EQ(host.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      // Accumulation order is the row's entries in ascending column
      // order on every backend, so equality is exact, not approximate.
      EXPECT_EQ(host[i], sim[i]) << "row " << i;
      EXPECT_EQ(host[i], hyb[i]) << "row " << i;
      EXPECT_NEAR(host[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i])))
          << "row " << i;
    }
  }
}

TEST(ExecBackends, HybridDeviceShareSweep) {
  const Csr<double> a = test_matrix();
  const std::vector<double> x = test_x(a.n_cols);
  const std::vector<double> ref = reference(a, x);

  exec::Engine<double> eng;
  for (const double share : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(share);
    exec::LaunchOptions launch;
    launch.device_share = share;
    const auto bound = eng.bind("hybrid", a, "sell_c_sigma", {}, launch);
    if (share == 0.0) {
      EXPECT_EQ(bound->split_row(), 0);
      EXPECT_EQ(bound->device_nnz_share(), 0.0);
    } else if (share == 1.0) {
      EXPECT_EQ(bound->split_row(), a.n_rows);
      EXPECT_EQ(bound->device_nnz_share(), 1.0);
    } else {
      EXPECT_GT(bound->split_row(), 0);
      EXPECT_LT(bound->split_row(), a.n_rows);
      EXPECT_NEAR(bound->device_nnz_share(), share, 0.05);
    }
    std::vector<double> y(static_cast<std::size_t>(a.n_rows));
    bound->apply(std::span<const double>(x), std::span<double>(y));
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(y[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i])))
          << "row " << i;
  }
}

TEST(ExecBackends, HybridEmptyRowsAtSplitBoundary) {
  // 8 rows, rows 3–5 empty; a 50% nnz split lands inside the empty band,
  // so one part ends (and the other begins) on empty rows.
  Csr<double> a;
  a.n_rows = 8;
  a.n_cols = 8;
  a.row_ptr = {0, 2, 4, 6, 6, 6, 6, 9, 12};
  a.col_idx = {0, 1, 1, 2, 2, 3, 0, 4, 7, 1, 5, 6};
  a.val = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  a.validate();
  const std::vector<double> x = test_x(a.n_cols);
  const std::vector<double> ref = reference(a, x);

  exec::Engine<double> eng;
  for (const double share : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(share);
    exec::LaunchOptions launch;
    launch.device_share = share;
    const auto bound = eng.bind("hybrid", a, "csr", {}, launch);
    std::vector<double> y(static_cast<std::size_t>(a.n_rows), -1.0);
    bound->apply(std::span<const double>(x), std::span<double>(y));
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(y[i], ref[i]) << "row " << i;
  }
  // Degenerate shapes must bind too: the all-empty-rows matrix.
  Csr<double> empty;
  empty.n_rows = 4;
  empty.n_cols = 4;
  empty.row_ptr = {0, 0, 0, 0, 0};
  const auto bound = eng.bind("hybrid", empty, "csr");
  std::vector<double> y(4, -1.0);
  const std::vector<double> xe(4, 1.0);
  bound->apply(std::span<const double>(xe), std::span<double>(y));
  for (const double v : y) EXPECT_EQ(v, 0.0);
}

TEST(ExecBackends, TransferAccountingAndResidentVectors) {
  const Csr<double> a = test_matrix();
  const std::vector<double> x = test_x(a.n_cols);

  exec::Engine<double> eng;
  const auto& tm = *eng.transfers();
  const std::uint64_t h2d0 = tm.bytes_to_device();
  const auto plan = formats::registry<double>().build("ellpack_r", a);
  const std::size_t image = plan->footprint().total_bytes(sizeof(double));

  // Bind uploads the matrix image once.
  auto bound = eng.bind_plan("gpusim", plan);
  EXPECT_EQ(tm.bytes_to_device() - h2d0, image);

  // Each non-resident product stages x up and y down.
  const std::uint64_t h2d1 = tm.bytes_to_device();
  const std::uint64_t d2h1 = tm.bytes_to_host();
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  bound->apply(std::span<const double>(x), std::span<double>(y));
  EXPECT_EQ(tm.bytes_to_device() - h2d1,
            static_cast<std::uint64_t>(a.n_cols) * sizeof(double));
  EXPECT_EQ(tm.bytes_to_host() - d2h1,
            static_cast<std::uint64_t>(a.n_rows) * sizeof(double));
  EXPECT_GT(tm.transfer_seconds(), 0.0);

  // Resident vectors: no per-product staging.
  exec::LaunchOptions launch;
  launch.vectors_resident = true;
  auto resident = eng.bind_plan("gpusim", plan, launch);
  const std::uint64_t h2d2 = tm.bytes_to_device();
  const std::uint64_t d2h2 = tm.bytes_to_host();
  resident->apply(std::span<const double>(x), std::span<double>(y));
  EXPECT_EQ(tm.bytes_to_device(), h2d2);
  EXPECT_EQ(tm.bytes_to_host(), d2h2);
}

TEST(ExecBackends, Dlr2FitsScaledC2050OnlyAsPjds) {
  GenConfig cfg;
  cfg.scale = 32;
  const Csr<double> a = make_dlr2<double>(cfg);
  exec::Engine<double> eng(small_c2050());
  const gpusim::DeviceRuntime& dev = *eng.transfers()->device();
  EXPECT_THROW(eng.bind("gpusim", a, "ellpack_r"), Error);
  EXPECT_EQ(dev.allocated_bytes(), 0u);  // failed bind leaves no residue
  EXPECT_NO_THROW(eng.bind("gpusim", a, "pjds"));
}

TEST(ExecBackends, DestroyingABoundPlanFreesItsImage) {
  const Csr<double> a = test_matrix();
  exec::Engine<double> eng(small_c2050());
  const gpusim::DeviceRuntime& dev = *eng.transfers()->device();
  const auto plan = formats::registry<double>().build("pjds", a);
  {
    const auto bound = eng.bind_plan("gpusim", plan);
    EXPECT_EQ(dev.allocated_bytes(),
              plan->footprint().total_bytes(sizeof(double)));
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(ExecBackends, AutoSelectionIsDeterministicAndBindable) {
  const Csr<double> a = test_matrix();
  exec::Engine<double> eng;
  const exec::BackendChoice c1 = eng.select_backend(a);
  const exec::BackendChoice c2 = eng.select_backend(a);
  EXPECT_EQ(c1.chosen, c2.chosen);
  EXPECT_EQ(c1.host_seconds, c2.host_seconds);
  EXPECT_EQ(c1.gpusim_seconds, c2.gpusim_seconds);
  EXPECT_EQ(c1.hybrid_seconds, c2.hybrid_seconds);
  EXPECT_TRUE(exec::is_backend_name(c1.chosen));
  EXPECT_NE(c1.chosen, "auto");
  EXPECT_GT(c1.host_seconds, 0.0);
  EXPECT_GT(c1.gpusim_seconds, 0.0);
  EXPECT_GT(c1.hybrid_seconds, 0.0);
  // The empty matrix falls back to the host backend.
  EXPECT_EQ(eng.select_backend(0, 0, 0).chosen, "host");

  const std::vector<double> x = test_x(a.n_cols);
  const std::vector<double> ref = reference(a, x);
  const std::vector<double> y = product(eng, "auto", a, "csr", x);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i])));
}

TEST(ExecBackends, EveryDeviceLaunchLandsInTheLedger) {
  const Csr<double> a = test_matrix();
  const std::vector<double> x = test_x(a.n_cols);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));

  obs::reset_ledger();
  obs::set_ledger_enabled(true);
  exec::Engine<double> eng;
  const auto sim = eng.bind("gpusim", a, "pjds");
  sim->apply(std::span<const double>(x), std::span<double>(y));
  exec::LaunchOptions launch;
  launch.device_share = 0.5;
  const auto hyb = eng.bind("hybrid", a, "pjds", {}, launch);
  hyb->apply(std::span<const double>(x), std::span<double>(y));
  obs::set_ledger_enabled(false);

  bool saw_device = false, saw_pcie = false, saw_hybrid = false;
  for (const obs::EffRecord& r : obs::ledger_snapshot()) {
    if (r.lane == obs::RoofLane::device && r.phase == "launch")
      saw_device = true;
    if (r.lane == obs::RoofLane::pcie) saw_pcie = true;
    if (r.lane == obs::RoofLane::host && r.phase == "hybrid") {
      saw_hybrid = true;
      EXPECT_GT(r.predicted_s, 0.0);
      EXPECT_GT(r.bytes, 0.0);
    }
  }
  EXPECT_TRUE(saw_device);
  EXPECT_TRUE(saw_pcie);
  EXPECT_TRUE(saw_hybrid);
  obs::reset_ledger();
}

TEST(ExecBackends, SolverIteratesOnAnyBackend) {
  // The same SPD system solved through operators over every backend
  // must converge to the same solution.
  const auto a = std::make_shared<const Csr<double>>(
      make_banded<double>(400, 3));
  const std::vector<double> b(static_cast<std::size_t>(a->n_rows), 1.0);

  exec::Engine<double> eng;
  std::vector<std::vector<double>> solutions;
  for (const char* backend : {"host", "gpusim", "hybrid"}) {
    SCOPED_TRACE(backend);
    std::shared_ptr<exec::BoundSpmv<double>> bound =
        eng.bind(backend, *a, "sell_c_sigma");
    const solver::Operator<double> op = solver::make_operator(bound);
    std::vector<double> sol(b.size(), 0.0);
    const solver::CgResult r = solver::cg(
        op, std::span<const double>(b), std::span<double>(sol), 1e-10, 500);
    EXPECT_TRUE(r.converged);
    solutions.push_back(std::move(sol));
  }
  for (std::size_t k = 1; k < solutions.size(); ++k)
    for (std::size_t i = 0; i < solutions[0].size(); ++i)
      EXPECT_NEAR(solutions[k][i], solutions[0][i], 1e-9) << "row " << i;
}
