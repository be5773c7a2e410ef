// Roofline efficiency ledger: record folding and key algebra, the Eq. 1
// efficiency cross-check against perfmodel::evaluate (the EXPERIMENTS.md
// model-vs-sim deviation table), and the exporters (table / JSON /
// Prometheus gauges).
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/roofline.hpp"
#include "obs/trace_export.hpp"
#include "perfmodel/model_eval.hpp"
#include "sim_helpers.hpp"
#include "sparse/footprint.hpp"
#include "sparse/spmv_host.hpp"
#include "test_helpers.hpp"

namespace spmvm {
namespace {

/// Enable the ledger for one test, from a clean slate, restoring the
/// previous enable state on exit.
class ScopedLedger {
 public:
  explicit ScopedLedger(bool on = true) : prev_(obs::ledger_enabled()) {
    obs::reset_ledger();
    obs::set_ledger_enabled(on);
  }
  ~ScopedLedger() {
    obs::set_ledger_enabled(prev_);
    obs::reset_ledger();
  }

 private:
  bool prev_;
};

const obs::EffRecord* find_record(const std::vector<obs::EffRecord>& records,
                                  obs::RoofLane lane, const std::string& fmt,
                                  const std::string& phase) {
  for (const obs::EffRecord& r : records)
    if (r.lane == lane && r.format == fmt && r.phase == phase) return &r;
  return nullptr;
}

/// Minimal JSON structure scanner (see test_metrics_export).
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == '"')
      in_string = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']')
      if (--depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

// ---- roofline spec --------------------------------------------------------

TEST(Roofline, PredictedSecondsUsesLaneBandwidth) {
  obs::RooflineSpec spec;
  spec.bw_gbs[static_cast<int>(obs::RoofLane::net)] = 2.0;
  obs::WorkDesc w;
  w.bytes = 4'000'000'000ull;  // 4 GB over 2 GB/s -> 2 s
  EXPECT_DOUBLE_EQ(obs::predicted_seconds(spec, obs::RoofLane::net, w), 2.0);
}

TEST(Roofline, ExplicitPredictionWins) {
  obs::RooflineSpec spec;
  obs::WorkDesc w;
  w.bytes = 1'000'000'000ull;
  w.predicted_seconds = 0.125;
  EXPECT_DOUBLE_EQ(obs::predicted_seconds(spec, obs::RoofLane::host, w),
                   0.125);
}

TEST(Roofline, NoWorkMeansNoPrediction) {
  EXPECT_DOUBLE_EQ(
      obs::predicted_seconds(obs::RooflineSpec{}, obs::RoofLane::host,
                             obs::WorkDesc{}),
      0.0);
}

// ---- record folding -------------------------------------------------------

TEST(Ledger, DisabledRecordsNothing) {
  ScopedLedger led(false);
  obs::WorkDesc w;
  w.bytes = 100;
  w.predicted_seconds = 1e-3;
  obs::ledger_record(obs::RoofLane::host, "off", "spmv", 2e-3, w);
  obs::ledger_residual("off", 1, 0.5);
  EXPECT_TRUE(obs::ledger_snapshot().empty());
  EXPECT_TRUE(obs::residual_series().empty());
}

TEST(Ledger, HostKernelPopulatesRecord) {
  ScopedLedger led;
  const auto a = testing::random_csr<double>(64, 64, 1, 8, 7);
  std::vector<double> x(64, 1.0), y(64, 0.0);
  constexpr int kCalls = 3;
  for (int i = 0; i < kCalls; ++i)
    spmv(a, std::span<const double>(x), std::span<double>(y));

  const auto records = obs::ledger_snapshot();
  const obs::EffRecord* r =
      find_record(records, obs::RoofLane::host, "csr", "spmv");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(r->key(), "host/csr/spmv");

  // Byte accounting matches the kernel wrappers: stored footprint plus
  // one RHS read and one LHS write per call.
  const double bytes_per_call =
      static_cast<double>(footprint(a).total_bytes(sizeof(double))) +
      static_cast<double>(a.n_rows + a.n_cols) * sizeof(double);
  EXPECT_DOUBLE_EQ(r->bytes, kCalls * bytes_per_call);
  EXPECT_DOUBLE_EQ(r->flops, kCalls * 2.0 * static_cast<double>(a.nnz()));
  EXPECT_NEAR(r->mean_alpha(),
              static_cast<double>(a.n_rows) / static_cast<double>(a.nnz()),
              1e-12);
  EXPECT_GT(r->seconds, 0.0);
  EXPECT_GT(r->predicted_s, 0.0);
  EXPECT_GT(r->efficiency(), 0.0);
  EXPECT_GT(r->achieved_gbs(), 0.0);
}

TEST(Ledger, ResetClearsRecordsAndResiduals) {
  ScopedLedger led;
  obs::WorkDesc w;
  w.bytes = 10;
  obs::ledger_record(obs::RoofLane::net, "x", "y", 1e-3, w);
  obs::ledger_residual("cg", 1, 0.25);
  EXPECT_FALSE(obs::ledger_snapshot().empty());
  EXPECT_FALSE(obs::residual_series().empty());
  obs::reset_ledger();
  EXPECT_TRUE(obs::ledger_snapshot().empty());
  EXPECT_TRUE(obs::residual_series().empty());
}

// ---- Eq. 1 cross-check ----------------------------------------------------

// The ledger's device-lane efficiency must reproduce the perfmodel
// model-vs-sim table: simulate() records predicted = flops / gflops_model
// with gflops_model evaluated at the simulator's measured alpha — exactly
// perfmodel::evaluate's algebra — so efficiency == gflops_sim /
// gflops_model and the EXPERIMENTS.md deviation is 100·(1/eff - 1).
TEST(Ledger, GpusimEfficiencyMatchesPerfmodel) {
  ScopedLedger led;
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto a = testing::random_csr<double>(512, 512, 1, 64, 3);

  const perfmodel::ModelVsSim m = perfmodel::evaluate(
      dev, a, testing::simulate_named(dev, a, "pjds"), /*ecc=*/true);

  const auto records = obs::ledger_snapshot();
  const obs::EffRecord* r =
      find_record(records, obs::RoofLane::device, "pjds", "spmv");
  ASSERT_NE(r, nullptr);
  ASSERT_GT(m.gflops_model, 0.0);
  const double expected_eff = m.gflops_sim / m.gflops_model;
  EXPECT_NEAR(r->efficiency(), expected_eff, 1e-9 * expected_eff + 1e-12);
  const double deviation_from_ledger = 100.0 * (1.0 / r->efficiency() - 1.0);
  EXPECT_NEAR(deviation_from_ledger, m.model_vs_sim_pct(),
              1e-6 * std::abs(m.model_vs_sim_pct()) + 1e-9);
  EXPECT_NEAR(r->mean_alpha(), m.alpha_measured, 1e-12);
}

// ---- exporters ------------------------------------------------------------

TEST(Ledger, RooflineJsonIsSchemaVersionedAndWellFormed) {
  ScopedLedger led;
  obs::WorkDesc w;
  w.bytes = 4096;
  w.flops = 1024;
  w.predicted_seconds = 1e-6;
  obs::ledger_record(obs::RoofLane::device, "pjds", "spmv", 2e-6, w);
  obs::ledger_residual("cg", 1, 0.5);
  obs::ledger_residual("cg", 2, 0.25);

  const std::string json = obs::roofline_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("\"pjds\""), std::string::npos);
  EXPECT_NE(json.find("\"residuals\""), std::string::npos);
  EXPECT_NE(json.find("\"solver\": \"cg\""), std::string::npos);
  // Metadata carries the machine fingerprint key/value pairs.
  EXPECT_NE(json.find("\"metadata\": {"), std::string::npos);
}

TEST(Ledger, RooflineTableListsRecords) {
  ScopedLedger led;
  obs::WorkDesc w;
  w.bytes = 4096;
  w.predicted_seconds = 1e-6;
  obs::ledger_record(obs::RoofLane::pcie, "vector", "transfer", 2e-6, w);
  const std::string table = obs::roofline_table();
  EXPECT_NE(table.find("pcie"), std::string::npos);
  EXPECT_NE(table.find("vector"), std::string::npos);
  EXPECT_NE(table.find("transfer"), std::string::npos);
}

TEST(Ledger, ResidualSeriesKeepsOrderAndTimestamps) {
  ScopedLedger led;
  obs::ledger_residual("bicgstab", 1, 1.0);
  obs::ledger_residual("bicgstab", 2, 0.1);
  const auto series = obs::residual_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].solver, "bicgstab");
  EXPECT_EQ(series[0].iteration, 1u);
  EXPECT_LE(series[0].t_s, series[1].t_s);
}

}  // namespace
}  // namespace spmvm
