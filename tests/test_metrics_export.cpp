// Metrics registry + exporters: counter/gauge/histogram semantics,
// Chrome-trace JSON well-formedness, Prometheus text format, bench.json
// reports, and an end-to-end traced solver + distributed spMVM run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/comm_plan.hpp"
#include "matgen/generators.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "solver/cg.hpp"
#include "solver/kernels.hpp"

namespace spmvm {
namespace {

// ---- helpers --------------------------------------------------------------

/// Minimal JSON structure scanner: balanced braces/brackets outside
/// strings, no trailing garbage. Catches malformed emitter output
/// without a full parser.
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

class ScopedTracing {
 public:
  explicit ScopedTracing(bool on) : prev_(obs::tracing_enabled()) {
    obs::clear_trace();
    obs::set_tracing(on);
  }
  ~ScopedTracing() {
    obs::set_tracing(prev_);
    obs::clear_trace();
  }

 private:
  bool prev_;
};

// ---- registry semantics ---------------------------------------------------

TEST(Metrics, CounterAccumulatesAndResets) {
  auto& c = obs::counter("test.counter_a");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&obs::counter("test.counter_a"), &c);  // stable reference
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  auto& g = obs::gauge("test.gauge_a");
  g.set(1.5);
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(Metrics, HistogramObservesDistribution) {
  auto& h = obs::histogram("test.hist_a");
  h.reset();
  h.observe(3);
  h.observe(3);
  h.observe(7);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.total(), 3u);
  EXPECT_EQ(snap.count(3), 2u);
  EXPECT_EQ(snap.min_value(), 3);
  EXPECT_EQ(snap.max_value(), 7);
}

TEST(Metrics, SnapshotIsSortedAndTyped) {
  obs::counter("test.snap_counter").add(5);
  obs::gauge("test.snap_gauge").set(2.0);
  obs::histogram("test.snap_hist").observe(1);
  const auto samples = obs::metrics_snapshot();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LE(samples[i - 1].name, samples[i].name);
  bool saw_counter = false;
  for (const auto& s : samples) {
    if (s.name == "test.snap_counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, obs::MetricKind::counter);
      EXPECT_GE(s.value, 5.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(Metrics, LatencyHistogramBucketsCountAndExtrema) {
  auto& l = obs::latency_histogram("test.lat_a");
  l.reset();
  EXPECT_EQ(&obs::latency_histogram("test.lat_a"), &l);  // stable reference
  l.observe_us(1.0);
  l.observe_us(3.0);
  l.observe_us(100.0);
  l.observe_us(1000.0);
  l.observe_us(1e6);
  const obs::LatencySnapshot s = l.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum_us, 1.0 + 3.0 + 100.0 + 1000.0 + 1e6);
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.max_us, 1e6);
  // Power-of-two bucket bounds: 3 -> 4, 100 -> 128, 1000 -> 1024.
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[7], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_EQ(s.buckets[20], 1u);
  // Nearest-rank quantiles report the covering bucket's upper bound.
  EXPECT_DOUBLE_EQ(s.quantile_us(0.5), 128.0);
  EXPECT_DOUBLE_EQ(s.quantile_us(0.99), 1048576.0);
}

TEST(Metrics, LatencyHistogramResetAndEdgeCases) {
  auto& l = obs::latency_histogram("test.lat_b");
  l.reset();
  const obs::LatencySnapshot empty = l.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.min_us, 0.0);  // no sentinel leak when empty
  EXPECT_DOUBLE_EQ(empty.quantile_us(0.5), 0.0);
  l.observe_us(-5.0);  // clamped to zero, lands in the first bucket
  l.observe_seconds(1e-3);  // 1000 us
  obs::LatencySnapshot s = l.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(s.min_us, 0.0);
  l.reset();
  EXPECT_EQ(l.snapshot().count, 0u);
  // Overflow magnitudes saturate into the last bucket.
  l.observe_us(1e30);
  s = l.snapshot();
  EXPECT_EQ(s.buckets[obs::kLatencyBuckets - 1], 1u);
  obs::reset_metrics();
  EXPECT_EQ(l.snapshot().count, 0u);  // registry reset covers latencies
}

TEST(Metrics, LatencyHistogramIsThreadSafe) {
  auto& l = obs::latency_histogram("test.lat_mt");
  l.reset();
  constexpr int kThreads = 4;
  constexpr int kEach = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i)
        l.observe_us(static_cast<double>(1 + (t * kEach + i) % 500));
    });
  for (auto& t : ts) t.join();
  const obs::LatencySnapshot s = l.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kEach));
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_DOUBLE_EQ(s.min_us, 1.0);
  EXPECT_DOUBLE_EQ(s.max_us, 500.0);
}

// ---- Prometheus text ------------------------------------------------------

TEST(PrometheusExport, FormatsCounterGaugeHistogram) {
  std::vector<obs::MetricSample> samples;
  samples.push_back({"kernel.bytes", obs::MetricKind::counter, 1024.0, {}, {}});
  samples.push_back({"pool.workers", obs::MetricKind::gauge, 7.0, {}, {}});
  Histogram h;
  h.add(2, 3);  // three observations of value 2
  samples.push_back({"row.len", obs::MetricKind::histogram, 3.0, h, {}});

  const std::string text = obs::prometheus_text(samples);
  EXPECT_NE(text.find("# TYPE spmvm_kernel_bytes counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_kernel_bytes 1024\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spmvm_pool_workers gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_pool_workers 7\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_row_len_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_row_len_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_row_len_min 2\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_row_len_max 2\n"), std::string::npos);
  // Every non-comment line is "name value".
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::string line = text.substr(at, nl - at);
    at = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("spmvm_", 0), 0u) << line;
  }
}

TEST(PrometheusExport, LabeledCountersUseLabelSyntax) {
  std::vector<obs::MetricSample> samples;
  samples.push_back(
      {"comm.bytes_sent{peer=0}", obs::MetricKind::counter, 128.0, {}, {}});
  samples.push_back(
      {"comm.bytes_sent{peer=1}", obs::MetricKind::counter, 256.0, {}, {}});
  samples.push_back(
      {"comm.bytes_recv{peer=0}", obs::MetricKind::counter, 64.0, {}, {}});

  const std::string text = obs::prometheus_text(samples);
  EXPECT_NE(text.find("spmvm_comm_bytes_sent{peer=\"0\"} 128\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spmvm_comm_bytes_sent{peer=\"1\"} 256\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_comm_bytes_recv{peer=\"0\"} 64\n"),
            std::string::npos);
  // One TYPE header per base name, not one per labeled sample.
  std::size_t type_headers = 0, at = 0;
  const std::string needle = "# TYPE spmvm_comm_bytes_sent counter\n";
  while ((at = text.find(needle, at)) != std::string::npos) {
    ++type_headers;
    at += needle.size();
  }
  EXPECT_EQ(type_headers, 1u);
}

TEST(PrometheusExport, LiveRegistrySnapshotSerializes) {
  obs::counter("test.prom_live").add(1);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("spmvm_test_prom_live"), std::string::npos);
}

TEST(PrometheusExport, HelpLinesPrecedeTypeWhenRegistered) {
  obs::set_metric_help("test.documented", "What it counts\nsecond line \\x");
  std::vector<obs::MetricSample> samples;
  samples.push_back({"test.documented", obs::MetricKind::counter, 1.0, {}, {}});
  samples.push_back({"test.undocumented", obs::MetricKind::counter, 2.0, {}, {}});

  const std::string text = obs::prometheus_text(samples);
  // HELP escaping: backslash and newline only (quotes stay literal).
  const std::size_t help = text.find(
      "# HELP spmvm_test_documented What it counts\\nsecond line \\\\x\n");
  const std::size_t type =
      text.find("# TYPE spmvm_test_documented counter\n");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);
  EXPECT_EQ(text.find("# HELP spmvm_test_undocumented"), std::string::npos);
}

TEST(PrometheusExport, HelpFallsBackToBaseNameForLabeledMetrics) {
  obs::set_metric_help("test.labeled_help", "per-peer traffic");
  std::vector<obs::MetricSample> samples;
  samples.push_back(
      {"test.labeled_help{peer=3}", obs::MetricKind::counter, 8.0, {}, {}});
  const std::string text = obs::prometheus_text(samples);
  EXPECT_NE(text.find("# HELP spmvm_test_labeled_help per-peer traffic\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusExport, HistogramsExposeExactQuantiles) {
  // 100 observations of 1..100: nearest-rank p50 = 50, p95 = 95, p99 = 99.
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.add(v);
  std::vector<obs::MetricSample> samples;
  samples.push_back({"test.quant", obs::MetricKind::histogram, 100.0, h, {}});

  const std::string text = obs::prometheus_text(samples);
  EXPECT_NE(text.find("spmvm_test_quant{quantile=\"0.5\"} 50\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spmvm_test_quant{quantile=\"0.95\"} 95\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_test_quant{quantile=\"0.99\"} 99\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_test_quant_count 100\n"), std::string::npos);
}

TEST(PrometheusExport, LatencyHistogramsExportAsSummaries) {
  auto& l = obs::latency_histogram("test.lat_prom");
  l.reset();
  for (int i = 0; i < 10; ++i) l.observe_us(100.0);  // bucket bound 128
  obs::MetricSample s;
  s.name = "test.lat_prom";
  s.kind = obs::MetricKind::latency;
  s.lat = l.snapshot();
  s.value = static_cast<double>(s.lat.count);
  const std::string text = obs::prometheus_text({s});
  EXPECT_NE(text.find("# TYPE spmvm_test_lat_prom summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spmvm_test_lat_prom{quantile=\"0.5\"} 128\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_test_lat_prom{quantile=\"0.99\"} 128\n"),
            std::string::npos);
  EXPECT_NE(text.find("spmvm_test_lat_prom_count 10\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_test_lat_prom_sum 1000\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_test_lat_prom_min 100\n"), std::string::npos);
  EXPECT_NE(text.find("spmvm_test_lat_prom_max 100\n"), std::string::npos);
  l.reset();
}

TEST(PrometheusExport, LabeledHistogramQuantilesMergeLabelSets) {
  Histogram h;
  h.add(4, 2);
  std::vector<obs::MetricSample> samples;
  samples.push_back(
      {"test.lq{format=pjds}", obs::MetricKind::histogram, 2.0, h, {}});
  const std::string text = obs::prometheus_text(samples);
  // The quantile label joins the existing set inside one brace pair.
  EXPECT_NE(
      text.find("spmvm_test_lq{format=\"pjds\",quantile=\"0.5\"} 4\n"),
      std::string::npos)
      << text;
}

TEST(PrometheusExport, LabelValuesAreEscaped) {
  std::vector<obs::MetricSample> samples;
  samples.push_back({"test.esc{path=a\\b\"c\nd}",
                     obs::MetricKind::counter, 1.0, {}, {}});
  const std::string text = obs::prometheus_text(samples);
  // Exposition format: backslash, quote and newline escaped in values.
  EXPECT_NE(text.find("spmvm_test_esc{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(Metrics, ResetAllClearsGaugesToo) {
  obs::counter("test.reset_all_counter").add(5);
  obs::gauge("test.reset_all_gauge").set(3.5);
  obs::histogram("test.reset_all_hist").observe(2);

  // reset_metrics keeps gauges (same-workload repetition semantics) ...
  obs::reset_metrics();
  EXPECT_EQ(obs::counter("test.reset_all_counter").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reset_all_gauge").value(), 3.5);

  // ... reset_all() zeroes gauges as well (workload-switch semantics).
  obs::gauge("test.reset_all_gauge").set(3.5);
  obs::counter("test.reset_all_counter").add(7);
  obs::reset_all();
  EXPECT_EQ(obs::counter("test.reset_all_counter").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reset_all_gauge").value(), 0.0);
  EXPECT_EQ(obs::histogram("test.reset_all_hist").snapshot().total(), 0u);
}

// ---- Chrome trace JSON ----------------------------------------------------

TEST(ChromeExport, EmitsWellFormedJsonWithThreadsAndArgs) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent e;
  e.name = "kernel/pjds";
  e.t0_ns = 1500;
  e.t1_ns = 4500;
  e.tid = 0;
  e.depth = 1;
  e.bytes = 3000;  // 3000 bytes / 3000 ns = 1 GB/s
  e.arg_name[0] = "alpha";
  e.arg_value[0] = 1.25;
  e.n_args = 1;
  events.push_back(e);
  const std::vector<obs::TraceThread> threads = {{0, "main \"thread\""}};

  const std::string json = obs::chrome_trace_json(events, threads);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("main \\\"thread\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"name\":\"kernel/pjds\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":3000"), std::string::npos);
  EXPECT_NE(json.find("\"GB/s\":1"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":1.25"), std::string::npos);
}

TEST(ChromeExport, EmptyTraceIsValid) {
  const std::string json = obs::chrome_trace_json({}, {});
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

// ---- bench.json -----------------------------------------------------------

TEST(BenchJson, SummarizesSamplesAndSerializes) {
  const double samples[] = {3e-3, 1e-3, 2e-3};
  obs::BenchReport report;
  report.binary = "test_bench";
  report.metadata.emplace_back("threads", "4");
  report.entries.push_back(
      obs::summarize_samples("case/a", samples, {{"GB/s", 12.5}}));

  const auto& e = report.entries[0];
  EXPECT_EQ(e.repetitions, 3);
  EXPECT_DOUBLE_EQ(e.median_seconds, 2e-3);
  EXPECT_DOUBLE_EQ(e.min_seconds, 1e-3);
  EXPECT_DOUBLE_EQ(e.max_seconds, 3e-3);
  EXPECT_GT(e.stddev_seconds, 0.0);

  const std::string json = report.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"binary\":\"test_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\":\"4\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"case/a\""), std::string::npos);
  EXPECT_NE(json.find("\"GB/s\":12.5"), std::string::npos);
}

// ---- end-to-end -----------------------------------------------------------

TEST(TraceIntegration, SolverAndDistRunExportAllLayers) {
  ScopedTracing on(true);

  // A threaded CG solve: spans from the solver loop, the spMVM kernel
  // and the thread pool all land in the trace.
  {
    const auto a = std::make_shared<const Csr<double>>(
        make_poisson2d<double>(48, 48));
    const auto op = solver::make_operator<double>(a, 4);
    std::vector<double> b(static_cast<std::size_t>(a->n_rows), 1.0);
    std::vector<double> x(b.size(), 0.0);
    const auto r = solver::cg(op, std::span<const double>(b),
                              std::span<double>(x), 1e-8, 200);
    EXPECT_TRUE(r.converged);
  }

  // One distributed power iteration in task mode: comm-phase spans from
  // the persistent halo-exchange plan.
  {
    const auto a = make_poisson2d<double>(24, 24);
    const auto part = dist::partition_balanced_nnz(a, 2);
    msg::Runtime::run(2, [&](msg::Comm& comm) {
      obs::set_thread_name("rank " + std::to_string(comm.rank()));
      const auto d = dist::distribute(a, part, comm.rank());
      const index_t row0 = part.begin(comm.rank());
      std::vector<double> x0(
          static_cast<std::size_t>(part.end(comm.rank()) - row0), 1.0);
      dist::run_power_iterations(comm, d, std::span<const double>(x0), 2,
                                 dist::CommScheme::task_mode);
    });
  }

  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json));
  for (const char* span_name :
       {"solver/cg", "solver/cg/iteration", "kernel/csr", "pool/part",
        "dist/plan_task", "comm/plan_gather", "comm/plan_waitall",
        "kernel/local"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span_name) + "\""),
              std::string::npos)
        << "missing span: " << span_name;
  }
  // The solver iteration spans carry residuals.
  EXPECT_NE(json.find("\"residual\":"), std::string::npos);
  // Actor metadata from set_thread_name survives into the export.
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);

  // Always-on metrics observed the same run.
  EXPECT_GT(obs::counter("kernel.calls").value(), 0u);
  EXPECT_GT(obs::counter("kernel.bytes").value(), 0u);
  EXPECT_GT(obs::counter("solver.iterations").value(), 0u);
  EXPECT_GT(obs::counter("comm.halo_bytes").value(), 0u);
  EXPECT_GT(obs::counter("pool.tasks").value(), 0u);
}

}  // namespace
}  // namespace spmvm
