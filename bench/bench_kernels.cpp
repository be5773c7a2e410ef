// google-benchmark microbenchmarks of the *host* spMVM kernels for every
// storage format (the CPU reference implementations behind the library).
//
// The per-format benchmarks are registered dynamically from the format
// registry, so adding a format to formats/registry.cpp adds its
// spmv/<name> rows here with no bench change. `--list-formats` prints
// the registry; `--format=<name>` restricts the run to one format.
// `--backend=<name>` launches the per-format sweep through the exec
// engine's host, gpusim, hybrid, or auto backend (`--list-backends`
// prints them); the backend is recorded in the bench.json metadata.
// `--matrix=<NAME>/<scale>` picks the suite matrix (default sAMG/128).
//
// `spmmv/<name>/<k>/<threads>` runs one k-wide block product through
// each plan: a fused kernel for formats with native_spmmv, k
// single-vector products plus the de-/re-interleave otherwise. Its GB/s
// counts the matrix once, as a fused kernel streams it.
//
// Each benchmark reports GF/s (2·nnz flops per product) and the
// effective memory bandwidth GB/s derived from the format's device
// footprint (the plan's accounting) plus one RHS read and one LHS
// write — the number to compare against the machine's STREAM limit,
// since spMVM is bandwidth-bound (Eq. 1).
// Thread counts are swept via ->Arg(n).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/dispatch.hpp"
#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "matgen/suite.hpp"
#include "obs/report.hpp"

using namespace spmvm;

namespace {

/// Execution backend of the per-format sweep (--backend, default host).
std::string g_backend = "host";
/// Suite matrix of every benchmark (--matrix=<NAME>/<scale>).
std::string g_matrix = "sAMG";
double g_scale = 128.0;

const Csr<double>& test_matrix() {
  static const Csr<double> a = make_named(g_matrix, g_scale).matrix;
  return a;
}

/// Parse "<NAME>/<scale>" into g_matrix / g_scale.
bool parse_matrix(const std::string& arg) {
  const auto slash = arg.find('/');
  if (slash == std::string::npos || slash == 0) return false;
  char* end = nullptr;
  const double scale = std::strtod(arg.c_str() + slash + 1, &end);
  if (end == arg.c_str() + slash + 1 || *end != '\0' || !(scale > 0.0))
    return false;
  g_matrix = arg.substr(0, slash);
  g_scale = scale;
  return true;
}

struct Vectors {
  std::vector<double> x;
  std::vector<double> y;
  explicit Vectors(const Csr<double>& a)
      : x(static_cast<std::size_t>(a.n_cols), 1.0),
        y(static_cast<std::size_t>(a.n_rows)) {}
};

/// GF/s from true non-zeros; GB/s from the bytes one product streams:
/// the stored matrix (values + indices + aux arrays) plus RHS and LHS.
void report(benchmark::State& state, offset_t nnz, std::size_t bytes) {
  const auto it = static_cast<double>(state.iterations());
  state.counters["GF/s"] =
      benchmark::Counter(2.0 * static_cast<double>(nnz) * it,
                         benchmark::Counter::kIsRate,
                         benchmark::Counter::kIs1000);
  state.counters["GB/s"] =
      benchmark::Counter(static_cast<double>(bytes) * it,
                         benchmark::Counter::kIsRate,
                         benchmark::Counter::kIs1000);
}

std::size_t vector_bytes(const Csr<double>& a) {
  return (static_cast<std::size_t>(a.n_cols) +
          static_cast<std::size_t>(a.n_rows)) *
         sizeof(double);
}

std::size_t product_bytes(const formats::FormatPlan<double>& plan) {
  return plan.footprint().total_bytes(sizeof(double)) +
         vector_bytes(test_matrix());
}

using PlanPtr = std::shared_ptr<const formats::FormatPlan<double>>;

// ---- registry sweep: y = A·x through every plan --------------------------

void bm_plan_spmv(benchmark::State& state, const PlanPtr& plan) {
  const auto& a = test_matrix();
  exec::LaunchOptions launch;
  launch.n_threads = static_cast<int>(state.range(0));
  launch.basis = exec::Basis::plan;
  // The hybrid backend re-splits the CSR rows; the single-target
  // backends reuse the prebuilt plan outright.
  auto& eng = exec::engine<double>();
  const auto bound =
      g_backend == "hybrid"
          ? eng.bind(g_backend, a, plan->info().name, {}, launch)
          : eng.bind_plan(g_backend, plan, launch);
  Vectors v(a);
  for (auto _ : state) {
    bound->apply(std::span<const double>(v.x), std::span<double>(v.y));
    benchmark::DoNotOptimize(v.y.data());
  }
  report(state, plan->nnz(), product_bytes(*plan));
}

// ---- pJDS block_rows sweep and build cost --------------------------------

void bm_pjds_block_rows(benchmark::State& state) {
  const auto& a = test_matrix();
  formats::PlanOptions opt;
  opt.chunk = static_cast<index_t>(state.range(0));
  const auto plan = formats::registry<double>().build("pjds", a, opt);
  Vectors v(a);
  for (auto _ : state) {
    exec::plan_spmv(*plan, std::span<const double>(v.x),
                    std::span<double>(v.y));
    benchmark::DoNotOptimize(v.y.data());
  }
  report(state, plan->nnz(), product_bytes(*plan));
}

void bm_pjds_build(benchmark::State& state) {
  const auto& a = test_matrix();
  for (auto _ : state) {
    auto plan = formats::registry<double>().build("pjds", a);
    benchmark::DoNotOptimize(plan.get());
  }
  state.counters["nnz/s"] = benchmark::Counter(
      static_cast<double>(a.nnz()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

// ---- multi-vector: Y = A·X through every plan -----------------------------

void bm_plan_spmmv(benchmark::State& state, const PlanPtr& plan) {
  const auto& a = test_matrix();
  const int k = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::vector<double> x(static_cast<std::size_t>(a.n_cols) * k, 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows) * k);
  for (auto _ : state) {
    plan->spmmv(std::span<const double>(x), std::span<double>(y), k, threads);
    benchmark::DoNotOptimize(y.data());
  }
  report(state, plan->nnz() * k,
         product_bytes(*plan) +
             static_cast<std::size_t>(k - 1) * vector_bytes(a));
}

/// Register everything, honoring the --format restriction. Plans are
/// built once up front and shared by the registered closures.
void register_benchmarks(const std::string& only_format) {
  const auto& a = test_matrix();
  const auto& reg = formats::registry<double>();
  const auto want = [&](std::string_view name) {
    return only_format.empty() || only_format == name;
  };

  for (const formats::FormatInfo& info : reg.list()) {
    // `auto` probes every other format at build time; keep it out of the
    // default sweep but allow --format=auto explicitly.
    if (std::string_view(info.name) == "auto" && only_format != "auto")
      continue;
    if (!want(info.name)) continue;
    const PlanPtr plan = reg.build(info.name, a);
    benchmark::RegisterBenchmark(
        (std::string("spmv/") + info.name).c_str(),
        [plan](benchmark::State& s) { bm_plan_spmv(s, plan); })
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8);
    benchmark::RegisterBenchmark(
        (std::string("spmmv/") + info.name).c_str(),
        [plan](benchmark::State& s) { bm_plan_spmmv(s, plan); })
        ->Args({1, 1})
        ->Args({4, 1})
        ->Args({8, 1})
        ->Args({4, 4});
  }

  if (want("pjds")) {
    benchmark::RegisterBenchmark("spmv/pjds/block_rows", bm_pjds_block_rows)
        ->Arg(1)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark("build/pjds", bm_pjds_build);
  }
}

/// Console output plus capture of every non-aggregate run for the
/// bench.json report: per-iteration real time becomes the sample, rate
/// counters (GF/s, GB/s, nnz/s) are de-rated back to per-second values.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      // run.counters are already finalized (kIsRate already divided
      // by the accumulated real time), so values pass through as-is.
      std::vector<std::pair<std::string, double>> counters;
      for (const auto& [cname, c] : run.counters)
        counters.emplace_back(cname, c.value);
      entries.push_back(obs::summarize_samples(
          run.benchmark_name(),
          std::vector<double>{run.real_accumulated_time / iters},
          std::move(counters)));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<obs::BenchEntry> entries;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark parses the rest.
  std::string json_path, only_format, matrix_arg, err;
  if (!obs::consume_json_flag(&argc, argv, &json_path, &err) ||
      !obs::consume_value_flag(&argc, argv, "--format", &only_format, &err) ||
      !obs::consume_value_flag(&argc, argv, "--matrix", &matrix_arg, &err) ||
      !obs::consume_backend_flag(&argc, argv, &g_backend, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  if (!matrix_arg.empty() && !parse_matrix(matrix_arg)) {
    std::fprintf(stderr, "error: --matrix wants <NAME>/<scale>, got '%s'\n",
                 matrix_arg.c_str());
    return 1;
  }
  if (obs::consume_switch(&argc, argv, "--list-formats")) {
    for (const auto& info : formats::registry<double>().list())
      std::printf("%-12s  %s\n", info.name, info.description);
    return 0;
  }
  if (obs::consume_switch(&argc, argv, "--list-backends")) {
    for (const exec::BackendInfo& b : exec::engine<double>().list())
      std::printf("%-8s  %s\n", b.name, b.description);
    std::printf("%-8s  %s\n", "auto",
                "pick per matrix with the Eq. 1/Eq. 2 balance model");
    return 0;
  }
  if (!only_format.empty() &&
      formats::registry<double>().find(only_format) == nullptr) {
    std::fprintf(stderr,
                 "error: unknown format '%s' (try --list-formats)\n",
                 only_format.c_str());
    return 1;
  }

  register_benchmarks(only_format);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    obs::BenchReport report;
    report.binary = "bench_kernels";
    report.metadata.emplace_back(
        "hardware_threads",
        std::to_string(std::thread::hardware_concurrency()));
    char scale[32];
    std::snprintf(scale, sizeof scale, "%g", g_scale);
    report.metadata.emplace_back("matrix", g_matrix);
    report.metadata.emplace_back("scale", scale);
    report.metadata.emplace_back("backend", g_backend);
    if (!only_format.empty())
      report.metadata.emplace_back("format", only_format);
    report.entries = std::move(reporter.entries);
    if (!report.write(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
