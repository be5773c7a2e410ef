#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "fold.hpp"
#include "matgen/suite.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "regime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

spmvm::Csr<double> generate(const std::string& name, double scale,
                            std::uint64_t seed, Report& report) {
  const auto t0 = Clock::now();
  spmvm::Csr<double> a = spmvm::make_named(name, scale, seed).matrix;
  report.set("matgen.generate_s", report.get("matgen.generate_s") +
                                      seconds_between(t0, Clock::now()));
  return a;
}

bool more_setups(const std::vector<double>& times) {
  const auto n = static_cast<int>(times.size());
  return n < kMinSetups ||
         (n < kMaxSetups &&
          std::accumulate(times.begin(), times.end(), 0.0) < kSetupBudgetS);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  spmvm::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void note_footprint(Report& report, const std::string& prefix,
                    const spmvm::Csr<double>& a) {
  const Regime r = detect_regime();
  const double bytes = static_cast<double>(a.bytes());
  report.note(prefix + ".rows", static_cast<double>(a.n_rows));
  report.note(prefix + ".nnz", static_cast<double>(a.nnz()));
  report.note(prefix + ".csr_mib", bytes / (1024.0 * 1024.0));
  if (r.l2_bytes > 0)
    report.note(prefix + ".vs_l2", bytes / static_cast<double>(r.l2_bytes));
  if (r.l3_bytes > 0)
    report.note(prefix + ".vs_l3", bytes / static_cast<double>(r.l3_bytes));
}

void finish_trace(const RunArgs& args, Report& report,
                  const std::vector<double>& bench_walls) {
  namespace obs = spmvm::obs;
  const auto events = obs::collect();
  std::set<std::uint32_t> bench_threads;
  for (const auto& e : events)
    if (layer_of(e.name) == "bench") bench_threads.insert(e.tid);
  const Fold fold = fold_self_times(events, bench_threads);

  double explained_s = 0.0;
  std::fprintf(stderr, "traced accounting (benchmark threads: %zu)\n",
               bench_threads.size());
  for (const auto& layer : bench_thread_layers()) {
    const auto it = fold.bench_self_s.find(layer);
    const double s = it == fold.bench_self_s.end() ? 0.0 : it->second;
    explained_s += s;
    report.set("self_ms." + layer, s * 1e3);
    std::fprintf(stderr, "  self   %-8s %12.3f ms\n", layer.c_str(), s * 1e3);
  }
  for (const auto& layer : worker_layers()) {
    const auto it = fold.worker_self_s.find(layer);
    const double s = it == fold.worker_self_s.end() ? 0.0 : it->second;
    report.set("worker_ms." + layer, s * 1e3);
    std::fprintf(stderr, "  worker %-8s %12.3f ms\n", layer.c_str(), s * 1e3);
  }
  const double wall_s =
      std::accumulate(bench_walls.begin(), bench_walls.end(), 0.0);
  report.set("trace.wall_ms", wall_s * 1e3);
  report.set("trace.unexplained_ms", (wall_s - explained_s) * 1e3);
  std::fprintf(stderr,
               "  benchmark-thread wall %.3f ms = self %.3f ms + unexplained %.3f ms\n",
               wall_s * 1e3, explained_s * 1e3, (wall_s - explained_s) * 1e3);
  report.note("trace.spans", static_cast<double>(events.size()));

  const auto t0 = Clock::now();
  const std::string json = obs::chrome_trace_json(events, obs::trace_threads());
  if (!args.trace_path.empty()) {
    std::ofstream out(args.trace_path);
    out << json;
    if (!out) throw std::runtime_error("cannot write " + args.trace_path);
    report.note("trace.path", args.trace_path);
  }
  report.set("obs.export_ms", seconds_between(t0, Clock::now()) * 1e3);
  obs::clear_trace();
}

}  // namespace perfbench
