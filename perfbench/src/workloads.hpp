// The three workloads and the helpers they share.
//
//   sweep  single-thread y = A·x through the host backend, every registry
//          format plus `auto`, on DLR1, HMEp and sAMG scaled past 32 MiB;
//   serve  an open Poisson loop against serve::Server at a nominal and an
//          overload rate;
//   halo   distributed power iteration on HMEp over 2 msg ranks in task
//          mode, driving dist::CommPlan::spmv and Comm::allreduce_sum.
//
// Each fills a Report with its end-to-end metrics (trace off) or its
// per-layer metrics (trace on: an untraced pass for the layer timings,
// then a traced replay of the same work for self times and overhead).
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <set>
#include <string>
#include <vector>

#include "report.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run's Chrome trace goes (empty: not written).
  std::string trace_path;
};

void run_sweep(const RunArgs& args, Report& report);
void run_serve(const RunArgs& args, Report& report);
void run_halo(const RunArgs& args, Report& report);

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used so far by all threads of the process, including
/// threads that have ended. setup_s is a CPU time: a set-up that starts
/// threads and meets them at barriers (halo: +80 %) or a long
/// single-thread one (sweep: +20 %) took that much longer in wall time
/// whenever the hypervisor of a shared host stole vCPU time, and the
/// kernel leaves stolen time out of this clock. The wall time is noted
/// as setup_wall_s.
inline double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Set-ups per run: at least kMinSetups and until kSetupBudgetS has
/// passed, at most kMaxSetups. setup_s is their median; a set-up of tens
/// of milliseconds needs dozens to give a steady one. `times` are the
/// set-ups' CPU seconds.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 41;
inline constexpr double kSetupBudgetS = 2.0;

/// Whether another set-up should run after `times` (seconds each).
bool more_setups(const std::vector<double>& times);

/// Generate a paper matrix at `scale` from `seed`, timed into
/// matgen.generate_s (accumulated).
spmvm::Csr<double> generate(const std::string& name, double scale,
                            std::uint64_t seed, Report& report);

/// `n` uniform(-1, 1) values from a seeded stream.
std::vector<double> random_vector(std::size_t n, std::uint64_t seed);

/// Record the CSR image of `a` against the caches under
/// "<prefix>.csr_mib", "<prefix>.vs_l2" and "<prefix>.vs_l3".
void note_footprint(Report& report, const std::string& prefix,
                    const spmvm::Csr<double>& a);

/// Shared tail of every traced pass: fold the collected spans into
/// self_ms.* / worker_ms.* (benchmark threads = those that recorded a
/// pb/bench span), report trace.wall_ms as the summed `bench_walls`
/// and the part the folded self times leave unexplained, write the
/// Chrome trace (timed as obs.export_ms) and print the accounting.
void finish_trace(const RunArgs& args, Report& report,
                  const std::vector<double>& bench_walls);

}  // namespace perfbench
