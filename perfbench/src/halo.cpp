// halo: distributed power iteration on HMEp over 2 msg ranks in task
// mode (2 rank threads + their 2 persistent comm threads). The benchmark
// drives dist::CommPlan::spmv and Comm::allreduce_sum itself, so each
// call is timed on its own.
//
// Chosen because gather, halo exchange and overlap (the paper's Fig. 4
// mechanism) and the msg rendezvous path do the work: HMEp's long phonon
// off-diagonals make the halo large.
//
// Each solve restarts from the same seeded x0 and runs kSteps steps, so
// every solve's final vector is checked against one serial power
// iteration computed by the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "dist/comm_plan.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/partition.hpp"
#include "msg/runtime.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "regime.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dist = spmvm::dist;
namespace msg = spmvm::msg;

constexpr double kScale = 48.0;
constexpr int kRanks = 2;
constexpr dist::CommScheme kScheme = dist::CommScheme::task_mode;
constexpr int kSteps = 64;  // power-iteration steps per solve
/// Absolute tolerance on the unit-norm final vector.
constexpr double kVecTol = 1e-10;

/// Serial power iteration with the benchmark's own CSR loop.
std::vector<double> serial_power(const spmvm::Csr<double>& a,
                                 std::vector<double> x, int steps) {
  std::vector<double> y(x.size());
  for (int s = 0; s < steps; ++s) {
    double ss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      double acc = 0.0;
      for (auto p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p)
        acc += a.val[static_cast<std::size_t>(p)] *
               x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(p)])];
      y[i] = acc;
      ss += acc * acc;
    }
    const double inv = 1.0 / std::sqrt(ss);
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = y[i] * inv;
  }
  return x;
}

/// What one rank measured in one pass.
struct RankPass {
  std::vector<double> spmv_s, allreduce_s, iter_s;
  double wall_s = 0.0;
  int solves = 0;
  std::uint64_t mismatched = 0;  // solves whose final block missed
};

struct Shared {
  dist::RowPartition part;
  std::vector<double> x0, x_ref;
};

/// Solves until rank 0 has spent `budget_s` (or exactly `fixed_solves`
/// when positive). The stop decision travels through an allreduce
/// between solves, outside the timed iterations.
RankPass run_solves(msg::Comm& comm, dist::CommPlan<double>& plan,
                    const Shared& sh, double budget_s, int fixed_solves) {
  const int rank = comm.rank();
  const auto b = static_cast<std::size_t>(sh.part.begin(rank));
  const auto n = static_cast<std::size_t>(sh.part.count(rank));
  std::vector<double> x(n), y(n);
  RankPass rp;
  const auto t_start = Clock::now();
  SPMVM_TRACE_SPAN("pb/bench/rank");
  for (;;) {
    double stop = 0.0;
    if (rank == 0)
      stop = fixed_solves > 0
                 ? (rp.solves >= fixed_solves ? 1.0 : 0.0)
                 : (seconds_between(t_start, Clock::now()) >= budget_s ? 1.0 : 0.0);
    {
      SPMVM_TRACE_SPAN("pb/msg/control");
      if (comm.allreduce_sum(stop) > 0.0) break;
    }
    std::copy_n(sh.x0.begin() + static_cast<std::ptrdiff_t>(b), n, x.begin());
    for (int s = 0; s < kSteps; ++s) {
      const auto t0 = Clock::now();
      {
        SPMVM_TRACE_SPAN("pb/dist/spmv");
        plan.spmv(x, y);
      }
      const auto t1 = Clock::now();
      double ss = 0.0;
      for (double v : y) ss += v * v;
      double total;
      {
        SPMVM_TRACE_SPAN("pb/msg/allreduce");
        total = comm.allreduce_sum(ss);
      }
      const auto t2 = Clock::now();
      {
        SPMVM_TRACE_SPAN("pb/bench/normalize");
        const double inv = 1.0 / std::sqrt(total);
        for (std::size_t i = 0; i < n; ++i) x[i] = y[i] * inv;
      }
      const auto t3 = Clock::now();
      rp.spmv_s.push_back(seconds_between(t0, t1));
      rp.allreduce_s.push_back(seconds_between(t1, t2));
      rp.iter_s.push_back(seconds_between(t0, t3));
    }
    {
      SPMVM_TRACE_SPAN("pb/bench/check");
      for (std::size_t i = 0; i < n; ++i)
        if (!(std::fabs(x[i] - sh.x_ref[b + i]) <= kVecTol)) {
          ++rp.mismatched;
          break;
        }
    }
    ++rp.solves;
  }
  rp.wall_s = seconds_between(t_start, Clock::now());
  return rp;
}

struct Counters {
  std::uint64_t halo = 0, hits = 0, eager = 0;
  static Counters now() {
    return {spmvm::obs::counter("comm.halo_bytes").value(),
            spmvm::obs::counter("comm.rendezvous_hits").value(),
            spmvm::obs::counter("comm.eager_fallbacks").value()};
  }
};

}  // namespace

void run_halo(const RunArgs& args, Report& report) {
  const Regime regime = detect_regime();
  report.note("nproc", regime.nproc);
  report.note("l2_bytes", static_cast<double>(regime.l2_bytes));
  report.note("l3_bytes", static_cast<double>(regime.l3_bytes));
  report.note("ranks", kRanks);
  report.note("scheme", dist::to_string(kScheme));
  report.note("threads", "2 rank threads + 2 comm threads");
  report.note("steps_per_solve", kSteps);
  report.note("vector_tolerance", kVecTol);

  const spmvm::Csr<double> a = generate("HMEp", kScale, args.seed, report);
  report.note("scale.HMEp", kScale);
  note_footprint(report, "matrix.HMEp", a);
  Shared sh;
  sh.part = dist::partition_balanced_nnz(a, kRanks);
  sh.x0 = random_vector(static_cast<std::size_t>(a.n_rows), args.seed * 7 + 3);
  double nrm = 0.0;
  for (double v : sh.x0) nrm += v * v;
  for (double& v : sh.x0) v /= std::sqrt(nrm);
  sh.x_ref = serial_power(a, sh.x0, kSteps);

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> setup_s, setup_wall_s, plan_s;
  RankPass pass[kRanks], traced[kRanks];
  std::uint64_t bytes_per_iter = 0;
  double rendezvous_ratio = 0.0;

  msg::Runtime::run(kRanks, [&](msg::Comm& comm) {
    const int rank = comm.rank();
    std::unique_ptr<dist::DistMatrix<double>> d;
    std::unique_ptr<dist::CommPlan<double>> plan;
    // Rank 0 decides whether to set up again; the decision travels
    // through an allreduce so both ranks build the same number of plans.
    for (bool again = true; again;) {
      plan.reset();
      d.reset();
      comm.barrier();
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_seconds();
      d = std::make_unique<dist::DistMatrix<double>>(
          dist::distribute(a, sh.part, rank));
      const auto t1 = Clock::now();
      plan = std::make_unique<dist::CommPlan<double>>(comm, *d, kScheme);
      comm.barrier();
      const auto t2 = Clock::now();
      const double cpu2 = process_cpu_seconds();
      double more = 0.0;
      if (rank == 0) {  // only rank 0 touches the set-up times
        setup_s.push_back(cpu2 - cpu0);  // both ranks and their comm threads
        setup_wall_s.push_back(seconds_between(t0, t2));
        plan_s.push_back(seconds_between(t1, t2));
        more = !args.trace && more_setups(setup_s) ? 1.0 : 0.0;
      }
      again = comm.allreduce_sum(more) > 0.0;
    }
    comm.barrier();
    const Counters c0 = Counters::now();
    pass[rank] = run_solves(comm, *plan, sh, budget, 0);
    comm.barrier();
    if (rank == 0) {
      const Counters c1 = Counters::now();
      const auto iters = static_cast<std::uint64_t>(pass[0].iter_s.size());
      bytes_per_iter = iters ? (c1.halo - c0.halo) / iters : 0;
      const double hits = static_cast<double>(c1.hits - c0.hits);
      const double eager = static_cast<double>(c1.eager - c0.eager);
      rendezvous_ratio = hits + eager > 0.0 ? hits / (hits + eager) : 0.0;
    }
    if (!args.trace) return;
    comm.barrier();
    if (rank == 0) {
      spmvm::obs::clear_trace();
      spmvm::obs::set_tracing(true);
    }
    comm.barrier();
    traced[rank] = run_solves(comm, *plan, sh, budget, pass[0].solves);
    comm.barrier();
    if (rank == 0) spmvm::obs::set_tracing(false);
  });

  for (int r = 0; r < kRanks; ++r) {
    report.attempted += static_cast<std::uint64_t>(pass[r].solves + traced[r].solves);
    report.failed += pass[r].mismatched + traced[r].mismatched;
  }
  const Summary it = summarize(pass[0].iter_s);
  report.note("solves", pass[0].solves);
  report.note("iterations", static_cast<double>(it.n));
  std::fprintf(stderr,
               "halo: %d solves x %d steps, iter p50 %.1f us p%.0f %.1f us, "
               "%llu halo B/iter, rendezvous %.3f\n",
               pass[0].solves, kSteps, it.p50 * 1e6, it.tail_pct, it.tail * 1e6,
               static_cast<unsigned long long>(bytes_per_iter), rendezvous_ratio);

  if (!args.trace) {
    report.set("setup_s", median(setup_s));
    // From the CommPlan::spmv time alone, so it does not repeat p10_ms.
    report.set("gflops",
               2.0 * static_cast<double>(a.nnz()) / median(pass[0].spmv_s) * 1e-9);
    report.set("p10_ms", quantile(pass[0].iter_s, kGatedQ) * 1e3);
    report.note("latency.unit", "one power-iteration step: CommPlan::spmv + allreduce + scale");
    report.note("latency.samples", static_cast<double>(it.n));
    report.note("latency.p50_ms", it.p50 * 1e3);
    report.note("latency.tail_pct", it.tail_pct);
    report.note("latency.tail_ms", it.tail * 1e3);
    report.note("setups", static_cast<double>(setup_s.size()));
    report.note("setup_wall_s", median(setup_wall_s));
    return;
  }

  report.set("dist.plan_build_s", median(plan_s));
  report.set("dist.spmv_us.p50", median(pass[0].spmv_s) * 1e6);
  report.set("msg.allreduce_us.p50", median(pass[0].allreduce_s) * 1e6);
  report.set("dist.halo_bytes_per_iter", static_cast<double>(bytes_per_iter));
  report.set("msg.rendezvous_ratio", rendezvous_ratio);
  std::vector<double> skew;
  for (std::size_t i = 0; i < pass[0].spmv_s.size(); ++i) {
    const double s0 = pass[0].spmv_s[i], s1 = pass[1].spmv_s[i];
    skew.push_back(std::max(s0, s1) / (0.5 * (s0 + s1)));
  }
  report.set("dist.rank_skew", median(skew));
  report.set("halo.iter_p50_us", it.p50 * 1e6);
  report.set("halo.iter_p99_us", it.tail * 1e6);
  report.note("halo.iter_p99_pct", it.tail_pct);
  report.set("obs.trace_overhead_frac", traced[0].wall_s / pass[0].wall_s - 1.0);

  const auto attribution = spmvm::obs::attribute_comm_phases(spmvm::obs::collect());
  double wall = 0.0, overlap = 0.0;
  std::vector<double> phase(halo_phases().size(), 0.0);
  for (const auto& rp : attribution.ranks) {
    wall += rp.wall_s;
    overlap += rp.overlap_s;
    for (std::size_t p = 0; p < phase.size(); ++p) phase[p] += rp.phase_s[p];
  }
  for (std::size_t p = 0; p < phase.size(); ++p)
    report.set("dist.phase_frac." + halo_phases()[p], wall > 0 ? phase[p] / wall : 0.0);
  report.set("dist.overlap_frac", wall > 0 ? overlap / wall : 0.0);
  std::fprintf(stderr, "%s", attribution.render().c_str());
  finish_trace(args, report, {traced[0].wall_s, traced[1].wall_s});
}

}  // namespace perfbench
