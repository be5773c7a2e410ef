// sweep: repeated single-thread y = A·x through exec::Engine's host
// backend, every registry format plus `auto`, on three paper matrices
// whose CSR images each exceed 32 MiB (4x the per-core L2).
//
// Chosen because the formats/sparse kernels do nearly all of its work:
// a kernel change shows here, a queue or halo change must not.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>

#include "check.hpp"
#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "obs/trace.hpp"
#include "regime.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace exec = spmvm::exec;
namespace formats = spmvm::formats;

/// Scale divisors that put each matrix's CSR image at about 34-35 MiB.
constexpr double kScale[] = {13.5, 32.0, 9.0};  // DLR1, HMEp, sAMG
constexpr std::size_t kMinCsrBytes = std::size_t{32} << 20;
/// Rounds at least, whatever the budget: each (matrix, format) median
/// rests on this many samples or more.
constexpr int kMinRounds = 20;
constexpr int kMinTracedModeRounds = 10;
/// Products per visit of a (matrix, format) pair: the first streams the
/// image in from memory, the rest find it in the 300 MiB L3 and are the
/// timed samples. Memory traffic from other tenants of the host moves
/// the cold product by 20 %; the warm ones are steadier.
constexpr int kVisitProducts = 2;
/// Share of the budget spent on the apply_block side pass.
constexpr double kBlockShare = 0.15;
constexpr int kMinBlockRounds = 3;
constexpr int kBlockK = 8;
/// Formats timed in the rounds and summed into the end-to-end rate.
/// bellpack is timed only in the side pass: its dense 4x4 tiles multiply
/// the traffic of these scattered matrices (20x slower than CSR on sAMG),
/// so it would take a third of every round.
bool in_rounds(const std::string& f) { return f != "bellpack"; }

struct Matrix {
  std::string name;
  spmvm::Csr<double> a;
  std::vector<double> x;
  RowReference ref;
  double flops = 0.0;
};

struct Bound {
  std::shared_ptr<const formats::FormatPlan<double>> plan;
  std::unique_ptr<exec::BoundSpmv<double>> bound;
};

struct Setup {
  std::vector<std::vector<Bound>> bound;  // [matrix][format]
  std::vector<double> build_s;            // per format, summed over matrices
  double bind_s = 0.0;
  double total_s = 0.0;
  double cpu_s = 0.0;
};

Setup set_up(exec::Engine<double>& engine, const std::vector<Matrix>& mats) {
  const auto& fmts = sweep_formats();
  Setup s;
  s.build_s.assign(fmts.size(), 0.0);
  const auto t_all = Clock::now();
  const double cpu0 = process_cpu_seconds();
  for (const Matrix& m : mats) {
    std::vector<Bound> row;
    for (std::size_t f = 0; f < fmts.size(); ++f) {
      Bound b;
      if (!sweep_covers(m.name, fmts[f])) {
        row.push_back(std::move(b));
        continue;
      }
      const auto t0 = Clock::now();
      b.plan = formats::registry<double>().build(fmts[f], m.a);
      const auto t1 = Clock::now();
      b.bound = engine.bind_plan("host", b.plan);
      const auto t2 = Clock::now();
      s.build_s[f] += seconds_between(t0, t1);
      s.bind_s += seconds_between(t1, t2);
      row.push_back(std::move(b));
    }
    s.bound.push_back(std::move(row));
  }
  s.total_s = seconds_between(t_all, Clock::now());
  s.cpu_s = process_cpu_seconds() - cpu0;
  return s;
}

struct Block {
  std::vector<double> X;
  std::vector<RowReference> refs;  // one per interleaved vector
};

struct Samples {
  std::vector<std::vector<std::vector<double>>> t;  // [matrix][format]
  std::vector<double> round_s;
  std::vector<std::vector<double>> t1, tk;  // [format]
  int rounds = 0;
  int block_rounds = 0;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run rounds (every round format on every matrix once, in a seeded
/// order) until the budget is spent and `min_rounds` are done — or exactly
/// `fixed_rounds` when that is positive — then side rounds likewise:
/// the formats left out of the rounds on every matrix, and apply_block
/// on the first matrix at k = 1 and k = kBlockK for every format.
Samples measure(Setup& setup, const std::vector<Matrix>& mats,
                const Block& block, double budget_s, std::uint64_t seed,
                int min_rounds, int fixed_rounds, int fixed_block_rounds) {
  const std::size_t nf = sweep_formats().size();
  Samples s;
  s.t.assign(mats.size(), std::vector<std::vector<double>>(nf));
  s.t1.assign(nf, {});
  s.tk.assign(nf, {});
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<std::pair<std::size_t, std::size_t>> side;
  for (std::size_t m = 0; m < mats.size(); ++m)
    for (std::size_t f = 0; f < nf; ++f)
      if (setup.bound[m][f].bound)
        (in_rounds(sweep_formats()[f]) ? order : side).emplace_back(m, f);
  std::size_t max_rows = 0;
  for (const Matrix& m : mats)
    max_rows = std::max<std::size_t>(max_rows, static_cast<std::size_t>(m.a.n_rows));
  std::vector<double> y(max_rows * kBlockK);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // One visit: kVisitProducts checked y = A·x; returns the summed time
  // of the warm ones.
  const auto visit = [&](std::size_t m, std::size_t f) {
    const Matrix& mat = mats[m];
    std::span<double> ys(y.data(), static_cast<std::size_t>(mat.a.n_rows));
    exec::BoundSpmv<double>& b = *setup.bound[m][f].bound;
    double warm = 0.0;
    for (int p = 0; p < kVisitProducts; ++p) {
      std::fill(ys.begin(), ys.end(), nan);
      const auto t0 = Clock::now();
      {
        SPMVM_TRACE_SPAN("pb/exec/apply");
        b.apply(mat.x, ys);
      }
      const double dt = seconds_between(t0, Clock::now());
      if (p > 0) {
        s.t[m][f].push_back(dt);
        warm += dt;
      }
      SPMVM_TRACE_SPAN("pb/bench/check");
      ++s.attempted;
      if (count_row_mismatches(mat.ref, ys) != 0) ++s.failed;
    }
    return warm;
  };

  spmvm::Rng rng(seed ^ 0x53574545ull);
  const auto t_start = Clock::now();
  const double main_budget = budget_s * (1.0 - kBlockShare);
  for (;;) {
    if (fixed_rounds > 0 ? s.rounds >= fixed_rounds
                         : (s.rounds >= min_rounds &&
                            seconds_between(t_start, Clock::now()) >= main_budget))
      break;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    double round = 0.0;
    for (const auto& [m, f] : order) round += visit(m, f);
    s.round_s.push_back(round);
    ++s.rounds;
  }

  const Matrix& bm = mats.front();
  const auto rows = static_cast<std::size_t>(bm.a.n_rows);
  const auto t_block = Clock::now();
  const double block_budget = budget_s * kBlockShare;
  for (;;) {
    if (fixed_block_rounds > 0
            ? s.block_rounds >= fixed_block_rounds
            : (s.block_rounds >= kMinBlockRounds &&
               seconds_between(t_block, Clock::now()) >= block_budget))
      break;
    for (const auto& [m, f] : side) visit(m, f);
    for (std::size_t f = 0; f < nf; ++f) {
      exec::BoundSpmv<double>& b = *setup.bound[0][f].bound;
      for (int k : {1, kBlockK}) {
        const auto kk = static_cast<std::size_t>(k);
        std::span<double> ys(y.data(), rows * kk);
        std::fill(ys.begin(), ys.end(), nan);
        // k = 1 takes the first interleaved vector, which is bm.x.
        const std::span<const double> xs =
            k == 1 ? std::span<const double>(bm.x) : std::span<const double>(block.X);
        const auto t0 = Clock::now();
        {
          SPMVM_TRACE_SPAN("pb/exec/apply_block");
          b.apply_block(xs, ys, k);
        }
        (k == 1 ? s.t1 : s.tk)[f].push_back(seconds_between(t0, Clock::now()));
        SPMVM_TRACE_SPAN("pb/bench/check");
        std::size_t bad = 0;
        for (int v = 0; v < k; ++v)
          bad += count_row_mismatches(block.refs[static_cast<std::size_t>(v)], ys, k, v);
        ++s.attempted;
        if (bad != 0) ++s.failed;
      }
    }
    ++s.block_rounds;
  }
  s.wall_s = seconds_between(t_start, Clock::now());
  return s;
}

std::size_t footprint_bytes(const formats::FormatPlan<double>& p) {
  return p.footprint().total_bytes(sizeof(double));
}

}  // namespace

void run_sweep(const RunArgs& args, Report& report) {
  const Regime regime = detect_regime();
  report.note("nproc", regime.nproc);
  report.note("l2_bytes", static_cast<double>(regime.l2_bytes));
  report.note("l3_bytes", static_cast<double>(regime.l3_bytes));
  report.note("threads", 1.0);
  report.note("backend", "host");

  std::vector<Matrix> mats;
  for (std::size_t i = 0; i < sweep_matrices().size(); ++i) {
    Matrix m;
    m.name = sweep_matrices()[i];
    m.a = generate(m.name, kScale[i], args.seed, report);
    if (m.a.bytes() < kMinCsrBytes)
      throw std::runtime_error(m.name + " CSR image below 32 MiB");
    m.x = random_vector(static_cast<std::size_t>(m.a.n_cols), args.seed * 31 + i);
    m.ref = reference_product(m.a, m.x);
    m.flops = 2.0 * static_cast<double>(m.a.nnz());
    report.note("scale." + m.name, kScale[i]);
    note_footprint(report, "matrix." + m.name, m.a);
    mats.push_back(std::move(m));
  }
  Block block;
  {
    const Matrix& bm = mats.front();
    const auto cols = static_cast<std::size_t>(bm.a.n_cols);
    block.X.resize(cols * kBlockK);
    for (int v = 0; v < kBlockK; ++v) {
      const std::vector<double> xv =
          v == 0 ? bm.x : random_vector(cols, args.seed * 131 + static_cast<std::uint64_t>(v));
      for (std::size_t i = 0; i < cols; ++i) block.X[i * kBlockK + static_cast<std::size_t>(v)] = xv[i];
      block.refs.push_back(v == 0 ? bm.ref : reference_product(bm.a, xv));
    }
  }
  report.note("block.matrix", mats.front().name);
  report.note("block.k", kBlockK);

  // Set-up: build every format and bind it to the host backend. Repeated
  // in end-to-end mode so setup_s is a median; the last one is kept.
  exec::Engine<double> engine;
  std::vector<double> setup_times, setup_walls;
  Setup setup;
  do {
    setup = Setup{};  // release the previous set before building the next
    setup = set_up(engine, mats);
    setup_times.push_back(setup.cpu_s);
    setup_walls.push_back(setup.total_s);
  } while (!args.trace && more_setups(setup_times));

  const double triad_gbs =
      measure_triad_gbs(mats.front().a.bytes(), 7);
  report.note("triad_gbs_computed", triad_gbs);
  report.note("triad_array_mib",
              static_cast<double>(mats.front().a.bytes()) / (1024.0 * 1024.0));

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const Samples s =
      measure(setup, mats, block, budget, args.seed,
              args.trace ? kMinTracedModeRounds : kMinRounds, 0, 0);
  report.attempted = s.attempted;
  report.failed = s.failed;
  report.note("rounds", s.rounds);
  report.note("block_rounds", s.block_rounds);
  report.note("row_tolerance", kRowTol);

  const auto& fmts = sweep_formats();
  std::vector<double> med_sum(fmts.size(), 0.0);
  double agg_flops = 0.0, agg_time = 0.0;
  for (std::size_t m = 0; m < mats.size(); ++m)
    for (std::size_t f = 0; f < fmts.size(); ++f) {
      if (!setup.bound[m][f].bound) continue;
      const double med = median(s.t[m][f]);
      med_sum[f] += med;
      report.set("exec.gflops." + mats[m].name + "." + fmts[f],
                 mats[m].flops / med * 1e-9);
      if (in_rounds(fmts[f])) {
        agg_flops += mats[m].flops;
        agg_time += med;
      }
    }
  std::fprintf(stderr, "sweep: %d rounds, %d block rounds, %.2f s\n",
               s.rounds, s.block_rounds, s.wall_s);
  for (std::size_t f = 0; f < fmts.size(); ++f) {
    std::fprintf(stderr, "  %-13s", fmts[f].c_str());
    for (std::size_t m = 0; m < mats.size(); ++m)
      if (setup.bound[m][f].bound)
        std::fprintf(stderr, " %s %6.2f GF/s", mats[m].name.c_str(),
                   report.get("exec.gflops." + mats[m].name + "." + fmts[f]));
    std::fprintf(stderr, "  build %.3f s\n", setup.build_s[f]);
  }

  if (!args.trace) {
    const double p50 = median(s.round_s);
    const double p10 = quantile(s.round_s, kGatedQ);
    report.set("setup_s", median(setup_times));
    report.set("gflops", agg_flops / agg_time * 1e-9);
    report.set("p10_ms", p10 * 1e3);
    report.note("latency.unit", "one round: a warm product of every round format on every matrix");
    report.note("latency.samples", static_cast<double>(s.round_s.size()));
    report.note("latency.p50_ms", p50 * 1e3);
    report.note("setups", static_cast<double>(setup_times.size()));
    report.note("setup_wall_s", median(setup_walls));
    std::fprintf(stderr, "sweep: setup %.3f s, %.3f GF/s, round p10 %.2f ms p50 %.2f ms (n=%zu)\n",
                 report.get("setup_s"), report.get("gflops"), p10 * 1e3, p50 * 1e3,
                 s.round_s.size());
    return;
  }

  // Per-layer metrics from the untraced pass.
  int agrees = 0;
  for (std::size_t f = 0; f < fmts.size(); ++f) {
    double bytes = 0.0, traffic = 0.0, nnz = 0.0;
    for (std::size_t m = 0; m < mats.size(); ++m) {
      if (!setup.bound[m][f].plan) continue;
      const auto& plan = *setup.bound[m][f].plan;
      const double fp = static_cast<double>(footprint_bytes(plan));
      bytes += fp;
      nnz += static_cast<double>(mats[m].a.nnz());
      traffic += fp + sizeof(double) * static_cast<double>(mats[m].a.n_rows +
                                                           mats[m].a.n_cols);
      if (const auto* choice = plan.auto_choice()) {
        if (choice->chosen_index == choice->model_index) ++agrees;
        report.note("auto." + mats[m].name + ".chosen", choice->chosen);
      }
    }
    report.set("formats.build_s." + fmts[f], setup.build_s[f]);
    report.set("formats.bytes_per_nnz." + fmts[f], bytes / nnz);
    report.set("exec.bw_frac." + fmts[f],
               traffic / med_sum[f] * 1e-9 / triad_gbs);
    report.set("exec.block_gain." + fmts[f],
               kBlockK * median(s.t1[f]) / median(s.tk[f]));
  }
  report.set("formats.auto.model_agrees", agrees);
  report.set("exec.bind_s", setup.bind_s);
  report.set("exec.triad_gbs", triad_gbs);
  report.note("bw_frac.bytes", "computed: footprint + x + y once per product");

  // Traced replay of the same rounds.
  spmvm::obs::clear_trace();
  spmvm::obs::set_tracing(true);
  const auto t0 = Clock::now();
  Samples traced;
  {
    SPMVM_TRACE_SPAN("pb/bench/sweep");
    traced = measure(setup, mats, block, budget, args.seed, 0, s.rounds,
                     s.block_rounds);
  }
  const double wall = seconds_between(t0, Clock::now());
  spmvm::obs::set_tracing(false);
  report.failed += traced.failed;
  report.attempted += traced.attempted;
  report.set("obs.trace_overhead_frac", traced.wall_s / s.wall_s - 1.0);
  finish_trace(args, report, {wall});
}

}  // namespace perfbench
