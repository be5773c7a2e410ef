// serve: an open loop of Poisson arrivals against serve::Server (host
// backend, sell_c_sigma, 2 workers, 1 kernel thread each) with two
// registered matrices, first at a light nominal rate and then at an
// overload rate (about twice the measured capacity).
//
// The overload throughput is taken per second of the workers' own CPU
// time, not per second of wall time. On a virtual machine whose host
// is shared, the hypervisor takes whole stretches of the vCPUs away
// ("steal", 10-25 % of the time in a busy hour); the guest kernel leaves
// that time out of a thread's run time, so this figure moves with the
// code and not with the neighbours. The wall-clock rate is reported
// next to it, with the share of their cores the workers got.
//
// Chosen because admission, queueing, batching and the block-RHS path
// do the work here: latency under moderate load and shedding under
// overload use the same layer two ways.
//
// Threads: one generator and one collector besides the two workers.
// The generator sends each request at its scheduled time and records
// how late it ran; every latency is timed from the scheduled send. The
// collector polls the outstanding tickets, so a slow request does not
// delay the observation of the ones behind it. Both sleep between
// events (with a 1 ns timer slack, so wake-ups are prompt) instead of
// spinning, which would take cores from the two workers.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>

#include <sys/prctl.h>

#include "check.hpp"
#include "obs/trace.hpp"
#include "regime.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = spmvm::serve;

constexpr const char* kMatrices[] = {"DLR1", "sAMG"};
constexpr double kMatrixScale = 64.0;
constexpr const char* kFormat = "sell_c_sigma";
constexpr int kWorkers = 2;
constexpr int kKernelThreads = 1;
/// Rates in requests per second, fixed against the capacity measured on
/// a 4-core x86-64 host (see perfbench/README.md).
constexpr double kNominalRps = 250.0;
constexpr double kOverloadRps = 3000.0;
/// Share of the budget spent at the nominal rate; the rest is overload.
constexpr double kNominalShare = 0.5;
/// Leading share of the overload phase left out of the capacity window
/// while the queue fills.
constexpr double kOverloadWarmup = 0.1;
/// Latency limit on the nominal-rate p99.
constexpr double kLimitMs = 10.0;
constexpr int kPool = 8;  // distinct x vectors per matrix
/// How long the collector blocks on one outstanding ticket before it
/// sweeps the others, and the generator's poll while a phase drains.
constexpr auto kPollSleep = std::chrono::microseconds(50);
/// Collector wait for new tickets when none is outstanding.
constexpr auto kIdleWait = std::chrono::milliseconds(1);

/// Let the calling thread's timed sleeps end within microseconds of
/// their deadline (the default slack is 50 us).
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Ids of the process's threads.
std::vector<long> thread_ids() {
  std::vector<long> ids;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    ids.push_back(std::stol(e.path().filename().string()));
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Summed on-CPU seconds of `tids` (the first field of each thread's
/// schedstat, in ns). Time the hypervisor stole from the vCPU is not in it.
double cpu_seconds(const std::vector<long>& tids) {
  double ns = 0.0;
  for (long tid : tids) {
    std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    double run = 0.0;
    if (f >> run) ns += run;
  }
  return ns * 1e-9;
}

/// A point of the capacity window: wall time plus the workers' CPU time.
struct Mark {
  Clock::time_point t;
  double cpu_s = 0.0;
};

struct Served {
  std::string name;
  spmvm::Csr<double> a;
  std::vector<double> w;       // fixed probe
  std::vector<std::vector<double>> xs;
  std::vector<ProbeCheck> checks;  // per x
  double flops = 0.0;
};

struct Planned {
  double at_s;  // scheduled send, from the phase start
  int matrix;
  int x;
};

struct Phase {
  const char* name;
  double rate;
  double duration_s;
  std::vector<Planned> plan;
};

struct Record {
  Clock::time_point sched, call, submitted, observed;
  serve::RequestStatus status = serve::RequestStatus::failed;
  double queue_s = 0, batch_s = 0, exec_s = 0;
  bool check_ok = false;
  int matrix = 0;
};

struct PhaseResult {
  std::vector<Record> rec;
  Clock::time_point start;
  std::uint64_t completed = 0, batches = 0;  // ServerStats deltas
  /// Capacity window: from the first send after the warm-up share to
  /// the last send (used on the overload phase).
  Mark from, to;
};

std::vector<Phase> plan_phases(double budget_s, std::uint64_t seed,
                               int n_matrices) {
  std::vector<Phase> phases = {
      {"nominal", kNominalRps, budget_s * kNominalShare, {}},
      {"overload", kOverloadRps, budget_s * (1.0 - kNominalShare), {}}};
  spmvm::Rng rng(seed ^ 0x53525645ull);
  for (Phase& p : phases) {
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.next_double()) / p.rate;
      if (t >= p.duration_s) break;
      p.plan.push_back({t, static_cast<int>(rng.next_below(n_matrices)),
                        static_cast<int>(rng.next_below(kPool))});
    }
  }
  return phases;
}

struct Pending {
  serve::Ticket ticket;
  std::size_t phase, index;
};

/// Generator → collector handoff plus the collector's outstanding count.
struct Handoff {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Pending> fresh;
  bool done = false;
  std::atomic<std::uint64_t> outstanding{0};
};

struct LoadResult {
  std::vector<PhaseResult> phases;
  double gen_wall_s = 0.0, col_wall_s = 0.0;
};

LoadResult drive(serve::Server& server, const std::vector<Served>& mats,
                 const std::vector<Phase>& phases,
                 const std::vector<long>& workers) {
  LoadResult out;
  out.phases.resize(phases.size());
  for (std::size_t p = 0; p < phases.size(); ++p)
    out.phases[p].rec.resize(phases[p].plan.size());
  Handoff h;

  std::thread collector([&] {
    spmvm::obs::set_thread_name("perfbench collector");
    tighten_timer_slack();
    const auto t0 = Clock::now();
    SPMVM_TRACE_SPAN("pb/bench/collect");
    std::vector<Pending> pending, fresh;
    for (;;) {
      bool done;
      {
        std::lock_guard<std::mutex> lk(h.m);
        fresh.swap(h.fresh);
        done = h.done;
      }
      for (Pending& p : fresh) pending.push_back(std::move(p));
      fresh.clear();
      if (done && pending.empty()) break;
      bool any = false;
      for (std::size_t i = 0; i < pending.size();) {
        if (!pending[i].ticket.wait_for(0.0)) {
          ++i;
          continue;
        }
        any = true;
        Record& r = out.phases[pending[i].phase].rec[pending[i].index];
        r.observed = Clock::now();
        serve::Response resp;
        {
          SPMVM_TRACE_SPAN("pb/serve/get");
          resp = pending[i].ticket.get();
        }
        r.status = resp.status;
        r.queue_s = resp.queue_seconds;
        r.batch_s = resp.batch_seconds;
        r.exec_s = resp.execute_seconds;
        if (resp.ok()) {
          SPMVM_TRACE_SPAN("pb/bench/check");
          const Planned& pl = phases[pending[i].phase].plan[pending[i].index];
          const Served& m = mats[static_cast<std::size_t>(pl.matrix)];
          r.check_ok = probe_matches(m.checks[static_cast<std::size_t>(pl.x)],
                                     m.w, resp.y);
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
        h.outstanding.fetch_sub(1, std::memory_order_release);
      }
      if (any) continue;
      if (pending.empty()) {
        std::unique_lock<std::mutex> lk(h.m);
        h.cv.wait_for(lk, kIdleWait, [&] { return !h.fresh.empty() || h.done; });
      } else {
        pending.front().ticket.wait_for(
            std::chrono::duration<double>(kPollSleep).count());
      }
    }
    out.col_wall_s = seconds_between(t0, Clock::now());
  });

  std::thread generator([&] {
    spmvm::obs::set_thread_name("perfbench generator");
    tighten_timer_slack();
    const auto t0 = Clock::now();
    {
      SPMVM_TRACE_SPAN("pb/bench/generate");
      for (std::size_t p = 0; p < phases.size(); ++p) {
        // Each phase starts from an empty server.
        while (h.outstanding.load(std::memory_order_acquire) != 0)
          std::this_thread::sleep_for(kPollSleep);
        const serve::ServerStats before = server.stats();
        PhaseResult& pr = out.phases[p];
        pr.start = Clock::now() + std::chrono::milliseconds(1);
        bool marked = false;
        for (std::size_t i = 0; i < phases[p].plan.size(); ++i) {
          const Planned& pl = phases[p].plan[i];
          const Served& m = mats[static_cast<std::size_t>(pl.matrix)];
          std::vector<double> x = m.xs[static_cast<std::size_t>(pl.x)];
          Record& r = pr.rec[i];
          r.matrix = pl.matrix;
          r.sched = pr.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(pl.at_s));
          {
            SPMVM_TRACE_SPAN("pb/bench/pace");
            std::this_thread::sleep_until(r.sched);
          }
          if (!marked && pl.at_s >= phases[p].duration_s * kOverloadWarmup) {
            pr.from = {Clock::now(), cpu_seconds(workers)};
            marked = true;
          }
          r.call = Clock::now();
          serve::Ticket t;
          {
            SPMVM_TRACE_SPAN("pb/serve/submit");
            t = server.submit(m.name, std::move(x));
          }
          r.submitted = Clock::now();
          h.outstanding.fetch_add(1, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lk(h.m);
            h.fresh.push_back({std::move(t), p, i});
          }
          h.cv.notify_one();
        }
        pr.to = {Clock::now(), cpu_seconds(workers)};
        while (h.outstanding.load(std::memory_order_acquire) != 0)
          std::this_thread::sleep_for(kPollSleep);
        const serve::ServerStats after = server.stats();
        pr.completed = after.completed - before.completed;
        pr.batches = after.batches - before.batches;
      }
      std::lock_guard<std::mutex> lk(h.m);
      h.done = true;
    }
    h.cv.notify_one();
    out.gen_wall_s = seconds_between(t0, Clock::now());
  });
  generator.join();
  collector.join();
  return out;
}

std::unique_ptr<serve::Server> start_server(const std::vector<Served>& mats) {
  serve::ServerOptions o;
  o.backend = "host";
  o.format = kFormat;
  o.n_workers = kWorkers;
  o.kernel_threads = kKernelThreads;
  auto server = std::make_unique<serve::Server>(o);
  for (const Served& m : mats) server->register_matrix(m.name, m.a);
  server->start();
  return server;
}

double ms(double s) { return s * 1e3; }

/// Capacity of the overload phase, over the window after its warm-up
/// share: completions per wall second, the flops they carried per second
/// of worker CPU time times the number of workers, and the share of
/// their cores the workers were on.
struct Capacity {
  double rps = 0.0;
  double gflops = 0.0;
  double busy = 0.0;
};

Capacity capacity(const PhaseResult& pr, const std::vector<Served>& mats) {
  double n = 0.0, flops = 0.0;
  for (const Record& r : pr.rec)
    if (r.status == serve::RequestStatus::ok && r.observed >= pr.from.t &&
        r.observed < pr.to.t) {
      n += 1.0;
      flops += mats[static_cast<std::size_t>(r.matrix)].flops;
    }
  const double wall = seconds_between(pr.from.t, pr.to.t);
  const double cpu = pr.to.cpu_s - pr.from.cpu_s;
  return {n / wall, flops / cpu * kWorkers * 1e-9, cpu / (kWorkers * wall)};
}

}  // namespace

void run_serve(const RunArgs& args, Report& report) {
  const Regime regime = detect_regime();
  report.note("nproc", regime.nproc);
  report.note("l2_bytes", static_cast<double>(regime.l2_bytes));
  report.note("l3_bytes", static_cast<double>(regime.l3_bytes));
  report.note("backend", "host");
  report.note("format", kFormat);
  report.note("workers", kWorkers);
  report.note("kernel_threads", kKernelThreads);
  report.note("load_threads", "1 generator + 1 collector");
  report.note("rate.nominal_rps", kNominalRps);
  report.note("rate.overload_rps", kOverloadRps);
  report.note("limit_ms", kLimitMs);
  report.note("probe_tolerance", kProbeTol);

  std::vector<Served> mats;
  for (std::size_t i = 0; i < std::size(kMatrices); ++i) {
    Served m;
    m.name = kMatrices[i];
    m.a = generate(m.name, kMatrixScale, args.seed, report);
    m.flops = 2.0 * static_cast<double>(m.a.nnz());
    m.w = random_vector(static_cast<std::size_t>(m.a.n_rows), args.seed * 17 + i);
    const std::vector<double> u = transpose_probe(m.a, m.w);
    for (int v = 0; v < kPool; ++v) {
      m.xs.push_back(random_vector(static_cast<std::size_t>(m.a.n_cols),
                                   args.seed * 1009 + i * kPool + static_cast<std::uint64_t>(v)));
      m.checks.push_back(probe_check(m.a, m.w, u, m.xs.back()));
    }
    report.note("scale." + m.name, kMatrixScale);
    note_footprint(report, "matrix." + m.name, m.a);
    mats.push_back(std::move(m));
  }

  // Set-up: construct, register (bind) both matrices, start the workers.
  std::vector<double> setup_times, setup_walls;
  std::unique_ptr<serve::Server> server;
  const std::vector<long> before = thread_ids();
  do {
    server.reset();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    server = start_server(mats);
    setup_times.push_back(process_cpu_seconds() - cpu0);
    setup_walls.push_back(seconds_between(t0, Clock::now()));
  } while (!args.trace && more_setups(setup_times));
  for (const Served& m : mats)
    report.note("model_k." + m.name, server->batch_width(m.name));
  // The server's threads: those that exist now and did not before.
  std::vector<long> workers;
  const std::vector<long> after = thread_ids();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(workers));
  report.note("server_threads", static_cast<double>(workers.size()));

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::vector<Phase> phases = plan_phases(budget, args.seed, static_cast<int>(mats.size()));
  const LoadResult load = drive(*server, mats, phases, workers);

  // Correctness and counts. Shed overload requests are refused by
  // design and counted in shed_ratio; everything else that was sent is
  // checked, and any non-ok nominal request is a failure.
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Record& r : load.phases[p].rec) {
      if (p == 1 && r.status == serve::RequestStatus::rejected_full) continue;
      ++report.attempted;
      if (r.status != serve::RequestStatus::ok || !r.check_ok) ++report.failed;
    }
  }

  const PhaseResult& nom = load.phases[0];
  std::vector<double> lat;
  for (const Record& r : nom.rec)
    lat.push_back(r.status == serve::RequestStatus::ok
                      ? seconds_between(r.sched, r.observed)
                      : std::numeric_limits<double>::infinity());
  const Summary ls = summarize(lat);
  const Capacity cap = capacity(load.phases[1], mats);
  std::fprintf(stderr,
               "serve: nominal %zu req p50 %.3f ms p%.0f %.3f ms (limit %.0f ms); "
               "overload %zu req, capacity %.1f req/s, %.3f GF/s per worker CPU "
               "second x %d (workers on CPU %.0f %% of the window)\n",
               nom.rec.size(), ms(ls.p50), ls.tail_pct, ms(ls.tail), kLimitMs,
               load.phases[1].rec.size(), cap.rps, cap.gflops, kWorkers,
               100.0 * cap.busy);

  if (!args.trace) {
    report.set("setup_s", median(setup_times));
    report.set("gflops", cap.gflops);
    report.set("p10_ms", ms(quantile(lat, kGatedQ)));
    report.note("latency.unit", "one request at the nominal rate, from its scheduled send");
    report.note("latency.samples", static_cast<double>(ls.n));
    report.note("latency.p50_ms", ms(ls.p50));
    report.note("latency.tail_pct", ls.tail_pct);
    report.note("latency.tail_ms", ms(ls.tail));
    report.note("latency.within_limit", ms(ls.tail) <= kLimitMs ? 1.0 : 0.0);
    report.note("setups", static_cast<double>(setup_times.size()));
    report.note("setup_wall_s", median(setup_walls));
    report.note("capacity_rps", cap.rps);
    report.note("capacity_busy", cap.busy);
    server->shutdown();
    return;
  }

  for (std::size_t p = 0; p < phases.size(); ++p) {
    const PhaseResult& pr = load.phases[p];
    const std::string b = std::string("serve.") + phases[p].name + ".";
    std::vector<double> submit, queue, batch, exec, resolve, late;
    double shed = 0.0;
    for (const Record& r : pr.rec) {
      submit.push_back(seconds_between(r.call, r.submitted) * 1e6);
      late.push_back(ms(seconds_between(r.sched, r.call)));
      if (r.status == serve::RequestStatus::rejected_full) shed += 1.0;
      if (r.status != serve::RequestStatus::ok) continue;
      queue.push_back(ms(r.queue_s));
      batch.push_back(ms(r.batch_s));
      exec.push_back(ms(r.exec_s));
      resolve.push_back(ms(seconds_between(r.call, r.observed) - r.queue_s -
                           r.batch_s - r.exec_s));
    }
    report.set(b + "submit_us.p50", median(submit));
    report.set(b + "submit_us.p99", quantile(submit, 0.99));
    report.set(b + "queue_ms.p50", median(queue));
    report.set(b + "queue_ms.p99", quantile(queue, 0.99));
    report.set(b + "batch_wait_ms.p50", median(batch));
    report.set(b + "execute_ms.p50", median(exec));
    report.set(b + "resolve_ms.p50", median(resolve));
    report.set(b + "batch_width.mean",
               pr.batches ? static_cast<double>(pr.completed) / static_cast<double>(pr.batches) : 0.0);
    report.set(b + "shed_ratio", pr.rec.empty() ? 0.0 : shed / static_cast<double>(pr.rec.size()));
    report.set(b + "gen_late_ms.p99", quantile(late, 0.99));
    report.note(b + "samples", static_cast<double>(pr.rec.size()));
  }
  report.set("serve.capacity_rps", cap.rps);
  report.set("serve.p50_ms", ms(ls.p50));
  report.set("serve.p99_ms", ms(ls.tail));
  report.note("serve.p99_pct", ls.tail_pct);

  // Traced replay of the same schedule.
  spmvm::obs::clear_trace();
  spmvm::obs::set_tracing(true);
  const LoadResult traced = drive(*server, mats, phases, workers);
  spmvm::obs::set_tracing(false);
  for (std::size_t p = 0; p < phases.size(); ++p)
    for (const Record& r : traced.phases[p].rec) {
      if (p == 1 && r.status == serve::RequestStatus::rejected_full) continue;
      ++report.attempted;
      if (r.status != serve::RequestStatus::ok || !r.check_ok) ++report.failed;
    }
  const Capacity tcap = capacity(traced.phases[1], mats);
  report.set("obs.trace_overhead_frac", cap.rps / tcap.rps - 1.0);
  server->shutdown();
  finish_trace(args, report, {traced.gen_wall_s, traced.col_wall_s});
}

}  // namespace perfbench
