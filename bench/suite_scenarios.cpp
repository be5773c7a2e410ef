#include "suite_scenarios.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/spmmv.hpp"
#include "dist/cluster_model.hpp"
#include "dist/comm_plan.hpp"
#include "exec/dispatch.hpp"
#include "exec/engine.hpp"
#include "formats/auto_select.hpp"
#include "formats/registry.hpp"
#include "matgen/suite.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "perfmodel/balance.hpp"
#include "perfmodel/model_eval.hpp"
#include "perfmodel/pcie_impact.hpp"
#include "serve/batcher.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"

namespace spmvm::suite {

namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// Matrices of the model-deviation table with the scales bench_perf_model
/// uses (smoke mode shrinks them further for CI).
struct DevItem {
  const char* name;
  double scale;
  double smoke_scale;
};
constexpr DevItem kDevItems[] = {
    {"DLR1", 8, 64},
    {"HMEp", 32, 128},
    {"sAMG", 32, 128},
};

/// Eq. 1 streamed bytes of one host product: stored matrix + RHS + LHS.
template <class F>
std::size_t product_bytes(const F& fmt_footprint, index_t n_rows,
                          index_t n_cols) {
  return fmt_footprint.total_bytes(sizeof(double)) +
         (static_cast<std::size_t>(n_rows) +
          static_cast<std::size_t>(n_cols)) *
             sizeof(double);
}

obs::BenchEntry measured_entry(const SuiteConfig& cfg, const std::string& name,
                               offset_t nnz, std::size_t bytes,
                               void (*fn)(void*), void* ctx) {
  const MeasureStats s =
      measure_seconds_stats(cfg.min_seconds, cfg.min_reps, fn, ctx);
  return obs::entry_from_stats(
      name, s,
      {{"GF/s", 2.0 * static_cast<double>(nnz) / s.mean_seconds / 1e9},
       {"GB/s", static_cast<double>(bytes) / s.mean_seconds / 1e9}});
}

template <class F>
obs::BenchEntry measured_entry(const SuiteConfig& cfg, const std::string& name,
                               offset_t nnz, std::size_t bytes, F&& fn) {
  struct Ctx {
    F* f;
  } ctx{&fn};
  return measured_entry(
      cfg, name, nnz, bytes, [](void* c) { (*static_cast<Ctx*>(c)->f)(); },
      &ctx);
}

// ---- host_kernels: measured spMVM per storage format ---------------------

void run_host_kernels(const SuiteConfig& cfg, obs::BenchReport& report) {
  GenConfig gen;
  gen.scale = cfg.host_scale;
  const Csr<double> a = make_samg<double>(gen);
  std::vector<double> x(static_cast<std::size_t>(a.n_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));

  // Every registered format, by registry enumeration — adding a format
  // adds a <backend>/<name> row here with no suite change. Products go
  // through the exec engine, so --backend retargets the whole scenario
  // (gpusim and hybrid execute the same host kernels for numerics;
  // their simulated clocks advance on the side).
  exec::LaunchOptions launch;
  launch.n_threads = cfg.threads;
  launch.basis = exec::Basis::plan;
  auto& eng = exec::engine<double>();
  const auto& reg = formats::registry<double>();
  for (const formats::FormatInfo& info : reg.list()) {
    if (std::string_view(info.name) == "auto")
      continue;  // measured separately (auto_format scenario)
    const auto plan = reg.build(info.name, a);
    const auto bound = eng.bind_plan(cfg.backend, plan, launch);
    report.entries.push_back(measured_entry(
        cfg, cfg.backend + "/" + info.name, a.nnz(),
        product_bytes(plan->footprint(), a.n_rows, a.n_cols), [&] {
          bound->apply(std::span<const double>(x), std::span<double>(y));
        }));
  }
}

// ---- auto_format: the `auto` plan's pick per Table I matrix class --------

void run_auto_format(const SuiteConfig& cfg, obs::BenchReport& report) {
  for (const DevItem& it : kDevItems) {
    const double scale = cfg.smoke ? it.smoke_scale : it.scale;
    const auto a = make_named(it.name, scale).matrix;

    formats::PlanOptions opt;
    opt.probe = true;
    opt.probe_candidates = 0;  // probe everything: the choice must agree
                               // with the measured-fastest format
    opt.probe_min_seconds = cfg.min_seconds;
    opt.probe_reps = cfg.min_reps;
    opt.probe_threads = cfg.threads;
    const auto plan = formats::registry<double>().build("auto", a, opt);
    const formats::AutoChoice& c = *plan->auto_choice();

    // Gap between the Eq. 1 model's pick and the measured winner, as a
    // slowdown percentage (0 when they agree).
    const double chosen_s = c.candidates[c.chosen_index].probe_seconds;
    const double model_s = c.candidates[c.model_index].probe_seconds;
    const double gap_pct =
        chosen_s > 0.0 ? 100.0 * (model_s / chosen_s - 1.0) : 0.0;

    const double sample[] = {chosen_s};
    report.entries.push_back(obs::summarize_samples(
        std::string("auto/") + it.name, sample,
        {{"chosen_index", static_cast<double>(c.chosen_index)},
         {"model_index", static_cast<double>(c.model_index)},
         {"model_agrees", c.chosen_index == c.model_index ? 1.0 : 0.0},
         {"model_vs_measured_pct", gap_pct}}));
    report.metadata.emplace_back(std::string("auto.") + it.name + ".format",
                                 c.chosen);
  }
}

// ---- auto_model: the model half of `auto`, gated in CI ---------------------

/// `auto` with the probe off: the Eq. 1 balance of every candidate at
/// α = 1/N_nzr and the model's pick, all deterministic. The sample is
/// the pick's Eq. 1 time for one product on the Tesla C2070 (ECC on), so
/// a change to any footprint formula shows in the gate.
void run_auto_model(const SuiteConfig& cfg, obs::BenchReport& report) {
  const double bw = gpusim::DeviceSpec::tesla_c2070().bandwidth_bytes(true);
  for (const DevItem& it : kDevItems) {
    const double scale = cfg.smoke ? it.smoke_scale : it.scale;
    const auto a = make_named(it.name, scale).matrix;
    formats::PlanOptions opt;
    opt.probe = false;
    const formats::AutoChoice c =
        formats::choose_format(formats::registry<double>(), a, opt);
    std::vector<std::pair<std::string, double>> counters = {
        {"model_index", static_cast<double>(c.model_index)}};
    for (const formats::AutoCandidate& k : c.candidates)
      counters.emplace_back("balance." + k.name, k.balance);
    const double sample[] = {c.candidates[c.model_index].balance * 2.0 *
                             static_cast<double>(a.nnz()) / bw};
    report.entries.push_back(obs::summarize_samples(
        std::string("auto_model/") + it.name, sample, std::move(counters)));
  }
}

// ---- model_deviation: Eq. 1 at measured α vs the simulator ---------------

void run_model_deviation(const SuiteConfig& cfg, obs::BenchReport& report) {
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  for (const DevItem& it : kDevItems) {
    const double scale = cfg.smoke ? it.smoke_scale : it.scale;
    const auto a = make_named(it.name, scale).matrix;
    auto sdev = dev;  // scale the L2 with the matrix (see DESIGN.md)
    sdev.l2_bytes = static_cast<std::size_t>(
        static_cast<double>(dev.l2_bytes) / scale);
    const auto sim =
        formats::registry<double>().build("ellpack_r", a)->simulate(sdev);
    const auto r = perfmodel::evaluate(sdev, a, *sim, /*ecc=*/true);
    const double sample[] = {r.sim_seconds};
    report.entries.push_back(obs::summarize_samples(
        std::string("model/") + it.name, sample,
        {{"alpha_measured", r.alpha_measured},
         {"balance_model", r.balance_model},
         {"balance_sim", r.balance_sim},
         {"model GF/s", r.gflops_model},
         {"sim GF/s", r.gflops_sim},
         {"pcie GF/s", r.gflops_with_pcie},
         {"model_vs_sim_pct", r.model_vs_sim_pct()}}));
  }
}

// ---- host_reference: the same matrices on this machine's CPU -------------

void run_host_reference(const SuiteConfig& cfg, obs::BenchReport& report) {
  for (const DevItem& it : kDevItems) {
    const double scale = cfg.smoke ? it.smoke_scale : it.scale;
    const auto a = make_named(it.name, scale).matrix;
    std::vector<double> x(static_cast<std::size_t>(a.n_cols), 1.0);
    std::vector<double> y(static_cast<std::size_t>(a.n_rows));
    const int t = cfg.threads;
    report.entries.push_back(measured_entry(
        cfg, std::string("deviation/") + it.name + "/host", a.nnz(),
        product_bytes(footprint(a), a.n_rows, a.n_cols), [&] {
          exec::host_spmv(a, std::span<const double>(x), std::span<double>(y),
                          t);
        }));
  }
}

// ---- exec_backends: one product per execution backend --------------------

/// Deterministic split and PCIe accounting of the exec engine: bind the
/// same matrix to every backend, run one product each, and record what
/// the backend decided (row split, device nnz share) and what it staged
/// over the simulated PCIe link (Eq. 2 pricing). All counters derive
/// from the model, so CI gates them bit-exactly.
void run_exec_backends(const SuiteConfig&, obs::BenchReport& report) {
  // A private engine: simulated clocks and staging counters start at
  // zero, so every number below is the exact cost of one product.
  exec::Engine<double> eng;
  const auto a = make_named("DLR1", 64).matrix;
  std::vector<double> x(static_cast<std::size_t>(a.n_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));

  formats::PlanOptions fopt;
  fopt.probe = false;  // keep any format selection bit-deterministic
  for (const char* name : {"host", "gpusim", "hybrid"}) {
    const std::uint64_t h2d0 = eng.transfers()->bytes_to_device();
    const std::uint64_t d2h0 = eng.transfers()->bytes_to_host();
    const double s0 = eng.transfers()->transfer_seconds();
    const auto bound = eng.bind(name, a, "pjds", fopt);
    bound->apply(std::span<const double>(x), std::span<double>(y));
    report.entries.push_back(obs::summarize_samples(
        std::string("exec/") + name, {},
        {{"split_row", static_cast<double>(bound->split_row())},
         {"device_nnz_share", bound->device_nnz_share()},
         {"h2d_bytes", static_cast<double>(
                           eng.transfers()->bytes_to_device() - h2d0)},
         {"d2h_bytes", static_cast<double>(
                           eng.transfers()->bytes_to_host() - d2h0)},
         {"pcie_seconds", eng.transfers()->transfer_seconds() - s0}}));
  }

  // The `auto` choice for the same matrix: the Eq. 1/Eq. 2 bound per
  // backend and the winner (recorded as metadata — it is a name).
  const exec::BackendChoice c = eng.select_backend(a);
  report.entries.push_back(obs::summarize_samples(
      "exec/auto", {},
      {{"host_s", c.host_seconds},
       {"gpusim_s", c.gpusim_seconds},
       {"hybrid_s", c.hybrid_seconds},
       {"device_share", c.hybrid_device_share}}));
  report.metadata.emplace_back("exec.auto.backend", c.chosen);
}

// ---- pcie_thresholds: the Eqs. 3/4 favorable-N_nzr numbers ---------------

void run_pcie_thresholds(const SuiteConfig&, obs::BenchReport& report) {
  struct Row {
    const char* name;
    double value;
    double paper;
  };
  const Row rows[] = {
      {"pcie/ge50pct_worst_alpha_r20",
       perfmodel::nnzr_upper_for_50pct_penalty_worst_alpha(20.0), 25},
      {"pcie/ge50pct_alpha1_r10",
       perfmodel::nnzr_upper_for_50pct_penalty(10.0, 1.0), 7},
      {"pcie/le10pct_alpha1_r10",
       perfmodel::nnzr_lower_for_10pct_penalty(10.0, 1.0), 80},
      {"pcie/le10pct_worst_alpha_r20",
       perfmodel::nnzr_lower_for_10pct_penalty_worst_alpha(20.0), 266},
  };
  for (const Row& r : rows)
    report.entries.push_back(obs::summarize_samples(
        r.name, {}, {{"nnzr", r.value}, {"paper_nnzr", r.paper}}));
}

// ---- dist_comm_modes: the three communication schemes (cluster model) ----

void run_dist_comm_modes(const SuiteConfig& cfg, obs::BenchReport& report) {
  const double scale = cfg.smoke ? 32 : 8;
  const auto m = make_named("DLR1", scale);
  dist::ClusterSpec c = dist::ClusterSpec::dirac();
  c.device.dram_bytes = static_cast<std::size_t>(
      static_cast<double>(c.device.dram_bytes) / scale);
  c.device.l2_bytes = static_cast<std::size_t>(
      static_cast<double>(c.device.l2_bytes) / scale);

  const std::vector<int> nodes = cfg.smoke ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4, 8};
  const std::vector<dist::CommScheme> schemes = {
      dist::CommScheme::vector_mode, dist::CommScheme::naive_overlap,
      dist::CommScheme::task_mode};
  const auto pts = dist::strong_scaling(c, m.matrix, nodes, schemes);
  for (const auto& p : pts) {
    if (p.seconds == 0.0) continue;  // did not fit in device memory
    const double sample[] = {p.seconds};
    report.entries.push_back(obs::summarize_samples(
        std::string("dist/DLR1/") + dist::scheme_slug(p.scheme) + "/" +
            std::to_string(p.nodes),
        sample,
        {{"GF/s", p.gflops}, {"nodes", static_cast<double>(p.nodes)}}));
  }
}

// ---- dist_comm: functional halo exchange through the persistent plan -----

/// CPU seconds of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Deterministic rank layout (halo, send lists, part sizes summed over
/// ranks) and per-scheme traffic accounting (bytes and messages per
/// iteration), both gated in CI, plus informational set-up CPU time
/// under dist_setup_time/ and the plan's time per iteration under
/// dist_comm_time/ (not gated: host timings).
void run_dist_comm(const SuiteConfig& cfg, obs::BenchReport& report) {
  const double scale = cfg.smoke ? 64 : 16;
  const auto m = make_named("DLR1", scale);
  const int n_ranks = 4;
  const int iters = cfg.smoke ? 5 : 20;
  const auto part = dist::partition_balanced_nnz(m.matrix, n_ranks);

  std::vector<double> setup_s(static_cast<std::size_t>(n_ranks));
  double n_halo = 0, send_total = 0, local_nnz = 0, nonlocal_nnz = 0,
         n_peers = 0;
  std::mutex layout_mutex;
  msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
    const double t0 = thread_cpu_seconds();
    const auto d = dist::distribute(m.matrix, part, comm.rank());
    const dist::CommPlan<double> plan(comm, d, dist::CommScheme::vector_mode);
    setup_s[static_cast<std::size_t>(comm.rank())] =
        thread_cpu_seconds() - t0;
    const std::lock_guard<std::mutex> lock(layout_mutex);
    n_halo += static_cast<double>(d.n_halo);
    send_total += static_cast<double>(d.send_total());
    local_nnz += static_cast<double>(d.local.nnz());
    nonlocal_nnz += static_cast<double>(d.nonlocal.nnz());
    n_peers += d.n_peers();
  });
  report.entries.push_back(obs::summarize_samples(
      "dist_layout/DLR1", {},
      {{"n_halo", n_halo},
       {"send_total", send_total},
       {"local_nnz", local_nnz},
       {"nonlocal_nnz", nonlocal_nnz},
       {"n_peers", n_peers}}));
  report.entries.push_back(obs::summarize_samples(
      "dist_setup_time/DLR1", setup_s, {{"ranks", n_ranks}}));

  const std::vector<dist::CommScheme> schemes = {
      dist::CommScheme::vector_mode, dist::CommScheme::naive_overlap,
      dist::CommScheme::task_mode};
  for (const auto scheme : schemes) {
    // Traffic counters around a barrier-synchronized plan run: every
    // steady-state send must rendezvous, so the deltas are exact.
    const std::uint64_t halo0 = obs::counter("comm.halo_bytes").value();
    const std::uint64_t send0 = obs::counter("comm.send_bytes").value();
    const std::uint64_t hits0 = obs::counter("comm.rendezvous_hits").value();
    const std::uint64_t eager0 = obs::counter("comm.eager_fallbacks").value();
    // The same run doubles as the attribution window: tracing is forced
    // on for it, and the events recorded after `trace_t0` are attributed
    // per rank and phase (DESIGN.md §11). Time-clipping instead of
    // clear_trace() keeps spans of earlier scenarios intact for a
    // --trace export.
    const bool was_tracing = obs::tracing_enabled();
    obs::set_tracing(true);
    const std::uint64_t trace_t0 = obs::now_ns();
    msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
      const auto d = dist::distribute(m.matrix, part, comm.rank());
      std::vector<double> x(static_cast<std::size_t>(d.n_local), 1.0);
      std::vector<double> y(static_cast<std::size_t>(d.n_local));
      dist::CommPlan<double> plan(comm, d, scheme, /*gather_threads=*/2);
      for (int it = 0; it < iters; ++it) {
        plan.spmv(std::span<const double>(x), std::span<double>(y));
        comm.barrier();
      }
    });
    obs::set_tracing(was_tracing);
    std::vector<obs::TraceEvent> window;
    for (const auto& e : obs::collect())
      if (e.t0_ns >= trace_t0) window.push_back(e);
    const obs::AttributionReport attr = obs::attribute_comm_phases(window);
    if (!attr.empty()) {
      report.entries.push_back(obs::summarize_samples(
          std::string("dist_comm_phase/") + dist::scheme_slug(scheme), {},
          attr.counters()));
      std::printf("dist_comm/%s comm attribution (%d ranks, %d iters):\n%s\n",
                  dist::scheme_slug(scheme), n_ranks, iters,
                  attr.render().c_str());
    }
    const double per_iter =
        1.0 / static_cast<double>(iters) / n_ranks;  // per rank-iteration
    report.entries.push_back(obs::summarize_samples(
        std::string("dist_comm/") + dist::scheme_slug(scheme), {},
        {{"halo_bytes_per_rank_iter",
          static_cast<double>(obs::counter("comm.halo_bytes").value() -
                              halo0) *
              per_iter},
         {"send_bytes_per_rank_iter",
          static_cast<double>(obs::counter("comm.send_bytes").value() -
                              send0) *
              per_iter},
         {"rendezvous_per_iter",
          static_cast<double>(obs::counter("comm.rendezvous_hits").value() -
                              hits0) /
              iters},
         {"eager_per_iter",
          static_cast<double>(obs::counter("comm.eager_fallbacks").value() -
                              eager0) /
              iters}}));

    // Separate run for wall-clock: the plan, free-running.
    double plan_s = 0.0;
    msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
      const auto d = dist::distribute(m.matrix, part, comm.rank());
      std::vector<double> x(static_cast<std::size_t>(d.n_local), 1.0);
      std::vector<double> y(static_cast<std::size_t>(d.n_local));
      // Warm up (pool workers, kernel plans) before timing.
      dist::CommPlan<double> plan(comm, d, scheme, /*gather_threads=*/2);
      plan.spmv(std::span<const double>(x), std::span<double>(y));
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int it = 0; it < iters; ++it)
        plan.spmv(std::span<const double>(x), std::span<double>(y));
      const auto t1 = std::chrono::steady_clock::now();
      if (comm.rank() == 0)
        plan_s = std::chrono::duration<double>(t1 - t0).count() / iters;
    });
    const double sample[] = {plan_s};
    report.entries.push_back(obs::summarize_samples(
        std::string("dist_comm_time/") + dist::scheme_slug(scheme), sample,
        {{"plan_s", plan_s}}));
  }
}

/// The suite's validation summary: for every matrix with both a model
/// row and a host row, one "deviation/<name>" entry (the three-way
/// model-vs-simulated-vs-host table) mirrored into obs gauges.
void record_deviation_table(obs::BenchReport& report) {
  for (const DevItem& it : kDevItems) {
    const obs::BenchEntry* model =
        report.find(std::string("model/") + it.name);
    const obs::BenchEntry* host =
        report.find(std::string("deviation/") + it.name + "/host");
    if (model == nullptr || host == nullptr) continue;
    const auto counter = [](const obs::BenchEntry* e, const char* name) {
      for (const auto& [k, v] : e->counters)
        if (k == name) return v;
      return 0.0;
    };
    const double model_gfs = counter(model, "model GF/s");
    const double sim_gfs = counter(model, "sim GF/s");
    const double host_gfs = counter(host, "GF/s");
    const double model_sim_pct = perfmodel::deviation_pct(model_gfs, sim_gfs);
    const double sim_host = host_gfs == 0.0 ? 0.0 : sim_gfs / host_gfs;
    const double model_host = host_gfs == 0.0 ? 0.0 : model_gfs / host_gfs;
    // Carry the host row's timing spread so the regression gate knows
    // how noisy the host-derived ratios are.
    obs::BenchEntry e = *host;
    e.name = std::string("deviation/") + it.name;
    e.counters = {{"model GF/s", model_gfs},
                  {"sim GF/s", sim_gfs},
                  {"host GF/s", host_gfs},
                  {"model_vs_sim_pct", model_sim_pct},
                  {"sim_vs_host_ratio", sim_host},
                  {"model_vs_host_ratio", model_host}};
    report.entries.push_back(std::move(e));
    const std::string prefix = std::string("report.dev.") + it.name;
    obs::gauge(prefix + ".model_vs_sim_pct").set(model_sim_pct);
    obs::gauge(prefix + ".sim_vs_host_ratio").set(sim_host);
    obs::gauge(prefix + ".model_vs_host_ratio").set(model_host);
  }
}

// ---- serve: batching model, block staging, admission accounting ----------

void run_serve(const SuiteConfig&, obs::BenchReport& report) {
  // Model-chosen batch widths per Table I matrix: the Eq. 1 block
  // extension walked with the server's default gain threshold.
  for (const char* name : {"DLR1", "HMEp", "sAMG"}) {
    const auto nm = make_named(name, 64);
    const double nnzr =
        static_cast<double>(nm.matrix.nnz()) /
        static_cast<double>(std::max<index_t>(1, nm.matrix.n_rows));
    const double alpha = perfmodel::alpha_ideal(nnzr);
    report.entries.push_back(obs::summarize_samples(
        std::string("serve/width_") + name, {},
        {{"nnzr", nnzr},
         {"target_k_max8",
          static_cast<double>(serve::target_batch_width(sizeof(double),
                                                        alpha, nnzr, 8,
                                                        0.02))},
         {"target_k_max32",
          static_cast<double>(serve::target_batch_width(sizeof(double),
                                                        alpha, nnzr, 32,
                                                        0.02))},
         {"balance_k1", spmmv_code_balance(sizeof(double), alpha, nnzr, 1)},
         {"balance_k8",
          spmmv_code_balance(sizeof(double), alpha, nnzr, 8)}}));
  }

  // Block-launch PCIe staging on a private engine: one k-wide launch
  // stages n_cols·k up and n_rows·k down — exact byte deltas, no noise.
  exec::Engine<double> eng;
  const auto a = make_named("DLR1", 64).matrix;
  formats::PlanOptions fopt;
  fopt.probe = false;
  const auto bound = eng.bind("gpusim", a, "pjds", fopt);
  for (const int k : {1, 2, 8}) {
    std::vector<double> x(static_cast<std::size_t>(a.n_cols) *
                              static_cast<std::size_t>(k),
                          1.0);
    std::vector<double> y(static_cast<std::size_t>(a.n_rows) *
                          static_cast<std::size_t>(k));
    const std::uint64_t h2d0 = eng.transfers()->bytes_to_device();
    const std::uint64_t d2h0 = eng.transfers()->bytes_to_host();
    bound->apply_block(std::span<const double>(x), std::span<double>(y), k);
    report.entries.push_back(obs::summarize_samples(
        std::string("serve/block_k") + std::to_string(k), {},
        {{"h2d_bytes", static_cast<double>(eng.transfers()->bytes_to_device() -
                                           h2d0)},
         {"d2h_bytes", static_cast<double>(eng.transfers()->bytes_to_host() -
                                           d2h0)}}));
  }

  // Admission accounting on a synchronous submission sequence: five
  // requests against a watermark of two while the workers are still
  // parked — two admitted, three shed — then a late start serves the
  // backlog as one width-2 block.
  serve::ServerOptions sopt;
  sopt.backend = "host";
  sopt.n_workers = 1;
  sopt.queue_capacity = 4;
  sopt.admit_watermark = 2;
  sopt.max_batch = 8;
  sopt.max_batch_wait_s = 0.0;
  serve::Server server(sopt);
  server.register_matrix("m", a);
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(server.submit(
        "m", std::vector<double>(static_cast<std::size_t>(a.n_cols), 1.0)));
  server.start();
  int max_width = 0;
  for (auto& t : tickets) {
    const serve::Response r = t.get();
    max_width = std::max(max_width, r.batch_width);
  }
  server.shutdown();
  const serve::ServerStats stats = server.stats();
  report.entries.push_back(obs::summarize_samples(
      "serve/admission", {},
      {{"accepted", static_cast<double>(stats.accepted)},
       {"rejected_full", static_cast<double>(stats.rejected_full)},
       {"completed", static_cast<double>(stats.completed)},
       {"batches", static_cast<double>(stats.batches)},
       {"model_k", static_cast<double>(server.batch_width("m"))},
       {"max_width", static_cast<double>(max_width)}}));
}

constexpr Scenario kScenarios[] = {
    {"host_kernels", "measured host spMVM per storage format (sAMG)", false,
     run_host_kernels},
    {"auto_format",
     "the auto plan's format pick vs measured-fastest (DLR1/HMEp/sAMG)",
     false, run_auto_format},
    {"auto_model",
     "the auto plan's model ranking: alpha, balances, pick (DLR1/HMEp/sAMG)",
     true, run_auto_model},
    {"model_deviation",
     "Eq. 1 at measured alpha vs the GPU simulator (DLR1/HMEp/sAMG)", true,
     run_model_deviation},
    {"host_reference",
     "the model-deviation matrices on this machine's CPU (CSR)", false,
     run_host_reference},
    {"exec_backends",
     "one product per execution backend: row split and PCIe accounting "
     "(DLR1)",
     true, run_exec_backends},
    {"pcie_thresholds", "Eqs. 3/4 favorable-N_nzr thresholds", true,
     run_pcie_thresholds},
    {"dist_comm_modes",
     "cluster-model strong scaling, three communication schemes", true,
     run_dist_comm_modes},
    {"dist_comm",
     "functional halo exchange: per-scheme traffic (deterministic) and "
     "plan timing",
     false, run_dist_comm},
    {"serve",
     "serving layer: model batch widths, block-launch PCIe staging, "
     "admission accounting (DLR1/HMEp/sAMG)",
     true, run_serve},
};

}  // namespace

SuiteConfig SuiteConfig::from_env(bool smoke) {
  SuiteConfig cfg;
  cfg.smoke = smoke;
  if (smoke) {
    cfg.min_reps = 5;
    cfg.min_seconds = 0.005;  // enough reps for a usable stddev estimate
    cfg.host_scale = 512.0;
  }
  cfg.min_reps =
      static_cast<int>(env_double("SPMVM_BENCH_REPS", cfg.min_reps));
  cfg.min_seconds = env_double("SPMVM_BENCH_MIN_SECONDS", cfg.min_seconds);
  cfg.host_scale = env_double("SPMVM_BENCH_SCALE", cfg.host_scale);
  cfg.threads =
      static_cast<int>(env_double("SPMVM_BENCH_THREADS", cfg.threads));
  return cfg;
}

std::span<const Scenario> scenarios() { return kScenarios; }

obs::BenchReport run_suite(const SuiteConfig& cfg, const std::string& filter) {
  obs::BenchReport report;
  report.binary = "bench_suite";
  report.metadata = obs::machine_fingerprint();
  report.metadata.emplace_back("mode", cfg.smoke ? "smoke" : "full");
  report.metadata.emplace_back("min_reps", std::to_string(cfg.min_reps));
  report.metadata.emplace_back("min_seconds",
                               std::to_string(cfg.min_seconds));
  report.metadata.emplace_back("host_scale", std::to_string(cfg.host_scale));
  report.metadata.emplace_back("threads", std::to_string(cfg.threads));
  report.metadata.emplace_back("backend", cfg.backend);
  if (!filter.empty()) report.metadata.emplace_back("filter", filter);

  for (const Scenario& s : kScenarios) {
    if (!filter.empty() &&
        std::string_view(s.name).find(filter) == std::string_view::npos)
      continue;
    // Every scenario starts from a fully zeroed registry — including
    // gauges, which reset_metrics() deliberately keeps: scenarios are
    // *different* workloads, so a gauge left over from the previous one
    // (e.g. comm.gather_seconds) would masquerade as this scenario's.
    obs::reset_all();
    s.run(cfg, report);
  }
  record_deviation_table(report);
  return report;
}

}  // namespace spmvm::suite
