// Fig. 5 reproduction: strong scaling of distributed spMVM for DLR1 (a)
// and UHBR (b) on a Dirac-like cluster (Tesla C2050 per node), DP with
// ECC, for the three communication schemes.
//
// The stand-in matrices are scaled down by S; to preserve the capacity
// effect ("UHBR does not fit on fewer than five nodes") the device memory
// is scaled by the same factor.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dist/cluster_model.hpp"
#include "dist/comm_plan.hpp"
#include "obs/report.hpp"
#include "matgen/suite.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/ascii.hpp"

using namespace spmvm;
using namespace spmvm::dist;

namespace {

void run_case(const char* name, double scale, double paper_single_gfs,
              const std::vector<int>& nodes, obs::BenchReport* report) {
  const auto m = make_named(name, scale);
  std::printf("%s\n", format_stats(m.name, compute_stats(m.matrix)).c_str());

  ClusterSpec c = ClusterSpec::dirac();
  c.device.dram_bytes =
      static_cast<std::size_t>(static_cast<double>(c.device.dram_bytes) / scale);
  c.device.l2_bytes =
      static_cast<std::size_t>(static_cast<double>(c.device.l2_bytes) / scale);

  const std::vector<CommScheme> schemes = {CommScheme::vector_mode,
                                           CommScheme::naive_overlap,
                                           CommScheme::task_mode};
  const auto pts = strong_scaling(c, m.matrix, nodes, schemes);
  if (report != nullptr) {
    for (const auto& p : pts) {
      if (p.seconds == 0.0) continue;  // did not fit in device memory
      const std::string entry_name = std::string(name) + "/" +
                                     scheme_slug(p.scheme) + "/" +
                                     std::to_string(p.nodes);
      const double sample[] = {p.seconds};
      report->entries.push_back(obs::summarize_samples(
          entry_name, sample,
          {{"GF/s", p.gflops}, {"nodes", static_cast<double>(p.nodes)}}));
    }
  }

  AsciiTable t({"nodes", "vector [GF/s]", "naive [GF/s]", "task [GF/s]",
                "task efficiency %"});
  double base = 0.0;
  int base_nodes = 0;
  std::vector<double> x;
  std::vector<std::vector<double>> series(3);
  for (const int n : nodes) {
    std::vector<std::string> row = {std::to_string(n)};
    double task_gfs = 0.0;
    bool fits = true;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      for (const auto& p : pts) {
        if (p.nodes != n || p.scheme != schemes[s]) continue;
        if (p.seconds == 0.0) {
          row.push_back("(no fit)");
          fits = false;
        } else {
          row.push_back(fmt(p.gflops, 1));
          if (schemes[s] == CommScheme::task_mode) task_gfs = p.gflops;
        }
        if (fits) series[s].push_back(p.gflops);
      }
    }
    if (fits) {
      x.push_back(n);
      if (base == 0.0) {
        base = task_gfs;
        base_nodes = n;
      }
      row.push_back(fmt(100.0 * task_gfs / (base * n / base_nodes), 1));
    } else {
      for (auto& s : series)
        if (s.size() > x.size()) s.pop_back();
      row.push_back("-");
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n",
              ascii_chart("  performance vs nodes", x, series,
                          {"vector mode", "naive overlap", "task mode"},
                          false, 14, 60)
                  .c_str());
  if (paper_single_gfs > 0)
    std::printf("paper single-GPU level: %.1f GF/s (incl. PCIe)\n",
                paper_single_gfs);
  std::printf("\n");
}

/// Measured (wall-clock, functional runtime): per-iteration cost of the
/// persistent CommPlan, per scheme. Emitted into --json as
/// measured/<scheme>/plan (not gated).
void run_measured_plan(obs::BenchReport* report) {
  const auto m = make_named("DLR1", 16);
  const int n_ranks = 4;
  const int iters = 40;
  const auto part = partition_balanced_nnz(m.matrix, n_ranks);
  AsciiTable t({"scheme", "plan [us/iter]"});
  for (const auto scheme :
       {CommScheme::vector_mode, CommScheme::naive_overlap,
        CommScheme::task_mode}) {
    double plan_s = 0.0;
    msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
      const auto d = distribute(m.matrix, part, comm.rank());
      std::vector<double> x(static_cast<std::size_t>(d.n_local), 1.0);
      std::vector<double> y(static_cast<std::size_t>(d.n_local));
      CommPlan<double> plan(comm, d, scheme, /*gather_threads=*/2);
      plan.spmv(std::span<const double>(x), std::span<double>(y));  // warm up
      // Best of three repetitions: the in-process runtime runs on a
      // shared machine, so single samples are noisy.
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        comm.barrier();
        const auto t0 = std::chrono::steady_clock::now();
        for (int it = 0; it < iters; ++it)
          plan.spmv(std::span<const double>(x), std::span<double>(y));
        const double s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (rep == 0 || s < best) best = s;
      }
      if (comm.rank() == 0) plan_s = best / iters;
    });
    t.add_row({to_string(scheme), fmt(plan_s * 1e6, 1)});
    if (report != nullptr) {
      const double ps[] = {plan_s};
      report->entries.push_back(obs::summarize_samples(
          std::string("measured/") + scheme_slug(scheme) + "/plan", ps, {}));
    }
  }
  std::printf("measured on the in-process runtime (DLR1/16, 4 ranks, "
              "%d iterations):\n%s\n",
              iters, t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, err;
  if (!obs::consume_json_flag(&argc, argv, &json_path, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
    return 1;
  }
  obs::BenchReport report;
  report.binary = "bench_fig5_scaling";
  report.metadata.emplace_back("cluster", "dirac");
  report.metadata.emplace_back("precision", "dp+ecc");
  obs::BenchReport* rep = json_path.empty() ? nullptr : &report;

  std::printf("Fig. 5: strong scaling on a Dirac-like cluster "
              "(model, DP + ECC, ELLPACK-R)\n\n");
  const std::vector<int> nodes = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32};

  std::printf("(a) DLR1 — small dimension, breakdown at high node counts\n");
  run_case("DLR1", 8, 10.9, nodes, rep);

  std::printf("(b) UHBR — large Nnz, no breakdown; capacity floor at small "
              "node counts\n");
  run_case("UHBR", 64, 44.6, nodes, rep);

  std::printf("paper claims to check:\n"
              " - task mode best everywhere; naive overlap >= vector mode;\n"
              " - DLR1: per-GPU breakdown at 32 nodes, schemes converge;\n"
              " - UHBR: no fit below ~5 nodes; task-mode parallel efficiency "
              "~84%% at 32 nodes\n   (~70%% naive overlap).\n\n");

  // Future-work extension the paper announces: the multi-GPGPU code with
  // the pJDS format instead of ELLPACK-R.
  std::printf("extension: task-mode scaling with pJDS device format "
              "(paper: ongoing work)\n");
  {
    const double scale = 8;
    const auto m = make_named("DLR1", scale);
    ClusterSpec c = ClusterSpec::dirac();
    c.device.dram_bytes = static_cast<std::size_t>(
        static_cast<double>(c.device.dram_bytes) / scale);
    c.device.l2_bytes = static_cast<std::size_t>(
        static_cast<double>(c.device.l2_bytes) / scale);
    AsciiTable t({"nodes", "ELLPACK-R task [GF/s]", "pJDS task [GF/s]",
                  "pJDS device bytes / E-R"});
    for (const int n : {1, 4, 16, 32}) {
      const auto part = partition_balanced_nnz(m.matrix, n);
      const auto d = distribute(m.matrix, part, 0);
      c.matrix_format = "ellpack_r";
      const auto er =
          strong_scaling(c, m.matrix, {n}, {CommScheme::task_mode});
      const auto er_bytes = device_bytes(c, d.local);
      c.matrix_format = "pjds";
      const auto pj =
          strong_scaling(c, m.matrix, {n}, {CommScheme::task_mode});
      const double ratio = static_cast<double>(device_bytes(c, d.local)) /
                           static_cast<double>(er_bytes);
      t.add_row({std::to_string(n), fmt(er[0].gflops, 1),
                 fmt(pj[0].gflops, 1), fmt(ratio, 2)});
    }
    std::printf("%s\n", t.render().c_str());
  }

  std::printf("persistent halo-exchange plans:\n");
  run_measured_plan(rep);

  if (rep != nullptr && !rep->write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
