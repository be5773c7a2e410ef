// Performance-model reproduction (Sec. II-B):
//  - Eq. 1 code balance vs the simulator's measured bytes/flop,
//  - Eqs. 3/4 N_nzr thresholds (the 25 / 7 / 80 / 266 numbers),
//  - the Sec. III single-GPU-with-PCIe numbers: HMEp 3.7, sAMG 2.3,
//    DLR1 10.9 GF/s (vs 12.9 kernel-only) in DP with ECC.
#include <cstdio>
#include <string>

#include "formats/registry.hpp"
#include "gpusim/cpu_node.hpp"
#include "matgen/suite.hpp"
#include "obs/report.hpp"
#include "perfmodel/balance.hpp"
#include "perfmodel/model_eval.hpp"
#include "perfmodel/pcie_impact.hpp"
#include "util/ascii.hpp"

using namespace spmvm;
using namespace spmvm::perfmodel;

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
  report.binary = "bench_perf_model";
  report.metadata = obs::machine_fingerprint();

  const auto dev = gpusim::DeviceSpec::tesla_c2070();

  std::printf("Eq. 1: DP code balance B_W = 6 + 4a + 8/N_nzr [bytes/flop]\n\n");
  AsciiTable bt({"N_nzr", "B(alpha=1/N_nzr)", "B(alpha=0.5)", "B(alpha=1)"});
  for (const double nnzr : {7.0, 15.0, 123.0, 144.0, 315.0}) {
    bt.add_row({fmt(nnzr, 0),
                fmt(code_balance(8, alpha_ideal(nnzr), nnzr), 2),
                fmt(code_balance(8, 0.5, nnzr), 2),
                fmt(code_balance(8, 1.0, nnzr), 2)});
  }
  std::printf("%s\n", bt.render().c_str());

  std::printf("Eqs. 3/4: favorable N_nzr ranges vs B_GPU/B_PCI ratio\n\n");
  AsciiTable rt({"case", "threshold", "paper"});
  rt.add_row({">=50% penalty, alpha=1/N_nzr, ratio 20",
              fmt(nnzr_upper_for_50pct_penalty_worst_alpha(20.0), 1), "25"});
  rt.add_row({">=50% penalty, alpha=1, ratio 10",
              fmt(nnzr_upper_for_50pct_penalty(10.0, 1.0), 1), "7"});
  rt.add_row({"<=10% penalty, alpha=1, ratio 10",
              fmt(nnzr_lower_for_10pct_penalty(10.0, 1.0), 1), "80"});
  rt.add_row({"<=10% penalty, alpha=1/N_nzr, ratio 20",
              fmt(nnzr_lower_for_10pct_penalty_worst_alpha(20.0), 1), "266"});
  std::printf("%s\n", rt.render().c_str());
  report.entries.push_back(obs::summarize_samples(
      "perf_model/thresholds", {},
      {{"ge50pct_worst_alpha_r20", nnzr_upper_for_50pct_penalty_worst_alpha(20.0)},
       {"ge50pct_alpha1_r10", nnzr_upper_for_50pct_penalty(10.0, 1.0)},
       {"le10pct_alpha1_r10", nnzr_lower_for_10pct_penalty(10.0, 1.0)},
       {"le10pct_worst_alpha_r20",
        nnzr_lower_for_10pct_penalty_worst_alpha(20.0)}}));

  std::printf("model vs simulator (DP, ECC on, ELLPACK-R), and the PCIe "
              "impact of Sec. III\ncells: measured [paper]\n\n");
  AsciiTable mt({"matrix", "alpha(meas)", "B model", "B sim",
                 "GF/s kernel", "GF/s +PCIe", "CPU CRS"});
  struct Item {
    const char* name;
    double scale;
    double paper_kernel;  // -1 when the paper gives no number
    double paper_pcie;
    double paper_cpu;
  };
  const Item items[] = {
      {"DLR1", 8, 12.9, 10.9, 5.7},
      {"HMEp", 32, 7.9, 3.7, 3.9},
      {"sAMG", 32, 7.8, 2.3, 4.1},
  };
  const auto cpu = gpusim::CpuNodeSpec::westmere_ep();
  for (const auto& it : items) {
    const auto a = make_named(it.name, it.scale).matrix;
    auto sdev = dev;  // scale the L2 with the matrix (see DESIGN.md)
    sdev.l2_bytes = static_cast<std::size_t>(
        static_cast<double>(dev.l2_bytes) / it.scale);
    auto scpu = cpu;
    scpu.cache_bytes = static_cast<std::size_t>(
        static_cast<double>(cpu.cache_bytes) / it.scale);
    const auto sim =
        formats::registry<double>().build("ellpack_r", a)->simulate(sdev);
    const auto r = evaluate(sdev, a, *sim, /*ecc=*/true);
    const auto c = gpusim::simulate_csr(scpu, a);
    mt.add_row({it.name, fmt(r.alpha_measured, 2), fmt(r.balance_model, 2),
                fmt(r.balance_sim, 2),
                fmt(r.gflops_sim, 1) + " [" + fmt(it.paper_kernel, 1) + "]",
                fmt(r.gflops_with_pcie, 1) + " [" + fmt(it.paper_pcie, 1) + "]",
                fmt(c.gflops, 1) + " [" + fmt(it.paper_cpu, 1) + "]"});
    report.entries.push_back(obs::summarize_samples(
        std::string("perf_model/") + it.name, {},
        {{"alpha_measured", r.alpha_measured},
         {"balance_model", r.balance_model},
         {"balance_sim", r.balance_sim},
         {"kernel GF/s", r.gflops_sim},
         {"pcie GF/s", r.gflops_with_pcie},
         {"cpu_crs GF/s", c.gflops},
         {"model_vs_sim_pct", r.model_vs_sim_pct()}}));
  }
  std::printf("%s\n", mt.render().c_str());
  std::printf("paper claims to check:\n"
              " - HMEp/sAMG with PCIe fall below the CPU node -> no good "
              "GPGPU candidates;\n"
              " - DLR1 keeps a clear GPU advantage (10.9 vs 12.9 kernel-only "
              "~ 16%% PCIe cost).\n");

  if (!json_path.empty() && !report.write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
