// Ablation studies for the design choices DESIGN.md calls out:
//  1. pJDS block size br (paper: br = warp size, "no matrix-dependent
//     tuning parameters") — footprint and throughput across br,
//  2. sliced-ELLPACK sorting window σ (the SELL-C-σ outlook): σ = 1
//     (Monakov) ... σ = N (pJDS-like),
//  3. why ELLPACK-style formats exist at all: CSR-scalar on the GPU.
#include <cstdio>
#include <string>

#include "formats/registry.hpp"
#include "matgen/suite.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sparse/bellpack.hpp"
#include "sparse/convert.hpp"
#include "util/ascii.hpp"

using namespace spmvm;

namespace {

/// P·A·Pᵀ with P the descending row-length sort within windows of σ
/// rows: the br and σ sweeps time the symmetric basis, rows and columns
/// permuted once before the format is built.
Csr<double> sorted_symmetric(const Csr<double>& a, index_t sigma) {
  std::vector<index_t> lens(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    lens[static_cast<std::size_t>(i)] = a.row_len(i);
  return permute_csr(a, Permutation::sort_descending(lens, sigma),
                     PermuteColumns::yes);
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
  report.binary = "bench_ablation";
  report.metadata = obs::machine_fingerprint();

  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto dlr1 = make_named("DLR1", 16).matrix;
  const auto samg = make_named("sAMG", 64).matrix;

  std::printf("Ablation 1: pJDS block size br (DP, ECC on)\n\n");
  AsciiTable t1({"br", "DLR1 fill %", "DLR1 GF/s", "sAMG fill %",
                 "sAMG GF/s"});
  const Csr<double> dlr1_sorted = sorted_symmetric(dlr1, dlr1.n_rows);
  const Csr<double> samg_sorted = sorted_symmetric(samg, samg.n_rows);
  for (const index_t br : {1, 4, 8, 16, 32, 64, 128}) {
    std::vector<std::string> row = {std::to_string(br)};
    for (const auto* a : {&dlr1_sorted, &samg_sorted}) {
      const auto p = SlicedEll<double>::from_csr(*a, br);
      const auto r = gpusim::simulate(dev, p, "pjds");
      row.push_back(fmt(100.0 * p.fill_fraction(), 2));
      row.push_back(fmt(r.gflops, 1));
      report.entries.push_back(obs::summarize_samples(
          std::string("ablation1/pjds_br") + std::to_string(br) + "/" +
              (a == &dlr1_sorted ? "DLR1" : "sAMG"),
          {},
          {{"fill_pct", 100.0 * p.fill_fraction()}, {"GF/s", r.gflops}}));
    }
    t1.add_row(row);
  }
  std::printf("%s\n", t1.render().c_str());
  std::printf("expected: fill grows with br; throughput flat around br = 32 "
              "(warp size)\n-> confirms \"no matrix-dependent tuning "
              "parameters\".\n\n");

  std::printf("Ablation 2: sliced-ELLPACK sorting window sigma "
              "(C = 32, DP, ECC on)\n\n");
  AsciiTable t2({"sigma", "sAMG fill %", "sAMG GF/s", "sAMG warp eff %"});
  for (const index_t sigma :
       {1, 32, 256, 4096, samg.n_rows}) {
    const auto s = SlicedEll<double>::from_csr(sorted_symmetric(samg, sigma));
    const auto r = gpusim::simulate(dev, s, "sell_c_sigma");
    t2.add_row({sigma == samg.n_rows ? "N (full sort)" : std::to_string(sigma),
                fmt(100.0 * s.fill_fraction(), 2), fmt(r.gflops, 1),
                fmt(100.0 * r.stats.warp_efficiency(), 1)});
    report.entries.push_back(obs::summarize_samples(
        std::string("ablation2/sell_sigma") +
            (sigma == samg.n_rows ? "N" : std::to_string(sigma)) + "/sAMG",
        {},
        {{"fill_pct", 100.0 * s.fill_fraction()},
         {"GF/s", r.gflops},
         {"warp_efficiency_pct", 100.0 * r.stats.warp_efficiency()}}));
  }
  std::printf("%s\n", t2.render().c_str());
  std::printf("expected: sigma = 1 keeps ELLPACK-R-like fill/efficiency; "
              "larger windows\napproach pJDS — the SELL-C-sigma trade-off of "
              "the paper's outlook.\n\n");

  std::printf("Ablation 3: CSR-scalar GPU kernel vs GPU formats "
              "(DLR1, DP, ECC on)\n\n");
  AsciiTable t3({"format", "GF/s", "bytes/flop"});
  // Row label -> registry format; CSR-scalar has no storage of its own
  // and runs the simulator kernel directly.
  struct Kernel {
    const char* label;
    const char* format;  // nullptr: CSR-scalar
  };
  const Kernel kernels[] = {{"CSR-scalar", nullptr},
                            {"CSR-vector", "csr"},
                            {"ELLPACK", "ellpack"},
                            {"ELLPACK-R", "ellpack_r"},
                            {"sliced-ELL", "sliced_ell"},
                            {"pJDS", "pjds"}};
  for (const Kernel& k : kernels) {
    const auto r =
        k.format == nullptr
            ? gpusim::simulate_csr_scalar(dev, dlr1)
            : *formats::registry<double>().build(k.format, dlr1)
                   ->simulate(dev);
    t3.add_row({k.label, fmt(r.gflops, 1), fmt(r.code_balance, 2)});
    report.entries.push_back(obs::summarize_samples(
        std::string("ablation3/") + k.label + "/DLR1", {},
        {{"GF/s", r.gflops}, {"bytes_per_flop", r.code_balance}}));
  }
  std::printf("%s\n", t3.render().c_str());
  std::printf("expected: uncoalesced CSR-scalar far below every "
              "ELLPACK-family format;\nCSR-vector competitive only because "
              "DLR1 rows are long.\n\n");

  std::printf("Ablation 4: ELLR-T threads-per-row sweep (DP, ECC on) — the "
              "tuning parameter\npJDS does without\n\n");
  {
    AsciiTable tt({"T", "DLR1 GF/s", "sAMG GF/s"});
    const auto e_dlr1 = SlicedEll<double>::from_csr(
        dlr1, ellpack_slice_height(dlr1.n_rows, 32));
    const auto e_samg = SlicedEll<double>::from_csr(
        samg, ellpack_slice_height(samg.n_rows, 32));
    for (const int t : {1, 2, 4, 8, 16, 32}) {
      const double g_dlr1 = gpusim::simulate_ellr_t(dev, e_dlr1, t).gflops;
      const double g_samg = gpusim::simulate_ellr_t(dev, e_samg, t).gflops;
      tt.add_row({std::to_string(t), fmt(g_dlr1, 1), fmt(g_samg, 1)});
      report.entries.push_back(obs::summarize_samples(
          std::string("ablation4/ellr_t") + std::to_string(t), {},
          {{"DLR1_GF/s", g_dlr1}, {"sAMG_GF/s", g_samg}}));
    }
    std::printf("%s\n", tt.render().c_str());
    std::printf("expected: the optimal T differs per matrix (long-row DLR1 "
                "likes larger T,\nshort-row sAMG degrades) — ELLR-T needs "
                "per-matrix tuning, pJDS does not.\n\n");
  }

  std::printf("Ablation 5: BELLPACK (5x5 tiles) vs pJDS — a priori block "
              "structure\n\n");
  const auto dlr2 = make_named("DLR2", 64).matrix;
  AsciiTable t4({"matrix", "format", "device bytes/nnz (DP)", "fill %"});
  for (const auto* item : {&dlr2, &samg}) {
    const char* mname = item == &dlr2 ? "DLR2 (5x5 blocks)" : "sAMG (unstructured)";
    const char* slug = item == &dlr2 ? "DLR2" : "sAMG";
    const auto bell = Bellpack<double>::from_csr(*item, 5, 5, 32);
    const auto pjds = SlicedEll<double>::from_csr(*item, 32, item->n_rows);
    const double bell_bpn = static_cast<double>(bell.bytes()) /
                            static_cast<double>(item->nnz());
    const double pjds_bpn = static_cast<double>(pjds.bytes()) /
                            static_cast<double>(item->nnz());
    t4.add_row({mname, "BELLPACK 5x5", fmt(bell_bpn, 2),
                fmt(100.0 * bell.fill_fraction(), 1)});
    t4.add_row({mname, "pJDS", fmt(pjds_bpn, 2),
                fmt(100.0 * pjds.fill_fraction(), 1)});
    report.entries.push_back(obs::summarize_samples(
        std::string("ablation5/bellpack/") + slug, {},
        {{"bytes_per_nnz", bell_bpn},
         {"fill_pct", 100.0 * bell.fill_fraction()}}));
    report.entries.push_back(obs::summarize_samples(
        std::string("ablation5/pjds/") + slug, {},
        {{"bytes_per_nnz", pjds_bpn},
         {"fill_pct", 100.0 * pjds.fill_fraction()}}));
  }
  std::printf("%s\n", t4.render().c_str());
  std::printf("expected: even with perfectly matching 5x5 tiles (DLR2), "
              "BELLPACK's per-tile\nindex savings cannot offset its "
              "ELLPACK-style block-row padding, and on a\ngeneral matrix "
              "(sAMG) the tiles store almost only zeros — the paper's "
              "rationale\nfor a structure-agnostic format with no tuning "
              "parameters.\n");

  if (!json_path.empty() && !report.write(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  // SPMVM_TRACE=1 records spans from every simulated kernel above;
  // flush them as a Chrome trace next to the report.
  if (obs::tracing_enabled() &&
      obs::write_chrome_trace("bench_ablation_trace.json"))
    std::printf("\ntrace written to bench_ablation_trace.json\n");
  return 0;
}
