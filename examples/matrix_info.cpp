// matrix_info: analysis utility. For a Matrix Market file (or a named
// paper matrix) print structural statistics, the Fig. 3-style histogram,
// per-format device footprints, simulated Fermi throughput, and the
// Eq. 3/4 PCIe verdict — everything the paper's methodology would tell
// you about *your* matrix.
//
//   ./examples/matrix_info matrix.mtx
//   ./examples/matrix_info DLR1 [scale]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "formats/registry.hpp"
#include "gpusim/cpu_node.hpp"
#include "matgen/suite.hpp"
#include "perfmodel/balance.hpp"
#include "perfmodel/pcie_impact.hpp"
#include "sparse/footprint.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/ascii.hpp"

using namespace spmvm;

int main(int argc, char** argv) {
  Csr<double> a;
  std::string name = "sAMG";
  if (argc > 1 && std::string(argv[1]).find(".mtx") != std::string::npos) {
    name = argv[1];
    a = read_matrix_market_file<double>(name);
  } else {
    name = argc > 1 ? argv[1] : "sAMG";
    const double scale = argc > 2 ? std::atof(argv[2]) : 64.0;
    a = make_named(name, scale).matrix;
  }

  const auto s = compute_stats(a);
  std::printf("%s\n\n", format_stats(name, s).c_str());

  // Row-length histogram (Fig. 3 style).
  std::vector<double> x, share;
  for (index_t v = 0; v <= s.max_row_len; ++v) {
    x.push_back(v);
    share.push_back(s.row_len_histogram.relative_share(v));
  }
  std::printf("%s\n", ascii_chart("row-length distribution (log share)", x,
                                  {share}, {"share"}, true, 10, 60)
                          .c_str());

  // Footprints per format (DP).
  AsciiTable ft({"format", "stored entries", "fill %", "device MB (DP)"});
  const auto add = [&](const char* fname, const Footprint& f) {
    const double fill =
        f.stored_entries == 0
            ? 0.0
            : 100.0 * static_cast<double>(f.stored_entries - f.true_nnz) /
                  static_cast<double>(f.stored_entries);
    ft.add_row({fname, fmt_count(f.stored_entries), fmt(fill, 1),
                fmt(static_cast<double>(f.total_bytes(8)) / 1e6, 1)});
  };
  add("CRS", footprint(a));
  add("ELLPACK-R", footprint(SlicedEll<double>::ellpack(a, 32)));
  add("JDS", footprint(Jds<double>::from_csr(a)));
  add("sliced-ELL", footprint(SlicedEll<double>::from_csr(a, 32)));
  add("pJDS", footprint(SlicedEll<double>::pjds(a)));
  std::printf("%s\n", ft.render().c_str());

  // Simulated device throughput (DP, ECC on).
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  AsciiTable pt({"format", "GF/s (sim)", "alpha", "bytes/flop"});
  const std::pair<const char*, const char*> kernels[] = {
      {"CSR-vector", "csr"},
      {"ELLPACK-R", "ellpack_r"},
      {"sliced-ELL", "sliced_ell"},
      {"pJDS", "pjds"}};
  for (const auto& [label, format] : kernels) {
    const auto r =
        *formats::registry<double>().build(format, a)->simulate(dev);
    pt.add_row({label, fmt(r.gflops, 1), fmt(r.stats.measured_alpha(8), 2),
                fmt(r.code_balance, 2)});
  }
  std::printf("%s\n", pt.render().c_str());

  // Is this matrix a good GPGPU candidate? (Eqs. 3/4)
  const double ratio = dev.bw_gbs_ecc_on / dev.pcie_gbs;
  const double hi50 =
      perfmodel::nnzr_upper_for_50pct_penalty(ratio, 0.5);
  const double lo10 =
      perfmodel::nnzr_lower_for_10pct_penalty(ratio, 0.5);
  std::printf("PCIe verdict (B_GPU/B_PCI = %.1f, alpha = 0.5):\n", ratio);
  std::printf("  N_nzr = %.1f; <= %.1f means >50%% transfer penalty, "
              ">= %.1f means <10%%\n",
              s.avg_row_len, hi50, lo10);
  if (s.avg_row_len <= hi50) {
    std::printf("  => poor GPGPU candidate: host transfers dominate "
                "(paper Sec. II-B)\n");
  } else if (s.avg_row_len >= lo10) {
    std::printf("  => good GPGPU candidate: transfers nearly free\n");
  } else {
    std::printf("  => borderline: expect a measurable but not fatal "
                "PCIe penalty\n");
  }
  return 0;
}
