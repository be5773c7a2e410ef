// Quickstart: build a sparse matrix, resolve a storage format through
// the format registry, run spMVM on the host, and ask the GPU simulator
// what a Fermi-class card would do with every registered format.
//
//   ./examples/quickstart [matrix.mtx]
//
// Without an argument a synthetic sAMG-like matrix is used; with one, any
// Matrix Market file.
#include <cstdio>
#include <memory>
#include <vector>

#include "formats/registry.hpp"
#include "matgen/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/ascii.hpp"

using namespace spmvm;

int main(int argc, char** argv) {
  // 1. Get a matrix: from a file, or the sAMG-like generator.
  Csr<double> a;
  if (argc > 1) {
    std::printf("Reading %s ...\n", argv[1]);
    a = read_matrix_market_file<double>(argv[1]);
  } else {
    GenConfig cfg;
    cfg.scale = 64;
    a = make_samg<double>(cfg);
  }
  std::printf("%s\n\n", format_stats("matrix", compute_stats(a)).c_str());

  // 2. Resolve formats by name through the registry (block size 32 =
  //    warp size; rows sorted, columns keep their labels: the paper's
  //    Listing 2 basis. PermuteColumns::yes would relabel them too, so
  //    that solvers can stay in the permuted basis).
  const auto& reg = formats::registry<double>();
  const auto pjds = reg.build("pjds", a);
  const auto ell = reg.build("ellpack", a);
  const Footprint fp = pjds->footprint();
  const Footprint fe = ell->footprint();
  std::printf("ELLPACK stores  %s entries\n",
              fmt_count(fe.stored_entries).c_str());
  std::printf("pJDS stores     %s entries  (data reduction %.1f%%, fill %.2f%%)\n\n",
              fmt_count(fp.stored_entries).c_str(),
              100.0 * (1.0 - static_cast<double>(fp.stored_entries) /
                                 static_cast<double>(fe.stored_entries)),
              100.0 * static_cast<double>(fp.stored_entries - fp.true_nnz) /
                  static_cast<double>(fp.stored_entries));

  // 3. Multiply on the host: y = A x with input/output in the original
  //    basis. pJDS writes y through its row map and reports no
  //    permutation; a PermuteColumns::yes build would report one, and its
  //    handle carries the vectors across.
  std::vector<double> x(static_cast<std::size_t>(a.n_cols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  {
    const Permutation* perm = pjds->permutation();
    std::vector<double> xb = x;
    std::vector<double> yb(y.size());
    if (perm != nullptr && pjds->columns_permuted())
      perm->to_permuted(std::span<const double>(x), std::span<double>(xb));
    pjds->spmv(std::span<const double>(xb), std::span<double>(yb));
    if (perm != nullptr)
      perm->from_permuted(std::span<const double>(yb), std::span<double>(y));
    else
      y = yb;
  }
  double checksum = 0.0;
  for (const double v : y) checksum += v;
  std::printf("host spMVM checksum: %.6f\n\n", checksum);

  // 4. What would a Tesla C2070 do? (simulated; DP, ECC on) — every
  //    registered format with a simulated kernel.
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  AsciiTable table({"format", "GF/s (sim)", "alpha", "bytes/flop"});
  for (const formats::FormatInfo& info : reg.list()) {
    if (!info.has_sim_kernel) continue;
    const auto r = reg.build(info.name, a)->simulate(dev);
    table.add_row({info.name, fmt(r->gflops, 1),
                   fmt(r->stats.measured_alpha(sizeof(double)), 2),
                   fmt(r->code_balance, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
