// Eigensolver example: the paper's motivating workload. A Holstein-
// Hubbard-like (HMEp) matrix is symmetrized, permuted once into the
// pJDS row order (P·A·Pᵀ), converted to pJDS, and its largest eigenvalue
// computed with Lanczos — iterating entirely in the permuted basis (the
// eigenvalues of P·A·Pᵀ are those of A).
//
//   ./examples/eigensolver [scale]   (default scale 256)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "formats/registry.hpp"
#include "matgen/generators.hpp"
#include "solver/lanczos.hpp"
#include "sparse/convert.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/timer.hpp"

using namespace spmvm;

namespace {
Csr<double> symmetrized_hmep(double scale) {
  GenConfig cfg;
  cfg.scale = scale;
  const auto h = make_hmep<double>(cfg);
  Coo<double> coo(h.n_rows, h.n_cols);
  for (index_t i = 0; i < h.n_rows; ++i)
    for (offset_t k = h.row_ptr[static_cast<std::size_t>(i)];
         k < h.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t c = h.col_idx[static_cast<std::size_t>(k)];
      if (c >= i) coo.add_symmetric(i, c, h.val[static_cast<std::size_t>(k)]);
    }
  return Csr<double>::from_coo(std::move(coo));
}
}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 256.0;
  std::printf("Building symmetrized HMEp-like matrix (scale %.0f) ...\n",
              scale);
  const auto a = symmetrized_hmep(scale);
  std::printf("%s\n\n", format_stats("HMEp(sym)", compute_stats(a)).c_str());

  // Permute once (rows by descending length, columns alike), then
  // convert to pJDS through the registry: its rows are already sorted.
  std::vector<index_t> lens(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    lens[static_cast<std::size_t>(i)] = a.row_len(i);
  const auto sorted = permute_csr(
      a, Permutation::sort_descending(lens, a.n_rows), PermuteColumns::yes);
  const auto& reg = formats::registry<double>();
  const std::shared_ptr<const formats::FormatPlan<double>> pjds =
      reg.build("pjds", sorted);
  const auto ell = reg.build("ellpack", a);
  const Footprint fp = pjds->footprint();
  std::printf("pJDS: %.1f%% data reduction vs ELLPACK, %.3f%% fill\n\n",
              100.0 * (1.0 - static_cast<double>(fp.stored_entries) /
                                 static_cast<double>(
                                     ell->footprint().stored_entries)),
              100.0 * (1.0 - static_cast<double>(fp.true_nnz) /
                                 static_cast<double>(fp.stored_entries)));

  // Lanczos in the permuted basis.
  const auto op = solver::make_operator<double>(pjds);
  Timer timer;
  const auto r = solver::lanczos_max_eigenvalue(op, 300, 1e-10);
  const double elapsed = timer.seconds();
  std::printf("Lanczos: lambda_max = %.8f after %d iterations (%s)\n",
              r.eigenvalue, r.iterations,
              r.converged ? "converged" : "NOT converged");
  std::printf("host time: %.3f s (%.1f spMVM/s)\n\n", elapsed,
              r.iterations / elapsed);

  // What the same iteration would sustain on a simulated Fermi card.
  const auto dev = gpusim::DeviceSpec::tesla_c2070();
  const auto sim = *reg.build("pjds", a)->simulate(dev);
  std::printf("simulated %s pJDS kernel: %.1f GF/s (DP, ECC on)\n",
              dev.name.c_str(), sim.gflops);
  std::printf("=> one Lanczos iteration ~ %.2f ms on the device\n",
              sim.seconds * 1e3);
  return 0;
}
