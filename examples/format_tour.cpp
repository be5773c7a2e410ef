// Format tour: walks through the pJDS derivation of Fig. 1 on a small
// matrix — compress (ELLPACK view), sort, block-pad — and compares the
// storage of every format in the registry (Fig. 2's storage sizes).
//
//   ./examples/format_tour             the Fig. 1 walkthrough + table
//   ./examples/format_tour --markdown  README's format table (generated
//                                      from FormatRegistry::list())
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "formats/plans.hpp"
#include "formats/registry.hpp"
#include "util/ascii.hpp"
#include "util/rng.hpp"

using namespace spmvm;

namespace {

Csr<double> toy_matrix() {
  // 8 rows with lengths 1..5, as in the Fig. 1 illustration.
  const index_t lens[] = {2, 5, 1, 3, 4, 1, 3, 2};
  Rng rng(7);
  Coo<double> coo(8, 8);
  for (index_t i = 0; i < 8; ++i) {
    // Distinct ascending columns starting at a random offset.
    index_t c = static_cast<index_t>(rng.next_below(3));
    for (index_t j = 0; j < lens[i]; ++j) {
      coo.add(i, c, 1.0 + i);
      c += 1 + static_cast<index_t>(rng.next_below(2));
      if (c >= 8) break;
    }
  }
  return Csr<double>::from_coo(std::move(coo));
}

void print_grid(const char* title, index_t rows, index_t width,
                const std::function<char(index_t, index_t)>& cell) {
  std::printf("%s\n", title);
  for (index_t i = 0; i < rows; ++i) {
    std::printf("  row %2d |", i);
    for (index_t j = 0; j < width; ++j) std::printf(" %c", cell(i, j));
    std::printf(" |\n");
  }
  std::printf("\n");
}

double fill_pct(const Footprint& f) {
  return f.stored_entries == 0
             ? 0.0
             : 100.0 * static_cast<double>(f.stored_entries - f.true_nnz) /
                   static_cast<double>(f.stored_entries);
}

/// README's format table, generated from the registry (small blocks so
/// the 8x8 toy matrix shows distinct padding overheads).
void print_markdown_table() {
  const auto a = toy_matrix();
  formats::PlanOptions opt;
  opt.chunk = 4;
  std::printf(
      "| format | description | sorts rows | native axpby | native block "
      "| host kernel | sim kernel | fill %% (8x8 toy) |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");
  for (const formats::FormatInfo& info :
       formats::registry<double>().list()) {
    std::string fill = "-";  // `auto` delegates to whichever format wins
    if (std::strcmp(info.name, "auto") != 0) {
      const auto plan = formats::registry<double>().build(info.name, a, opt);
      fill = fmt(fill_pct(plan->footprint()), 1);
    }
    std::printf("| `%s` | %s | %s | %s | %s | yes | %s | %s |\n", info.name,
                info.description, info.sorts_rows ? "yes" : "no",
                info.native_axpby ? "yes" : "no",
                info.native_spmmv ? "yes" : "no",
                info.has_sim_kernel ? "yes" : "no", fill.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--markdown") == 0) {
    print_markdown_table();
    return 0;
  }
  const auto a = toy_matrix();
  const auto& reg = formats::registry<double>();
  formats::PlanOptions opt;
  opt.chunk = 4;  // br = C = 4: visible blocks on an 8-row matrix

  std::printf("pJDS derivation (Fig. 1 of the paper), br = 4\n");
  std::printf("=============================================\n\n");

  // Step 0: the sparse matrix.
  print_grid("original matrix (x = non-zero):", a.n_rows, a.n_cols,
             [&](index_t i, index_t j) {
               return a.dense_row(i)[static_cast<std::size_t>(j)] != 0.0
                          ? 'x'
                          : '.';
             });

  // Both are SELL-C-σ presets; the raw arrays come from the plan's typed
  // accessor.
  const auto sell = [&](const char* name) {
    return dynamic_cast<const formats::SlicedEllPlan<double>&>(
               *reg.build(name, a, opt))
        .format();
  };

  // Step 1: compress left (the ELLPACK rectangle, SELL-N-1; o = zero
  // fill).
  const SlicedEll<double> ell = sell("ellpack");
  print_grid("ELLPACK view (compressed left; o = padding):", a.n_rows,
             ell.slice_width(0), [&](index_t i, index_t j) {
               return j < ell.row_len[static_cast<std::size_t>(i)] ? 'x' : 'o';
             });

  // Step 2+3: sort by row length, pad blocks of br = 4 (SELL-4-N).
  const SlicedEll<double> p = sell("pjds");
  print_grid("pJDS (sorted + block-padded; o = block fill):", p.padded_rows,
             p.slice_width(0), [&](index_t i, index_t j) {
               if (j < p.row_len[static_cast<std::size_t>(i)]) return 'x';
               return j < p.slice_width(i / p.slice_height) ? 'o' : ' ';
             });

  std::printf("row permutation (new -> old): ");
  for (index_t r = 0; r < p.n_rows; ++r)
    std::printf("%d ", p.perm.old_of(r));
  std::printf("\nslice_ptr[]: ");
  for (const offset_t off : p.slice_ptr)
    std::printf("%lld ", static_cast<long long>(off));
  std::printf("\n\n");

  // Fig. 2: storage size of each registered format (entries incl. fill).
  AsciiTable t({"format", "stored entries", "fill %", "device bytes (DP)"});
  for (const formats::FormatInfo& info : reg.list()) {
    if (std::string(info.name) == "auto") continue;  // delegates to a winner
    const Footprint f = reg.build(info.name, a, opt)->footprint();
    t.add_row({info.name, fmt_count(f.stored_entries),
               fmt(fill_pct(f), 1),
               fmt_count(static_cast<long long>(f.total_bytes(8)))});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("nnz = %lld; ELLPACK pads every row to the global maximum,\n"
              "pJDS only to the block-local maximum after sorting.\n",
              static_cast<long long>(a.nnz()));
  return 0;
}
