#include "sparse/footprint.hpp"

#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace spmvm {

namespace {

// One accounting per format, shared by the footprint of a built image
// and the pre-build size of the same layout.

Footprint jds_bytes(offset_t nnz, index_t width, index_t n_rows) {
  Footprint f;
  f.stored_entries = nnz;
  f.index_entries = nnz;
  f.true_nnz = nnz;
  f.aux_bytes = (static_cast<std::size_t>(width) + 1) * sizeof(offset_t) +
                static_cast<std::size_t>(n_rows) * sizeof(index_t);
  return f;
}

/// `row_len_entries` = 0 for the full-width ELLPACK kernel.
Footprint sell_bytes(std::span<const offset_t> slice_ptr,
                     std::size_t row_len_entries, offset_t nnz) {
  Footprint f;
  f.stored_entries = slice_ptr.back();
  f.index_entries = slice_ptr.back();
  f.true_nnz = nnz;
  f.aux_bytes = slice_ptr.size() * sizeof(offset_t) +
                row_len_entries * sizeof(index_t);
  return f;
}

Footprint bellpack_bytes(index_t width, index_t padded_block_rows,
                         index_t tile_scalars, offset_t nnz) {
  Footprint f;
  const offset_t blocks = static_cast<offset_t>(width) * padded_block_rows;
  f.stored_entries = blocks * tile_scalars;
  f.index_entries = blocks;  // one column index per tile
  f.true_nnz = nnz;
  f.aux_bytes = static_cast<std::size_t>(padded_block_rows) * sizeof(index_t);
  return f;
}

}  // namespace

template <class T>
Footprint footprint(const Csr<T>& a) {
  Footprint f;
  f.stored_entries = a.nnz();
  f.index_entries = a.nnz();
  f.true_nnz = a.nnz();
  f.aux_bytes = a.row_ptr.size() * sizeof(offset_t);
  return f;
}

template <class T>
Footprint footprint(const Jds<T>& a) {
  return jds_bytes(a.nnz, a.width, a.n_rows);
}

template <class T>
Footprint footprint(const SlicedEll<T>& a, bool with_row_len) {
  return sell_bytes(a.slice_ptr, with_row_len ? a.row_len.size() : 0, a.nnz);
}

template <class T>
Footprint footprint(const Bellpack<T>& a) {
  return bellpack_bytes(a.width, a.padded_block_rows, a.block_r * a.block_c,
                        a.nnz);
}

template <class T>
Footprint sliced_ell_size(const Csr<T>& a, index_t slice_height,
                          index_t sort_window, bool with_row_len) {
  SPMVM_REQUIRE(sort_window >= 1, "sort window must be >= 1");
  std::vector<index_t> len(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    len[static_cast<std::size_t>(i)] = a.row_len(i);
  if (sort_window > 1) {
    const Permutation p = Permutation::sort_descending(len, sort_window);
    std::vector<index_t> sorted(len.size());
    for (index_t i = 0; i < p.size(); ++i)
      sorted[static_cast<std::size_t>(i)] =
          len[static_cast<std::size_t>(p.old_of(i))];
    len = std::move(sorted);
  }
  const AlignedVector<offset_t> ptr = slice_offsets(len, slice_height);
  const std::size_t padded_rows =
      (ptr.size() - 1) * static_cast<std::size_t>(slice_height);
  return sell_bytes(ptr, with_row_len ? padded_rows : 0, a.nnz());
}

template <class T>
Footprint jds_size(const Csr<T>& a) {
  return jds_bytes(a.nnz(), a.max_row_len(), a.n_rows);
}

template <class T>
Footprint bellpack_size(const Csr<T>& a, index_t block_r, index_t block_c,
                        index_t row_chunk) {
  const BellpackLayout l = bellpack_layout(a, block_r, block_c, row_chunk);
  return bellpack_bytes(l.width, l.padded_block_rows, block_r * block_c,
                        a.nnz());
}

template <class T>
double data_reduction_percent(const SlicedEll<T>& pjds,
                              const SlicedEll<T>& ell) {
  SPMVM_REQUIRE(pjds.nnz == ell.nnz,
                "formats must describe the same matrix");
  if (ell.stored_entries() == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(pjds.stored_entries()) /
                            static_cast<double>(ell.stored_entries()));
}

#define SPMVM_INSTANTIATE_FOOTPRINT(T)                                      \
  template Footprint footprint(const Csr<T>&);                              \
  template Footprint footprint(const Jds<T>&);                              \
  template Footprint footprint(const SlicedEll<T>&, bool);                  \
  template Footprint footprint(const Bellpack<T>&);                         \
  template Footprint sliced_ell_size(const Csr<T>&, index_t, index_t, bool); \
  template Footprint jds_size(const Csr<T>&);                               \
  template Footprint bellpack_size(const Csr<T>&, index_t, index_t,         \
                                   index_t);                                \
  template double data_reduction_percent(const SlicedEll<T>&,               \
                                         const SlicedEll<T>&)

SPMVM_INSTANTIATE_FOOTPRINT(float);
SPMVM_INSTANTIATE_FOOTPRINT(double);

}  // namespace spmvm
