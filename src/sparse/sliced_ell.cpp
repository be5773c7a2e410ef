#include "sparse/sliced_ell.hpp"

#include <algorithm>

#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace spmvm {

AlignedVector<offset_t> slice_offsets(std::span<const index_t> row_len,
                                      index_t slice_height) {
  SPMVM_REQUIRE(slice_height >= 1, "slice height must be >= 1");
  const std::size_t n = row_len.size();
  const auto c = static_cast<std::size_t>(slice_height);
  const std::size_t n_slices = (n + c - 1) / c;
  AlignedVector<offset_t> ptr(n_slices + 1, 0);
  for (std::size_t s = 0; s < n_slices; ++s) {
    index_t w = 0;
    for (std::size_t i = s * c; i < std::min(n, (s + 1) * c); ++i)
      w = std::max(w, row_len[i]);
    ptr[s + 1] = ptr[s] + static_cast<offset_t>(w) * slice_height;
  }
  return ptr;
}

index_t ellpack_slice_height(index_t n_rows, index_t chunk) {
  SPMVM_REQUIRE(chunk >= 1, "row chunk must be >= 1");
  return std::max((n_rows + chunk - 1) / chunk * chunk, chunk);
}

template <class T>
SlicedEll<T> SlicedEll<T>::from_csr(const Csr<T>& a, index_t slice_height,
                                    index_t sort_window,
                                    PermuteColumns permute_columns) {
  SPMVM_REQUIRE(slice_height >= 1, "slice height must be >= 1");
  SPMVM_REQUIRE(sort_window >= 1, "sort window must be >= 1");
  SlicedEll<T> m;
  m.n_rows = a.n_rows;
  m.n_cols = a.n_cols;
  m.slice_height = slice_height;
  m.sort_window = sort_window;
  m.n_slices = (a.n_rows + slice_height - 1) / slice_height;
  m.padded_rows = m.n_slices * slice_height;
  m.nnz = a.nnz();
  m.columns_permuted = permute_columns == PermuteColumns::yes;

  // Image row i is row src_row(i) of `p`. Only a symmetric relabel
  // materialises the permuted copy (permute_csr re-sorts each row by its
  // new column labels); otherwise every row is read from `a` in place,
  // through the permutation when rows are sorted.
  Csr<T> relabelled;
  const index_t* old = nullptr;
  if (sort_window > 1) {
    std::vector<index_t> lens(static_cast<std::size_t>(a.n_rows));
    for (index_t i = 0; i < a.n_rows; ++i)
      lens[static_cast<std::size_t>(i)] = a.row_len(i);
    m.perm = Permutation::sort_descending(lens, sort_window);
    if (m.columns_permuted)
      relabelled = permute_csr(a, m.perm, PermuteColumns::yes);
    else
      old = m.perm.new_to_old().data();
  } else {
    m.perm = Permutation::identity(a.n_rows);
  }
  const Csr<T>& p = sort_window > 1 && m.columns_permuted ? relabelled : a;
  const auto src_row = [old](index_t i) { return old != nullptr ? old[i] : i; };

  m.row_len.assign(static_cast<std::size_t>(m.padded_rows), index_t{0});
  for (index_t i = 0; i < a.n_rows; ++i)
    m.row_len[static_cast<std::size_t>(i)] = p.row_len(src_row(i));

  m.slice_ptr = slice_offsets(m.row_len, slice_height);

  const std::size_t total = static_cast<std::size_t>(m.slice_ptr.back());
  m.val.assign(total, T{0});
  m.col_idx.assign(total, index_t{0});
  for (index_t s = 0; s < m.n_slices; ++s) {
    const offset_t base = m.slice_ptr[static_cast<std::size_t>(s)];
    for (index_t r = 0; r < slice_height; ++r) {
      const index_t i = s * slice_height + r;
      if (i >= m.n_rows) continue;
      const offset_t rb = p.row_ptr[static_cast<std::size_t>(src_row(i))];
      const index_t len = m.row_len[static_cast<std::size_t>(i)];
      for (index_t j = 0; j < len; ++j) {
        const std::size_t dst = static_cast<std::size_t>(
            base + static_cast<offset_t>(j) * slice_height + r);
        m.val[dst] = p.val[static_cast<std::size_t>(rb + j)];
        m.col_idx[dst] = p.col_idx[static_cast<std::size_t>(rb + j)];
      }
    }
  }
  return m;
}

template <class T>
SlicedEll<T> SlicedEll<T>::ellpack(const Csr<T>& a, index_t chunk) {
  return from_csr(a, ellpack_slice_height(a.n_rows, chunk));
}

template <class T>
SlicedEll<T> SlicedEll<T>::pjds(const Csr<T>& a, index_t block_rows,
                                PermuteColumns permute_columns) {
  return from_csr(a, block_rows, std::max<index_t>(a.n_rows, 1),
                  permute_columns);
}

template <class T>
std::size_t SlicedEll<T>::bytes() const {
  return val.size() * sizeof(T) + col_idx.size() * sizeof(index_t) +
         slice_ptr.size() * sizeof(offset_t) +
         row_len.size() * sizeof(index_t);
}

template <class T>
double SlicedEll<T>::fill_fraction() const {
  if (stored_entries() == 0) return 0.0;
  return 1.0 -
         static_cast<double>(nnz) / static_cast<double>(stored_entries());
}

template <class T>
void SlicedEll<T>::validate() const {
  SPMVM_REQUIRE(slice_ptr.size() == static_cast<std::size_t>(n_slices) + 1,
                "slice_ptr size mismatch");
  SPMVM_REQUIRE(val.size() == static_cast<std::size_t>(stored_entries()),
                "val size mismatch");
  SPMVM_REQUIRE(col_idx.size() == val.size(), "col_idx size mismatch");
  offset_t counted = 0;
  for (index_t i = 0; i < padded_rows; ++i) {
    SPMVM_REQUIRE(i < n_rows || row_len[static_cast<std::size_t>(i)] == 0,
                  "padding rows must be empty");
    counted += row_len[static_cast<std::size_t>(i)];
  }
  SPMVM_REQUIRE(counted == nnz, "nnz mismatch");
  for (index_t s = 0; s < n_slices; ++s)
    for (index_t r = 0; r < slice_height; ++r) {
      const index_t i = s * slice_height + r;
      SPMVM_REQUIRE(row_len[static_cast<std::size_t>(i)] <= slice_width(s),
                    "row longer than its slice width");
    }
}

template struct SlicedEll<float>;
template struct SlicedEll<double>;

}  // namespace spmvm
