// Shared fixtures for the test suite: deterministic random matrices and
// vector comparison helpers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "sparse/convert.hpp"
#include "sparse/csr.hpp"
#include "sparse/sliced_ell.hpp"
#include "util/rng.hpp"

namespace spmvm::testing {

/// Random sparse matrix: each row gets a random length in
/// [min_row_len, max_row_len] with distinct random columns.
template <class T>
Csr<T> random_csr(index_t n_rows, index_t n_cols, index_t min_row_len,
                  index_t max_row_len, std::uint64_t seed) {
  Rng rng(seed);
  Coo<T> coo(n_rows, n_cols);
  std::vector<bool> used(static_cast<std::size_t>(n_cols), false);
  std::vector<index_t> cols;
  for (index_t i = 0; i < n_rows; ++i) {
    const auto span = static_cast<std::uint64_t>(max_row_len - min_row_len + 1);
    index_t len = min_row_len + static_cast<index_t>(rng.next_below(span));
    if (len > n_cols) len = n_cols;
    cols.clear();
    while (static_cast<index_t>(cols.size()) < len) {
      const auto c =
          static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n_cols)));
      if (!used[static_cast<std::size_t>(c)]) {
        used[static_cast<std::size_t>(c)] = true;
        cols.push_back(c);
      }
    }
    for (index_t c : cols) {
      used[static_cast<std::size_t>(c)] = false;
      coo.add(i, c, static_cast<T>(rng.uniform(-1.0, 1.0)));
    }
  }
  return Csr<T>::from_coo(std::move(coo));
}

/// The `ellpack` preset's image: one slice of n_rows rounded up to a
/// multiple of `chunk` (SELL-N-1).
template <class T>
SlicedEll<T> ellpack_image(const Csr<T>& a, index_t chunk = 32) {
  return SlicedEll<T>::from_csr(a, ellpack_slice_height(a.n_rows, chunk));
}

/// The `pjds` preset's image: rows fully sorted, padded in blocks of
/// `block_rows` (SELL-br-N).
template <class T>
SlicedEll<T> pjds_image(const Csr<T>& a, index_t block_rows = 32) {
  return SlicedEll<T>::from_csr(a, block_rows,
                                std::max<index_t>(a.n_rows, 1));
}

/// P·A·Pᵀ with P the descending row-length sort within windows of
/// `window` rows: the matrix a solver iterating in the sorted basis
/// builds its formats from.
template <class T>
Csr<T> sorted_symmetric(const Csr<T>& a, index_t window) {
  std::vector<index_t> lens(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    lens[static_cast<std::size_t>(i)] = a.row_len(i);
  return permute_csr(a, Permutation::sort_descending(lens, window),
                     PermuteColumns::yes);
}

/// Random dense vector in [-1, 1).
template <class T>
std::vector<T> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Element-wise comparison with a relative-plus-absolute tolerance.
template <class T>
void expect_vectors_near(const std::vector<T>& expected,
                         const std::vector<T>& got, double tol) {
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double e = static_cast<double>(expected[i]);
    const double g = static_cast<double>(got[i]);
    const double bound = tol * (1.0 + std::abs(e));
    ASSERT_NEAR(e, g, bound) << "at index " << i;
  }
}

/// Dense reference product y = A·x computed row-by-row from CSR.
template <class T>
std::vector<T> reference_spmv(const Csr<T>& a, const std::vector<T>& x) {
  std::vector<T> y(static_cast<std::size_t>(a.n_rows), T{0});
  for (index_t i = 0; i < a.n_rows; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      y[static_cast<std::size_t>(i)] +=
          a.val[static_cast<std::size_t>(k)] *
          x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
  return y;
}

}  // namespace spmvm::testing
