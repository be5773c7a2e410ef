#include "sparse/jds.hpp"

#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace spmvm {

template <class T>
Jds<T> Jds<T>::from_csr(const Csr<T>& a, PermuteColumns permute_columns) {
  Jds<T> m;
  m.n_rows = a.n_rows;
  m.n_cols = a.n_cols;
  m.nnz = a.nnz();
  m.width = a.max_row_len();

  std::vector<index_t> lens(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    lens[static_cast<std::size_t>(i)] = a.row_len(i);
  m.perm = Permutation::sort_descending(lens, std::max<index_t>(a.n_rows, 1));
  // Sorted row i is row src_row(i) of `p`: `a` itself, read through the
  // permutation, unless columns are relabelled (permute_csr then
  // re-sorts each row by its new column labels).
  const bool relabel = permute_columns == PermuteColumns::yes;
  Csr<T> relabelled;
  if (relabel) relabelled = permute_csr(a, m.perm, PermuteColumns::yes);
  const Csr<T>& p = relabel ? relabelled : a;
  const index_t* old = relabel ? nullptr : m.perm.new_to_old().data();
  const auto src_row = [old](index_t i) { return old != nullptr ? old[i] : i; };

  m.row_len.resize(static_cast<std::size_t>(a.n_rows));
  for (index_t i = 0; i < a.n_rows; ++i)
    m.row_len[static_cast<std::size_t>(i)] = p.row_len(src_row(i));

  // Diagonal j holds one entry for every row with length > j; because rows
  // are sorted descending those are exactly rows 0..L_j-1.
  m.jd_ptr.assign(static_cast<std::size_t>(m.width) + 1, 0);
  for (index_t j = 0; j < m.width; ++j) {
    index_t L = 0;
    while (L < m.n_rows && m.row_len[static_cast<std::size_t>(L)] > j) ++L;
    m.jd_ptr[static_cast<std::size_t>(j) + 1] =
        m.jd_ptr[static_cast<std::size_t>(j)] + L;
  }

  m.col_idx.resize(static_cast<std::size_t>(m.nnz));
  m.val.resize(static_cast<std::size_t>(m.nnz));
  // Row by row, so each source row is read once and in order: entry j of
  // sorted row i is entry i of diagonal j.
  for (index_t i = 0; i < m.n_rows; ++i) {
    const offset_t rb = p.row_ptr[static_cast<std::size_t>(src_row(i))];
    for (index_t j = 0; j < m.row_len[static_cast<std::size_t>(i)]; ++j) {
      const auto dst =
          static_cast<std::size_t>(m.jd_ptr[static_cast<std::size_t>(j)] + i);
      const auto src = static_cast<std::size_t>(rb + j);
      m.col_idx[dst] = p.col_idx[src];
      m.val[dst] = p.val[src];
    }
  }
  return m;
}

template <class T>
std::size_t Jds<T>::bytes() const {
  return val.size() * sizeof(T) + col_idx.size() * sizeof(index_t) +
         jd_ptr.size() * sizeof(offset_t) + row_len.size() * sizeof(index_t);
}

template <class T>
void Jds<T>::validate() const {
  SPMVM_REQUIRE(jd_ptr.size() == static_cast<std::size_t>(width) + 1,
                "jd_ptr size mismatch");
  SPMVM_REQUIRE(jd_ptr.back() == nnz, "diagonals must cover all non-zeros");
  for (index_t i = 1; i < n_rows; ++i)
    SPMVM_REQUIRE(row_len[static_cast<std::size_t>(i - 1)] >=
                      row_len[static_cast<std::size_t>(i)],
                  "row lengths must be non-increasing after the sort");
  for (index_t j = 1; j < width; ++j)
    SPMVM_REQUIRE(diag_len(j - 1) >= diag_len(j),
                  "diagonal lengths must be non-increasing");
}

template struct Jds<float>;
template struct Jds<double>;

}  // namespace spmvm
