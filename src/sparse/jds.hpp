// Classic Jagged Diagonals Storage (JDS), the vector-computer format that
// pJDS generalizes (Sec. II-A). Rows are fully sorted by descending length
// and stored as "jagged diagonals" with no padding at all.
#pragma once

#include "sparse/csr.hpp"
#include "sparse/permutation.hpp"
#include "util/aligned_buffer.hpp"

namespace spmvm {

template <class T>
struct Jds {
  index_t n_rows = 0;
  index_t n_cols = 0;
  index_t width = 0;  // number of jagged diagonals == N^max_nzr
  offset_t nnz = 0;
  Permutation perm;  // row order after the descending-length sort

  AlignedVector<offset_t> jd_ptr;  // width + 1; start of each diagonal
  AlignedVector<index_t> col_idx;  // nnz
  AlignedVector<T> val;            // nnz
  AlignedVector<index_t> row_len;  // per permuted row (non-increasing)

  /// Rows sorted, columns keep their labels: y comes out in sorted row
  /// order (perm.from_permuted carries it back), x in the original basis.
  static Jds from_csr(const Csr<T>& a);

  /// Rows participating in diagonal j.
  index_t diag_len(index_t j) const {
    return static_cast<index_t>(jd_ptr[static_cast<std::size_t>(j) + 1] -
                                jd_ptr[static_cast<std::size_t>(j)]);
  }

  std::size_t bytes() const;
  void validate() const;
};

extern template struct Jds<float>;
extern template struct Jds<double>;

}  // namespace spmvm
