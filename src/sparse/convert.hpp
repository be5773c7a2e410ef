// Structure-changing CSR transformations: permutation and transpose.
//
// The row-sorting formats (JDS and the sorted SELL-C-σ presets) read the
// CSR in place through their row permutation; they materialise the
// permuted matrix here only when columns are relabelled too.
#pragma once

#include "sparse/csr.hpp"
#include "sparse/permutation.hpp"

namespace spmvm {

/// Apply a row permutation to `a`: row r of the result is row perm.old_of(r)
/// of `a`. With PermuteColumns::yes the columns are relabeled with the same
/// permutation (symmetric permutation P·A·Pᵀ; requires a square matrix) and
/// each row is re-sorted by the new column indices.
template <class T>
Csr<T> permute_csr(const Csr<T>& a, const Permutation& perm,
                   PermuteColumns permute_columns);

/// Transpose of a CSR matrix (CSC view materialized as CSR).
template <class T>
Csr<T> transpose(const Csr<T>& a);

/// True if the matrix equals its transpose (structure and values).
template <class T>
bool is_symmetric(const Csr<T>& a);

extern template Csr<float> permute_csr(const Csr<float>&, const Permutation&,
                                       PermuteColumns);
extern template Csr<double> permute_csr(const Csr<double>&, const Permutation&,
                                        PermuteColumns);
extern template Csr<float> transpose(const Csr<float>&);
extern template Csr<double> transpose(const Csr<double>&);
extern template bool is_symmetric(const Csr<float>&);
extern template bool is_symmetric(const Csr<double>&);

}  // namespace spmvm
