// Conversions back to CSR from every storage format.
//
// Round-tripping guarantees the builders lose no information (the test
// suite checks from_csr ∘ to_csr == identity for every format), and lets
// applications hand any format back to CSR-based tooling (I/O,
// repartitioning, direct solvers).
#pragma once

#include "sparse/bellpack.hpp"  // comparator formats
#include "sparse/csr.hpp"
#include "sparse/jds.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm {

/// Recover the original matrix, undoing the row (and, if applied,
/// column) permutation.
template <class T>
Csr<T> to_csr(const Jds<T>& m, PermuteColumns columns_were_permuted);

/// Any SELL-C-σ preset: the padding is dropped and the permutation undone
/// (columns too when the stored columns_permuted flag says so).
template <class T>
Csr<T> to_csr(const SlicedEll<T>& m);

template <class T>
Csr<T> to_csr(const Bellpack<T>& m);

#define SPMVM_EXTERN_TO_CSR(T)                                        \
  extern template Csr<T> to_csr(const Jds<T>&, PermuteColumns);       \
  extern template Csr<T> to_csr(const SlicedEll<T>&);                 \
  extern template Csr<T> to_csr(const Bellpack<T>&)

SPMVM_EXTERN_TO_CSR(float);
SPMVM_EXTERN_TO_CSR(double);
#undef SPMVM_EXTERN_TO_CSR

}  // namespace spmvm
