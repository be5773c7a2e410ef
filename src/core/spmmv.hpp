// Multi-vector spMVM (spMMV): Y = A·X for a block of k right-hand sides.
//
// Block Krylov methods amortize the matrix traffic over several vectors,
// dividing the dominant (s+4)-bytes-per-non-zero term of Eq. 1 by k —
// the standard remedy when a single spMVM is bandwidth-bound. Vectors
// are stored row-major (x[i*k + v]), so one matrix entry multiplies k
// consecutive values.
//
// Every kernel accumulates each (row, vector) pair over the row's stored
// entries in ascending order, starting from zero, for any thread count,
// so column v of a block equals the same kernel run at k = 1 on vector
// v bit for bit. The SELL-C-σ kernel (every ELLPACK-family preset) also
// walks the slice padding, as its single-vector kernel does, so its
// columns equal spmv bit for bit.
// Widths up to 8 run as compile-time instantiations; a wider block runs
// in groups of at most 8 vectors and reads the matrix once per group.
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm {

/// Y = A·X with k interleaved vectors: X has n_cols*k entries, Y has
/// n_rows*k, both row-major by vector index.
template <class T>
void spmmv(const Csr<T>& a, std::span<const T> x, std::span<T> y, int k,
           int n_threads = 1);

/// SELL-C-σ variant for every preset (in the single-vector kernel's
/// basis): one pass over the chunk-column-major image for all k vectors,
/// in the same row tiles. k = 1 is the single-vector spmv.
/// `format` names the span (kernel/<format>_block) and ledger key.
template <class T>
void spmmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
           int k, int n_threads = 1, const char* format = "sell_c_sigma");

/// Theoretical balance improvement of k-vector spMMV over spMVM (Eq. 1
/// with matrix terms divided by k): bytes/flop.
double spmmv_code_balance(std::size_t scalar_size, double alpha, double nnzr,
                          int k);

#define SPMVM_EXTERN_SPMMV(T)                                            \
  extern template void spmmv(const Csr<T>&, std::span<const T>,         \
                             std::span<T>, int, int);                    \
  extern template void spmmv(const SlicedEll<T>&, std::span<const T>,   \
                             std::span<T>, int, int, const char*)

SPMVM_EXTERN_SPMMV(float);
SPMVM_EXTERN_SPMMV(double);
#undef SPMVM_EXTERN_SPMMV

}  // namespace spmvm
