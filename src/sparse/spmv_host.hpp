// Host (CPU) spMVM kernels for every storage format.
//
// These are the reference implementations: the GPU simulator executes the
// same data structures, and every test cross-checks formats against the
// CSR kernel. Basis convention for row-sorted formats (JDS and the sorted
// SELL-C-σ presets, pJDS included): the kernel produces the *permuted*
// result vector y_perm; when the format was built with
// PermuteColumns::yes the input vector must be in the permuted basis as
// well.
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/jds.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm {

/// y = A·x (CSR). `n_threads` > 1 splits rows across threads.
template <class T>
void spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1);

/// y = β·y + α·A·x (CSR) — the solver building block.
template <class T>
void spmv_axpby(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads = 1);

/// y_perm = A_perm·x — classic JDS, iterating diagonal-by-diagonal (the
/// vector-computer loop order).
template <class T>
void spmv(const Jds<T>& a, std::span<const T> x, std::span<T> y);

/// y_perm = A_perm·x on any SELL-C-σ preset (ELLPACK, ELLPACK-R,
/// sliced-ELL, SELL-C-σ, pJDS), slice by slice in row tiles of at most
/// 1024 rows. The inner loop runs chunk-column-major across a tile — the
/// SELL-C-σ loop order for wide-SIMD CPUs — and every row walks its
/// slice's full width: padding adds exact zeros for finite x. `format`
/// is the registry name the call is recorded under (span kernel/<format>,
/// ledger key); it must point to static storage.
template <class T>
void spmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1, const char* format = "sell_c_sigma");

/// y_perm = β·y_perm + α·A_perm·x — the fused SELL-C-σ update (span
/// kernel/<format>_axpby), so solvers in the permuted basis need no
/// separate BLAS-1 pass.
template <class T>
void spmv_axpby(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads = 1,
                const char* format = "sell_c_sigma");

#define SPMVM_EXTERN_HOST_KERNELS(T)                                        \
  extern template void spmv(const Csr<T>&, std::span<const T>,              \
                            std::span<T>, int);                             \
  extern template void spmv_axpby(const Csr<T>&, std::span<const T>,        \
                                  std::span<T>, T, T, int);                 \
  extern template void spmv(const Jds<T>&, std::span<const T>,              \
                            std::span<T>);                                  \
  extern template void spmv(const SlicedEll<T>&, std::span<const T>,        \
                            std::span<T>, int, const char*);                \
  extern template void spmv_axpby(const SlicedEll<T>&, std::span<const T>,  \
                                  std::span<T>, T, T, int, const char*)

SPMVM_EXTERN_HOST_KERNELS(float);
SPMVM_EXTERN_HOST_KERNELS(double);
#undef SPMVM_EXTERN_HOST_KERNELS

}  // namespace spmvm
