// Host (CPU) spMVM kernels for every storage format.
//
// These are the reference implementations: the GPU simulator executes the
// same data structures, and every test cross-checks formats against the
// CSR kernel. Basis convention for row-sorted formats: a sorted SELL-C-σ
// image (pJDS included) whose columns keep their labels reads x and
// writes y in the original basis (SlicedEll::row_map()). JDS, and any
// image built with PermuteColumns::yes, produces the *permuted* result
// y_perm; with PermuteColumns::yes x must be in the permuted basis too.
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

/// y = A·x on any SELL-C-σ preset (ELLPACK, ELLPACK-R, sliced-ELL,
/// SELL-C-σ, pJDS; y_perm = A_perm·x_perm after PermuteColumns::yes),
/// slice by slice in row tiles of at most
/// 1024 rows. The inner loop runs chunk-column-major across a tile — the
/// SELL-C-σ loop order for wide-SIMD CPUs — and every row walks its
/// slice's full width: padding adds exact zeros for finite x. `format`
/// is the registry name the call is recorded under (span kernel/<format>,
/// ledger key); it must point to static storage.
template <class T>
void spmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1, const char* format = "sell_c_sigma");

/// y = β·y + α·A·x in the basis of spmv above — the fused SELL-C-σ
/// update (span kernel/<format>_axpby), so solvers need no separate
/// BLAS-1 pass.
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
