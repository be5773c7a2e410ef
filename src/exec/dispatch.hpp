// The sanctioned raw-kernel entry points (DESIGN.md §13).
//
// After the exec refactor, no code outside src/exec names the host
// kernel entry points or the device runtime directly; layers that need
// a bare product without a full Backend bind — the solver's CSR
// operator shortcut, the distributed local/non-local products — go
// through these inline wrappers. They add nothing on top of the
// kernels (the kernels carry their own obs instrumentation); their
// value is that the kernel-dispatch surface greps to exactly one
// directory.
#pragma once

#include <span>

#include "formats/format_plan.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv_host.hpp"

namespace spmvm::exec {

/// y = A·x with the host CSR kernel.
template <class T>
inline void host_spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                      int n_threads = 1) {
  spmv(a, x, y, n_threads);
}

/// y = β·y + α·A·x with the fused host CSR kernel.
template <class T>
inline void host_spmv_axpby(const Csr<T>& a, std::span<const T> x,
                            std::span<T> y, T alpha, T beta,
                            int n_threads = 1) {
  spmv_axpby(a, x, y, alpha, beta, n_threads);
}

/// y = A·x; `jds` stores y in sorted row order (see formats::FormatPlan).
template <class T>
inline void plan_spmv(const formats::FormatPlan<T>& plan,
                      std::span<const T> x, std::span<T> y,
                      int n_threads = 1) {
  plan.spmv(x, y, n_threads);
}

/// Fused plan update; returns false (y untouched) when the format has
/// no native kernel — callers fall back to plan_spmv + a BLAS-1 pass.
template <class T>
inline bool plan_spmv_axpby(const formats::FormatPlan<T>& plan,
                            std::span<const T> x, std::span<T> y, T alpha,
                            T beta, int n_threads = 1) {
  return plan.spmv_axpby(x, y, alpha, beta, n_threads);
}

}  // namespace spmvm::exec
