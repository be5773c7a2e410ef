// Shared kernel application for the distributed spMVM paths. Both the
// legacy single-shot dist_spmv and the persistent CommPlan dispatch the
// local/non-local products through these helpers, so the two paths are
// bit-identical by construction. Kernels are reached through the
// execution engine's sanctioned dispatch surface (exec/dispatch.hpp).
#pragma once

#include <span>

#include "dist/dist_matrix.hpp"
#include "exec/dispatch.hpp"
#include "util/error.hpp"

namespace spmvm::dist::detail {

/// y = local · x, dispatched through the rank's format plan (falls back
/// to the raw CSR kernel for hand-assembled DistMatrix instances).
template <class T>
inline void apply_local(const DistMatrix<T>& d, std::span<const T> x,
                        std::span<T> y) {
  if (d.local_plan != nullptr)
    exec::plan_spmv(*d.local_plan, x, y);
  else
    exec::host_spmv(d.local, x, y);
}

/// y += nonlocal · halo (the non-local contribution), through the plan's
/// fused kernel (build_plans accepts only formats that have one).
template <class T>
inline void apply_nonlocal(const DistMatrix<T>& d, std::span<const T> halo,
                           std::span<T> y) {
  if (d.n_halo == 0) return;
  if (d.nonlocal_plan == nullptr) {
    exec::host_spmv_axpby(d.nonlocal, halo, y, T{1}, T{1});
    return;
  }
  const bool fused =
      exec::plan_spmv_axpby(*d.nonlocal_plan, halo, y, T{1}, T{1});
  SPMVM_REQUIRE(fused, "non-local plan has no fused y += A*x kernel");
}

}  // namespace spmvm::dist::detail
