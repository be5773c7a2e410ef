// Type-erased linear operator y = A·x for the Krylov solvers. Storage
// formats enter through the format registry: make_operator(registry,
// name, csr) resolves any registered format, and the sorted SELL-C-σ
// presets apply in the original basis. To iterate in the sorted basis
// instead, the paper's recommended usage where permutation happens only
// before and after the iteration (Sec. II-A), permute the matrix once
// (permute_csr, sparse/convert.hpp) and build from that. Execution
// backends enter through the exec engine: make_operator(bound) wraps
// any exec::BoundSpmv, so a solver can iterate on the host, the
// simulated GPGPU, or the hybrid CPU+GPU split without knowing which.
// All kernel dispatch goes through the exec layer (exec/dispatch.hpp) —
// solvers never name kernel entry points.
//
// Operators also expose the fused update y = β·y + α·A·x; formats with a
// native fused kernel do it in one matrix pass, everything else falls
// back to apply + a BLAS-1 sweep over an internal scratch vector.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "exec/dispatch.hpp"
#include "formats/registry.hpp"
#include "sparse/csr.hpp"
#include "util/error.hpp"

namespace spmvm::solver {

template <class T>
class Operator {
 public:
  using ApplyFn = std::function<void(std::span<const T>, std::span<T>)>;
  using ApplyAxpbyFn =
      std::function<void(std::span<const T>, std::span<T>, T, T)>;

  Operator(index_t n, ApplyFn fn, ApplyAxpbyFn axpby = nullptr)
      : n_(n), fn_(std::move(fn)), axpby_(std::move(axpby)) {
    SPMVM_REQUIRE(n >= 0, "operator size must be >= 0");
  }

  index_t size() const { return n_; }

  void apply(std::span<const T> x, std::span<T> y) const {
    check_spans(x, y);
    fn_(x, y);
  }

  /// y = beta*y + alpha*A·x in one pass when the format supports it.
  /// The fallback path reuses an internal scratch vector, so concurrent
  /// apply_axpby calls on the same Operator are not safe.
  void apply_axpby(std::span<const T> x, std::span<T> y, T alpha,
                   T beta) const {
    check_spans(x, y);
    if (axpby_) {
      axpby_(x, y, alpha, beta);
      return;
    }
    scratch_.resize(static_cast<std::size_t>(n_));
    fn_(x, std::span<T>(scratch_));
    for (std::size_t i = 0; i < scratch_.size(); ++i)
      y[i] = beta * y[i] + alpha * scratch_[i];
  }

 private:
  void check_spans(std::span<const T> x, std::span<T> y) const {
    SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(n_) &&
                      y.size() >= static_cast<std::size_t>(n_),
                  "operator vectors too small");
  }

  index_t n_;
  ApplyFn fn_;
  ApplyAxpbyFn axpby_;
  mutable std::vector<T> scratch_;
};

/// Operator over a CSR matrix (kept alive by shared ownership) — the
/// interchange-format shortcut that needs no registry lookup.
template <class T>
Operator<T> make_operator(std::shared_ptr<const Csr<T>> a, int n_threads = 1) {
  SPMVM_REQUIRE(a->n_rows == a->n_cols, "solvers need a square operator");
  const index_t n = a->n_rows;
  return Operator<T>(
      n,
      [a, n_threads](std::span<const T> x, std::span<T> y) {
        exec::host_spmv(*a, x, y, n_threads);
      },
      [a, n_threads](std::span<const T> x, std::span<T> y, T alpha, T beta) {
        exec::host_spmv_axpby(*a, x, y, alpha, beta, n_threads);
      });
}

/// Operator over a format plan. Repeated applications must compose (what
/// Krylov iterations do), so x and y must share a basis: plans that store
/// y in sorted row order (`jds`) are rejected; bind them through the exec
/// engine instead, which scatters y back.
template <class T>
Operator<T> make_operator(std::shared_ptr<const formats::FormatPlan<T>> plan,
                          int n_threads = 1) {
  SPMVM_REQUIRE(plan->n_rows() == plan->n_cols(),
                "solvers need a square operator");
  SPMVM_REQUIRE(plan->permutation() == nullptr,
                "solver operator needs a plan that writes y in the original "
                "basis");
  const index_t n = plan->n_rows();
  typename Operator<T>::ApplyAxpbyFn axpby = nullptr;
  if (plan->info().native_axpby)
    axpby = [plan, n_threads](std::span<const T> x, std::span<T> y, T alpha,
                              T beta) {
      exec::plan_spmv_axpby(*plan, x, y, alpha, beta, n_threads);
    };
  return Operator<T>(
      n,
      [plan, n_threads](std::span<const T> x, std::span<T> y) {
        exec::plan_spmv(*plan, x, y, n_threads);
      },
      std::move(axpby));
}

/// Operator over an exec-engine binding: the solver iterates on
/// whatever backend the bound product was compiled for (host, gpusim,
/// hybrid). The bound handle mutates per apply (device clocks, ledger,
/// scratch), so one Operator must not be applied concurrently.
template <class T>
Operator<T> make_operator(std::shared_ptr<exec::BoundSpmv<T>> bound) {
  SPMVM_REQUIRE(bound != nullptr, "cannot wrap a null binding");
  SPMVM_REQUIRE(bound->n_rows() == bound->n_cols(),
                "solvers need a square operator");
  const index_t n = bound->n_rows();
  return Operator<T>(
      n,
      [bound](std::span<const T> x, std::span<T> y) { bound->apply(x, y); },
      [bound](std::span<const T> x, std::span<T> y, T alpha, T beta) {
        bound->apply_axpby(x, y, alpha, beta);
      });
}

/// Build `format` from `a` through the registry and wrap it as an
/// operator — the one-line factory every former per-format overload
/// collapsed into. The plan is owned by the returned Operator.
template <class T>
Operator<T> make_operator(const formats::FormatRegistry<T>& registry,
                          std::string_view format, const Csr<T>& a,
                          const formats::PlanOptions& options = {},
                          int n_threads = 1) {
  return make_operator<T>(registry.build(format, a, options), n_threads);
}

}  // namespace spmvm::solver
