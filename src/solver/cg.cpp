#include "solver/cg.hpp"

#include <vector>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/kernels.hpp"

namespace spmvm::solver {

template <class T>
CgResult cg(const Operator<T>& a, std::span<const T> b, std::span<T> x,
            double tol, int max_iterations) {
  const auto n = static_cast<std::size_t>(a.size());
  SPMVM_TRACE_SPAN("solver/cg");
  // Unpredicted scope: contributes the "solve" wall-time row so the
  // ledger's phase breakdown shows kernel/blas1 share of time to solution.
  obs::LedgerScope solve_led(obs::RoofLane::host, "solver", "cg");
  static obs::Counter& c_iters = obs::counter("solver.iterations");
  std::vector<T> r(n), p(n), ap(n);

  // r = b - A x0 in one fused matrix pass; p = r.
  copy<T>(b, r);
  a.apply_axpby(x, std::span<T>(r), T{-1}, T{1});
  copy<T>(r, p);

  const double bnorm = norm2<T>(b);
  const double stop = tol * (bnorm > 0.0 ? bnorm : 1.0);
  double rr = dot<T>(r, r);

  CgResult result;
  result.residual_norm = std::sqrt(rr);
  if (result.residual_norm <= stop) {
    result.converged = true;
    return result;
  }

  for (int it = 0; it < max_iterations; ++it) {
    SPMVM_TRACE_SPAN_NAMED(iter_span, "solver/cg/iteration");
    c_iters.add();
    a.apply(std::span<const T>(p.data(), n), std::span<T>(ap));
    const double pap = dot<T>(std::span<const T>(p), std::span<const T>(ap));
    if (pap <= 0.0) break;  // not SPD (or breakdown): bail out
    const T alpha = static_cast<T>(rr / pap);
    axpy<T>(alpha, p, x);
    axpy<T>(static_cast<T>(-alpha), ap, r);
    const double rr_new = dot<T>(r, r);
    result.iterations = it + 1;
    result.residual_norm = std::sqrt(rr_new);
    if (iter_span.active()) {
      iter_span.set_arg("iteration", static_cast<double>(result.iterations));
      iter_span.set_arg("residual", result.residual_norm);
    }
    obs::ledger_residual("cg", result.iterations, result.residual_norm);
    if (result.residual_norm <= stop) {
      result.converged = true;
      break;
    }
    const T beta = static_cast<T>(rr_new / rr);
    xpay<T>(r, beta, p);  // p = r + beta p
    rr = rr_new;
  }
  return result;
}

#define SPMVM_INSTANTIATE_CG(T)                                \
  template CgResult cg(const Operator<T>&, std::span<const T>, \
                       std::span<T>, double, int)

SPMVM_INSTANTIATE_CG(float);
SPMVM_INSTANTIATE_CG(double);

}  // namespace spmvm::solver
