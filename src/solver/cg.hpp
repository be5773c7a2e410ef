// Conjugate Gradient — the archetypal "sparse solver dominated by spMVM"
// the paper's introduction motivates, on any Operator (operator.hpp), so
// through any registered storage format or execution backend.
#pragma once

#include "solver/operator.hpp"

namespace spmvm::solver {

struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Solve A·x = b for symmetric positive-definite A. `x` carries the
/// initial guess in and the solution out. Converges when
/// ||r|| <= tol · ||b||.
template <class T>
CgResult cg(const Operator<T>& a, std::span<const T> b, std::span<T> x,
            double tol = 1e-10, int max_iterations = 1000);

#define SPMVM_EXTERN_CG(T)                                             \
  extern template CgResult cg(const Operator<T>&, std::span<const T>,  \
                              std::span<T>, double, int)

SPMVM_EXTERN_CG(float);
SPMVM_EXTERN_CG(double);
#undef SPMVM_EXTERN_CG

}  // namespace spmvm::solver
