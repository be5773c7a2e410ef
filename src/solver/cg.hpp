// Conjugate Gradient — the archetypal "sparse solver dominated by spMVM"
// the paper's introduction motivates, on an operator or through any
// registered storage format (e.g. "pjds", iterating in its basis).
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

/// CG through any registered storage format: builds the plan (symmetric
/// permutation for row-sorting formats), permutes b and the initial guess
/// once, iterates in the plan's basis, and permutes the solution back —
/// the workflow of Sec. II-A generalized over the format registry.
template <class T>
CgResult cg_with_format(const Csr<T>& a, std::span<const T> b, std::span<T> x,
                        std::string_view format, double tol = 1e-10,
                        int max_iterations = 1000,
                        const formats::PlanOptions& options = {});

#define SPMVM_EXTERN_CG(T)                                             \
  extern template CgResult cg(const Operator<T>&, std::span<const T>,  \
                              std::span<T>, double, int);              \
  extern template CgResult cg_with_format(                             \
      const Csr<T>&, std::span<const T>, std::span<T>,                 \
      std::string_view, double, int, const formats::PlanOptions&)

SPMVM_EXTERN_CG(float);
SPMVM_EXTERN_CG(double);
#undef SPMVM_EXTERN_CG

}  // namespace spmvm::solver
