// Distributed Conjugate Gradient over the message runtime — spMVM via
// the halo-exchange machinery (any communication scheme), dot products
// via allreduce. The "production-grade solver" integration the paper's
// outlook points to.
#pragma once

#include <span>

#include "dist/comm_plan.hpp"

namespace spmvm::dist {

struct DistCgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Solve A·x = b (A symmetric positive definite, distributed by rows).
/// `b_local`/`x_local` are this rank's blocks; every rank returns the
/// same iteration count and residual.
template <class T>
DistCgResult dist_cg(msg::Comm& comm, const DistMatrix<T>& a,
                     std::span<const T> b_local, std::span<T> x_local,
                     double tol = 1e-10, int max_iterations = 1000,
                     CommScheme scheme = CommScheme::task_mode);

extern template DistCgResult dist_cg(msg::Comm&, const DistMatrix<float>&,
                                     std::span<const float>,
                                     std::span<float>, double, int,
                                     CommScheme);
extern template DistCgResult dist_cg(msg::Comm&, const DistMatrix<double>&,
                                     std::span<const double>,
                                     std::span<double>, double, int,
                                     CommScheme);

}  // namespace spmvm::dist
