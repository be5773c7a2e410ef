// Cross-checks between the analytic model (Eqs. 1-4) and the simulator:
// predicted vs. simulated throughput for a given matrix, with α taken
// from the simulator's L2 measurement.
#pragma once

#include "gpusim/kernel_sim.hpp"
#include "sparse/csr.hpp"

namespace spmvm::perfmodel {

struct ModelVsSim {
  double alpha_measured = 0.0;     // from the L2 simulation
  double balance_model = 0.0;      // Eq. 1 at the measured α
  double balance_sim = 0.0;        // DRAM bytes per flop in the simulator
  double gflops_model = 0.0;       // bandwidth / balance
  double gflops_sim = 0.0;         // simulator throughput
  double gflops_with_pcie = 0.0;   // simulator incl. host transfers
  double sim_seconds = 0.0;        // simulated kernel wall clock

  /// Signed deviation of the Eq. 1 prediction from the simulator, in %
  /// of the simulated value — the per-matrix cell of the suite's
  /// model-vs-measured validation table.
  double model_vs_sim_pct() const;
};

/// Signed relative deviation 100·(predicted - reference)/reference; 0
/// when the reference is 0.
double deviation_pct(double predicted, double reference);

/// Evaluate Eq. 1 at the α the simulator measured in `sim`, one spMVM
/// of `a` simulated on `dev` with ECC `ecc` — the apples-to-apples
/// comparison behind the model discussion of Sec. II-B. The caller runs
/// the kernel, e.g. through its registry plan's simulate().
template <class T>
ModelVsSim evaluate(const gpusim::DeviceSpec& dev, const Csr<T>& a,
                    const gpusim::KernelResult& sim, bool ecc);

extern template ModelVsSim evaluate(const gpusim::DeviceSpec&,
                                    const Csr<float>&,
                                    const gpusim::KernelResult&, bool);
extern template ModelVsSim evaluate(const gpusim::DeviceSpec&,
                                    const Csr<double>&,
                                    const gpusim::KernelResult&, bool);

}  // namespace spmvm::perfmodel
