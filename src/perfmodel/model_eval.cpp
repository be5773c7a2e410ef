#include "perfmodel/model_eval.hpp"

#include "gpusim/pcie.hpp"
#include "perfmodel/balance.hpp"

namespace spmvm::perfmodel {

double deviation_pct(double predicted, double reference) {
  if (reference == 0.0) return 0.0;
  return 100.0 * (predicted - reference) / reference;
}

double ModelVsSim::model_vs_sim_pct() const {
  return deviation_pct(gflops_model, gflops_sim);
}

template <class T>
ModelVsSim evaluate(const gpusim::DeviceSpec& dev, const Csr<T>& a,
                    const gpusim::KernelResult& sim, bool ecc) {
  ModelVsSim r;
  r.alpha_measured = sim.stats.measured_alpha(sizeof(T));
  r.balance_model = code_balance(sizeof(T), r.alpha_measured, a.avg_row_len());
  r.balance_sim = sim.code_balance;
  r.gflops_model =
      bandwidth_bound_gflops(dev.bandwidth_bytes(ecc) / 1e9, r.balance_model);
  r.gflops_sim = sim.gflops;
  r.sim_seconds = sim.seconds;
  r.gflops_with_pcie =
      gpusim::with_pcie_transfers(dev, sim, a.n_rows, a.n_cols, sizeof(T))
          .gflops_total;
  return r;
}

template ModelVsSim evaluate(const gpusim::DeviceSpec&, const Csr<float>&,
                             const gpusim::KernelResult&, bool);
template ModelVsSim evaluate(const gpusim::DeviceSpec&, const Csr<double>&,
                             const gpusim::KernelResult&, bool);

}  // namespace spmvm::perfmodel
