// Cluster timing model for multi-GPGPU spMVM (Sec. III / Fig. 5).
//
// The functional halo exchange (comm_plan) establishes *what* moves;
// this model turns the measured per-rank volumes and simulated kernel
// times into wall-clock estimates for one spMVM iteration under the
// three communication schemes, on a Dirac-like cluster (one Tesla C2050
// per node, QDR-InfiniBand-class interconnect).
//
// Per-rank components:
//   t_local / t_nonlocal — GPU kernel simulation of the two matrix parts,
//   t_down  — PCIe download of the boundary entries to the send buffer,
//   t_up    — PCIe upload of the received halo,
//   t_comm  — network: per-peer latency + volume / bandwidth.
//
// Composition (T_r per rank; iteration time = max over ranks):
//   vector mode   : t_down + t_comm + t_up + t_full_kernel
//   naive overlap : t_down + max(t_local, f·t_comm) + (1-f)·t_comm
//                   + t_up + t_nonlocal
//   task mode     : max(t_local, t_down + t_comm + t_up) + t_nonlocal
// where f = naive_overlap_fraction models how much communication an MPI
// library progresses without a dedicated thread (the paper: "most MPI
// libraries do not support asynchronous nonblocking point-to-point
// communication"), and t_full_kernel credits vector mode for the single
// unsplit kernel (one launch, result written once).
#pragma once

#include <string>

#include "dist/comm_plan.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/timeline.hpp"
#include "gpusim/device_spec.hpp"

namespace spmvm::dist {

struct ClusterSpec {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::tesla_c2050();
  bool ecc = true;                      // Fig. 5 runs: DP with ECC on
  double net_bw_gbs = 3.2;              // QDR IB sustained per node
  double net_latency_s = 4e-6;          // per message incl. software stack
  double naive_overlap_fraction = 0.4;  // f above
  double thread_sync_s = 3e-6;          // task-mode fork/join overhead
  /// Task mode with a persistent communication plan (dist/comm_plan)
  /// wakes a parked comm thread through a condition variable instead of
  /// spawning and joining one per iteration; the per-iteration thread
  /// cost drops from thread_sync_s to thread_wake_s.
  bool persistent_comm = true;
  double thread_wake_s = 5e-7;  // cv wake + handshake of the parked thread
  /// Registry name (formats/registry.hpp) of the device format of the
  /// local/non-local kernels; any entry with a simulated kernel. The
  /// paper used ELLPACK-R throughout Sec. III; "an implementation of the
  /// multi-GPGPU code with the pJDS format ... is ongoing work" — that
  /// extension is "pjds". Both parts are built with chunk = warp size in
  /// the Listing 2 basis. Unknown names and
  /// formats without a simulated kernel (jds, bellpack, auto) throw
  /// spmvm::Error before anything is built.
  std::string matrix_format = "ellpack_r";

  /// The NERSC Dirac cluster configuration used by the paper.
  static ClusterSpec dirac() { return {}; }
};

/// Timed components of one rank's iteration.
struct NodeTiming {
  double t_local = 0.0;
  double t_nonlocal = 0.0;
  double t_full = 0.0;  // unsplit kernel (vector mode)
  double t_down = 0.0;
  double t_up = 0.0;
  double t_comm = 0.0;
  int n_peers = 0;
  std::uint64_t flops = 0;

  /// Wall clock of this rank's iteration under the given scheme.
  double iteration_seconds(const ClusterSpec& c, CommScheme scheme) const;
};

/// Simulate rank `d.rank`'s components (c.matrix_format kernels;
/// ELLPACK-R per Sec. III).
template <class T>
NodeTiming node_timing(const ClusterSpec& c, const DistMatrix<T>& d);

/// Device memory one matrix part needs in c.matrix_format: the format's
/// sized footprint plus the RHS and LHS vectors. Decides whether a part
/// fits a card at all (the paper: DLR2 in DP fits a 3 GB C2050 only as
/// pJDS).
template <class T>
std::size_t device_bytes(const ClusterSpec& c, const Csr<T>& a);

/// One point of Fig. 5: aggregate performance of `nodes` ranks.
struct ScalingPoint {
  int nodes = 0;
  CommScheme scheme = CommScheme::vector_mode;
  double seconds = 0.0;  // max over ranks
  double gflops = 0.0;   // 2·nnz(global) / seconds
};

/// Strong scaling of matrix `a` over the given node counts and schemes
/// (the full Fig. 5 sweep). Skips node counts whose per-node matrix would
/// not fit in device memory (paper: UHBR needs >= 5 C2050 nodes) — such
/// points are returned with seconds = 0.
template <class T>
std::vector<ScalingPoint> strong_scaling(const ClusterSpec& c, const Csr<T>& a,
                                         const std::vector<int>& node_counts,
                                         const std::vector<CommScheme>& schemes);

/// Fig. 4: render the task-mode timeline of one rank's iteration.
Timeline task_mode_timeline(const ClusterSpec& c, const NodeTiming& t);

#define SPMVM_EXTERN_CLUSTER(T)                                         \
  extern template NodeTiming node_timing(const ClusterSpec&,            \
                                         const DistMatrix<T>&);         \
  extern template std::size_t device_bytes(const ClusterSpec&,          \
                                           const Csr<T>&);              \
  extern template std::vector<ScalingPoint> strong_scaling(             \
      const ClusterSpec&, const Csr<T>&, const std::vector<int>&,       \
      const std::vector<CommScheme>&)

SPMVM_EXTERN_CLUSTER(float);
SPMVM_EXTERN_CLUSTER(double);
#undef SPMVM_EXTERN_CLUSTER

}  // namespace spmvm::dist
