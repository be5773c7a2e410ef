#include "dist/cluster_model.hpp"

#include <algorithm>

#include "formats/registry.hpp"
#include "gpusim/pcie.hpp"
#include "util/error.hpp"

namespace spmvm::dist {

namespace {

/// The registry entry of c.matrix_format, checked before anything is
/// built: the model needs its simulated kernel and its sizer.
template <class T>
const typename formats::FormatRegistry<T>::Entry& device_format(
    const ClusterSpec& c) {
  const auto* e = formats::registry<T>().find(c.matrix_format);
  SPMVM_REQUIRE(e != nullptr,
                "cluster model: unknown format '" + c.matrix_format + "'");
  SPMVM_REQUIRE(e->info.has_sim_kernel && e->size != nullptr,
                "cluster model: format '" + c.matrix_format +
                    "' has no simulated kernel and sizer");
  return *e;
}

/// Plan options of both parts: chunk = warp size.
formats::PlanOptions part_options(const ClusterSpec& c) {
  formats::PlanOptions opts;
  opts.chunk = c.device.warp_size;
  return opts;
}

template <class T>
gpusim::KernelResult simulate_part(const ClusterSpec& c, const Csr<T>& a) {
  gpusim::SimOptions opt;
  opt.ecc = c.ecc;
  return *formats::registry<T>()
              .build(c.matrix_format, a, part_options(c))
              ->simulate(c.device, opt);
}

}  // namespace

double NodeTiming::iteration_seconds(const ClusterSpec& c,
                                     CommScheme scheme) const {
  switch (scheme) {
    case CommScheme::vector_mode:
      return t_down + t_comm + t_up + t_full;
    case CommScheme::naive_overlap: {
      const double f = c.naive_overlap_fraction;
      return t_down + std::max(t_local, f * t_comm) + (1.0 - f) * t_comm +
             t_up + t_nonlocal;
    }
    case CommScheme::task_mode:
      return std::max(t_local, t_down + t_comm + t_up) + t_nonlocal +
             (c.persistent_comm ? c.thread_wake_s : c.thread_sync_s);
  }
  return 0.0;
}

template <class T>
NodeTiming node_timing(const ClusterSpec& c, const DistMatrix<T>& d) {
  device_format<T>(c);  // reject the format before building either part
  NodeTiming t;

  // Local and non-local kernels in the configured device format
  // (ELLPACK-R in the paper's Sec. III; pJDS as the future-work option).
  t.t_local = simulate_part(c, d.local).seconds;
  double nonlocal_lhs_bytes = 0.0;
  if (d.nonlocal.nnz() > 0) {
    t.t_nonlocal = simulate_part(c, d.nonlocal).seconds;
    nonlocal_lhs_bytes = static_cast<double>(d.n_local) * sizeof(T);
  }
  // Vector mode runs one unsplit kernel: one launch less, and the result
  // vector is written once instead of twice (Sec. III-A's 8/N_nzr term).
  t.t_full = t.t_local + t.t_nonlocal;
  if (d.nonlocal.nnz() > 0)
    t.t_full -= c.device.kernel_launch_s +
                nonlocal_lhs_bytes / c.device.bandwidth_bytes(c.ecc);

  // Host transfers: boundary download, halo upload.
  t.t_down = gpusim::pcie_seconds(
      c.device, static_cast<std::uint64_t>(d.send_total()) * sizeof(T));
  t.t_up = gpusim::pcie_seconds(
      c.device, static_cast<std::uint64_t>(d.n_halo) * sizeof(T));

  // Network: per-peer message latency plus serialized volume.
  t.n_peers = d.n_peers();
  const std::uint64_t wire_bytes =
      (static_cast<std::uint64_t>(d.send_total()) +
       static_cast<std::uint64_t>(d.n_halo)) *
      sizeof(T);
  t.t_comm = t.n_peers * c.net_latency_s +
             static_cast<double>(wire_bytes) / (c.net_bw_gbs * 1e9);

  t.flops = 2 * static_cast<std::uint64_t>(d.local.nnz() + d.nonlocal.nnz());
  return t;
}

template <class T>
std::size_t device_bytes(const ClusterSpec& c, const Csr<T>& a) {
  const auto vectors = static_cast<std::size_t>(a.n_rows) +
                       static_cast<std::size_t>(a.n_cols);
  return device_format<T>(c).size(a, part_options(c)).total_bytes(sizeof(T)) +
         vectors * sizeof(T);
}

template <class T>
std::vector<ScalingPoint> strong_scaling(
    const ClusterSpec& c, const Csr<T>& a, const std::vector<int>& node_counts,
    const std::vector<CommScheme>& schemes) {
  device_format<T>(c);  // reject the format before partitioning
  std::vector<ScalingPoint> out;
  for (const int nodes : node_counts) {
    SPMVM_REQUIRE(nodes >= 1, "node count must be >= 1");
    const auto part = partition_balanced_nnz(a, nodes);

    std::vector<NodeTiming> timings;
    timings.reserve(static_cast<std::size_t>(nodes));
    bool fits = true;
    for (int r = 0; r < nodes; ++r) {
      const auto d = distribute(a, part, r);
      const std::size_t bytes =
          device_bytes(c, d.local) + device_bytes(c, d.nonlocal);
      if (bytes > c.device.dram_bytes) fits = false;
      timings.push_back(node_timing(c, d));
    }

    std::uint64_t total_flops = 0;
    for (const auto& t : timings) total_flops += t.flops;

    for (const CommScheme scheme : schemes) {
      ScalingPoint p;
      p.nodes = nodes;
      p.scheme = scheme;
      if (fits) {
        for (const auto& t : timings)
          p.seconds = std::max(p.seconds, t.iteration_seconds(c, scheme));
        p.gflops = static_cast<double>(total_flops) / p.seconds / 1e9;
      }
      out.push_back(p);
    }
  }
  return out;
}

Timeline task_mode_timeline(const ClusterSpec& c, const NodeTiming& t) {
  Timeline tl;
  // Thread 0: communication chain (Fig. 4, top row).
  double at = 0.0;
  const double irecv = c.net_latency_s;
  tl.add("thread 0", "MPI_Irecv", at, at + irecv);
  at += irecv;
  tl.add("thread 0", "local gather+download", at, at + t.t_down);
  at += t.t_down;
  tl.add("thread 0", "MPI_Isend", at, at + c.net_latency_s);
  at += c.net_latency_s;
  const double wait_end = irecv + t.t_down + c.net_latency_s +
                          std::max(0.0, t.t_comm - c.net_latency_s);
  tl.add("thread 0", "MPI_Waitall", at, wait_end);
  tl.add("thread 0", "upload RHS", wait_end, wait_end + t.t_up);
  const double nonlocal_start = std::max(wait_end + t.t_up, t.t_local);
  tl.add("thread 0", "launch nonlocal", wait_end + t.t_up,
         wait_end + t.t_up + c.device.kernel_launch_s);

  // Thread 1: launches the local kernel immediately, then syncs.
  tl.add("thread 1", "launch local", 0.0, c.device.kernel_launch_s);
  tl.add("thread 1", "GPU sync", c.device.kernel_launch_s, t.t_local);

  // GPU: local kernel from t=0, non-local after upload and local finish.
  tl.add("GPGPU", "local spMVM", 0.0, t.t_local);
  tl.add("GPGPU", "nonlocal spMVM", nonlocal_start,
         nonlocal_start + t.t_nonlocal);
  return tl;
}

#define SPMVM_INSTANTIATE_CLUSTER(T)                                     \
  template NodeTiming node_timing(const ClusterSpec&,                    \
                                  const DistMatrix<T>&);                 \
  template std::size_t device_bytes(const ClusterSpec&, const Csr<T>&);  \
  template std::vector<ScalingPoint> strong_scaling(                     \
      const ClusterSpec&, const Csr<T>&, const std::vector<int>&,        \
      const std::vector<CommScheme>&)

SPMVM_INSTANTIATE_CLUSTER(float);
SPMVM_INSTANTIATE_CLUSTER(double);

}  // namespace spmvm::dist
