#include "gpusim/kernel_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "gpusim/coalescing.hpp"
#include "gpusim/l2_cache.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/balance.hpp"
#include "util/error.hpp"

namespace spmvm::gpusim {

double KernelStats::measured_alpha(std::size_t scalar_size) const {
  const std::uint64_t minimal = flops / 2 * scalar_size;  // nnz elements
  return minimal == 0
             ? 0.0
             : static_cast<double>(rhs_bytes) / static_cast<double>(minimal);
}

double KernelStats::warp_efficiency() const {
  return total_lane_steps == 0 ? 0.0
                               : static_cast<double>(useful_lane_steps) /
                                     static_cast<double>(total_lane_steps);
}

namespace {

/// Shared accumulation engine: the format-specific drivers below feed it
/// one warp step at a time.
class Engine {
 public:
  // The RHS-gather path is modeled end-to-end at 32-byte *sector*
  // granularity: scattered gather misses fill sectors, not whole 128-byte
  // lines, on GF100-class memory systems.
  static constexpr int kGatherSector = 32;

  Engine(const DeviceSpec& dev, std::size_t scalar_size, bool ecc)
      : dev_(dev),
        esize_(scalar_size),
        ecc_(ecc),
        l2_(dev.l2_bytes, std::min(dev.l2_line_bytes, kGatherSector),
            dev.l2_ways) {}

  /// Coalesced load of the active lanes' matrix entries (val: scalar
  /// size, col_idx: 4 bytes): masked lanes inside the span cost nothing
  /// beyond shared 32-byte sectors.
  void matrix_load(std::span<const int> lanes) {
    stats_.matrix_bytes += sectored_bytes(lanes, esize_);
    stats_.matrix_bytes += sectored_bytes(lanes, sizeof(index_t));
  }

  /// RHS gather of the active lanes' columns: warp-level sector dedup,
  /// then the L2 model; misses cost one sector of DRAM traffic.
  void rhs_gather(std::span<const index_t> cols) {
    const auto line = static_cast<std::uint64_t>(l2_.line_bytes());
    std::array<std::uint64_t, 64> addrs;
    std::array<std::uint64_t, 64> lines;
    SPMVM_REQUIRE(cols.size() <= addrs.size(), "warp wider than scratch");
    for (std::size_t k = 0; k < cols.size(); ++k)
      addrs[k] = static_cast<std::uint64_t>(cols[k]) * esize_;
    const std::size_t n = gather_lines(
        std::span<const std::uint64_t>(addrs.data(), cols.size()), line,
        std::span<std::uint64_t>(lines.data(), lines.size()));
    for (std::size_t k = 0; k < n; ++k) {
      if (l2_.access_line(lines[k])) {
        ++stats_.rhs_line_hits;
      } else {
        ++stats_.rhs_line_misses;
        stats_.rhs_bytes += line;
      }
    }
  }

  /// Account one executed warp step with `active` useful lanes.
  void warp_step(std::uint64_t active) {
    ++stats_.warp_steps;
    stats_.useful_lane_steps += active;
    stats_.total_lane_steps += static_cast<std::uint64_t>(dev_.warp_size);
  }

  void end_warp() { ++stats_.warps; }

  /// Streaming traffic outside the inner loop (LHS store, row_len loads).
  void stream(std::uint64_t bytes) { stats_.stream_bytes += bytes; }

  void set_flops(std::uint64_t flops) { stats_.flops = flops; }

  const KernelStats& stats() const { return stats_; }

  KernelResult finalize() const {
    KernelResult r;
    r.stats = stats_;
    // Bandwidth saturates only with enough warps in flight to cover the
    // memory latency (matters for the strong-scaling regime of Fig. 5a).
    const double w = static_cast<double>(stats_.warps);
    const double occupancy =
        w == 0.0 ? 1.0 : w / (w + dev_.half_saturation_warps);
    r.mem_seconds = static_cast<double>(stats_.dram_bytes()) /
                    (dev_.bandwidth_bytes(ecc_) * occupancy);
    const double cycles_per_step =
        esize_ == 4 ? dev_.cycles_per_step_sp : dev_.cycles_per_step_dp;
    r.issue_seconds = static_cast<double>(stats_.warp_steps) *
                      cycles_per_step /
                      (static_cast<double>(dev_.num_mps) * dev_.clock_ghz * 1e9);
    r.seconds = std::max(r.mem_seconds, r.issue_seconds) + dev_.kernel_launch_s;
    r.gflops = static_cast<double>(stats_.flops) / r.seconds / 1e9;
    r.code_balance = stats_.flops == 0
                         ? 0.0
                         : static_cast<double>(stats_.dram_bytes()) /
                               static_cast<double>(stats_.flops);
    return r;
  }

 private:
  const DeviceSpec& dev_;
  std::size_t esize_;
  bool ecc_;
  L2Cache l2_;
  KernelStats stats_;
};

/// Per-simulation bookkeeping: the span carries the model-predicted DRAM
/// transactions (bytes), measured balance alpha and predicted runtime, so
/// a trace of the simulator reads like Table II. When the roofline
/// ledger is on, the simulated run also folds into a device-lane record
/// judged against the Eq. 1 bound at *measured* α (perfmodel/balance,
/// the same prediction perfmodel::evaluate reports as gflops_model), so
/// the ledger's efficiency is exactly gflops_sim / gflops_model.
void record_sim(obs::SpanGuard& span, const KernelResult& r,
                std::size_t scalar_size, const char* format,
                const DeviceSpec& dev, bool ecc, index_t n_rows) {
  static obs::Counter& c_sims = obs::counter("gpusim.kernels");
  static obs::Counter& c_bytes = obs::counter("gpusim.dram_bytes");
  c_sims.add();
  c_bytes.add(r.stats.dram_bytes());
  const double alpha = r.stats.measured_alpha(scalar_size);
  if (span.active()) {
    span.set_bytes(r.stats.dram_bytes());
    span.set_arg("alpha", alpha);
    span.set_arg("pred_us", r.seconds * 1e6);
  }
  if (obs::ledger_enabled()) {
    const std::uint64_t nnz = r.stats.flops / 2;
    obs::WorkDesc w;
    w.bytes = r.stats.dram_bytes();
    w.flops = r.stats.flops;
    w.nnz = nnz;
    w.alpha = alpha;
    if (n_rows > 0 && nnz > 0) {
      const double nnzr =
          static_cast<double>(nnz) / static_cast<double>(n_rows);
      const double gflops_model = perfmodel::bandwidth_bound_gflops(
          dev.bandwidth_bytes(ecc) / 1e9,
          perfmodel::code_balance(scalar_size, alpha, nnzr));
      w.predicted_seconds =
          static_cast<double>(r.stats.flops) / (gflops_model * 1e9);
    }
    obs::ledger_record(obs::RoofLane::device, format, "spmv", r.seconds, w);
  }
}

}  // namespace

template <class T>
KernelResult simulate(const DeviceSpec& dev, const SlicedEll<T>& m,
                      const char* format, const SimOptions& opt,
                      bool full_width) {
  SPMVM_TRACE_SPAN_NAMED(span, obs::format_span_name("gpusim/", format));
  Engine eng(dev, sizeof(T), opt.ecc);
  eng.set_flops(2 * static_cast<std::uint64_t>(m.nnz));
  const index_t ws = dev.warp_size;
  // Steps lane i runs: its row length, or with full_width its slice's
  // width (padding and phantom rows included).
  const auto lane_len = [&](index_t i) {
    return full_width ? m.slice_width(i / m.slice_height)
                      : m.row_len[static_cast<std::size_t>(i)];
  };
  std::vector<index_t> cols;
  std::vector<int> lanes;
  cols.reserve(static_cast<std::size_t>(ws));
  lanes.reserve(static_cast<std::size_t>(ws));
  for (index_t w0 = 0; w0 < m.padded_rows; w0 += ws) {
    const index_t w1 = std::min<index_t>(w0 + ws, m.padded_rows);
    index_t steps = 0;
    for (index_t i = w0; i < w1; ++i) steps = std::max(steps, lane_len(i));
    for (index_t j = 0; j < steps; ++j) {
      cols.clear();
      lanes.clear();
      // Useful work counts only true non-zeros, even at full width.
      std::uint64_t useful = 0;
      for (index_t i = w0; i < w1; ++i) {
        if (j >= lane_len(i)) continue;
        lanes.push_back(static_cast<int>(i - w0));
        const index_t s = i / m.slice_height;
        const index_t r = i % m.slice_height;
        const std::size_t k = static_cast<std::size_t>(
            m.slice_ptr[static_cast<std::size_t>(s)] +
            static_cast<offset_t>(j) * m.slice_height + r);
        cols.push_back(m.col_idx[k]);
        if (j < m.row_len[static_cast<std::size_t>(i)]) ++useful;
      }
      if (lanes.empty()) continue;
      eng.matrix_load(lanes);
      eng.rhs_gather(cols);
      eng.warp_step(useful);
    }
    eng.end_warp();
  }
  // LHS store and, unless every lane runs the full width, the row_len[]
  // (ELLPACK-R's rowmax[]) stream.
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(T));
  if (!full_width)
    eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(index_t));
  const KernelResult res = eng.finalize();
  record_sim(span, res, sizeof(T), format, dev, opt.ecc, m.n_rows);
  return res;
}

template <class T>
KernelResult simulate_csr_scalar(const DeviceSpec& dev, const Csr<T>& m,
                                 const SimOptions& opt) {
  SPMVM_TRACE_SPAN_NAMED(span, "gpusim/csr_scalar");
  Engine eng(dev, sizeof(T), opt.ecc);
  eng.set_flops(2 * static_cast<std::uint64_t>(m.nnz()));
  const index_t ws = dev.warp_size;
  // Uncoalesced lane loads: each active lane issues its own minimum-size
  // (32-byte) transaction for val and col_idx.
  const std::uint64_t segment = 32;
  std::vector<index_t> cols;
  cols.reserve(static_cast<std::size_t>(ws));
  for (index_t w0 = 0; w0 < m.n_rows; w0 += ws) {
    const index_t w1 = std::min<index_t>(w0 + ws, m.n_rows);
    index_t steps = 0;
    for (index_t i = w0; i < w1; ++i) steps = std::max(steps, m.row_len(i));
    for (index_t j = 0; j < steps; ++j) {
      cols.clear();
      for (index_t i = w0; i < w1; ++i) {
        if (j >= m.row_len(i)) continue;
        const std::size_t k =
            static_cast<std::size_t>(m.row_ptr[static_cast<std::size_t>(i)] +
                                     static_cast<offset_t>(j));
        cols.push_back(m.col_idx[k]);
      }
      if (cols.empty()) continue;
      eng.warp_step(cols.size());
      eng.rhs_gather(cols);
      // One 32B val segment and one 32B idx segment per active lane —
      // lane addresses diverge, so nothing coalesces.
      eng.stream(static_cast<std::uint64_t>(cols.size()) * 2 * segment);
    }
    eng.end_warp();
  }
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(T));
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(offset_t));
  const KernelResult res = eng.finalize();
  record_sim(span, res, sizeof(T), "csr_scalar", dev, opt.ecc, m.n_rows);
  return res;
}

template <class T>
KernelResult simulate_csr_vector(const DeviceSpec& dev, const Csr<T>& m,
                                 const SimOptions& opt) {
  SPMVM_TRACE_SPAN_NAMED(span, "gpusim/csr_vector");
  Engine eng(dev, sizeof(T), opt.ecc);
  eng.set_flops(2 * static_cast<std::uint64_t>(m.nnz()));
  const index_t ws = dev.warp_size;
  std::vector<index_t> cols;
  std::vector<int> lanes;
  cols.reserve(static_cast<std::size_t>(ws));
  lanes.reserve(static_cast<std::size_t>(ws));
  // One warp per row: val/col_idx loads coalesce along the row; the row
  // is processed in chunks of warp_size, then a log2(ws) reduction.
  const auto reduction_steps =
      static_cast<index_t>(std::max(1.0, std::log2(static_cast<double>(ws))));
  for (index_t i = 0; i < m.n_rows; ++i) {
    const offset_t b = m.row_ptr[static_cast<std::size_t>(i)];
    const index_t len = m.row_len(i);
    for (index_t j0 = 0; j0 < len; j0 += ws) {
      const index_t chunk = std::min<index_t>(ws, len - j0);
      cols.clear();
      lanes.clear();
      for (index_t j = 0; j < chunk; ++j) {
        lanes.push_back(static_cast<int>(j));
        cols.push_back(
            m.col_idx[static_cast<std::size_t>(b + j0 + j)]);
      }
      eng.matrix_load(lanes);
      eng.rhs_gather(cols);
      eng.warp_step(static_cast<std::uint64_t>(chunk));
    }
    // Intra-warp reduction: occupies the warp without useful flops.
    for (index_t r = 0; r < reduction_steps; ++r) eng.warp_step(0);
    eng.end_warp();
  }
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(T));
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(offset_t));
  const KernelResult res = eng.finalize();
  record_sim(span, res, sizeof(T), "csr_vector", dev, opt.ecc, m.n_rows);
  return res;
}

template <class T>
KernelResult simulate_ellr_t(const DeviceSpec& dev, const SlicedEll<T>& m,
                             int threads_per_row, const SimOptions& opt) {
  SPMVM_REQUIRE(threads_per_row >= 1 &&
                    dev.warp_size % threads_per_row == 0,
                "threads_per_row must divide the warp size");
  SPMVM_REQUIRE(m.n_slices <= 1, "ELLR-T runs on the one-slice ellpack preset");
  SPMVM_TRACE_SPAN_NAMED(span, "gpusim/ellr_t");
  Engine eng(dev, sizeof(T), opt.ecc);
  eng.set_flops(2 * static_cast<std::uint64_t>(m.nnz));
  const index_t tpr = threads_per_row;
  const index_t rows_per_warp = dev.warp_size / tpr;
  const auto reduction_steps = static_cast<index_t>(
      tpr > 1 ? std::lround(std::log2(static_cast<double>(tpr))) : 0);
  std::vector<index_t> cols;
  std::vector<int> lanes;
  cols.reserve(static_cast<std::size_t>(dev.warp_size));
  lanes.reserve(static_cast<std::size_t>(dev.warp_size));
  for (index_t w0 = 0; w0 < m.padded_rows; w0 += rows_per_warp) {
    const index_t w1 = std::min<index_t>(w0 + rows_per_warp, m.padded_rows);
    index_t steps = 0;
    for (index_t i = w0; i < w1; ++i)
      steps = std::max(steps,
                       (m.row_len[static_cast<std::size_t>(i)] + tpr - 1) /
                           tpr);
    for (index_t s = 0; s < steps; ++s) {
      cols.clear();
      lanes.clear();
      int lane = 0;
      for (index_t i = w0; i < w1; ++i) {
        const index_t len = m.row_len[static_cast<std::size_t>(i)];
        for (index_t t = 0; t < tpr; ++t, ++lane) {
          const index_t j = s * tpr + t;
          if (j >= len) continue;
          // The tuned ELLR-T layout keeps the cooperative lanes' loads
          // coalesced; model them as consecutive.
          lanes.push_back(static_cast<int>(lanes.size()));
          const std::size_t k = static_cast<std::size_t>(j) *
                                    static_cast<std::size_t>(m.padded_rows) +
                                static_cast<std::size_t>(i);
          cols.push_back(m.col_idx[k]);
        }
      }
      if (lanes.empty()) continue;
      eng.matrix_load(lanes);
      eng.rhs_gather(cols);
      eng.warp_step(cols.size());
    }
    // Intra-row reduction across the T lanes.
    for (index_t r = 0; r < reduction_steps; ++r) eng.warp_step(0);
    eng.end_warp();
  }
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(T));
  eng.stream(static_cast<std::uint64_t>(m.n_rows) * sizeof(index_t));
  const KernelResult res = eng.finalize();
  record_sim(span, res, sizeof(T), "ellr_t", dev, opt.ecc, m.n_rows);
  return res;
}

#define SPMVM_INSTANTIATE_KERNEL_SIM(T)                                    \
  template KernelResult simulate(const DeviceSpec&, const SlicedEll<T>&,   \
                                 const char*, const SimOptions&, bool);    \
  template KernelResult simulate_csr_scalar(const DeviceSpec&,             \
                                            const Csr<T>&,                 \
                                            const SimOptions&);            \
  template KernelResult simulate_csr_vector(const DeviceSpec&,             \
                                            const Csr<T>&,                 \
                                            const SimOptions&);            \
  template KernelResult simulate_ellr_t(const DeviceSpec&,                 \
                                        const SlicedEll<T>&, int,          \
                                        const SimOptions&)

SPMVM_INSTANTIATE_KERNEL_SIM(float);
SPMVM_INSTANTIATE_KERNEL_SIM(double);

}  // namespace spmvm::gpusim
