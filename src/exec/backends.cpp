// The three execution backends (DESIGN.md §13).
//
//   host    pooled host kernels in the original basis
//   gpusim  plan resident on the simulated GPGPU: numerics on the host
//           mirror, timing from the warp-granular kernel simulation
//           (or a generic Eq. 1 bandwidth bound for formats without a
//           sim kernel), Eq. 2 PCIe staging per product unless the
//           vectors are device-resident
//   hybrid  the paper's CPU+GPU row split (Sec. III): rows are
//           partitioned by cumulative nnz at the device share implied
//           by the bandwidth roofs, both parts run concurrently on the
//           thread pool, and the transfer manager reconciles
//
// Bit-identity contract (test_exec_backends): all backends accumulate
// each row's entries in the same order — host and gpusim share the
// format kernels outright, and no plan relabels columns, so sorting a
// hybrid part's rows never changes the order a row sums in.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "core/spmmv.hpp"
#include "exec/buffer.hpp"
#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfmodel/balance.hpp"
#include "util/thread_pool.hpp"

namespace spmvm::exec {
namespace {

inline constexpr BackendInfo kHostInfo{
    "host", "pooled host kernels on the CPU node", false};
inline constexpr BackendInfo kGpusimInfo{
    "gpusim", "simulated GPGPU: host-mirror numerics, modeled timing",
    true};
inline constexpr BackendInfo kHybridInfo{
    "hybrid", "CPU+GPU row split over the bandwidth roofs (Sec. III)",
    true};

/// Rows [r0, r1) of `a` as a standalone CSR (columns untouched).
template <class T>
Csr<T> sub_csr(const Csr<T>& a, index_t r0, index_t r1) {
  Csr<T> s;
  s.n_rows = r1 - r0;
  s.n_cols = a.n_cols;
  s.row_ptr.resize(static_cast<std::size_t>(s.n_rows) + 1);
  const offset_t base = a.row_ptr[static_cast<std::size_t>(r0)];
  for (index_t i = 0; i <= s.n_rows; ++i)
    s.row_ptr[static_cast<std::size_t>(i)] =
        a.row_ptr[static_cast<std::size_t>(r0 + i)] - base;
  const auto end = a.row_ptr[static_cast<std::size_t>(r1)];
  s.col_idx.assign(a.col_idx.begin() + base, a.col_idx.begin() + end);
  s.val.assign(a.val.begin() + base, a.val.begin() + end);
  return s;
}

/// Eq. 1 streamed bytes of one k-wide product over a plan's stored
/// footprint: the matrix image streams once, the RHS gather and result
/// update scale with the block width.
template <class T>
double streamed_bytes(const formats::FormatPlan<T>& plan, int k = 1) {
  const double s = static_cast<double>(sizeof(T));
  const auto kd = static_cast<double>(k);
  const auto nnz = static_cast<double>(plan.nnz());
  const auto rows = static_cast<double>(plan.n_rows());
  double bytes =
      static_cast<double>(plan.footprint().total_bytes(sizeof(T))) +
      2.0 * s * rows * kd;
  if (nnz > 0.0 && rows > 0.0)
    bytes += s * perfmodel::alpha_ideal(nnz / rows) * nnz * kd;
  return bytes;
}

// ---- host -----------------------------------------------------------------

template <class T>
class HostBound final : public BoundSpmv<T> {
 public:
  HostBound(std::shared_ptr<const formats::FormatPlan<T>> plan,
            const LaunchOptions& launch)
      : plan_(std::move(plan)), launch_(launch) {}

  const BackendInfo& backend() const override { return kHostInfo; }
  index_t n_rows() const override { return plan_->n_rows(); }
  index_t n_cols() const override { return plan_->n_cols(); }
  offset_t nnz() const override { return plan_->nnz(); }
  const formats::FormatPlan<T>* plan() const override { return plan_.get(); }

  void apply(std::span<const T> x, std::span<T> y) override {
    this->check_spans(x, y);
    const Permutation* perm = plan_->permutation();
    if (perm == nullptr) {
      plan_->spmv(x, y, launch_.n_threads);
      return;
    }
    // jds stores y in sorted row order: scatter it back.
    yperm_.resize(static_cast<std::size_t>(plan_->n_rows()));
    plan_->spmv(x, std::span<T>(yperm_), launch_.n_threads);
    perm->from_permuted(std::span<const T>(yperm_), y);
  }

  void apply_block(std::span<const T> x, std::span<T> y, int k) override {
    this->check_block(x, y, k);
    const Permutation* perm = plan_->permutation();
    if (perm == nullptr) {
      plan_->spmmv(x, y, k, launch_.n_threads);
      return;
    }
    // Sorted row order: move whole k-wide row groups back.
    const auto kk = static_cast<std::size_t>(k);
    const auto rows = static_cast<std::size_t>(plan_->n_rows());
    yperm_.resize(rows * kk);
    plan_->spmmv(x, std::span<T>(yperm_), k, launch_.n_threads);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto o = static_cast<std::size_t>(
          perm->old_of(static_cast<index_t>(r)));
      for (std::size_t v = 0; v < kk; ++v) y[o * kk + v] = yperm_[r * kk + v];
    }
  }

  void apply_axpby(std::span<const T> x, std::span<T> y, T alpha,
                   T beta) override {
    if (plan_->info().native_axpby) {
      this->check_spans(x, y);
      if (plan_->spmv_axpby(x, y, alpha, beta, launch_.n_threads)) return;
    }
    BoundSpmv<T>::apply_axpby(x, y, alpha, beta);
  }

 private:
  std::shared_ptr<const formats::FormatPlan<T>> plan_;
  LaunchOptions launch_;
  std::vector<T> yperm_;
};

template <class T>
class HostBackend final : public Backend<T> {
 public:
  const BackendInfo& info() const override { return kHostInfo; }

  std::unique_ptr<BoundSpmv<T>> bind(const Csr<T>& a, std::string_view format,
                                     const formats::PlanOptions& opts,
                                     const LaunchOptions& launch) override {
    return bind_plan(formats::registry<T>().build(format, a, opts), launch);
  }

  std::unique_ptr<BoundSpmv<T>> bind_plan(
      std::shared_ptr<const formats::FormatPlan<T>> plan,
      const LaunchOptions& launch) override {
    SPMVM_REQUIRE(plan != nullptr, "cannot bind a null plan");
    return std::make_unique<HostBound<T>>(std::move(plan), launch);
  }
};

// ---- gpusim ---------------------------------------------------------------

template <class T>
class GpusimBound final : public BoundSpmv<T> {
 public:
  GpusimBound(std::shared_ptr<TransferManager> tm,
              std::shared_ptr<const formats::FormatPlan<T>> plan,
              const LaunchOptions& launch)
      : tm_(std::move(tm)),
        plan_(plan),
        launch_(launch),
        numerics_(plan, launch),
        image_bytes_(plan_->footprint().total_bytes(sizeof(T))) {
    // Matrix image: reserved against the card's real capacity (throws
    // when the format does not fit) and uploaded once at bind.
    allocation_ = tm_->alloc_device_bytes(image_bytes_);
    tm_->stage_to_device(image_bytes_, "matrix");
    if (launch_.vectors_resident) {
      x_dev_ = tm_->template alloc<T>(
          Space::device, static_cast<std::size_t>(plan_->n_cols()));
      y_dev_ = tm_->template alloc<T>(
          Space::device, static_cast<std::size_t>(plan_->n_rows()));
    }
    estimate_ = make_estimate();
  }

  ~GpusimBound() override { tm_->free_device(allocation_); }

  const BackendInfo& backend() const override { return kGpusimInfo; }
  index_t n_rows() const override { return plan_->n_rows(); }
  index_t n_cols() const override { return plan_->n_cols(); }
  offset_t nnz() const override { return plan_->nnz(); }
  const formats::FormatPlan<T>* plan() const override { return plan_.get(); }

  std::size_t device_bytes() const { return image_bytes_; }
  const gpusim::KernelResult& kernel_estimate() const { return estimate_; }

  void apply(std::span<const T> x, std::span<T> y) override {
    // Numerics on the host mirror (the simulator executes the actual
    // format data structures), timing on the simulated clocks.
    numerics_.apply(x, y);
    if (!launch_.vectors_resident)
      tm_->stage_to_device(
          static_cast<std::uint64_t>(plan_->n_cols()) * sizeof(T), "vector");
    tm_->launch(estimate_);
    if (!launch_.vectors_resident)
      tm_->stage_to_host(
          static_cast<std::uint64_t>(plan_->n_rows()) * sizeof(T), "vector");
    record_launch(estimate_, 1);
  }

  void apply_block(std::span<const T> x, std::span<T> y, int k) override {
    numerics_.apply_block(x, y, k);
    const auto kb = static_cast<std::uint64_t>(k) * sizeof(T);
    if (!launch_.vectors_resident)
      tm_->stage_to_device(static_cast<std::uint64_t>(plan_->n_cols()) * kb,
                           "vector");
    const gpusim::KernelResult est = block_estimate(k);
    tm_->launch(est);
    if (!launch_.vectors_resident)
      tm_->stage_to_host(static_cast<std::uint64_t>(plan_->n_rows()) * kb,
                         "vector");
    record_launch(est, k);
  }

  /// Eq. 1 extension for k RHS (spmmv_code_balance): the matrix image
  /// streams once, the vector terms and flops scale with k; timing is
  /// re-derived from the scaled traffic on the same device roofs.
  gpusim::KernelResult block_estimate(int k) const {
    if (k <= 1) return estimate_;
    const auto& dev = tm_->device()->spec();
    gpusim::KernelResult r = estimate_;
    const auto kk = static_cast<std::uint64_t>(k);
    r.stats.flops *= kk;
    r.stats.rhs_bytes *= kk;
    r.stats.stream_bytes *= kk;
    r.stats.useful_lane_steps *= kk;
    r.stats.total_lane_steps *= kk;
    r.mem_seconds = static_cast<double>(r.stats.dram_bytes()) /
                    dev.bandwidth_bytes(tm_->device()->ecc());
    r.issue_seconds = estimate_.issue_seconds * static_cast<double>(k);
    r.seconds =
        std::max(r.mem_seconds, r.issue_seconds) + dev.kernel_launch_s;
    if (r.seconds > 0.0)
      r.gflops = static_cast<double>(r.stats.flops) / r.seconds / 1e9;
    if (r.stats.flops > 0)
      r.code_balance = static_cast<double>(r.stats.dram_bytes()) /
                       static_cast<double>(r.stats.flops);
    return r;
  }

 private:
  gpusim::KernelResult make_estimate() const {
    gpusim::SimOptions opt;
    opt.ecc = tm_->device()->ecc();
    if (auto sim = plan_->simulate(tm_->device()->spec(), opt)) return *sim;
    // No warp-granular sim kernel (jds, bellpack): generic Eq. 1
    // bandwidth bound over the stored footprint at ideal α.
    const auto& dev = tm_->device()->spec();
    gpusim::KernelResult r;
    r.stats.flops = 2 * static_cast<std::uint64_t>(plan_->nnz());
    r.stats.matrix_bytes = image_bytes_;
    r.stats.rhs_bytes =
        static_cast<std::uint64_t>(plan_->n_cols()) * sizeof(T);
    r.stats.stream_bytes =
        2 * static_cast<std::uint64_t>(plan_->n_rows()) * sizeof(T);
    r.mem_seconds = static_cast<double>(r.stats.dram_bytes()) /
                    dev.bandwidth_bytes(tm_->device()->ecc());
    r.seconds = r.mem_seconds + dev.kernel_launch_s;
    if (r.seconds > 0.0)
      r.gflops = static_cast<double>(r.stats.flops) / r.seconds / 1e9;
    if (r.stats.flops > 0)
      r.code_balance = static_cast<double>(r.stats.dram_bytes()) /
                       static_cast<double>(r.stats.flops);
    return r;
  }

  void record_launch(const gpusim::KernelResult& est, int k) const {
    if (!obs::ledger_enabled()) return;
    const auto nnz = static_cast<std::uint64_t>(plan_->nnz());
    const auto rows = static_cast<double>(plan_->n_rows());
    if (nnz == 0 || rows <= 0.0) return;
    // Same convention as the kernel simulator's own device-lane record:
    // predicted is Eq. 1 at *measured* α (extended to k RHS for batched
    // launches), so ledger efficiency equals gflops_sim / gflops_model
    // per launch. spmmv_code_balance(…, 1) is exactly Eq. 1.
    obs::WorkDesc w;
    w.bytes = est.stats.dram_bytes();
    w.flops = est.stats.flops;
    w.nnz = nnz;
    w.alpha = est.stats.measured_alpha(sizeof(T));
    const double gflops_model = perfmodel::bandwidth_bound_gflops(
        tm_->device()->spec().bandwidth_bytes(tm_->device()->ecc()) / 1e9,
        spmmv_code_balance(sizeof(T), w.alpha,
                           static_cast<double>(nnz) / rows, k));
    w.predicted_seconds =
        static_cast<double>(w.flops) / (gflops_model * 1e9);
    obs::ledger_record(obs::RoofLane::device, plan_->info().name,
                       k > 1 ? "block" : "launch", est.seconds, w);
  }

  std::shared_ptr<TransferManager> tm_;
  std::shared_ptr<const formats::FormatPlan<T>> plan_;
  LaunchOptions launch_;
  HostBound<T> numerics_;
  std::size_t image_bytes_;
  int allocation_ = -1;
  Buffer<T> x_dev_, y_dev_;
  gpusim::KernelResult estimate_;
};

template <class T>
class GpusimBackend final : public Backend<T> {
 public:
  explicit GpusimBackend(std::shared_ptr<TransferManager> tm)
      : tm_(std::move(tm)) {}

  const BackendInfo& info() const override { return kGpusimInfo; }

  std::unique_ptr<BoundSpmv<T>> bind(const Csr<T>& a, std::string_view format,
                                     const formats::PlanOptions& opts,
                                     const LaunchOptions& launch) override {
    return bind_plan(formats::registry<T>().build(format, a, opts), launch);
  }

  std::unique_ptr<BoundSpmv<T>> bind_plan(
      std::shared_ptr<const formats::FormatPlan<T>> plan,
      const LaunchOptions& launch) override {
    SPMVM_REQUIRE(plan != nullptr, "cannot bind a null plan");
    return std::make_unique<GpusimBound<T>>(tm_, std::move(plan), launch);
  }

 private:
  std::shared_ptr<TransferManager> tm_;
};

// ---- hybrid ---------------------------------------------------------------

template <class T>
class HybridBound final : public BoundSpmv<T> {
 public:
  HybridBound(std::shared_ptr<TransferManager> tm,
              const obs::RooflineSpec& roofs, const Csr<T>& a,
              std::string_view format, const formats::PlanOptions& opts,
              const LaunchOptions& launch)
      : n_rows_(a.n_rows),
        n_cols_(a.n_cols),
        nnz_(a.nnz()),
        format_(format),
        launch_(launch),
        roofs_(roofs) {
    double f = launch.device_share;
    if (f < 0.0) {
      // The paper's static split: each side gets work proportional to
      // its bandwidth roof, so both finish together in the
      // bandwidth-bound limit.
      const double bwh =
          roofs.bw_gbs[static_cast<int>(obs::RoofLane::host)];
      const double bwd =
          roofs.bw_gbs[static_cast<int>(obs::RoofLane::device)];
      f = bwd / (bwd + bwh);
    }
    f = std::clamp(f, 0.0, 1.0);

    // Smallest row index whose cumulative nnz reaches the device share.
    const auto target = static_cast<double>(nnz_) * f;
    split_ = 0;
    while (split_ < n_rows_ &&
           static_cast<double>(a.row_ptr[static_cast<std::size_t>(split_)]) <
               target)
      ++split_;
    device_nnz_ = a.row_ptr.empty()
                      ? 0
                      : a.row_ptr[static_cast<std::size_t>(split_)];

    LaunchOptions part = launch;
    part.device_share = -1.0;
    if (split_ > 0)
      dev_part_ = std::make_unique<GpusimBound<T>>(
          tm, formats::registry<T>().build(format, sub_csr(a, 0, split_),
                                           opts),
          part);
    if (split_ < n_rows_) {
      part.vectors_resident = false;
      host_part_ = std::make_unique<HostBound<T>>(
          formats::registry<T>().build(format, sub_csr(a, split_, n_rows_),
                                       opts),
          part);
    }
    predicted_ = overlap_bound(1);
  }

  const BackendInfo& backend() const override { return kHybridInfo; }
  index_t n_rows() const override { return n_rows_; }
  index_t n_cols() const override { return n_cols_; }
  offset_t nnz() const override { return nnz_; }

  index_t split_row() const override { return split_; }
  double device_nnz_share() const override {
    return nnz_ == 0 ? 0.0
                     : static_cast<double>(device_nnz_) /
                           static_cast<double>(nnz_);
  }

  void apply(std::span<const T> x, std::span<T> y) override {
    this->check_spans(x, y);
    SPMVM_TRACE_SPAN("exec/hybrid", static_cast<std::uint64_t>(nnz_));
    const auto t0 = std::chrono::steady_clock::now();
    auto yfull = y.first(static_cast<std::size_t>(n_rows_));
    if (dev_part_ && host_part_) {
      auto ydev = yfull.first(static_cast<std::size_t>(split_));
      auto yhost = yfull.subspan(static_cast<std::size_t>(split_));
      // Both parts run concurrently: the device part stages and
      // launches through the (mutex-guarded) transfer manager while
      // the host part executes pooled kernels. Nested pool calls run
      // inline, so each part's kernels execute on its own worker.
      ThreadPool::instance().run(2, [&](int p) {
        if (p == 0)
          dev_part_->apply(x, ydev);
        else
          host_part_->apply(x, yhost);
      });
    } else if (dev_part_) {
      dev_part_->apply(x, yfull);
    } else if (host_part_) {
      host_part_->apply(x, yfull);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    record_overlap(wall, 1);
  }

  void apply_block(std::span<const T> x, std::span<T> y, int k) override {
    this->check_block(x, y, k);
    SPMVM_TRACE_SPAN("exec/hybrid",
                     static_cast<std::uint64_t>(nnz_) *
                         static_cast<std::uint64_t>(k));
    const auto t0 = std::chrono::steady_clock::now();
    const auto kk = static_cast<std::size_t>(k);
    // Row-major-by-vector layout keeps the row split contiguous in Y:
    // rows [0, split) are the block's first split·k values.
    auto yfull = y.first(static_cast<std::size_t>(n_rows_) * kk);
    if (dev_part_ && host_part_) {
      auto ydev = yfull.first(static_cast<std::size_t>(split_) * kk);
      auto yhost = yfull.subspan(static_cast<std::size_t>(split_) * kk);
      ThreadPool::instance().run(2, [&](int p) {
        if (p == 0)
          dev_part_->apply_block(x, ydev, k);
        else
          host_part_->apply_block(x, yhost, k);
      });
    } else if (dev_part_) {
      dev_part_->apply_block(x, yfull, k);
    } else if (host_part_) {
      host_part_->apply_block(x, yfull, k);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    record_overlap(wall, k);
  }

 private:
  /// Ideal-overlap lower bound for a k-wide launch: both parts start
  /// together, the bound is the slower of the host roof bound and the
  /// device model (kernel + per-product staging), each at block width k.
  double overlap_bound(int k) const {
    double host_s = 0.0;
    if (host_part_)
      host_s =
          streamed_bytes(*host_part_->plan(), k) /
          (roofs_.bw_gbs[static_cast<int>(obs::RoofLane::host)] * 1e9);
    double dev_s = 0.0;
    if (dev_part_) {
      dev_s = dev_part_->block_estimate(k).seconds;
      if (!launch_.vectors_resident) {
        const double staged = static_cast<double>(n_cols_ + split_) *
                              static_cast<double>(k) * sizeof(T);
        dev_s += staged /
                 (roofs_.bw_gbs[static_cast<int>(obs::RoofLane::pcie)] * 1e9);
      }
    }
    return std::max(host_s, dev_s);
  }

  void record_overlap(double wall_seconds, int k) const {
    if (!obs::ledger_enabled() || nnz_ == 0) return;
    obs::WorkDesc w;
    double bytes = 0.0;
    if (host_part_) bytes += streamed_bytes(*host_part_->plan(), k);
    if (dev_part_)
      bytes += static_cast<double>(
          dev_part_->block_estimate(k).stats.dram_bytes());
    w.bytes = static_cast<std::uint64_t>(bytes);
    w.flops = 2 * static_cast<std::uint64_t>(nnz_) *
              static_cast<std::uint64_t>(k);
    w.nnz = static_cast<std::uint64_t>(nnz_);
    w.alpha = perfmodel::alpha_ideal(static_cast<double>(nnz_) /
                                     static_cast<double>(n_rows_));
    w.predicted_seconds = k == 1 ? predicted_ : overlap_bound(k);
    obs::ledger_record(obs::RoofLane::host, format_.c_str(),
                       k > 1 ? "hybrid_block" : "hybrid", wall_seconds, w);
  }

  index_t n_rows_;
  index_t n_cols_;
  offset_t nnz_;
  std::string format_;
  LaunchOptions launch_;
  obs::RooflineSpec roofs_;
  index_t split_ = 0;
  offset_t device_nnz_ = 0;
  double predicted_ = 0.0;
  std::unique_ptr<GpusimBound<T>> dev_part_;
  std::unique_ptr<HostBound<T>> host_part_;
};

template <class T>
class HybridBackend final : public Backend<T> {
 public:
  HybridBackend(std::shared_ptr<TransferManager> tm,
                const obs::RooflineSpec& roofs)
      : tm_(std::move(tm)), roofs_(roofs) {}

  const BackendInfo& info() const override { return kHybridInfo; }

  std::unique_ptr<BoundSpmv<T>> bind(const Csr<T>& a, std::string_view format,
                                     const formats::PlanOptions& opts,
                                     const LaunchOptions& launch) override {
    SPMVM_REQUIRE(formats::registry<T>().find(format) != nullptr ||
                      format == "auto",
                  "unknown format '" + std::string(format) + "'");
    return std::make_unique<HybridBound<T>>(tm_, roofs_, a, format, opts,
                                            launch);
  }

  /// The split needs the assembled matrix; recover it from the plan.
  std::unique_ptr<BoundSpmv<T>> bind_plan(
      std::shared_ptr<const formats::FormatPlan<T>> plan,
      const LaunchOptions& launch) override {
    SPMVM_REQUIRE(plan != nullptr, "cannot bind a null plan");
    const Csr<T> a = plan->to_csr();
    return bind(a, plan->info().name, {}, launch);
  }

 private:
  std::shared_ptr<TransferManager> tm_;
  obs::RooflineSpec roofs_;
};

}  // namespace

template <class T>
std::unique_ptr<Backend<T>> make_host_backend() {
  return std::make_unique<HostBackend<T>>();
}

template <class T>
std::unique_ptr<Backend<T>> make_gpusim_backend(
    std::shared_ptr<TransferManager> tm) {
  return std::make_unique<GpusimBackend<T>>(std::move(tm));
}

template <class T>
std::unique_ptr<Backend<T>> make_hybrid_backend(
    std::shared_ptr<TransferManager> tm, const obs::RooflineSpec& roofs) {
  return std::make_unique<HybridBackend<T>>(std::move(tm), roofs);
}

#define SPMVM_INSTANTIATE_BACKENDS(T)                                   \
  template std::unique_ptr<Backend<T>> make_host_backend<T>();          \
  template std::unique_ptr<Backend<T>> make_gpusim_backend<T>(          \
      std::shared_ptr<TransferManager>);                                \
  template std::unique_ptr<Backend<T>> make_hybrid_backend<T>(          \
      std::shared_ptr<TransferManager>, const obs::RooflineSpec&)

SPMVM_INSTANTIATE_BACKENDS(float);
SPMVM_INSTANTIATE_BACKENDS(double);
#undef SPMVM_INSTANTIATE_BACKENDS

}  // namespace spmvm::exec
