#include "dist/comm_plan.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "exec/dispatch.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace spmvm::dist {

namespace {

/// Tag of the halo messages. One plan may be active per Comm at a time,
/// so every plan on a Comm can share it.
constexpr int kTagPlanHalo = 102;

/// The iteration span of a plan, "dist/plan_<slug>". Span names must
/// outlive the trace, so they are literals; scheme_slug() is their tail.
constexpr std::size_t kPlanSpanPrefix = std::string_view("dist/plan_").size();

const char* plan_span_name(CommScheme scheme) {
  switch (scheme) {
    case CommScheme::vector_mode:
      return "dist/plan_vector";
    case CommScheme::naive_overlap:
      return "dist/plan_naive";
    case CommScheme::task_mode:
      return "dist/plan_task";
  }
  return "dist/plan_?";
}

/// y += nonlocal · halo (the non-local contribution), through the plan's
/// fused kernel (build_plans accepts only formats that have one).
template <class T>
void apply_nonlocal(const DistMatrix<T>& d, std::span<const T> halo,
                    std::span<T> y) {
  if (d.n_halo == 0) return;
  const bool fused =
      exec::plan_spmv_axpby(*d.nonlocal_plan, halo, y, T{1}, T{1});
  SPMVM_REQUIRE(fused, "non-local plan has no fused y += A*x kernel");
}

/// Net-lane work descriptor for `bytes` of halo traffic over the
/// ClusterSpec interconnect (Eq. 3's T_comm without the latency term —
/// the latency share is exactly what the efficiency column loses).
obs::WorkDesc net_work(std::uint64_t bytes) {
  obs::WorkDesc w;
  w.bytes = bytes;
  return w;
}

}  // namespace

const char* to_string(CommScheme scheme) {
  switch (scheme) {
    case CommScheme::vector_mode:
      return "vector mode";
    case CommScheme::naive_overlap:
      return "naive overlap";
    case CommScheme::task_mode:
      return "task mode";
  }
  return "?";
}

const char* scheme_slug(CommScheme scheme) {
  return plan_span_name(scheme) + kPlanSpanPrefix;
}

template <class T>
void handshake_pattern(msg::Comm& comm, const DistMatrix<T>& d) {
  SPMVM_REQUIRE(comm.size() == d.n_parts,
                "communicator size must match the partition");
  SPMVM_REQUIRE(comm.rank() == d.rank, "rank mismatch");
  // Tell every owner which of its entries I need (global indices); check
  // that what peers request from me matches my precomputed send lists.
  std::vector<std::vector<index_t>> requests(
      static_cast<std::size_t>(d.n_parts));
  for (int p = 0; p < d.n_parts; ++p) {
    const auto off = d.recv_offset[static_cast<std::size_t>(p)];
    const auto cnt = d.recv_count[static_cast<std::size_t>(p)];
    requests[static_cast<std::size_t>(p)].assign(
        d.halo_global.begin() + off, d.halo_global.begin() + off + cnt);
  }
  const auto wanted_from_me = comm.alltoall_t<index_t>(requests);
  const index_t row0 = d.partition.begin(d.rank);
  for (int p = 0; p < d.n_parts; ++p) {
    if (p == d.rank) continue;
    const auto& got = wanted_from_me[static_cast<std::size_t>(p)];
    const auto& expected = d.send_idx[static_cast<std::size_t>(p)];
    SPMVM_REQUIRE(got.size() == expected.size(),
                  "send-list size mismatch in pattern handshake");
    for (std::size_t k = 0; k < got.size(); ++k)
      SPMVM_REQUIRE(got[k] - row0 == expected[k],
                    "send-list entry mismatch in pattern handshake");
  }
}

template <class T>
CommPlan<T>::CommPlan(msg::Comm& comm, const DistMatrix<T>& d,
                      CommScheme scheme, int gather_threads)
    : comm_(comm),
      d_(d),
      scheme_(scheme),
      gather_threads_(gather_threads) {
  SPMVM_REQUIRE(comm.size() == d.n_parts,
                "communicator size must match the partition");
  SPMVM_REQUIRE(comm.rank() == d.rank, "rank mismatch");
  SPMVM_REQUIRE(gather_threads >= 1, "need at least one gather thread");
  SPMVM_REQUIRE(d.local_plan != nullptr,
                "DistMatrix has no local kernel plan (see build_plans)");
  SPMVM_REQUIRE(d.n_halo == 0 || d.nonlocal_plan != nullptr,
                "DistMatrix has a halo but no non-local kernel plan (see "
                "build_plans)");

  // Flatten the per-peer send lists into one contiguous array.
  send_offset_.assign(static_cast<std::size_t>(d.n_parts) + 1, 0);
  for (int p = 0; p < d.n_parts; ++p)
    send_offset_[static_cast<std::size_t>(p) + 1] =
        send_offset_[static_cast<std::size_t>(p)] +
        d.send_idx[static_cast<std::size_t>(p)].size();
  send_flat_.reserve(send_offset_.back());
  for (int p = 0; p < d.n_parts; ++p)
    send_flat_.insert(send_flat_.end(),
                      d.send_idx[static_cast<std::size_t>(p)].begin(),
                      d.send_idx[static_cast<std::size_t>(p)].end());

  // Every gathered entry costs the same (one load + one store), so the
  // entry-balanced partition is the even split.
  const std::size_t n_entries = send_flat_.size();
  const std::size_t parts = static_cast<std::size_t>(gather_threads_);
  gather_bounds_.resize(parts + 1);
  for (std::size_t t = 0; t <= parts; ++t)
    gather_bounds_[t] = n_entries * t / parts;

  sendbuf_.resize(n_entries);
  halo_.resize(static_cast<std::size_t>(d.n_halo));

  // Persistent requests, bound once to the plan-owned buffers.
  for (int p = 0; p < d.n_parts; ++p) {
    const auto count = d.recv_count[static_cast<std::size_t>(p)];
    if (count > 0)
      recv_reqs_.push_back(comm_.recv_init_t<T>(
          p, kTagPlanHalo,
          std::span<T>(halo_.data() +
                           d.recv_offset[static_cast<std::size_t>(p)],
                       static_cast<std::size_t>(count))));
  }
  for (int p = 0; p < d.n_parts; ++p) {
    const auto n = send_offset_[static_cast<std::size_t>(p) + 1] -
                   send_offset_[static_cast<std::size_t>(p)];
    if (n > 0)
      send_reqs_.push_back(comm_.send_init_t<T>(
          p, kTagPlanHalo,
          std::span<const T>(
              sendbuf_.data() + send_offset_[static_cast<std::size_t>(p)],
              n)));
  }

  // Post this rank's receives, then barrier: once construction returns
  // anywhere, every rank's receives are posted, so every steady-state
  // send lands in its posted buffer (rendezvous, single copy).
  start_receives();
  try {
    comm_.barrier();
  } catch (...) {
    for (auto& r : recv_reqs_) comm_.cancel(r);
    throw;
  }

  if (scheme_ == CommScheme::task_mode) {
    static obs::Counter& c_threads = obs::counter("comm.task_threads");
    c_threads.add();
    comm_thread_ = std::thread([this] { comm_thread_loop(); });
  }
}

template <class T>
CommPlan<T>::~CommPlan() {
  if (comm_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    comm_thread_.join();
  }
  for (auto& r : recv_reqs_) comm_.cancel(r);
}

template <class T>
void CommPlan<T>::local_gather(std::span<const T> x) {
  SPMVM_TRACE_SPAN("comm/plan_gather",
                   static_cast<std::uint64_t>(send_flat_.size()) * sizeof(T));
  obs::LedgerScope led(obs::RoofLane::host, scheme_slug(scheme_), "gather");
  if (led.active()) {
    // The gather streams the indexed reads plus the packed writes.
    obs::WorkDesc w;
    w.bytes = static_cast<std::uint64_t>(send_flat_.size()) *
              (sizeof(T) + sizeof(index_t) + sizeof(T));
    led.set_work(w);
  }
  static obs::Counter& c_ns = obs::counter("comm.gather_ns");
  static obs::Gauge& g_s = obs::gauge("comm.gather_seconds");
  const auto t0 = std::chrono::steady_clock::now();
  const index_t* idx = send_flat_.data();
  T* out = sendbuf_.data();
  const int parts = static_cast<int>(gather_bounds_.size()) - 1;
  ThreadPool::instance().run(parts, [&](int part) {
    const std::size_t lo = gather_bounds_[static_cast<std::size_t>(part)];
    const std::size_t hi = gather_bounds_[static_cast<std::size_t>(part) + 1];
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = x[static_cast<std::size_t>(idx[i])];
  });
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  c_ns.add(ns);
  g_s.set(static_cast<double>(c_ns.value()) * 1e-9);
}

template <class T>
void CommPlan<T>::start_receives() {
  comm_.startall(recv_reqs_);
}

template <class T>
void CommPlan<T>::start_sends() {
  SPMVM_TRACE_SPAN("comm/plan_sends",
                   static_cast<std::uint64_t>(sendbuf_.size()) * sizeof(T));
  obs::LedgerScope led(obs::RoofLane::net, scheme_slug(scheme_), "sends");
  if (led.active())
    led.set_work(
        net_work(static_cast<std::uint64_t>(sendbuf_.size()) * sizeof(T)));
  comm_.startall(send_reqs_);
  comm_.waitall(send_reqs_);  // buffered sends complete at start; re-arm
}

template <class T>
void CommPlan<T>::wait_receives() {
  SPMVM_TRACE_SPAN("comm/plan_waitall",
                   static_cast<std::uint64_t>(d_.n_halo) * sizeof(T));
  obs::LedgerScope led(obs::RoofLane::net, scheme_slug(scheme_), "wait");
  if (led.active())
    led.set_work(
        net_work(static_cast<std::uint64_t>(d_.n_halo) * sizeof(T)));
  comm_.waitall(recv_reqs_);
}

template <class T>
void CommPlan<T>::comm_thread_loop() {
  obs::set_thread_name("comm thread");
  // The comm thread works on behalf of its owning rank: its spans
  // (plan_sends/plan_waitall, msg flows) belong in the same rank lane.
  obs::set_rank(comm_.rank());
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] { return work_ || stop_; });
    if (stop_) return;
    work_ = false;
    lk.unlock();
    try {
      start_sends();
      wait_receives();
    } catch (...) {
      comm_error_ = std::current_exception();
    }
    lk.lock();
    done_ = true;
    cv_.notify_all();
  }
}

template <class T>
void CommPlan<T>::signal_comm_thread() {
  {
    std::lock_guard<std::mutex> lk(m_);
    work_ = true;
    done_ = false;
  }
  cv_.notify_all();
}

template <class T>
void CommPlan<T>::join_iteration() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] { return done_; });
  if (comm_error_) {
    std::exception_ptr e = std::exchange(comm_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(e);
  }
}

template <class T>
void CommPlan<T>::spmv(std::span<const T> x_local, std::span<T> y_local) {
  SPMVM_REQUIRE(x_local.size() >= static_cast<std::size_t>(d_.n_local),
                "x block too small");
  SPMVM_REQUIRE(y_local.size() >= static_cast<std::size_t>(d_.n_local),
                "y block too small");
  SPMVM_TRACE_SPAN(plan_span_name(scheme_));

  local_gather(x_local);
  static obs::Counter& c_halo = obs::counter("comm.halo_bytes");
  static obs::Counter& c_send = obs::counter("comm.send_bytes");
  c_halo.add(static_cast<std::uint64_t>(d_.n_halo) * sizeof(T));
  c_send.add(static_cast<std::uint64_t>(sendbuf_.size()) * sizeof(T));

  switch (scheme_) {
    case CommScheme::vector_mode: {
      // Exchange completes before any compute (no overlap).
      start_sends();
      wait_receives();
      {
        SPMVM_TRACE_SPAN("kernel/local");
        exec::plan_spmv(*d_.local_plan, x_local, y_local);
      }
      {
        SPMVM_TRACE_SPAN("kernel/nonlocal");
        apply_nonlocal<T>(d_, std::span<const T>(halo_), y_local);
      }
      break;
    }
    case CommScheme::naive_overlap: {
      // Sends in flight while the local part computes.
      start_sends();
      {
        SPMVM_TRACE_SPAN("kernel/local");
        exec::plan_spmv(*d_.local_plan, x_local, y_local);
      }
      wait_receives();
      {
        SPMVM_TRACE_SPAN("kernel/nonlocal");
        apply_nonlocal<T>(d_, std::span<const T>(halo_), y_local);
      }
      break;
    }
    case CommScheme::task_mode: {
      // Wake the persistent comm thread (Fig. 4: thread 0 exchanges
      // while the compute threads run the local part).
      signal_comm_thread();
      {
        SPMVM_TRACE_SPAN("kernel/local");
        exec::plan_spmv(*d_.local_plan, x_local, y_local);
      }
      join_iteration();
      {
        SPMVM_TRACE_SPAN("kernel/nonlocal");
        apply_nonlocal<T>(d_, std::span<const T>(halo_), y_local);
      }
      break;
    }
  }

  // The halo is consumed; re-post the receives now so the peers' next
  // sends rendezvous straight into halo_. A send that arrives before its
  // receive is re-posted (a rank racing a full iteration ahead) falls
  // back to the eager queue — slower, never wrong.
  {
    SPMVM_TRACE_SPAN("comm/plan_repost");
    start_receives();
  }
  ++iterations_;
}

template <class T>
std::vector<T> run_power_iterations(msg::Comm& comm, const DistMatrix<T>& d,
                                    std::span<const T> x0_local,
                                    int iterations, CommScheme scheme) {
  std::vector<T> x(x0_local.begin(), x0_local.end());
  std::vector<T> y(static_cast<std::size_t>(d.n_local));
  CommPlan<T> plan(comm, d, scheme);
  for (int it = 0; it < iterations; ++it) {
    plan.spmv(std::span<const T>(x), std::span<T>(y));
    // Global normalization keeps values bounded and adds a collective,
    // like a real eigensolver iteration.
    double local_sq = 0.0;
    for (const T v : y) local_sq += static_cast<double>(v) * v;
    const double norm = std::sqrt(comm.allreduce_sum(local_sq));
    SPMVM_REQUIRE(norm > 0.0, "iteration collapsed to zero vector");
    for (std::size_t i = 0; i < y.size(); ++i)
      x[i] = static_cast<T>(y[i] / norm);
  }
  return x;
}

#define SPMVM_INSTANTIATE_COMM_PLAN(T)                                    \
  template class CommPlan<T>;                                             \
  template void handshake_pattern(msg::Comm&, const DistMatrix<T>&);      \
  template std::vector<T> run_power_iterations(                           \
      msg::Comm&, const DistMatrix<T>&, std::span<const T>, int, CommScheme)

SPMVM_INSTANTIATE_COMM_PLAN(float);
SPMVM_INSTANTIATE_COMM_PLAN(double);

}  // namespace spmvm::dist
