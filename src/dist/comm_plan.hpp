// Distributed spMVM with the paper's three communication schemes
// (Sec. III-A, Fig. 4), running functionally on the in-process message
// runtime:
//
//   vector mode    — the halo exchange completes before the local and
//                    non-local products (no overlap),
//   naive overlap  — sends are in flight while the local product runs;
//                    the non-local product follows the wait,
//   task mode      — a dedicated communication thread per rank runs the
//                    exchange while the calling thread runs the local
//                    product (Fig. 4).
//
// Every scheme applies the local part, then the fused non-local part
// (y += A_nl · halo), so all three are bit-identical to the serial
// rank-local product; they differ only in what may overlap (timed by
// cluster_model).
//
// A CommPlan is built once per DistMatrix and scheme and holds all the
// state that stays fixed across iterations:
//
//   - owned send/halo scratch buffers and precomputed per-peer offsets,
//   - persistent send/recv requests (msg::Comm::send_init/recv_init)
//     pre-bound to those buffers and re-activated with start(),
//   - pre-posted receives, so sends take the runtime's rendezvous path
//     (one copy, no mailbox allocation) in steady state,
//   - an entry-balanced ThreadPool partition of the local gather,
//   - for task mode, one long-lived per-rank communication thread woken
//     through a condition variable each iteration (the paper's
//     dedicated comm thread of Fig. 4).
//
// The steady-state spmv() performs no heap allocation and spawns no
// threads (asserted in test_comm_plan).
//
// Every iteration is traced as a dist/plan_<slug> span whose phases —
// comm/plan_gather, comm/plan_sends, comm/plan_waitall, kernel/local,
// kernel/nonlocal, comm/plan_repost — feed the per-rank attribution of
// obs/attribution (DESIGN.md §11); the task-mode comm thread records
// its phases in its owner's rank lane.
//
// Collective contract: construction posts this rank's receives and then
// barriers, so every rank must build its plan at the same point of the
// SPMD program. One plan may be active per Comm at a time (plans share
// the halo tag); destroy a plan (or keep it idle) before driving the
// same exchange through another one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "msg/runtime.hpp"

namespace spmvm::dist {

enum class CommScheme { vector_mode, naive_overlap, task_mode };

/// Display name: "vector mode", "naive overlap", "task mode".
const char* to_string(CommScheme scheme);

/// Short key: "vector", "naive", "task". Names the plan's iteration span
/// (dist/plan_<slug>), its ledger records and the bench entries.
const char* scheme_slug(CommScheme scheme);

/// Verify at runtime, by message exchange, that the locally computed send
/// lists match what each peer expects (the pattern handshake a real MPI
/// code performs at setup). Collective; throws on mismatch.
template <class T>
void handshake_pattern(msg::Comm& comm, const DistMatrix<T>& d);

template <class T>
class CommPlan {
 public:
  /// Build the plan for `d` on `comm` (collective: every rank
  /// constructs at the same point). `gather_threads` > 1 runs the local
  /// gather on the process ThreadPool with entry-balanced parts. Throws,
  /// before posting any receive, when `d` lacks its kernel plans (a
  /// local plan, and a non-local plan whenever the halo is non-empty).
  CommPlan(msg::Comm& comm, const DistMatrix<T>& d, CommScheme scheme,
           int gather_threads = 1);
  ~CommPlan();

  CommPlan(const CommPlan&) = delete;
  CommPlan& operator=(const CommPlan&) = delete;

  /// One distributed spMVM: y_local = A · x_local, under the plan's
  /// scheme.
  void spmv(std::span<const T> x_local, std::span<T> y_local);

  CommScheme scheme() const { return scheme_; }
  /// Products executed so far (steady-state iteration count).
  std::uint64_t iterations() const { return iterations_; }
  /// Entries gathered into the send buffer per iteration.
  std::size_t send_entries() const { return send_flat_.size(); }

 private:
  void local_gather(std::span<const T> x);
  void start_receives();  // (re-)post the persistent halo receives
  void start_sends();     // buffered: started and re-armed in one step
  void wait_receives();
  void comm_thread_loop();
  void signal_comm_thread();
  void join_iteration();  // wait for the comm thread, rethrow its error

  msg::Comm& comm_;
  const DistMatrix<T>& d_;
  const CommScheme scheme_;
  const int gather_threads_;

  /// send_idx flattened into one contiguous index array; peer p's
  /// entries are [send_offset_[p], send_offset_[p+1]).
  std::vector<index_t> send_flat_;
  std::vector<std::size_t> send_offset_;
  /// Precomputed entry-balanced part bounds over send_flat_ for the
  /// pooled gather (entries have uniform cost, so an even split is the
  /// nnz-balanced partition).
  std::vector<std::size_t> gather_bounds_;

  std::vector<T> sendbuf_;
  std::vector<T> halo_;
  std::vector<msg::Request> recv_reqs_;
  std::vector<msg::Request> send_reqs_;
  std::uint64_t iterations_ = 0;

  // Task mode: the persistent communication thread and its handshake.
  std::thread comm_thread_;
  std::mutex m_;
  std::condition_variable cv_;
  bool work_ = false;
  bool done_ = true;
  bool stop_ = false;
  std::exception_ptr comm_error_;
};

/// Run `iterations` products y = A·x through one plan, with x <- y/|y|
/// (a global allreduce) between them, a power-iteration-like workload;
/// returns the final local block.
template <class T>
std::vector<T> run_power_iterations(msg::Comm& comm, const DistMatrix<T>& d,
                                    std::span<const T> x0_local,
                                    int iterations, CommScheme scheme);

#define SPMVM_EXTERN_COMM_PLAN(T)                                          \
  extern template class CommPlan<T>;                                       \
  extern template void handshake_pattern(msg::Comm&, const DistMatrix<T>&); \
  extern template std::vector<T> run_power_iterations(                      \
      msg::Comm&, const DistMatrix<T>&, std::span<const T>, int, CommScheme)
SPMVM_EXTERN_COMM_PLAN(float);
SPMVM_EXTERN_COMM_PLAN(double);
#undef SPMVM_EXTERN_COMM_PLAN

}  // namespace spmvm::dist
