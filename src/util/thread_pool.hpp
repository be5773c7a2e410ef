// Persistent parallel runtime for the host spMVM kernels.
//
// The original fork-join parallel_for spawned and joined fresh
// std::threads on every kernel invocation — tens of microseconds of
// overhead per spMVM call, paid once per solver iteration. This pool is
// created lazily on first parallel use, keeps its workers parked on a
// condition variable between calls, and broadcasts one task per call;
// workers claim statically precomputed parts (contiguous index ranges)
// through an atomic counter, so range→result mapping is deterministic
// regardless of which worker executes which part.
//
// Concurrency contract:
//  - run() may be called concurrently from any number of external
//    threads (e.g. the msg runtime's rank threads); submissions are
//    serialized, callers queue on a mutex.
//  - run() from inside a running task (nested parallelism) executes the
//    nested parts inline on the calling worker — no deadlock, no
//    oversubscription.
//  - The first exception thrown by a part is captured and rethrown on
//    the submitting thread after all parts finished.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace spmvm {

class ThreadPool {
 public:
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool. Created on first use; workers are spawned
  /// on demand, up to the largest part count ever requested (capped).
  static ThreadPool& instance();

  /// Invoke task(part) for every part in [0, n_parts), distributed over
  /// the pooled workers plus the calling thread. Blocks until every part
  /// completed; rethrows the first exception a part threw. n_parts <= 1
  /// and nested calls run inline with no synchronization. Workers a call
  /// spawns have finished their start-up (thread name, metric handles)
  /// before it returns, so none of their one-time work lands later.
  template <class F>
  void run(int n_parts, F&& task) {
    if (n_parts <= 1 || in_task()) {
      for (int p = 0; p < n_parts; ++p) task(p);
      return;
    }
    run_impl(
        n_parts,
        [](void* ctx, int part) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(part);
        },
        const_cast<void*>(static_cast<const void*>(&task)));
  }

  /// Worker threads currently alive (grows on demand, never shrinks).
  int workers_spawned() const;

  /// True while the current thread is executing a pool task; such calls
  /// to run() short-circuit to the inline serial path.
  static bool in_task();

 private:
  ThreadPool();
  ~ThreadPool();

  void run_impl(int n_parts, void (*invoke)(void*, int), void* ctx);

  struct State;
  State* s_;
};

/// Partition boundaries over a row_ptr/slice_ptr-style monotone offsets
/// array of size n+1: returns parts+1 non-decreasing indices b with
/// b[0] = 0 and b[parts] = n, chosen so every range [b[t], b[t+1]) spans
/// roughly the same offset mass (non-zeros / stored bytes) rather than
/// the same number of indices. Ranges may be empty when a single index
/// carries more than its share.
std::vector<std::size_t> balanced_partition(std::span<const offset_t> offsets,
                                            std::size_t parts);

}  // namespace spmvm
