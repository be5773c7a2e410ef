#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spmvm {

namespace {
// Backstop against pathological part counts; real callers clamp the
// worker count to the iteration count long before this matters.
constexpr int kMaxPoolWorkers = 256;

thread_local bool g_in_pool_task = false;
}  // namespace

struct ThreadPool::State {
  std::mutex submit_mutex;  // serializes concurrent external submissions

  std::mutex m;  // guards everything below
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;
  std::uint64_t generation = 0;
  void (*invoke)(void*, int) = nullptr;
  void* ctx = nullptr;
  int n_parts = 0;
  std::atomic<int> next_part{0};
  int completed = 0;
  int running = 0;  // workers between cv-wakeup and re-park
  int started = 0;  // workers past their one-time start-up
  std::exception_ptr first_error;
  bool stop = false;

  /// Returns the number of parts this thread executed (imbalance gauge).
  int execute_parts(void (*fn)(void*, int), void* c, int n) {
    static obs::Counter& c_parts = obs::counter("pool.parts");
    static obs::Gauge& g_queued = obs::gauge("pool.queued_parts");
    int mine = 0;
    for (;;) {
      const int part = next_part.fetch_add(1, std::memory_order_relaxed);
      if (part >= n) return mine;
      // Unclaimed parts of the current broadcast; reaches 0 when the
      // last part is claimed (not when it finishes).
      g_queued.set(static_cast<double>(std::max(0, n - part - 1)));
      ++mine;
      c_parts.add();
      g_in_pool_task = true;
      try {
        SPMVM_TRACE_SPAN("pool/part");
        fn(c, part);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (!first_error) first_error = std::current_exception();
      }
      g_in_pool_task = false;
      std::lock_guard<std::mutex> lk(m);
      if (++completed == n) done_cv.notify_all();
    }
  }

  void worker_loop() {
    static obs::Gauge& g_active = obs::gauge("pool.active_workers");
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m);
    // Named and past the metric statics above: the run() that spawned
    // this thread may return.
    ++started;
    done_cv.notify_all();
    for (;;) {
      work_cv.wait(lk, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      auto* fn = invoke;
      auto* c = ctx;
      const int n = n_parts;
      g_active.set(static_cast<double>(++running));
      lk.unlock();
      {
        // One span per broadcast received: the worker's busy interval.
        SPMVM_TRACE_SPAN("pool/worker_run");
        execute_parts(fn, c, n);
      }
      lk.lock();
      g_active.set(static_cast<double>(--running));
      if (running == 0) done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool() : s_(new State) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(s_->m);
    s_->stop = true;
  }
  s_->work_cv.notify_all();
  for (auto& t : s_->workers) t.join();
  delete s_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::in_task() { return g_in_pool_task; }

int ThreadPool::workers_spawned() const {
  std::lock_guard<std::mutex> lk(s_->m);
  return static_cast<int>(s_->workers.size());
}

void ThreadPool::run_impl(int n_parts, void (*invoke)(void*, int), void* ctx) {
  static obs::Counter& c_tasks = obs::counter("pool.tasks");
  static obs::Counter& c_contended = obs::counter("pool.submit_contended");
  static obs::Gauge& g_workers = obs::gauge("pool.workers");
  static obs::Gauge& g_caller_share = obs::gauge("pool.caller_part_share");
  static const bool help = [] {
    obs::set_metric_help("pool.active_workers",
                         "Pool workers currently executing a broadcast "
                         "(excludes the submitting caller)");
    obs::set_metric_help("pool.queued_parts",
                         "Unclaimed parts of the current pool broadcast");
    return true;
  }();
  (void)help;

  // A failing try_lock means another external submitter holds the pool:
  // the closest thing this design has to queue depth.
  if (!s_->submit_mutex.try_lock()) {
    c_contended.add();
    s_->submit_mutex.lock();
  }
  std::lock_guard<std::mutex> serialize(s_->submit_mutex, std::adopt_lock);
  c_tasks.add();
  const int wanted = std::min(n_parts - 1, kMaxPoolWorkers);
  {
    std::unique_lock<std::mutex> lk(s_->m);
    while (static_cast<int>(s_->workers.size()) < wanted) {
      const int worker_idx = static_cast<int>(s_->workers.size());
      s_->workers.emplace_back([this, worker_idx] {
        obs::set_thread_name("pool worker " + std::to_string(worker_idx));
        s_->worker_loop();
      });
    }
    g_workers.set(static_cast<double>(s_->workers.size()));
    // A worker from the previous generation may still sit between its
    // cv-wakeup and its next part claim, holding the previous task's
    // fn/ctx. Resetting next_part under it would hand it a part of
    // *this* generation to run with the dead closure — wait until every
    // worker is parked again before re-arming the claim counter. A new
    // worker names itself and touches its metric statics on its own
    // thread, which allocates: wait for that too, so no start-up work
    // runs on after this call returns.
    s_->done_cv.wait(lk, [&] {
      return s_->running == 0 &&
             s_->started == static_cast<int>(s_->workers.size());
    });
    s_->invoke = invoke;
    s_->ctx = ctx;
    s_->n_parts = n_parts;
    s_->next_part.store(0, std::memory_order_relaxed);
    s_->completed = 0;
    s_->first_error = nullptr;
    ++s_->generation;
  }
  s_->work_cv.notify_all();
  // The caller works too; its share of the dynamically claimed parts is
  // the load-imbalance signal (1.0 = workers never got a part).
  const int mine = s_->execute_parts(invoke, ctx, n_parts);
  g_caller_share.set(static_cast<double>(mine) /
                     static_cast<double>(n_parts));

  std::unique_lock<std::mutex> lk(s_->m);
  s_->done_cv.wait(lk, [&] { return s_->completed == s_->n_parts; });
  const std::exception_ptr err = s_->first_error;
  s_->first_error = nullptr;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

std::vector<std::size_t> balanced_partition(std::span<const offset_t> offsets,
                                            std::size_t parts) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  parts = std::max<std::size_t>(1, std::min(parts, std::max<std::size_t>(n, 1)));
  std::vector<std::size_t> bounds(parts + 1, n);
  bounds[0] = 0;
  if (n == 0) return bounds;
  const offset_t total = offsets[n] - offsets[0];
  if (total <= 0) {
    // Degenerate (all-empty rows): fall back to an even index split.
    for (std::size_t t = 1; t < parts; ++t) bounds[t] = n * t / parts;
    return bounds;
  }
  for (std::size_t t = 1; t < parts; ++t) {
    const offset_t target =
        offsets[0] + static_cast<offset_t>(
                         (static_cast<double>(total) * static_cast<double>(t)) /
                         static_cast<double>(parts));
    const auto it = std::lower_bound(offsets.begin(), offsets.end(), target);
    const auto idx = static_cast<std::size_t>(it - offsets.begin());
    bounds[t] = std::min(n, std::max(bounds[t - 1], idx));
  }
  return bounds;
}

}  // namespace spmvm
