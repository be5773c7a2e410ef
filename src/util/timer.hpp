// Wall-clock timing helpers for benchmarks and the host kernels.
#pragma once

#include <chrono>

namespace spmvm {

/// Monotonic stopwatch measuring seconds as double.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-repetition timing spread from one measure_seconds_stats() run —
/// mean alone hides jitter; min is the best-case (least-disturbed) rep.
struct MeasureStats {
  int reps = 0;
  double mean_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double stddev_seconds = 0.0;
  double median_seconds = 0.0;
};

/// Run `fn` once to warm up, then repeatedly for at least `min_seconds`
/// (and at least `min_reps` repetitions), timing every repetition
/// individually, and report the spread across them. `min_reps` must be
/// >= 1 and `min_seconds` >= 0 (throws spmvm::Error otherwise); with a
/// single repetition the stddev is 0, never NaN.
MeasureStats measure_seconds_stats(double min_seconds, int min_reps,
                                   void (*fn)(void*), void* ctx);

template <class F>
MeasureStats measure_seconds_stats(double min_seconds, int min_reps, F&& fn) {
  struct Ctx {
    F* f;
  } ctx{&fn};
  return measure_seconds_stats(
      min_seconds, min_reps,
      [](void* c) { (*static_cast<Ctx*>(c)->f)(); }, &ctx);
}

}  // namespace spmvm
