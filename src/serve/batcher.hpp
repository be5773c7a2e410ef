// The micro-batcher's width model and wait rule (DESIGN.md §14).
//
// Coalescing k same-matrix requests into one block-RHS spMMV divides
// the matrix-traffic term of Eq. 1 by k (core/spmmv's extension of the
// code balance): B(k) = ((s+4)/k + s·α + 2s/nnzr) / 2 bytes/flop. The
// gain is steeply diminishing — the α and nnzr terms do not shrink —
// so waiting for ever-wider batches buys latency without bandwidth.
// target_batch_width() walks B(k) and stops at the last k whose step
// to k+1 still improves the balance by at least `min_gain` relative:
// the model-chosen sweet spot the batcher aims for before its max-wait
// deadline forces a launch.
//
// Waiting for that width only pays when another request for the same
// matrix is due within the wait. ArrivalGap estimates each matrix's
// mean inter-arrival gap; a worker holding a partial batch waits only
// while that gap is shorter than its batching window.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <mutex>

namespace spmvm::serve {

/// Smallest k in [1, max_k] at which widening the block by one more
/// vector improves the spMMV code balance by less than `min_gain`
/// (relative). alpha is the Eq. 1 RHS-traffic ratio, nnzr the average
/// non-zeros per row. Deterministic in its inputs.
int target_batch_width(std::size_t scalar_size, double alpha, double nnzr,
                       int max_k, double min_gain);

/// Exponentially weighted mean of the gaps between successive arrival
/// times. Thread-safe: concurrent submitters may note at once, and a
/// note older than the latest one counts as a zero gap.
class ArrivalGap {
 public:
  using time_point = std::chrono::steady_clock::time_point;

  /// Weight of the newest gap. Poisson gaps are exponential, so the
  /// estimate's spread is sqrt(w / (2 - w)) of the mean: 26 % at 1/8,
  /// 13 % at 1/32. Under overload a matrix gets about 1.5 arrivals per
  /// 1 ms window, a mean gap of 2/3 of it. At 1/8 the estimate crosses
  /// the window by chance now and then, ending waits and narrowing the
  /// batches that should fill; at 1/32 that is a 4-sigma event
  /// (EXPERIMENTS "Serve without idle waits" compares the two).
  static constexpr double kWeight = 1.0 / 32.0;

  /// Record an arrival at `t`.
  void note(time_point t);

  /// Mean gap in seconds; +inf until two arrivals have been noted.
  double mean_gap() const;

 private:
  mutable std::mutex m_;
  time_point last_{};  // latest arrival noted
  int notes_ = 0;      // arrivals noted, saturating at 2
  double mean_s_ = std::numeric_limits<double>::infinity();
};

}  // namespace spmvm::serve
