// Quantiles over raw samples.
//
// Every latency the benchmark reports comes from its own per-request or
// per-iteration samples, never from histogram buckets: the median plus
// the highest percentile of a fixed ladder that still has at least
// `kMinBeyond` samples above it, together with the sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave above it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Quantile of the gated end-to-end latency, `p10_ms`. On a virtual
/// machine whose host is shared, the hypervisor's steal lands on a share
/// of the samples and lifts the median with it: at 15 % steal the halo
/// step median rose 50 % and the serve median 30 %, while their p10 rose
/// 5-10 %. The median and the tail are still reported, ungated.
inline constexpr double kGatedQ = 0.10;

/// Nearest-rank q-quantile (q in [0, 1]) of `v`: the smallest sample
/// with at least ceil(q·n) samples at or below it. 0 for an empty set.
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

/// Median and tail of one sample set.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  /// Percentile the tail was taken at (99, 95, 90, 75 or 50).
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Median plus the highest percentile of {99, 95, 90, 75, 50} with at
/// least kMinBeyond samples beyond it (50 when even that fails).
Summary summarize(const std::vector<double>& v);

/// How many samples lie strictly above the nearest-rank q-quantile
/// position of an n-sample set: n - ceil(q·n).
std::size_t samples_beyond(std::size_t n, double q);

}  // namespace perfbench
