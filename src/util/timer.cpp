#include "util/timer.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace spmvm {

MeasureStats measure_seconds_stats(double min_seconds, int min_reps,
                                   void (*fn)(void*), void* ctx) {
  SPMVM_REQUIRE(min_reps >= 1,
                "measure_seconds_stats needs at least 1 repetition");
  SPMVM_REQUIRE(min_seconds >= 0.0, "negative measurement duration");
  // Warm-up run (touch caches, fault pages).
  fn(ctx);
  std::vector<double> samples;
  Timer total;
  do {
    Timer t;
    fn(ctx);
    samples.push_back(t.seconds());
  } while (total.seconds() < min_seconds ||
           static_cast<int>(samples.size()) < min_reps);

  MeasureStats s;
  s.reps = static_cast<int>(samples.size());
  s.mean_seconds = mean_of(samples);
  s.stddev_seconds = stddev_of(samples);
  std::sort(samples.begin(), samples.end());
  s.min_seconds = samples.front();
  s.max_seconds = samples.back();
  s.median_seconds = percentile_sorted(samples, 0.5);
  return s;
}

}  // namespace spmvm
