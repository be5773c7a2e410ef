#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "util/error.hpp"

namespace spmvm {
namespace {

TEST(Timer, MeasureSecondsRejectsNegativeDuration) {
  EXPECT_THROW(measure_seconds_stats(-1.0, 1, [] {}), Error);
}

TEST(Timer, MeasureStatsRejectsZeroReps) {
  EXPECT_THROW(measure_seconds_stats(0.0, 0, [] {}), Error);
  EXPECT_THROW(measure_seconds_stats(0.0, -3, [] {}), Error);
}

TEST(Timer, MeasureStatsSingleRepHasZeroStddev) {
  const MeasureStats s = measure_seconds_stats(0.0, 1, [] {});
  EXPECT_EQ(s.reps, 1);
  EXPECT_EQ(s.stddev_seconds, 0.0);  // exactly 0, never NaN
  EXPECT_FALSE(std::isnan(s.stddev_seconds));
  EXPECT_DOUBLE_EQ(s.min_seconds, s.max_seconds);
  EXPECT_DOUBLE_EQ(s.mean_seconds, s.median_seconds);
}

TEST(Timer, MeasureStatsRunsAtLeastMinReps) {
  std::atomic<int> calls{0};
  const MeasureStats s = measure_seconds_stats(0.0, 5, [&] { ++calls; });
  EXPECT_GE(s.reps, 5);
  // One extra call for the warm-up run.
  EXPECT_EQ(calls.load(), s.reps + 1);
}

TEST(Timer, MeasureStatsOrderingInvariants) {
  volatile double sink = 0.0;
  const MeasureStats s = measure_seconds_stats(0.0, 8, [&] {
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += static_cast<double>(i) * 1e-3;
    sink = acc;
  });
  EXPECT_GE(s.min_seconds, 0.0);
  EXPECT_LE(s.min_seconds, s.median_seconds);
  EXPECT_LE(s.median_seconds, s.max_seconds);
  EXPECT_GT(s.mean_seconds, 0.0);
  EXPECT_GE(s.stddev_seconds, 0.0);
}

}  // namespace
}  // namespace spmvm
