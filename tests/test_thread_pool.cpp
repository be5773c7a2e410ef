// Concurrency suite for the persistent ThreadPool, the nnz-balanced
// scheduler, and determinism of the host kernels built on top of them.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "matgen/generators.hpp"
#include "sparse/sliced_ell.hpp"
#include "sparse/spmv_host.hpp"
#include "util/parallel.hpp"

namespace spmvm {
namespace {

TEST(ThreadPool, RunExecutesEveryPartExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  ThreadPool::instance().run(64, [&](int p) { hits[p]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunExecutesInline) {
  std::atomic<int> outer{0}, inner{0};
  ThreadPool::instance().run(4, [&](int) {
    EXPECT_TRUE(ThreadPool::in_task());
    outer++;
    ThreadPool::instance().run(4, [&](int) {
      // Nested parallelism degrades to the serial inline path.
      EXPECT_TRUE(ThreadPool::in_task());
      inner++;
    });
  });
  EXPECT_EQ(outer.load(), 4);
  EXPECT_EQ(inner.load(), 16);
  EXPECT_FALSE(ThreadPool::in_task());
}

TEST(ThreadPool, NestedParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(256);
  for (auto& h : hits) h = 0;
  parallel_for(4, 4, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o)
      parallel_for(64, 4, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[o * 64 + i]++;
      });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(ThreadPool::instance().run(
                   8,
                   [&](int p) {
                     if (p == 3) throw std::runtime_error("worker boom");
                   }),
               std::runtime_error);
  // The pool must stay fully usable after a throwing task.
  std::atomic<int> total{0};
  ThreadPool::instance().run(8, [&](int) { total++; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, ConcurrentExternalSubmissionsAreSerializedSafely) {
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 5000;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t)
    callers.emplace_back([&results, t] {
      std::vector<double>& out = results[t];
      out.assign(kN, 0.0);
      parallel_for(kN, 4, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          out[i] = static_cast<double>(i) * (t + 1);
      });
    });
  for (auto& c : callers) c.join();
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(results[t][i], static_cast<double>(i) * (t + 1));
}

TEST(ThreadPool, ExportsActivityGauges) {
  auto& g_active = obs::gauge("pool.active_workers");
  auto& g_queued = obs::gauge("pool.queued_parts");

  // Each part spins until a second part has *started*: the caller's
  // part can only be released by a pool worker entering one, so at
  // that moment the active-workers gauge must read >= 1.
  std::atomic<int> inside{0};
  std::mutex mx;
  double active_seen = 0.0;
  ThreadPool::instance().run(4, [&](int) {
    inside.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    std::lock_guard<std::mutex> lk(mx);
    active_seen = std::max(active_seen, g_active.value());
  });
  EXPECT_GE(active_seen, 1.0);

  // The last claim zeroes the queued-parts gauge, and every worker
  // re-parks after the broadcast, returning the active gauge to zero.
  EXPECT_DOUBLE_EQ(g_queued.value(), 0.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (g_active.value() != 0.0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_DOUBLE_EQ(g_active.value(), 0.0);
}

TEST(ParallelFor, NoDegenerateChunksWhenOversubscribed) {
  // n = 3 with 16 requested threads must produce exactly 3 size-1
  // chunks — no empty trailing parts from over-reserved workers.
  std::atomic<int> calls{0}, covered{0};
  parallel_for(3, 16, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(e - b, 1u);
    calls++;
    covered += static_cast<int>(e - b);
  });
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(covered.load(), 3);
}

TEST(BalancedPartition, BalancesSkewedPowerLawRows) {
  const auto a = make_powerlaw<double>(4096, 6.0, 512, 0xFEED);
  const std::size_t parts = 8;
  const auto bounds = balanced_partition(
      std::span<const offset_t>(a.row_ptr), parts);
  ASSERT_EQ(bounds.size(), parts + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), static_cast<std::size_t>(a.n_rows));
  const offset_t total = a.nnz();
  const offset_t ideal = total / static_cast<offset_t>(parts);
  const offset_t max_row = a.max_row_len();
  offset_t covered = 0;
  for (std::size_t t = 0; t < parts; ++t) {
    ASSERT_LE(bounds[t], bounds[t + 1]);
    const offset_t mass = a.row_ptr[bounds[t + 1]] - a.row_ptr[bounds[t]];
    covered += mass;
    // A part may exceed the ideal share by at most one boundary row.
    EXPECT_LE(mass, ideal + max_row)
        << "part " << t << " rows [" << bounds[t] << ", " << bounds[t + 1]
        << ")";
  }
  EXPECT_EQ(covered, total);
}

TEST(BalancedPartition, EmptyRowsFallBackToEvenIndexSplit) {
  const std::vector<offset_t> offsets(101, 0);  // 100 rows, all empty
  const auto bounds =
      balanced_partition(std::span<const offset_t>(offsets), 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 100u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(bounds[t + 1] - bounds[t], 25u);
}

// Disjoint row ranges make threaded spMVM bitwise deterministic: each
// row's accumulation order is independent of the partition, so 1-, 2-
// and 8-thread runs must agree to the last bit.
class SpmvDeterminism : public ::testing::Test {
 protected:
  static bool bitwise_equal(const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }
};

TEST_F(SpmvDeterminism, CsrBitwiseAcrossThreadCounts) {
  const auto a = make_powerlaw<double>(2000, 8.0, 300, 0xABCD);
  std::vector<double> x(static_cast<std::size_t>(a.n_cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.25 + static_cast<double>(i % 17) * 0.125;
  auto run = [&](int threads) {
    std::vector<double> y(static_cast<std::size_t>(a.n_rows));
    spmv(a, std::span<const double>(x), std::span<double>(y), threads);
    return y;
  };
  const auto y1 = run(1);
  EXPECT_TRUE(bitwise_equal(y1, run(2)));
  EXPECT_TRUE(bitwise_equal(y1, run(8)));
}

TEST_F(SpmvDeterminism, SlicedEllBitwiseAcrossThreadCounts) {
  const auto a = make_powerlaw<double>(2000, 8.0, 300, 0xBEEF);
  const auto s = SlicedEll<double>::from_csr(a, 16);
  std::vector<double> x(static_cast<std::size_t>(a.n_cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 / (1.0 + static_cast<double>(i % 13));
  auto run = [&](int threads) {
    std::vector<double> y(static_cast<std::size_t>(a.n_rows));
    spmv(s, std::span<const double>(x), std::span<double>(y), threads);
    return y;
  };
  const auto y1 = run(1);
  EXPECT_TRUE(bitwise_equal(y1, run(2)));
  EXPECT_TRUE(bitwise_equal(y1, run(8)));
}

TEST_F(SpmvDeterminism, PjdsBitwiseAcrossThreadCounts) {
  const auto a = make_powerlaw<double>(2000, 8.0, 300, 0xCAFE);
  const auto p = SlicedEll<double>::pjds(a, 32, PermuteColumns::no);
  std::vector<double> x(static_cast<std::size_t>(a.n_cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + static_cast<double>(i % 11) * 0.0625;
  auto run = [&](int threads) {
    std::vector<double> y(static_cast<std::size_t>(a.n_rows));
    spmv(p, std::span<const double>(x), std::span<double>(y), threads);
    return y;
  };
  const auto y1 = run(1);
  EXPECT_TRUE(bitwise_equal(y1, run(2)));
  EXPECT_TRUE(bitwise_equal(y1, run(8)));
}

}  // namespace
}  // namespace spmvm
