// Persistent halo-exchange plans (dist/comm_plan): bit-identity with
// the legacy per-call dist_spmv for every scheme, rendezvous delivery
// in steady state, comm-thread reuse in task mode, allocation-free
// steady-state iterations, plan rebuild after a format switch, and the
// row-sorted SELL-C-σ presets against the CSR plan.
#include "dist/comm_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <tuple>

#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPMVM_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SPMVM_TSAN 1
#endif

// Global allocation counter for the zero-allocation assertion. The
// default operator new[] forwards here, so scalar and array news are
// both counted. The nothrow form (std::stable_sort's temporary buffer,
// in the row-sorting builds) is replaced too, so every block the delete
// below frees came from malloc.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace spmvm::dist {
namespace {

using spmvm::testing::random_csr;
using spmvm::testing::random_vector;

/// Run the legacy dist_spmv and a CommPlan over the same distribution in
/// one SPMD program; returns (legacy, plan) global results.
std::pair<std::vector<double>, std::vector<double>> run_both(
    const Csr<double>& a, int n_ranks, CommScheme scheme,
    const std::vector<double>& x, int plan_iterations = 3,
    int gather_threads = 2) {
  const auto part = partition_balanced_nnz(a, n_ranks);
  std::vector<double> y_legacy(static_cast<std::size_t>(a.n_rows));
  std::vector<double> y_plan(static_cast<std::size_t>(a.n_rows));
  std::mutex m;
  msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
    const auto d = distribute(a, part, comm.rank());
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> yl(static_cast<std::size_t>(d.n_local));
    std::vector<double> yp(static_cast<std::size_t>(d.n_local));
    std::vector<double> halo, sendbuf;
    dist_spmv(comm, d, std::span<const double>(x_local), std::span<double>(yl),
              scheme, halo, sendbuf);
    CommPlan<double> plan(comm, d, scheme, gather_threads);
    for (int it = 0; it < plan_iterations; ++it)
      plan.spmv(std::span<const double>(x_local), std::span<double>(yp));
    EXPECT_EQ(plan.iterations(),
              static_cast<std::uint64_t>(plan_iterations));
    std::lock_guard<std::mutex> lock(m);
    std::copy(yl.begin(), yl.end(), y_legacy.begin() + row0);
    std::copy(yp.begin(), yp.end(), y_plan.begin() + row0);
  });
  return {std::move(y_legacy), std::move(y_plan)};
}

class CommPlanSweep
    : public ::testing::TestWithParam<std::tuple<int, CommScheme>> {};

TEST_P(CommPlanSweep, BitIdenticalToLegacyDistSpmv) {
  const auto& [n_ranks, scheme] = GetParam();
  const auto a = random_csr<double>(211, 211, 0, 14, 31);
  const auto x = random_vector<double>(211, 32);
  const auto [legacy, plan] = run_both(a, n_ranks, scheme, x);
  // Same kernels in the same order: exact equality, no tolerance.
  EXPECT_EQ(legacy, plan);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSchemes, CommPlanSweep,
    ::testing::Combine(::testing::Values(1, 2, 7),
                       ::testing::Values(CommScheme::vector_mode,
                                         CommScheme::naive_overlap,
                                         CommScheme::task_mode)));

// With a barrier between iterations no rank can outrun its peers, so
// every steady-state send must land in a pre-posted buffer (rendezvous)
// and none may fall back to the eager queue.
TEST(CommPlan, SteadyStateSendsAreRendezvous) {
  const auto a = make_banded<double>(192, 3);
  const auto x = random_vector<double>(192, 5);
  const auto part = partition_balanced_nnz(a, 2);
  constexpr int kIters = 10;
  std::uint64_t hits_delta = 0, eager_delta = 0;
  msg::Runtime::run(2, [&](msg::Comm& comm) {
    const auto d = distribute(a, part, comm.rank());
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> y(static_cast<std::size_t>(d.n_local));
    CommPlan<double> plan(comm, d, CommScheme::vector_mode);
    plan.spmv(std::span<const double>(x_local), std::span<double>(y));
    comm.barrier();
    std::uint64_t hits0 = 0, eager0 = 0;
    if (comm.rank() == 0) {
      hits0 = obs::counter("comm.rendezvous_hits").value();
      eager0 = obs::counter("comm.eager_fallbacks").value();
    }
    comm.barrier();
    for (int it = 0; it < kIters; ++it) {
      plan.spmv(std::span<const double>(x_local), std::span<double>(y));
      comm.barrier();
    }
    if (comm.rank() == 0) {
      hits_delta = obs::counter("comm.rendezvous_hits").value() - hits0;
      eager_delta = obs::counter("comm.eager_fallbacks").value() - eager0;
    }
  });
  // One message per rank per iteration on a two-rank banded split.
  EXPECT_EQ(hits_delta, static_cast<std::uint64_t>(2 * kIters));
  EXPECT_EQ(eager_delta, 0u);
}

// Free-running ranks (no inter-iteration synchronization, evolving
// input) race each other by whole iterations, so deliveries mix the
// rendezvous and eager paths — the result must still be bit-identical
// to the fully synchronous legacy loop.
TEST(CommPlan, EagerFallbackUnderRacingIsBitIdentical) {
  const auto a = make_banded<double>(160, 2);
  const auto part = partition_balanced_nnz(a, 3);
  constexpr int kIters = 50;
  for (const auto scheme :
       {CommScheme::naive_overlap, CommScheme::task_mode}) {
    SCOPED_TRACE(to_string(scheme));
    std::vector<double> final_legacy(static_cast<std::size_t>(a.n_rows));
    std::vector<double> final_plan(static_cast<std::size_t>(a.n_rows));
    std::mutex m;
    msg::Runtime::run(3, [&](msg::Comm& comm) {
      const auto d = distribute(a, part, comm.rank());
      const index_t row0 = part.begin(comm.rank());
      const auto n = static_cast<std::size_t>(d.n_local);
      // Legacy loop: x <- A x / 2 per iteration, no global sync needed.
      std::vector<double> x(n, 1.0), y(n);
      std::vector<double> halo, sendbuf;
      for (int it = 0; it < kIters; ++it) {
        dist_spmv(comm, d, std::span<const double>(x), std::span<double>(y),
                  scheme, halo, sendbuf);
        for (std::size_t i = 0; i < n; ++i) x[i] = y[i] * 0.5;
      }
      const std::vector<double> legacy = x;
      // Same recurrence through the plan.
      x.assign(n, 1.0);
      CommPlan<double> plan(comm, d, scheme);
      for (int it = 0; it < kIters; ++it) {
        plan.spmv(std::span<const double>(x), std::span<double>(y));
        for (std::size_t i = 0; i < n; ++i) x[i] = y[i] * 0.5;
      }
      std::lock_guard<std::mutex> lock(m);
      std::copy(legacy.begin(), legacy.end(), final_legacy.begin() + row0);
      std::copy(x.begin(), x.end(), final_plan.begin() + row0);
    });
    EXPECT_EQ(final_legacy, final_plan);
  }
}

// Task mode spawns exactly one communication thread per rank at plan
// build and reuses it for every iteration.
TEST(CommPlan, TaskModeReusesOneCommThreadPerRank) {
  const auto a = make_banded<double>(144, 3);
  const auto x = random_vector<double>(144, 17);
  const std::uint64_t threads0 = obs::counter("comm.task_threads").value();
  const auto [legacy, plan] =
      run_both(a, 3, CommScheme::task_mode, x, /*plan_iterations=*/120);
  EXPECT_EQ(legacy, plan);
  EXPECT_EQ(obs::counter("comm.task_threads").value() - threads0, 3u);
}

// The steady-state path — gather, exchange, kernels, re-post — performs
// zero heap allocations once warmed up, for every scheme.
TEST(CommPlan, SteadyStateIterationsDoNotAllocate) {
#ifdef SPMVM_TSAN
  GTEST_SKIP() << "tsan instruments the allocator; counts are not ours";
#else
  const auto a = make_banded<double>(256, 4);
  const auto x = random_vector<double>(256, 23);
  const auto part = partition_balanced_nnz(a, 2);
  for (const auto scheme :
       {CommScheme::vector_mode, CommScheme::naive_overlap,
        CommScheme::task_mode}) {
    SCOPED_TRACE(to_string(scheme));
    std::uint64_t delta = ~0ull;
    msg::Runtime::run(2, [&](msg::Comm& comm) {
      const auto d = distribute(a, part, comm.rank());
      const index_t row0 = part.begin(comm.rank());
      std::vector<double> x_local(x.begin() + row0,
                                  x.begin() + part.end(comm.rank()));
      std::vector<double> y(static_cast<std::size_t>(d.n_local));
      CommPlan<double> plan(comm, d, scheme, /*gather_threads=*/2);
      // Warm up: spawn pool workers, initialize metric statics, size
      // the mailbox bookkeeping to its steady-state capacity.
      for (int it = 0; it < 3; ++it) {
        plan.spmv(std::span<const double>(x_local), std::span<double>(y));
        comm.barrier();
      }
      std::uint64_t base = 0;
      if (comm.rank() == 0) base = g_allocations.load();
      comm.barrier();
      // The barrier keeps every send on the rendezvous path, so no rank
      // allocates anywhere in the measured window.
      for (int it = 0; it < 10; ++it) {
        plan.spmv(std::span<const double>(x_local), std::span<double>(y));
        comm.barrier();
      }
      if (comm.rank() == 0) delta = g_allocations.load() - base;
    });
    EXPECT_EQ(delta, 0u);
  }
#endif
}

// Switching the DistMatrix kernel format invalidates the old plan's
// kernel dispatch; a freshly built plan must agree bit-for-bit with the
// legacy path under the new format.
TEST(CommPlan, RebuildAfterFormatSwitch) {
  const auto a = random_csr<double>(150, 150, 1, 9, 77);
  const auto x = random_vector<double>(150, 78);
  const auto part = partition_balanced_nnz(a, 3);
  std::vector<double> y_csr(static_cast<std::size_t>(a.n_rows));
  std::vector<double> y_ell(static_cast<std::size_t>(a.n_rows));
  std::vector<double> y_ell_legacy(static_cast<std::size_t>(a.n_rows));
  std::mutex m;
  msg::Runtime::run(3, [&](msg::Comm& comm) {
    auto d = distribute(a, part, comm.rank());
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> y1(static_cast<std::size_t>(d.n_local));
    std::vector<double> y2(static_cast<std::size_t>(d.n_local));
    std::vector<double> y3(static_cast<std::size_t>(d.n_local));
    {
      CommPlan<double> plan(comm, d, CommScheme::vector_mode);
      plan.spmv(std::span<const double>(x_local), std::span<double>(y1));
    }  // destroyed before the format switch: its kernel dispatch is stale
    d.build_plans(formats::registry<double>(), "ellpack_r");
    std::vector<double> halo, sendbuf;
    dist_spmv(comm, d, std::span<const double>(x_local), std::span<double>(y3),
              CommScheme::vector_mode, halo, sendbuf);
    CommPlan<double> plan2(comm, d, CommScheme::vector_mode);
    plan2.spmv(std::span<const double>(x_local), std::span<double>(y2));
    std::lock_guard<std::mutex> lock(m);
    std::copy(y1.begin(), y1.end(), y_csr.begin() + row0);
    std::copy(y2.begin(), y2.end(), y_ell.begin() + row0);
    std::copy(y3.begin(), y3.end(), y_ell_legacy.begin() + row0);
  });
  EXPECT_EQ(y_ell, y_ell_legacy);  // same format: exact
  spmvm::testing::expect_vectors_near<double>(y_csr, y_ell, 1e-13);
}

/// CommPlan result with both kernel plans built as `format`.
std::vector<double> run_plan(const Csr<double>& a, int n_ranks,
                             CommScheme scheme, const std::vector<double>& x,
                             std::string_view format) {
  const auto part = partition_balanced_nnz(a, n_ranks);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows), -1.0);
  std::mutex m;
  msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
    auto d = distribute(a, part, comm.rank());
    d.build_plans(formats::registry<double>(), format);
    EXPECT_EQ(d.local_plan->permutation(), nullptr);
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> yl(static_cast<std::size_t>(d.n_local));
    CommPlan<double> plan(comm, d, scheme);
    plan.spmv(std::span<const double>(x_local), std::span<double>(yl));
    std::lock_guard<std::mutex> lock(m);
    std::copy(yl.begin(), yl.end(), y.begin() + row0);
  });
  return y;
}

class CommPlanSortedSell
    : public ::testing::TestWithParam<
          std::tuple<int, CommScheme, std::string>> {};

// The sorted presets write each part's rows straight back to their
// original slots, so the halo layout holds and both parts sum every row
// in CSR order: bit for bit with the CSR plan on rows shorter than 32
// (longer CSR rows sum in four partial sums).
TEST_P(CommPlanSortedSell, BitIdenticalToCsrPlanOnShortRows) {
  const auto& [n_ranks, scheme, format] = GetParam();
  const auto a = random_csr<double>(211, 211, 0, 40, 33);
  const auto x = random_vector<double>(211, 34);
  const auto y_csr = run_plan(a, n_ranks, scheme, x, "csr");
  const auto y = run_plan(a, n_ranks, scheme, x, format);
  std::size_t compared = 0;
  for (index_t i = 0; i < a.n_rows; ++i) {
    if (a.row_len(i) >= 32) continue;
    ++compared;
    const auto r = static_cast<std::size_t>(i);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(y[r]),
              std::bit_cast<std::uint64_t>(y_csr[r]))
        << "row " << i;
  }
  EXPECT_GT(compared, 100u);
  spmvm::testing::expect_vectors_near<double>(y_csr, y, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    RanksSchemesFormats, CommPlanSortedSell,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(CommScheme::vector_mode,
                                         CommScheme::naive_overlap,
                                         CommScheme::task_mode),
                       ::testing::Values(std::string("sell_c_sigma"),
                                         std::string("pjds"))));

// Formats without a fused y += A·x kernel are refused before anything is
// built, and the error names the format; the rank keeps its CSR plans.
TEST(CommPlan, BuildPlansRefusesJds) {
  const auto a = random_csr<double>(60, 60, 1, 6, 35);
  auto d = distribute(a, partition_balanced_nnz(a, 2), 0);
  const auto local_plan = d.local_plan;
  for (const std::string format : {"jds", "bellpack", "auto"}) {
    try {
      d.build_plans(formats::registry<double>(), format);
      ADD_FAILURE() << format << " accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("format '" + format + "' has no fused"),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(d.local_plan, local_plan) << format;
    EXPECT_EQ(d.format_name, "csr") << format;
  }
}

// The gather metrics advance as plans execute.
TEST(CommPlan, GatherMetricsAdvance) {
  const auto a = make_banded<double>(128, 3);
  const auto x = random_vector<double>(128, 3);
  const std::uint64_t ns0 = obs::counter("comm.gather_ns").value();
  run_both(a, 2, CommScheme::vector_mode, x, /*plan_iterations=*/5);
  EXPECT_GT(obs::counter("comm.gather_ns").value(), ns0);
  EXPECT_GT(obs::gauge("comm.gather_seconds").value(), 0.0);
}

}  // namespace
}  // namespace spmvm::dist
