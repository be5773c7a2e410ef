// Persistent halo-exchange plans (dist/comm_plan), the only distributed
// spMVM. A differential harness checks every accepted format, rank
// count, scheme and gather-thread count against a serial rank-local
// oracle that uses no messaging; further tests cover rendezvous delivery
// in steady state, comm-thread reuse in task mode, allocation-free
// steady-state iterations, plan rebuild after a format switch, the
// row-sorted SELL-C-σ presets against the CSR plan, and power iterations
// across schemes.
#include "dist/comm_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <tuple>

#include "exec/dispatch.hpp"
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

constexpr CommScheme kSchemes[] = {CommScheme::vector_mode,
                                   CommScheme::naive_overlap,
                                   CommScheme::task_mode};

/// Every rank's view of `a` under `part`, kernel plans built as `format`.
std::vector<DistMatrix<double>> distribute_all(const Csr<double>& a,
                                               const RowPartition& part,
                                               std::string_view format) {
  std::vector<DistMatrix<double>> ranks;
  for (int r = 0; r < part.n_parts(); ++r) {
    ranks.push_back(distribute(a, part, r));
    if (format != "csr")
      ranks.back().build_plans(formats::registry<double>(), format);
  }
  return ranks;
}

/// The rank-local oracle: each rank's product computed serially, with no
/// messaging. The halo is read straight from the global x
/// (halo[j] = x[halo_global[j]]), then the rank's local plan runs, then
/// its fused non-local plan (α = β = 1) — the local-then-non-local order
/// of every scheme. Independent of the send lists, the msg runtime and
/// the scheme, so it checks that the exchange delivers the right halo.
std::vector<double> oracle_product(const std::vector<DistMatrix<double>>& ranks,
                                   const std::vector<double>& x) {
  std::vector<double> y(x.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<double> halo;
  for (const auto& d : ranks) {
    halo.resize(static_cast<std::size_t>(d.n_halo));
    for (std::size_t j = 0; j < halo.size(); ++j)
      halo[j] = x[static_cast<std::size_t>(d.halo_global[j])];
    const auto row0 = static_cast<std::size_t>(d.partition.begin(d.rank));
    const auto n = static_cast<std::size_t>(d.n_local);
    const std::span<double> y_local = std::span<double>(y).subspan(row0, n);
    exec::plan_spmv(*d.local_plan,
                    std::span<const double>(x).subspan(row0, n), y_local);
    if (d.n_halo > 0) {
      EXPECT_TRUE(exec::plan_spmv_axpby(*d.nonlocal_plan,
                                        std::span<const double>(halo),
                                        y_local, 1.0, 1.0));
    }
  }
  return y;
}

/// Global y after each of `iterations` products y = A·x through one
/// CommPlan per rank (one SPMD program, y NaN-filled beforehand). Every
/// rank first checks its send lists with handshake_pattern.
std::vector<std::vector<double>> run_plan(const Csr<double>& a,
                                          const RowPartition& part,
                                          CommScheme scheme,
                                          const std::vector<double>& x,
                                          std::string_view format = "csr",
                                          int gather_threads = 1,
                                          int iterations = 1) {
  std::vector<std::vector<double>> y(
      static_cast<std::size_t>(iterations),
      std::vector<double>(x.size(), std::numeric_limits<double>::quiet_NaN()));
  std::mutex m;
  msg::Runtime::run(part.n_parts(), [&](msg::Comm& comm) {
    auto d = distribute(a, part, comm.rank());
    if (format != "csr") d.build_plans(formats::registry<double>(), format);
    handshake_pattern(comm, d);
    const auto row0 = static_cast<std::size_t>(part.begin(comm.rank()));
    const auto n = static_cast<std::size_t>(d.n_local);
    const std::vector<double> x_local(x.begin() + row0, x.begin() + row0 + n);
    std::vector<double> y_local(n, std::numeric_limits<double>::quiet_NaN());
    CommPlan<double> plan(comm, d, scheme, gather_threads);
    for (int it = 0; it < iterations; ++it) {
      plan.spmv(std::span<const double>(x_local), std::span<double>(y_local));
      const std::lock_guard<std::mutex> lock(m);
      std::copy(y_local.begin(), y_local.end(),
                y[static_cast<std::size_t>(it)].begin() + row0);
    }
    EXPECT_EQ(plan.iterations(), static_cast<std::uint64_t>(iterations));
  });
  return y;
}

/// Global y = A·x through a CommPlan on `n_ranks` nnz-balanced ranks.
std::vector<double> run_distributed(const Csr<double>& a, int n_ranks,
                                    CommScheme scheme,
                                    const std::vector<double>& x) {
  return run_plan(a, partition_balanced_nnz(a, n_ranks), scheme, x)[0];
}

/// Fails at the first row whose bits differ.
void expect_bits_equal(const std::vector<double>& want,
                       const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << "row " << i << ": " << want[i] << " vs " << got[i];
}

// ---- Differential harness: CommPlan against the rank-local oracle ------

/// A harness input: a matrix and the row split it is run under.
struct HarnessMatrix {
  Csr<double> a;
  RowPartition (*split)(const Csr<double>&, int n_ranks);
};

RowPartition split_balanced(const Csr<double>& a, int n_ranks) {
  return partition_balanced_nnz(a, n_ranks);
}

/// Equal row counts: on the `rank_without_halo` matrix rank 0 then owns
/// only diagonal rows.
RowPartition split_uniform(const Csr<double>& a, int n_ranks) {
  return partition_uniform(a.n_rows, n_ranks);
}

/// The nnz-balanced split with rank n_ranks/2's rows given to the rank
/// before it, so that rank owns none (from two ranks up).
RowPartition split_with_empty_rank(const Csr<double>& a, int n_ranks) {
  auto offsets = partition_balanced_nnz(a, n_ranks).offsets();
  if (n_ranks >= 2) {
    const auto empty = static_cast<std::size_t>(n_ranks / 2);
    offsets[empty] = offsets[empty + 1];
  }
  return RowPartition(std::move(offsets));
}

using Pattern = std::vector<std::pair<index_t, index_t>>;

/// The (row, column) entries of `a`, rows shifted by `row0`.
Pattern pattern_of(const Csr<double>& a, index_t row0 = 0) {
  Pattern e;
  for (index_t i = 0; i < a.n_rows; ++i)
    for (auto k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      e.emplace_back(row0 + i, a.col_idx[static_cast<std::size_t>(k)]);
  return e;
}

/// An n×n matrix with the given entries and random values.
Csr<double> from_pattern(index_t n, const Pattern& e, std::uint64_t seed) {
  Coo<double> coo(n, n);
  const auto vals = random_vector<double>(static_cast<index_t>(e.size()), seed);
  for (std::size_t k = 0; k < e.size(); ++k)
    coo.add(e[k].first, e[k].second, vals[k]);
  return Csr<double>::from_coo(std::move(coo));
}

HarnessMatrix harness_matrix(const std::string& name) {
  if (name == "random_sparse")
    return {random_csr<double>(211, 211, 0, 14, 31), split_balanced};
  if (name == "random_dense")  // rows of 24-60 entries in 97 columns
    return {random_csr<double>(97, 97, 24, 60, 37), split_balanced};
  if (name == "banded") return {make_banded<double>(256, 4), split_balanced};
  if (name == "hmep") {
    GenConfig cfg;
    cfg.scale = 2048;
    return {make_hmep<double>(cfg), split_balanced};
  }
  if (name == "empty_0x0") return {from_pattern(0, {}, 1), split_balanced};
  if (name == "all_rows_empty")
    return {from_pattern(40, {}, 1), split_balanced};
  if (name == "dense_row") {  // row 37 holds every column
    Pattern e = pattern_of(random_csr<double>(100, 100, 0, 4, 41));
    std::erase_if(e, [](const auto& rc) { return rc.first == 37; });
    for (index_t j = 0; j < 100; ++j) e.emplace_back(37, j);
    return {from_pattern(100, e, 42), split_balanced};
  }
  if (name == "small_n")  // fewer rows than one SELL chunk (C = 32)
    return {random_csr<double>(13, 13, 0, 5, 43), split_balanced};
  if (name == "rank_without_halo") {
    // Rows [0, 60) diagonal only, rows [60, 120) random over all
    // columns: under the uniform split rank 0 needs no halo, yet sends.
    Pattern e = pattern_of(random_csr<double>(60, 120, 2, 8, 44), 60);
    for (index_t i = 0; i < 60; ++i) e.emplace_back(i, i);
    return {from_pattern(120, e, 45), split_uniform};
  }
  if (name == "rank_without_rows")
    return {random_csr<double>(150, 150, 1, 9, 46), split_with_empty_rank};
  ADD_FAILURE() << "unknown harness matrix " << name;
  return {};
}

/// y = A·x summed in long double, row by row in CSR order.
std::vector<long double> long_double_reference(const Csr<double>& a,
                                               const std::vector<double>& x) {
  std::vector<long double> y(static_cast<std::size_t>(a.n_rows), 0.0L);
  for (index_t i = 0; i < a.n_rows; ++i)
    for (auto k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      y[static_cast<std::size_t>(i)] +=
          static_cast<long double>(a.val[static_cast<std::size_t>(k)]) *
          x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
  return y;
}

class CommPlanOracle
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

// Every rank count, scheme and gather-thread count, two iterations each
// (the constructor's posted receives, then the re-posted ones):
//   - every row equals the oracle bit for bit,
//   - the three schemes equal each other,
//   - every row is within 1e-13 of the long-double CSR product (checked
//     on the oracle, which every plan equals bit for bit),
//   - handshake_pattern passes on every rank (inside run_plan).
TEST_P(CommPlanOracle, MatchesRankLocalProduct) {
  const auto& [matrix, format] = GetParam();
  const HarnessMatrix h = harness_matrix(matrix);
  const auto x = random_vector<double>(h.a.n_cols, 47);
  const auto ref = long_double_reference(h.a, x);
  for (const int n_ranks : {1, 2, 3, 7}) {
    const RowPartition part = h.split(h.a, n_ranks);
    const auto ranks = distribute_all(h.a, part, format);
    const auto oracle = oracle_product(ranks, x);
    if (n_ranks >= 2 && matrix == "rank_without_halo") {
      EXPECT_EQ(ranks[0].n_halo, 0);
      EXPECT_GT(ranks[0].send_total(), 0);
    }
    if (n_ranks >= 2 && matrix == "rank_without_rows") {
      EXPECT_EQ(ranks[static_cast<std::size_t>(n_ranks / 2)].n_local, 0);
    }
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_NEAR(static_cast<double>(ref[i]), oracle[i],
                  1e-13 * (1.0 + std::abs(static_cast<double>(ref[i]))))
          << n_ranks << " ranks, row " << i;
    for (const int gather_threads : {1, 2}) {
      std::vector<std::vector<double>> first;
      for (const CommScheme scheme : kSchemes) {
        SCOPED_TRACE(::testing::Message()
                     << n_ranks << " ranks, " << to_string(scheme) << ", "
                     << gather_threads << " gather threads");
        const auto y = run_plan(h.a, part, scheme, x, format, gather_threads,
                                /*iterations=*/2);
        for (std::size_t it = 0; it < y.size(); ++it) {
          expect_bits_equal(oracle, y[it]);
          if (!first.empty()) expect_bits_equal(first[it], y[it]);
        }
        if (first.empty()) first = y;
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CommPlanOracle,
    ::testing::Combine(
        ::testing::Values("random_sparse", "random_dense", "banded", "hmep",
                          "empty_0x0", "all_rows_empty", "dense_row",
                          "small_n", "rank_without_halo",
                          "rank_without_rows"),
        ::testing::Values("csr", "ellpack", "ellpack_r", "sliced_ell",
                          "sell_c_sigma", "pjds")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// ---- Existing relations, with the oracle as reference -------------------

class CommPlanSweep
    : public ::testing::TestWithParam<std::tuple<int, CommScheme>> {};

TEST_P(CommPlanSweep, BitIdenticalToRankLocalOracle) {
  const auto& [n_ranks, scheme] = GetParam();
  const auto a = random_csr<double>(211, 211, 0, 14, 31);
  const auto x = random_vector<double>(211, 32);
  const auto part = partition_balanced_nnz(a, n_ranks);
  const auto oracle = oracle_product(distribute_all(a, part, "csr"), x);
  const auto plan = run_plan(a, part, scheme, x, "csr", /*gather_threads=*/2,
                             /*iterations=*/3);
  // Same kernels in the same order: exact equality, no tolerance.
  EXPECT_EQ(oracle, plan.back());
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSchemes, CommPlanSweep,
    ::testing::Combine(::testing::Values(1, 2, 7),
                       ::testing::ValuesIn(kSchemes)));

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
// to the oracle iterating the same recurrence serially.
TEST(CommPlan, EagerFallbackUnderRacingIsBitIdentical) {
  const auto a = make_banded<double>(160, 2);
  const auto part = partition_balanced_nnz(a, 3);
  constexpr int kIters = 50;
  // Oracle loop: x <- A x / 2 per iteration.
  const auto ranks = distribute_all(a, part, "csr");
  std::vector<double> final_oracle(static_cast<std::size_t>(a.n_rows), 1.0);
  for (int it = 0; it < kIters; ++it) {
    const auto y = oracle_product(ranks, final_oracle);
    for (std::size_t i = 0; i < y.size(); ++i) final_oracle[i] = y[i] * 0.5;
  }
  for (const auto scheme :
       {CommScheme::naive_overlap, CommScheme::task_mode}) {
    SCOPED_TRACE(to_string(scheme));
    std::vector<double> final_plan(static_cast<std::size_t>(a.n_rows));
    std::mutex m;
    msg::Runtime::run(3, [&](msg::Comm& comm) {
      const auto d = distribute(a, part, comm.rank());
      const index_t row0 = part.begin(comm.rank());
      const auto n = static_cast<std::size_t>(d.n_local);
      // Same recurrence through the plan, no global sync.
      std::vector<double> x(n, 1.0), y(n);
      CommPlan<double> plan(comm, d, scheme);
      for (int it = 0; it < kIters; ++it) {
        plan.spmv(std::span<const double>(x), std::span<double>(y));
        for (std::size_t i = 0; i < n; ++i) x[i] = y[i] * 0.5;
      }
      std::lock_guard<std::mutex> lock(m);
      std::copy(x.begin(), x.end(), final_plan.begin() + row0);
    });
    EXPECT_EQ(final_oracle, final_plan);
  }
}

// Task mode spawns exactly one communication thread per rank at plan
// build and reuses it for every iteration.
TEST(CommPlan, TaskModeReusesOneCommThreadPerRank) {
  const auto a = make_banded<double>(144, 3);
  const auto x = random_vector<double>(144, 17);
  const auto part = partition_balanced_nnz(a, 3);
  const std::uint64_t threads0 = obs::counter("comm.task_threads").value();
  const auto plan = run_plan(a, part, CommScheme::task_mode, x, "csr",
                             /*gather_threads=*/2, /*iterations=*/120);
  EXPECT_EQ(oracle_product(distribute_all(a, part, "csr"), x), plan.back());
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
// oracle under the new format.
TEST(CommPlan, RebuildAfterFormatSwitch) {
  const auto a = random_csr<double>(150, 150, 1, 9, 77);
  const auto x = random_vector<double>(150, 78);
  const auto part = partition_balanced_nnz(a, 3);
  std::vector<double> y_csr(static_cast<std::size_t>(a.n_rows));
  std::vector<double> y_ell(static_cast<std::size_t>(a.n_rows));
  std::mutex m;
  msg::Runtime::run(3, [&](msg::Comm& comm) {
    auto d = distribute(a, part, comm.rank());
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> y1(static_cast<std::size_t>(d.n_local));
    std::vector<double> y2(static_cast<std::size_t>(d.n_local));
    {
      CommPlan<double> plan(comm, d, CommScheme::vector_mode);
      plan.spmv(std::span<const double>(x_local), std::span<double>(y1));
    }  // destroyed before the format switch: its kernel dispatch is stale
    d.build_plans(formats::registry<double>(), "ellpack_r");
    CommPlan<double> plan2(comm, d, CommScheme::vector_mode);
    plan2.spmv(std::span<const double>(x_local), std::span<double>(y2));
    std::lock_guard<std::mutex> lock(m);
    std::copy(y1.begin(), y1.end(), y_csr.begin() + row0);
    std::copy(y2.begin(), y2.end(), y_ell.begin() + row0);
  });
  // same format: exact
  EXPECT_EQ(y_ell, oracle_product(distribute_all(a, part, "ellpack_r"), x));
  spmvm::testing::expect_vectors_near<double>(y_csr, y_ell, 1e-13);
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
  const auto part = partition_balanced_nnz(a, n_ranks);
  const auto y_csr = run_plan(a, part, scheme, x, "csr")[0];
  const auto y = run_plan(a, part, scheme, x, format)[0];
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
  run_plan(a, partition_balanced_nnz(a, 2), CommScheme::vector_mode, x, "csr",
           /*gather_threads=*/2, /*iterations=*/5);
  EXPECT_GT(obs::counter("comm.gather_ns").value(), ns0);
  EXPECT_GT(obs::gauge("comm.gather_seconds").value(), 0.0);
}


// A DistMatrix without its kernel plans is refused before the plan posts
// any receive: the same Comm then runs a valid plan normally.
TEST(CommPlan, RefusesMatrixWithoutKernelPlans) {
  const auto a = make_banded<double>(40, 2);
  const auto x = random_vector<double>(40, 51);
  for (const int n_ranks : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << n_ranks << " ranks");
    const auto part = partition_uniform(a.n_rows, n_ranks);
    std::vector<double> y(x.size());
    std::mutex m;
    msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
      auto d = distribute(a, part, comm.rank());
      // One rank: no local plan. Two ranks: a halo but no non-local plan.
      if (n_ranks == 1)
        d.local_plan.reset();
      else
        d.nonlocal_plan.reset();
      EXPECT_THROW(CommPlan<double>(comm, d, CommScheme::task_mode), Error);
      d.build_plans(formats::registry<double>(), "csr");
      const auto row0 = static_cast<std::size_t>(part.begin(comm.rank()));
      const std::vector<double> x_local(x.begin() + row0,
                                        x.begin() + part.end(comm.rank()));
      std::vector<double> y_local(x_local.size());
      CommPlan<double> plan(comm, d, CommScheme::task_mode);
      plan.spmv(std::span<const double>(x_local), std::span<double>(y_local));
      const std::lock_guard<std::mutex> lock(m);
      std::copy(y_local.begin(), y_local.end(), y.begin() + row0);
    });
    EXPECT_EQ(oracle_product(distribute_all(a, part, "csr"), x), y);
  }
}

// ---- Distributed spMVM against the serial product --------------------

class DistSpmvSweep
    : public ::testing::TestWithParam<std::tuple<int, CommScheme>> {};

TEST_P(DistSpmvSweep, MatchesSerialReference) {
  const auto& [n_ranks, scheme] = GetParam();
  const auto a = random_csr<double>(173, 173, 0, 12, 42);
  const auto x = random_vector<double>(173, 43);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  const auto got = run_distributed(a, n_ranks, scheme, x);
  // The local/non-local split reorders partial sums; compare within a
  // tight floating-point tolerance.
  spmvm::testing::expect_vectors_near<double>(expected, got, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSchemes, DistSpmvSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7),
                       ::testing::ValuesIn(kSchemes)));

TEST(DistSpmv, BandedMatrixAllSchemes) {
  const auto a = make_banded<double>(256, 4);
  const auto x = random_vector<double>(256, 7);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  for (const auto scheme : kSchemes) {
    SCOPED_TRACE(to_string(scheme));
    spmvm::testing::expect_vectors_near<double>(
        expected, run_distributed(a, 4, scheme, x), 1e-13);
  }
}

TEST(DistSpmv, HmepLikeMatrixAcrossRanks) {
  GenConfig cfg;
  cfg.scale = 2048;
  const auto a = make_hmep<double>(cfg);
  const auto x = random_vector<double>(a.n_rows, 9);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  spmvm::testing::expect_vectors_near<double>(
      expected, run_distributed(a, 5, CommScheme::task_mode, x), 1e-13);
}

TEST(DistSpmv, PowerIterationsConvergeIdenticallyAcrossSchemes) {
  const auto a = make_poisson2d<double>(20, 20);
  const auto part = partition_uniform(a.n_rows, 4);
  std::vector<std::vector<double>> results;
  for (const auto scheme : kSchemes) {
    std::vector<double> full(static_cast<std::size_t>(a.n_rows));
    std::mutex m;
    msg::Runtime::run(4, [&](msg::Comm& comm) {
      const auto d = distribute(a, part, comm.rank());
      std::vector<double> x0(static_cast<std::size_t>(d.n_local), 1.0);
      const auto x = run_power_iterations(
          comm, d, std::span<const double>(x0), 10, scheme);
      std::lock_guard<std::mutex> lock(m);
      std::copy(x.begin(), x.end(), full.begin() + part.begin(comm.rank()));
    });
    results.push_back(std::move(full));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(DistSpmv, EmptyRowsHandled) {
  Coo<double> coo(40, 40);
  for (index_t i = 0; i < 40; i += 2) coo.add(i, (i + 20) % 40, 1.0);
  const auto a = Csr<double>::from_coo(std::move(coo));
  const auto x = random_vector<double>(40, 11);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  spmvm::testing::expect_vectors_near<double>(
      expected, run_distributed(a, 4, CommScheme::task_mode, x), 1e-13);
}

}  // namespace
}  // namespace spmvm::dist
