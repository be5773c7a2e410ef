#include "core/spmmv.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <tuple>

#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "perfmodel/balance.hpp"
#include "sparse/coo.hpp"
#include "sparse/spmv_host.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace spmvm {
namespace {

using spmvm::testing::random_csr;
using spmvm::testing::random_vector;

class SpmmvSweep
    : public ::testing::TestWithParam<std::tuple<int /*k*/, int /*threads*/>> {
};

TEST_P(SpmmvSweep, CsrBlockEqualsRepeatedSpmv) {
  const auto& [k, threads] = GetParam();
  const index_t n = 120;
  const auto a = random_csr<double>(n, n, 0, 10, 1);
  const auto xblk = random_vector<double>(n * k, 2);
  std::vector<double> yblk(static_cast<std::size_t>(n) * k);
  spmmv(a, std::span<const double>(xblk), std::span<double>(yblk), k,
        threads);

  for (int v = 0; v < k; ++v) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      x[static_cast<std::size_t>(i)] =
          xblk[static_cast<std::size_t>(i) * k + v];
    const auto yref = testing::reference_spmv(a, x);
    for (index_t i = 0; i < n; ++i)
      ASSERT_NEAR(yblk[static_cast<std::size_t>(i) * k + v],
                  yref[static_cast<std::size_t>(i)], 1e-12)
          << "vector " << v << " row " << i;
  }
}

TEST_P(SpmmvSweep, PjdsBlockMatchesCsrBlock) {
  // Row-only pJDS writes each row's block straight to its original row
  // and sums it in CSR order, as the CSR block kernel does: bit for bit.
  const auto& [k, threads] = GetParam();
  const index_t n = 96;
  const auto a = random_csr<double>(n, n, 1, 8, 3);
  const auto p = SlicedEll<double>::pjds(a, 32, PermuteColumns::no);
  ASSERT_NE(p.row_map(), nullptr);

  const auto xblk = random_vector<double>(n * k, 4);
  std::vector<double> y_csr(static_cast<std::size_t>(n) * k);
  std::vector<double> y_pjds(static_cast<std::size_t>(n) * k, -1.0);
  spmmv(a, std::span<const double>(xblk), std::span<double>(y_csr), k);
  spmmv(p, std::span<const double>(xblk), std::span<double>(y_pjds), k,
        threads);
  for (std::size_t i = 0; i < y_csr.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(y_pjds[i]),
              std::bit_cast<std::uint64_t>(y_csr[i]))
        << "entry " << i;
}

INSTANTIATE_TEST_SUITE_P(Blocks, SpmmvSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 4)));

/// 45 rows (not a multiple of the slice height 8), rows 3–6 and 20
/// empty, row 11 dense: the slice holding row 11 is as wide as the
/// matrix, its neighbours are mostly padding, and the last slice has
/// padded rows.
Csr<double> ragged_csr() {
  const index_t n = 45;
  Rng rng(21);
  Coo<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if ((i >= 3 && i <= 6) || i == 20) continue;
    if (i == 11) {
      for (index_t c = 0; c < n; ++c) coo.add(i, c, rng.uniform(-1.0, 1.0));
      continue;
    }
    const index_t len = 1 + i % 6;
    for (index_t t = 0; t < len; ++t)
      coo.add(i, (i * 7 + t * 13) % n, rng.uniform(-1.0, 1.0));
  }
  return Csr<double>::from_coo(std::move(coo));
}

class SpmmvSellSweep
    : public ::testing::TestWithParam<std::tuple<bool /*sigma > 1*/,
                                                 int /*threads*/>> {};

TEST_P(SpmmvSellSweep, BlockEqualsSingleProductsBitForBit) {
  const auto& [sorted, threads] = GetParam();
  const auto a = ragged_csr();
  // sliced_ell: σ = 1, original order; sell_c_sigma: σ = 16 with the
  // columns relabeled by the row permutation.
  const auto s = SlicedEll<double>::from_csr(
      a, 8, sorted ? 16 : 1, sorted ? PermuteColumns::yes : PermuteColumns::no);
  ASSERT_EQ(s.columns_permuted, sorted);
  const auto n = static_cast<std::size_t>(a.n_rows);
  // k = 2..8 run one fixed-width group each, k = 9 a group of 8 plus
  // one of 1, k = 1 the single-vector kernel.
  for (int k = 1; k <= 9; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto kk = static_cast<std::size_t>(k);
    const auto xblk = random_vector<double>(a.n_cols * k, 22 + k);
    std::vector<double> yblk(n * kk, -1.0);
    spmmv(s, std::span<const double>(xblk), std::span<double>(yblk), k,
          threads);
    std::vector<double> xv(n), yv(n);
    for (std::size_t v = 0; v < kk; ++v) {
      for (std::size_t i = 0; i < n; ++i) xv[i] = xblk[i * kk + v];
      spmv(s, std::span<const double>(xv), std::span<double>(yv), threads);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(yblk[i * kk + v]),
                  std::bit_cast<std::uint64_t>(yv[i]))
            << "vector " << v << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sell, SpmmvSellSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 4)));

TEST(Spmmv, BlockLaunchIsOneKernelCallForNativeFormats) {
  // A native block kernel streams the matrix once: one kernel.calls per
  // launch. The fallback de-interleaves into k single-vector calls.
  const int k = 3;
  const auto a = random_csr<double>(64, 64, 0, 9, 14);
  const auto xblk = random_vector<double>(64 * k, 15);
  std::vector<double> y(64 * k);
  formats::PlanOptions opts;
  opts.probe = false;
  const auto& reg = formats::registry<double>();
  obs::Counter& calls = obs::counter("kernel.calls");
  for (const formats::FormatInfo& info : reg.list()) {
    SCOPED_TRACE(info.name);
    const auto plan = reg.build(info.name, a, opts);
    // `auto` forwards block launches to the format it chose.
    const formats::AutoChoice* choice = plan->auto_choice();
    const bool native =
        choice != nullptr ? reg.find(choice->chosen)->info.native_spmmv
                          : info.native_spmmv;
    const std::uint64_t before = calls.value();
    plan->spmmv(std::span<const double>(xblk), std::span<double>(y), k);
    EXPECT_EQ(calls.value() - before, native ? 1u : static_cast<unsigned>(k));
  }
}

TEST(Spmmv, KOneMatchesSingleVectorKernel) {
  const auto a = random_csr<double>(80, 80, 0, 7, 5);
  const auto x = random_vector<double>(80, 6);
  std::vector<double> y1(80), y2(80);
  spmmv(a, std::span<const double>(x), std::span<double>(y1), 1);
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y1,
                                       1e-13);
  (void)y2;
}

TEST(Spmmv, BalanceImprovesWithBlockWidth) {
  // Eq. 1 amortization: the matrix term divides by k.
  const double b1 = spmmv_code_balance(8, 0.2, 20.0, 1);
  const double b4 = spmmv_code_balance(8, 0.2, 20.0, 4);
  const double b16 = spmmv_code_balance(8, 0.2, 20.0, 16);
  EXPECT_GT(b1, b4);
  EXPECT_GT(b4, b16);
  // k = 1 equals the single-vector balance.
  EXPECT_DOUBLE_EQ(b1, perfmodel::code_balance(8, 0.2, 20.0));
  // The limit is the vector traffic alone.
  EXPECT_NEAR(spmmv_code_balance(8, 0.2, 20.0, 1000000),
              (8 * 0.2 + 16.0 / 20.0) / 2.0, 1e-4);
}

TEST(Spmmv, RejectsBadBlocks) {
  const auto a = random_csr<double>(10, 10, 1, 2, 7);
  std::vector<double> x(20), y(20);
  EXPECT_THROW(
      spmmv(a, std::span<const double>(x), std::span<double>(y), 0), Error);
  EXPECT_THROW(
      spmmv(a, std::span<const double>(x), std::span<double>(y), 4), Error);
}

/// Bind + one block product on `backend`, original basis, deterministic
/// opts (mirrors test_exec_backends::product for k vectors).
std::vector<double> block_product(exec::Engine<double>& eng,
                                  const char* backend, const Csr<double>& a,
                                  const char* format,
                                  const std::vector<double>& xblk, int k) {
  formats::PlanOptions opts;
  opts.permute_columns = PermuteColumns::no;
  opts.probe = false;
  const auto bound = eng.bind(backend, a, format, opts, {});
  std::vector<double> y(static_cast<std::size_t>(a.n_rows) *
                            static_cast<std::size_t>(k),
                        -1.0);
  bound->apply_block(std::span<const double>(xblk), std::span<double>(y), k);
  return y;
}

class SpmmvBackendSweep : public ::testing::TestWithParam<int /*k*/> {};

TEST_P(SpmmvBackendSweep, BitIdenticalAcrossBackendsForEveryFormat) {
  const int k = GetParam();
  const auto a = random_csr<double>(64, 64, 0, 9, 11);
  const auto xblk = random_vector<double>(64 * k, 12);

  exec::Engine<double> eng;
  for (const formats::FormatInfo& info : formats::registry<double>().list()) {
    SCOPED_TRACE(std::string(info.name) + " k=" + std::to_string(k));
    const auto host = block_product(eng, "host", a, info.name, xblk, k);
    const auto sim = block_product(eng, "gpusim", a, info.name, xblk, k);
    const auto hyb = block_product(eng, "hybrid", a, info.name, xblk, k);
    for (std::size_t i = 0; i < host.size(); ++i) {
      EXPECT_EQ(host[i], sim[i]) << "entry " << i;
      EXPECT_EQ(host[i], hyb[i]) << "entry " << i;
    }
    // The batched block equals k individual products bit-for-bit: every
    // backend routes all widths through the same per-row kernel.
    for (int v = 0; v < k; ++v) {
      std::vector<double> xv(64);
      for (std::size_t i = 0; i < xv.size(); ++i)
        xv[i] = xblk[i * static_cast<std::size_t>(k) +
                     static_cast<std::size_t>(v)];
      const auto yv = block_product(eng, "host", a, info.name, xv, 1);
      for (std::size_t i = 0; i < yv.size(); ++i)
        EXPECT_EQ(host[i * static_cast<std::size_t>(k) +
                       static_cast<std::size_t>(v)],
                  yv[i])
            << "vector " << v << " row " << i;
    }
  }
}

TEST_P(SpmmvBackendSweep, EmptyRowsAtSplitBoundary) {
  // 8 rows, rows 3–5 empty; a 50% nnz split lands inside the empty
  // band, so a hybrid part ends (and the other begins) on empty rows
  // (same shape as test_exec_backends::HybridEmptyRowsAtSplitBoundary).
  const int k = GetParam();
  Csr<double> a;
  a.n_rows = 8;
  a.n_cols = 8;
  a.row_ptr = {0, 2, 4, 6, 6, 6, 6, 9, 12};
  a.col_idx = {0, 1, 1, 2, 2, 3, 0, 4, 7, 1, 5, 6};
  a.val = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  a.validate();
  const auto xblk = random_vector<double>(8 * k, 13);

  exec::Engine<double> eng;
  const auto host = block_product(eng, "host", a, "csr", xblk, k);
  const auto sim = block_product(eng, "gpusim", a, "csr", xblk, k);
  for (std::size_t i = 0; i < host.size(); ++i)
    EXPECT_EQ(host[i], sim[i]) << "entry " << i;
  for (const double share : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(share);
    exec::LaunchOptions launch;
    launch.device_share = share;
    const auto bound = eng.bind("hybrid", a, "csr", {}, launch);
    std::vector<double> y(static_cast<std::size_t>(8 * k), -1.0);
    bound->apply_block(std::span<const double>(xblk), std::span<double>(y),
                       k);
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(y[i], host[i]) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SpmmvBackendSweep,
                         ::testing::Values(1, 2, 3, 8, 9));

TEST(Spmmv, RejectsNonPositiveKForEveryFormat) {
  // The k-interleaved stride contract (x[i*k + v]) must be asserted
  // before any indexing: k <= 0 throws instead of aliasing rows.
  const auto a = random_csr<double>(12, 12, 1, 3, 8);
  const auto p = SlicedEll<double>::pjds(a);
  const auto s = SlicedEll<double>::from_csr(a, 4, 8, PermuteColumns::yes);
  std::vector<double> x(24), y(24);
  for (int k : {0, -1, -7}) {
    EXPECT_THROW(
        spmmv(a, std::span<const double>(x), std::span<double>(y), k), Error);
    EXPECT_THROW(
        spmmv(p, std::span<const double>(x), std::span<double>(y), k), Error);
    EXPECT_THROW(
        spmmv(s, std::span<const double>(x), std::span<double>(y), k), Error);
  }
}

}  // namespace
}  // namespace spmvm
