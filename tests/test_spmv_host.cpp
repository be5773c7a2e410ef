// Cross-format property suite: every storage format must produce the same
// product as the dense reference, across matrix shapes, value types and
// thread counts (parameterized sweep).
#include "sparse/spmv_host.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

struct ShapeParam {
  index_t n_rows;
  index_t n_cols;
  index_t min_len;
  index_t max_len;
  std::uint64_t seed;
};

class SpmvAllFormats
    : public ::testing::TestWithParam<std::tuple<ShapeParam, int>> {};

TEST_P(SpmvAllFormats, EveryFormatMatchesReference) {
  const auto& [shape, threads] = GetParam();
  const auto a = testing::random_csr<double>(shape.n_rows, shape.n_cols,
                                             shape.min_len, shape.max_len,
                                             shape.seed);
  const auto x = testing::random_vector<double>(shape.n_cols, shape.seed + 1);
  const auto ref = testing::reference_spmv(a, x);
  const auto n = static_cast<std::size_t>(shape.n_rows);

  {
    std::vector<double> y(n);
    spmv(a, std::span<const double>(x), std::span<double>(y), threads);
    testing::expect_vectors_near<double>(ref, y, 1e-12);
  }
  {
    // ELLPACK and ELLPACK-R share this image and host kernel.
    const auto e = SlicedEll<double>::ellpack(a, 32);
    std::vector<double> y(n);
    spmv(e, std::span<const double>(x), std::span<double>(y), threads);
    testing::expect_vectors_near<double>(ref, y, 1e-12);
  }
  if (shape.n_rows == shape.n_cols) {
    const auto j = Jds<double>::from_csr(a, PermuteColumns::yes);
    std::vector<double> x_perm(n), y_perm(n), y(n);
    j.perm.to_permuted<double>(x, x_perm);
    spmv(j, std::span<const double>(x_perm), std::span<double>(y_perm));
    j.perm.from_permuted<double>(y_perm, y);
    testing::expect_vectors_near<double>(ref, y, 1e-12);
  }
  {
    const auto s = SlicedEll<double>::from_csr(a, 16);
    std::vector<double> y(n);
    spmv(s, std::span<const double>(x), std::span<double>(y), threads);
    testing::expect_vectors_near<double>(ref, y, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmvAllFormats,
    ::testing::Combine(
        ::testing::Values(
            ShapeParam{1, 1, 1, 1, 1},        // minimal
            ShapeParam{17, 17, 0, 3, 2},      // with empty rows
            ShapeParam{64, 64, 4, 4, 3},      // constant row length
            ShapeParam{100, 80, 0, 10, 4},    // rectangular
            ShapeParam{33, 47, 1, 20, 5},     // wider than tall rows
            ShapeParam{256, 256, 0, 32, 6}),  // larger square
        ::testing::Values(1, 4)));

TEST(SpmvCsr, AxpbyComposesCorrectly) {
  const auto a = testing::random_csr<double>(50, 50, 1, 6, 9);
  const auto x = testing::random_vector<double>(50, 10);
  auto y = testing::random_vector<double>(50, 11);
  const auto y0 = y;
  spmv_axpby(a, std::span<const double>(x), std::span<double>(y), 2.0, -0.5);
  const auto ax = testing::reference_spmv(a, x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], -0.5 * y0[i] + 2.0 * ax[i], 1e-12);
}

TEST(SpmvCsr, AxpbyBetaZeroOverwrites) {
  const auto a = testing::random_csr<double>(30, 30, 1, 4, 12);
  const auto x = testing::random_vector<double>(30, 13);
  std::vector<double> y(30, 1e300);  // must be ignored with beta = 0...
  // beta=0 multiplies: 0*1e300 = 0, still finite.
  spmv_axpby(a, std::span<const double>(x), std::span<double>(y), 1.0, 0.0);
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
}

TEST(SpmvCsr, RejectsShortVectors) {
  const auto a = testing::random_csr<double>(10, 10, 1, 2, 14);
  std::vector<double> x(5), y(10);
  EXPECT_THROW(
      spmv(a, std::span<const double>(x), std::span<double>(y)), Error);
  std::vector<double> x2(10), y2(5);
  EXPECT_THROW(
      spmv(a, std::span<const double>(x2), std::span<double>(y2)), Error);
}

TEST(SpmvSlicedEll, AxpbyComposesCorrectly) {
  const auto a = testing::random_csr<double>(70, 70, 0, 9, 21);
  const auto s = SlicedEll<double>::from_csr(a, 16);  // σ = 1: plain basis
  const auto x = testing::random_vector<double>(70, 22);
  for (int threads : {1, 4}) {
    auto y = testing::random_vector<double>(70, 23);
    const auto y0 = y;
    spmv_axpby(s, std::span<const double>(x), std::span<double>(y), 2.0, -0.5,
               threads);
    const auto ax = testing::reference_spmv(a, x);
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], -0.5 * y0[i] + 2.0 * ax[i], 1e-12)
          << "threads=" << threads;
  }
}

TEST(SpmvSlicedEll, AxpbyMatchesTwoPassOnSortedFormat) {
  const auto a = testing::random_csr<double>(90, 90, 0, 14, 24);
  const auto s =
      SlicedEll<double>::from_csr(a, 8, /*sort_window=*/90,
                                  PermuteColumns::yes);
  const auto x = testing::random_vector<double>(90, 25);
  std::vector<double> ax(90);
  spmv(s, std::span<const double>(x), std::span<double>(ax));
  auto y = testing::random_vector<double>(90, 26);
  const auto y0 = y;
  spmv_axpby(s, std::span<const double>(x), std::span<double>(y), 1.5, 0.25);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], 0.25 * y0[i] + 1.5 * ax[i], 1e-12);
}

TEST(SpmvFloat, SinglePrecisionWithinTolerance) {
  const auto a = testing::random_csr<float>(80, 80, 1, 10, 15);
  const auto x = testing::random_vector<float>(80, 16);
  const auto ref = testing::reference_spmv(a, x);
  const auto e = SlicedEll<float>::ellpack(a, 32);
  std::vector<float> y(80);
  spmv(e, std::span<const float>(x), std::span<float>(y));
  testing::expect_vectors_near<float>(ref, y, 1e-5);
}

}  // namespace
}  // namespace spmvm
