// Round-trip property suite: from_csr ∘ to_csr must be the identity for
// every storage format, across matrix shapes and build parameters.
#include "sparse/to_csr.hpp"

#include <gtest/gtest.h>

#include "matgen/suite.hpp"
#include "test_helpers.hpp"

namespace spmvm {
namespace {

using spmvm::testing::random_csr;

struct Shape {
  index_t rows;
  index_t cols;
  index_t min_len;
  index_t max_len;
  std::uint64_t seed;
};

class RoundTrip : public ::testing::TestWithParam<Shape> {
 protected:
  Csr<double> matrix() const {
    const auto& p = GetParam();
    return random_csr<double>(p.rows, p.cols, p.min_len, p.max_len, p.seed);
  }
};

TEST_P(RoundTrip, Ellpack) {
  const auto a = matrix();
  EXPECT_TRUE(structurally_equal(a, to_csr(SlicedEll<double>::ellpack(a, 32))));
}

TEST_P(RoundTrip, JdsRowOnly) {
  const auto a = matrix();
  const auto j = Jds<double>::from_csr(a, PermuteColumns::no);
  EXPECT_TRUE(structurally_equal(a, to_csr(j, PermuteColumns::no)));
}

TEST_P(RoundTrip, JdsSymmetric) {
  const auto& p = GetParam();
  if (p.rows != p.cols) GTEST_SKIP() << "symmetric permutation needs square";
  const auto a = matrix();
  const auto j = Jds<double>::from_csr(a, PermuteColumns::yes);
  EXPECT_TRUE(structurally_equal(a, to_csr(j, PermuteColumns::yes)));
}

TEST_P(RoundTrip, SlicedEllUnsorted) {
  const auto a = matrix();
  const auto s = SlicedEll<double>::from_csr(a, 16);
  EXPECT_TRUE(structurally_equal(a, to_csr(s)));
}

TEST_P(RoundTrip, SlicedEllSorted) {
  const auto a = matrix();
  const auto s = SlicedEll<double>::from_csr(a, 16, a.n_rows,
                                             PermuteColumns::no);
  EXPECT_TRUE(structurally_equal(a, to_csr(s)));
}

TEST_P(RoundTrip, PjdsRowOnly) {
  const auto a = matrix();
  EXPECT_TRUE(structurally_equal(
      a, to_csr(SlicedEll<double>::pjds(a, 32, PermuteColumns::no))));
}

TEST_P(RoundTrip, PjdsSymmetric) {
  const auto& p = GetParam();
  if (p.rows != p.cols) GTEST_SKIP() << "symmetric permutation needs square";
  const auto a = matrix();
  EXPECT_TRUE(structurally_equal(
      a, to_csr(SlicedEll<double>::pjds(a, 32, PermuteColumns::yes))));
}

TEST_P(RoundTrip, Bellpack) {
  const auto a = matrix();
  EXPECT_TRUE(
      structurally_equal(a, to_csr(Bellpack<double>::from_csr(a, 3, 4))));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTrip,
    ::testing::Values(Shape{1, 1, 1, 1, 1},      //
                      Shape{33, 33, 0, 5, 2},    // empty rows, odd size
                      Shape{64, 64, 4, 4, 3},    // constant length
                      Shape{100, 70, 0, 12, 4},  // rectangular
                      Shape{257, 257, 0, 40, 5}  // wide spread
                      ),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_len" +
             std::to_string(info.param.max_len);
    });

TEST(RoundTripPaper, AllFiveMatrices) {
  for (const char* name : {"DLR1", "DLR2", "HMEp", "sAMG", "UHBR"}) {
    const auto a = make_named(name, 512).matrix;
    SCOPED_TRACE(name);
    EXPECT_TRUE(structurally_equal(a, to_csr(SlicedEll<double>::pjds(a))));
    EXPECT_TRUE(
        structurally_equal(a, to_csr(SlicedEll<double>::ellpack(a, 32))));
  }
}

}  // namespace
}  // namespace spmvm
