#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

TEST(MatrixMarket, ReadsGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1 1.5\n"
      "2 3 -2.0\n"
      "3 4 7.25\n");
  const auto a = read_matrix_market<double>(in);
  a.validate();
  EXPECT_EQ(a.n_rows, 3);
  EXPECT_EQ(a.n_cols, 4);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.dense_row(1)[2], -2.0);
}

TEST(MatrixMarket, ReadsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 1.0\n");
  const auto a = read_matrix_market<double>(in);
  EXPECT_EQ(a.nnz(), 3);  // (1,0), (0,1), (2,2)
  EXPECT_DOUBLE_EQ(a.dense_row(0)[1], 5.0);
  EXPECT_DOUBLE_EQ(a.dense_row(1)[0], 5.0);
}

TEST(MatrixMarket, ReadsSkewSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const auto a = read_matrix_market<double>(in);
  EXPECT_DOUBLE_EQ(a.dense_row(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(a.dense_row(0)[1], -3.0);
}

TEST(MatrixMarket, ReadsPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const auto a = read_matrix_market<double>(in);
  EXPECT_DOUBLE_EQ(a.dense_row(0)[1], 1.0);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("1 1 0\n");
  EXPECT_THROW(read_matrix_market<double>(in), Error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market<double>(in), Error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market<double>(in), Error);
}

// Malformed input must fail with spmvm::Error before any value is
// narrowed to index_t or any allocation is sized from the header.
struct MalformedCase {
  const char* name;
  const char* text;
};

void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MatrixMarket : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MatrixMarket, RejectsMalformedInput) {
  std::istringstream in(GetParam().text);
  EXPECT_THROW(read_matrix_market<double>(in), Error);
}

#define MM_GENERAL "%%MatrixMarket matrix coordinate real general\n"
#define MM_PATTERN "%%MatrixMarket matrix coordinate pattern general\n"
#define MM_SYMMETRIC "%%MatrixMarket matrix coordinate real symmetric\n"
#define MM_SKEW "%%MatrixMarket matrix coordinate real skew-symmetric\n"

INSTANTIATE_TEST_SUITE_P(
    Corpus, MatrixMarket,
    ::testing::Values(
        MalformedCase{"row_index_wraps_32_bits",
                      MM_GENERAL "3 3 1\n4294967297 1 1.0\n"},
        MalformedCase{"col_index_wraps_32_bits",
                      MM_GENERAL "3 3 1\n1 4294967297 1.0\n"},
        MalformedCase{"rows_wrap_32_bits",
                      MM_GENERAL "4294967299 3 1\n1 1 1.0\n"},
        MalformedCase{"rows_2_pow_31", MM_GENERAL "2147483648 2 0\n"},
        MalformedCase{"cols_2_pow_31",
                      MM_GENERAL "2 2147483648 1\n1 1 1.0\n"},
        MalformedCase{"negative_rows", MM_GENERAL "-2 2 0\n"},
        MalformedCase{"negative_cols", MM_GENERAL "2 -2 0\n"},
        MalformedCase{"negative_count", MM_GENERAL "2 2 -1\n"},
        MalformedCase{"count_1e17",
                      MM_GENERAL "3 3 100000000000000000\n1 1 1.0\n"},
        MalformedCase{"count_5e18",
                      MM_GENERAL "3 3 5000000000000000000\n1 1 1.0\n"},
        MalformedCase{"count_5e18_symmetric",
                      MM_SYMMETRIC "3 3 5000000000000000000\n1 1 1.0\n"},
        MalformedCase{"count_above_rows_times_cols",
                      MM_GENERAL "2 2 5\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n"
                                 "1 1 1\n"},
        MalformedCase{"count_beyond_int64",
                      MM_GENERAL "2 2 99999999999999999999\n"},
        MalformedCase{"two_number_size_line", MM_GENERAL "2 2\n1 1 1.0\n"},
        MalformedCase{"non_numeric_size", MM_GENERAL "2 x 1\n1 1 1.0\n"},
        MalformedCase{"missing_size_line", MM_GENERAL "% only a comment\n\n"},
        MalformedCase{"row_index_zero", MM_GENERAL "2 2 1\n0 1 1.0\n"},
        MalformedCase{"col_index_zero", MM_GENERAL "2 2 1\n1 0 1.0\n"},
        MalformedCase{"negative_row_index", MM_GENERAL "2 2 1\n-1 1 1.0\n"},
        MalformedCase{"negative_col_index", MM_GENERAL "2 2 1\n1 -1 1.0\n"},
        MalformedCase{"row_index_past_end", MM_GENERAL "2 3 1\n3 1 1.0\n"},
        MalformedCase{"col_index_past_end", MM_GENERAL "3 2 1\n1 3 1.0\n"},
        MalformedCase{"non_numeric_index", MM_GENERAL "2 2 1\na 1 1.0\n"},
        MalformedCase{"non_numeric_value", MM_GENERAL "2 2 1\n1 1 abc\n"},
        MalformedCase{"missing_value", MM_GENERAL "2 2 1\n1 1\n"},
        MalformedCase{"entry_past_declared_count",
                      MM_GENERAL "2 2 1\n1 1 1.0\n2 2 2.0\n"},
        MalformedCase{"entry_past_count_after_comment",
                      MM_GENERAL "2 2 1\n1 1 1.0\n% note\n\n2 2 2.0\n"},
        MalformedCase{"pattern_index_past_end", MM_PATTERN "2 2 1\n3 1\n"},
        MalformedCase{"pattern_index_zero", MM_PATTERN "2 2 1\n1 0\n"},
        MalformedCase{"pattern_entry_past_count",
                      MM_PATTERN "2 2 1\n1 1\n2 2\n"},
        MalformedCase{"pattern_truncated", MM_PATTERN "2 2 2\n1 1\n"},
        MalformedCase{"symmetric_not_square",
                      MM_SYMMETRIC "2 3 1\n1 1 1.0\n"},
        MalformedCase{"skew_symmetric_not_square",
                      MM_SKEW "3 2 1\n2 1 1.0\n"},
        MalformedCase{"symmetric_index_past_end",
                      MM_SYMMETRIC "2 2 1\n3 1 1.0\n"},
        MalformedCase{"symmetric_index_wraps_32_bits",
                      MM_SYMMETRIC "3 3 1\n4294967297 1 1.0\n"},
        MalformedCase{"symmetric_entry_past_count",
                      MM_SYMMETRIC "2 2 1\n2 1 1.0\n2 2 1.0\n"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return std::string(info.param.name);
    });

#undef MM_GENERAL
#undef MM_PATTERN
#undef MM_SYMMETRIC
#undef MM_SKEW

TEST(MatrixMarket, RoundTripPreservesMatrix) {
  const auto a = testing::random_csr<double>(30, 25, 0, 6, 42);
  std::stringstream buffer;
  write_matrix_market(buffer, a);
  const auto b = read_matrix_market<double>(buffer);
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(MatrixMarket, FileRoundTrip) {
  const auto a = testing::random_csr<double>(10, 10, 1, 3, 43);
  const std::string path = ::testing::TempDir() + "/spmvm_roundtrip.mtx";
  write_matrix_market_file(path, a);
  const auto b = read_matrix_market_file<double>(path);
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file<double>("/nonexistent/foo.mtx"), Error);
}

}  // namespace
}  // namespace spmvm
