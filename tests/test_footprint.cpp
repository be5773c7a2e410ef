#include "sparse/footprint.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

TEST(Footprint, CsrIsMinimal) {
  const auto a = testing::random_csr<double>(100, 100, 0, 10, 1);
  const auto f = footprint(a);
  EXPECT_EQ(f.stored_entries, a.nnz());
  EXPECT_DOUBLE_EQ(f.overhead_vs_minimum(), 0.0);
}

TEST(Footprint, EllpackCountsFill) {
  const auto a = testing::random_csr<double>(100, 100, 1, 10, 2);
  const auto e = testing::ellpack_image(a, 32);
  const auto f = footprint(e, true);
  EXPECT_EQ(f.stored_entries, e.stored_entries());
  EXPECT_GE(f.overhead_vs_minimum(), 0.0);
  // Without rowmax[] only the one slice's two offsets remain (plain
  // ELLPACK).
  EXPECT_EQ(footprint(e, false).aux_bytes, 2 * sizeof(offset_t));
  EXPECT_EQ(f.aux_bytes - footprint(e, false).aux_bytes,
            static_cast<std::size_t>(e.padded_rows) * sizeof(index_t));
}

TEST(Footprint, TotalBytesScaleWithScalarSize) {
  const auto a = testing::random_csr<double>(64, 64, 2, 8, 3);
  const auto p = testing::pjds_image(a);
  const auto f = footprint(p);
  const auto sp = f.total_bytes(4);
  const auto dp = f.total_bytes(8);
  EXPECT_EQ(dp - sp, static_cast<std::size_t>(f.stored_entries) * 4);
}

TEST(Footprint, DataReductionOrderingByRowSpread) {
  // A matrix with wildly varying row lengths must show a much larger
  // pJDS-vs-ELLPACK reduction than a near-constant one (Table I logic).
  const auto wide = testing::random_csr<double>(512, 512, 1, 64, 4);
  const auto narrow = testing::random_csr<double>(512, 512, 60, 64, 5);
  const auto rw = data_reduction_percent(testing::pjds_image(wide),
                                         testing::ellpack_image(wide, 32));
  const auto rn = data_reduction_percent(testing::pjds_image(narrow),
                                         testing::ellpack_image(narrow, 32));
  EXPECT_GT(rw, rn);
  EXPECT_GT(rw, 20.0);
  EXPECT_LT(rn, 10.0);
}

TEST(Footprint, DataReductionScaleInvariant) {
  // The reduction percentage depends on the row-length distribution, not
  // on the matrix size: doubling N with the same per-row law keeps it
  // nearly constant (justifies the scaled-down benchmark matrices).
  const auto small = testing::random_csr<double>(512, 512, 1, 32, 6);
  const auto large = testing::random_csr<double>(2048, 2048, 1, 32, 7);
  const auto rs = data_reduction_percent(testing::pjds_image(small),
                                         testing::ellpack_image(small, 32));
  const auto rl = data_reduction_percent(testing::pjds_image(large),
                                         testing::ellpack_image(large, 32));
  EXPECT_NEAR(rs, rl, 5.0);
}

TEST(Footprint, PjdsOverheadTiny) {
  // Paper: overhead of pJDS vs storing only non-zeros is < 0.01% for the
  // test matrices (br = 32). Random matrices are less favorable, but the
  // overhead must still be far below ELLPACK's.
  const auto a = testing::random_csr<double>(1024, 1024, 1, 64, 8);
  const auto p = testing::pjds_image(a);
  const auto e = testing::ellpack_image(a, 32);
  EXPECT_LT(footprint(p).overhead_vs_minimum(),
            0.2 * footprint(e, true).overhead_vs_minimum());
}

TEST(Footprint, JdsHasZeroFill) {
  const auto a = testing::random_csr<double>(128, 128, 0, 16, 9);
  const auto j = Jds<double>::from_csr(a);
  EXPECT_DOUBLE_EQ(footprint(j).overhead_vs_minimum(), 0.0);
}

TEST(Footprint, SlicedEllBetweenJdsAndEllpack) {
  const auto a = testing::random_csr<double>(256, 256, 0, 24, 10);
  const auto e = footprint(testing::ellpack_image(a, 32), true);
  const auto s = footprint(SlicedEll<double>::from_csr(a, 32));
  const auto j = footprint(Jds<double>::from_csr(a));
  EXPECT_LE(s.stored_entries, e.stored_entries);
  EXPECT_GE(s.stored_entries, j.stored_entries);
}

TEST(Footprint, MismatchedMatricesRejected) {
  const auto a = testing::random_csr<double>(64, 64, 2, 2, 11);
  const auto b = testing::random_csr<double>(64, 64, 3, 3, 12);
  EXPECT_THROW(data_reduction_percent(testing::pjds_image(a),
                                      testing::ellpack_image(b, 32)),
               Error);
}

}  // namespace
}  // namespace spmvm
