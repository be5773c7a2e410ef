// Fingerprint checks: each synthetic matrix must reproduce the published
// properties the experiments depend on (N_nzr, spread, structure, and the
// Table I data-reduction band).
#include "matgen/generators.hpp"

#include <gtest/gtest.h>

#include "sparse/footprint.hpp"
#include "matgen/suite.hpp"
#include "sparse/convert.hpp"
#include "sparse/matrix_stats.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

GenConfig cfg(double scale) {
  GenConfig c;
  c.scale = scale;
  return c;
}

double reduction(const Csr<double>& a) {
  return data_reduction_percent(testing::pjds_image(a),
                                testing::ellpack_image(a, 32));
}

TEST(Hmep, Fingerprint) {
  const auto a = make_hmep<double>(cfg(64));
  a.validate();
  const auto s = compute_stats(a);
  EXPECT_NEAR(s.avg_row_len, 15.0, 2.0);      // paper: ~15
  EXPECT_LE(s.max_row_len, 26);
  // Table I: 36% data reduction.
  EXPECT_NEAR(reduction(a), 36.0, 8.0);
}

TEST(Hmep, HasContiguousOffDiagonals) {
  const auto a = make_hmep<double>(cfg(64));
  const index_t stride = 15000 / 64;
  // Count rows carrying an entry exactly at i +/- stride: the phonon
  // off-diagonal must be populated over long contiguous runs.
  index_t with_offdiag = 0;
  for (index_t i = stride; i < a.n_rows - stride; ++i) {
    const auto row = a.dense_row(i);
    if (row[static_cast<std::size_t>(i + stride)] != 0.0 ||
        row[static_cast<std::size_t>(i - stride)] != 0.0)
      ++with_offdiag;
  }
  EXPECT_GT(with_offdiag, (a.n_rows - 2 * stride) / 2);
}

TEST(Samg, Fingerprint) {
  const auto a = make_samg<double>(cfg(64));
  a.validate();
  const auto s = compute_stats(a);
  EXPECT_NEAR(s.avg_row_len, 7.0, 1.5);  // paper: ~7
  // Longest row more than 4x the smallest, short rows dominate.
  EXPECT_GT(static_cast<double>(s.max_row_len), 4.0 * s.min_row_len);
  EXPECT_GT(s.row_len_histogram.relative_share(s.min_row_len + 1),
            s.row_len_histogram.relative_share(s.max_row_len));
  // Table I: 68.4% data reduction — by far the largest of the suite.
  EXPECT_NEAR(reduction(a), 68.4, 10.0);
}

TEST(Dlr1, Fingerprint) {
  const auto a = make_dlr1<double>(cfg(8));
  a.validate();
  EXPECT_EQ(a.n_rows % 6, 0);
  const auto s = compute_stats(a);
  EXPECT_NEAR(s.avg_row_len, 144.0, 15.0);  // paper: ~144
  // Narrow spread: relative width ~2, 80% of rows at >= 0.8 * max.
  EXPECT_LT(s.relative_width, 3.0);
  EXPECT_GT(s.row_len_histogram.share_at_least(
                static_cast<index_t>(0.8 * s.max_row_len)),
            0.6);
  // Table I: 17.5% — the smallest reduction of the suite.
  EXPECT_NEAR(reduction(a), 17.5, 7.0);
}

TEST(Dlr2, FingerprintAndDenseBlocks) {
  const auto a = make_dlr2<double>(cfg(8));
  a.validate();
  const auto s = compute_stats(a);
  EXPECT_NEAR(s.avg_row_len, 315.0, 35.0);  // paper: ~315
  EXPECT_NEAR(reduction(a), 48.0, 10.0);    // Table I
  // Entirely dense 5x5 subblocks: row lengths are multiples of 5 and the
  // five rows of a block share identical sparsity.
  for (index_t i = 0; i < std::min<index_t>(a.n_rows, 200); ++i)
    EXPECT_EQ(a.row_len(i) % 5, 0) << "row " << i;
  for (index_t blk = 0; blk < 5; ++blk) {
    const index_t base = blk * 5;
    for (index_t u = 1; u < 5; ++u)
      EXPECT_EQ(a.row_len(base), a.row_len(base + u));
  }
}

TEST(Uhbr, Fingerprint) {
  const auto a = make_uhbr<double>(cfg(64));
  a.validate();
  const auto s = compute_stats(a);
  EXPECT_NEAR(s.avg_row_len, 123.0, 15.0);  // paper: ~123
}

TEST(PaperSuite, ReductionOrderingMatchesTableOne) {
  // sAMG > DLR2 > HMEp > DLR1 (68.4 > 48.0 > 36.0 > 17.5).
  const auto dlr1 = reduction(make_dlr1<double>(cfg(16)));
  const auto dlr2 = reduction(make_dlr2<double>(cfg(16)));
  const auto hmep = reduction(make_hmep<double>(cfg(64)));
  const auto samg = reduction(make_samg<double>(cfg(64)));
  EXPECT_GT(samg, dlr2);
  EXPECT_GT(dlr2, hmep);
  EXPECT_GT(hmep, dlr1);
}

TEST(PaperSuite, DeterministicAcrossCalls) {
  const auto a = make_samg<double>(cfg(256));
  const auto b = make_samg<double>(cfg(256));
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(PaperSuite, SeedChangesMatrix) {
  GenConfig c1 = cfg(256), c2 = cfg(256);
  c2.seed = 999;
  EXPECT_FALSE(structurally_equal(make_samg<double>(c1),
                                  make_samg<double>(c2)));
}

TEST(Suite, TableOneSuiteContainsFourMatrices) {
  for (const char* name : {"DLR1", "DLR2", "HMEp", "sAMG"}) {
    const auto m = make_named(name, 256);
    EXPECT_EQ(m.name, name);
    m.matrix.validate();
    EXPECT_GT(m.paper.dimension, 0) << name;
  }
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(make_named("NOPE", 64), Error);
}

TEST(Poisson2d, StencilStructure) {
  const auto a = make_poisson2d<double>(10, 10);
  a.validate();
  EXPECT_EQ(a.n_rows, 100);
  EXPECT_TRUE(is_symmetric(a));
  // Interior row: 5 entries; corner: 3.
  EXPECT_EQ(a.row_len(5 * 10 + 5), 5);
  EXPECT_EQ(a.row_len(0), 3);
}

TEST(Poisson3d, StencilStructure) {
  const auto a = make_poisson3d<double>(5, 5, 5);
  a.validate();
  EXPECT_EQ(a.n_rows, 125);
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_EQ(a.max_row_len(), 7);
}

TEST(Banded, Structure) {
  const auto a = make_banded<double>(50, 3);
  a.validate();
  EXPECT_EQ(a.max_row_len(), 7);
  EXPECT_EQ(a.row_len(0), 4);  // clipped at the boundary
  // Symmetric and diagonally dominant by construction (SPD for solvers).
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_DOUBLE_EQ(a.dense_row(10)[10], 7.0);
}

TEST(RandomUniform, ExactRowLength) {
  const auto a = make_random_uniform<double>(200, 12, 7);
  a.validate();
  EXPECT_EQ(a.min_row_len(), 12);
  EXPECT_EQ(a.max_row_len(), 12);
  // Diagonal present in every row.
  for (index_t i = 0; i < a.n_rows; ++i)
    EXPECT_NE(a.dense_row(i)[static_cast<std::size_t>(i)], 0.0);
}

TEST(Powerlaw, HeavyTail) {
  const auto a = make_powerlaw<double>(2000, 8.0, 100, 11);
  a.validate();
  const auto s = compute_stats(a);
  EXPECT_GT(s.max_row_len, 4 * static_cast<index_t>(s.avg_row_len));
  EXPECT_LE(s.max_row_len, 100);
}

}  // namespace
}  // namespace spmvm
