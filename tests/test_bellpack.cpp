#include "sparse/bellpack.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "sparse/footprint.hpp"
#include "matgen/generators.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

using spmvm::testing::random_csr;
using spmvm::testing::random_vector;

TEST(Bellpack, Geometry) {
  const auto a = random_csr<double>(70, 70, 1, 6, 1);
  const auto b = Bellpack<double>::from_csr(a, 5, 5, 4);
  b.validate();
  EXPECT_EQ(b.n_block_rows, 14);
  EXPECT_EQ(b.padded_block_rows, 16);
  EXPECT_EQ(b.nnz, a.nnz());
  EXPECT_EQ(b.stored_entries(), b.stored_blocks * 25);
}

class BellpackSpmvSweep
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, int>> {};

TEST_P(BellpackSpmvSweep, MatchesReference) {
  const auto& [br, bc, threads] = GetParam();
  const auto a = random_csr<double>(101, 83, 0, 9, 2);
  const auto b = Bellpack<double>::from_csr(a, br, bc, 8);
  b.validate();
  const auto x = random_vector<double>(83, 3);
  std::vector<double> y(101);
  spmv(b, std::span<const double>(x), std::span<double>(y), threads);
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
}

INSTANTIATE_TEST_SUITE_P(TileShapes, BellpackSpmvSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5),
                                            ::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 4)));

TEST(Bellpack, PerfectTilingOnDlr2LikeMatrix) {
  // DLR2 consists entirely of dense 5x5 subblocks: a 5x5 BELLPACK has no
  // tile fill at all (only ELLPACK-style row padding).
  GenConfig cfg;
  cfg.scale = 64;
  const auto a = make_dlr2<double>(cfg);
  const auto b = Bellpack<double>::from_csr(a, 5, 5, 32);
  b.validate();
  // Tile fill only from the block-row padding, not from within tiles:
  // stored scalars in *used* tiles equal nnz exactly.
  offset_t used_tiles = 0;
  for (index_t I = 0; I < b.n_block_rows; ++I)
    used_tiles += b.block_row_len[static_cast<std::size_t>(I)];
  EXPECT_EQ(used_tiles * 25, a.nnz());
}

TEST(Bellpack, IndexSavingsOnBlockedMatrix) {
  // One column index per tile: for a perfectly 5x5-blocked matrix the
  // index bytes drop by ~25x vs scalar formats.
  GenConfig cfg;
  cfg.scale = 64;
  const auto a = make_dlr2<double>(cfg);
  const auto b = Bellpack<double>::from_csr(a, 5, 5, 32);
  const double idx_per_nnz =
      static_cast<double>(b.block_col.size() * sizeof(index_t)) /
      static_cast<double>(a.nnz());
  // Far below the 4 bytes/nnz of scalar formats even with the
  // ELLPACK-style block-row padding included.
  EXPECT_LT(idx_per_nnz, 0.5);
}

TEST(Bellpack, CatastrophicFillOnUnstructuredMatrix) {
  // The paper's point: blocked formats need a priori structure. On an
  // unstructured sAMG-like matrix, 5x5 tiles store mostly zeros.
  GenConfig cfg;
  cfg.scale = 256;
  const auto a = make_samg<double>(cfg);
  const auto b = Bellpack<double>::from_csr(a, 5, 5, 32);
  EXPECT_GT(b.fill_fraction(), 0.7);
}

TEST(Bellpack, OneByOneTileEqualsEllpack) {
  const auto a = random_csr<double>(64, 64, 0, 8, 4);
  const auto b = Bellpack<double>::from_csr(a, 1, 1, 32);
  const auto e = SlicedEll<double>::ellpack(a, 32);
  EXPECT_EQ(b.stored_entries(), e.stored_entries());
  EXPECT_DOUBLE_EQ(b.fill_fraction(), e.fill_fraction());
}

TEST(Bellpack, RejectsBadTileDims) {
  const auto a = random_csr<double>(10, 10, 1, 2, 5);
  EXPECT_THROW(Bellpack<double>::from_csr(a, 0, 5), Error);
  EXPECT_THROW(Bellpack<double>::from_csr(a, 5, 0), Error);
}

TEST(Bellpack, EmptyMatrix) {
  Coo<double> coo(0, 0);
  const auto b =
      Bellpack<double>::from_csr(Csr<double>::from_coo(std::move(coo)), 4, 4);
  b.validate();
  EXPECT_EQ(b.stored_entries(), 0);
}

TEST(Bellpack, RaggedEdgeTiles) {
  // n_rows / n_cols not multiples of the tile dims: edge tiles clip.
  const auto a = random_csr<double>(13, 17, 1, 5, 6);
  const auto b = Bellpack<double>::from_csr(a, 4, 4, 2);
  b.validate();
  const auto x = random_vector<double>(17, 7);
  std::vector<double> y(13);
  spmv(b, std::span<const double>(x), std::span<double>(y));
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
}

}  // namespace
}  // namespace spmvm
