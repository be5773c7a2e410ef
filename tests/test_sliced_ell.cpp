#include "sparse/sliced_ell.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "matgen/suite.hpp"
#include "sparse/convert.hpp"
#include "sparse/jds.hpp"
#include "sparse/spmv_host.hpp"
#include "test_helpers.hpp"

namespace spmvm {
namespace {

TEST(SlicedEll, SliceGeometry) {
  const auto a = testing::random_csr<double>(70, 70, 0, 8, 1);
  const auto s = SlicedEll<double>::from_csr(a, 32);
  s.validate();
  EXPECT_EQ(s.n_slices, 3);
  EXPECT_EQ(s.padded_rows, 96);
  EXPECT_EQ(s.perm.new_to_old(),  // σ = 1
            Permutation::identity(a.n_rows).new_to_old());
  EXPECT_EQ(s.row_map(), nullptr);
}

TEST(SlicedEll, StoresLessThanEllpack) {
  const auto a = testing::random_csr<double>(256, 256, 1, 32, 2);
  const auto e = testing::ellpack_image(a, 32);
  const auto s = SlicedEll<double>::from_csr(a, 32);
  EXPECT_LE(s.stored_entries(), e.stored_entries());
}

TEST(SlicedEll, FullSortMinimizesFill) {
  const auto a = testing::random_csr<double>(256, 256, 1, 32, 3);
  const auto unsorted = SlicedEll<double>::from_csr(a, 32, 1);
  const auto sorted = SlicedEll<double>::from_csr(a, 32, a.n_rows);
  EXPECT_LE(sorted.stored_entries(), unsorted.stored_entries());
}

TEST(SlicedEll, SpmvMatchesReferenceUnsorted) {
  const auto a = testing::random_csr<double>(100, 100, 0, 12, 4);
  const auto s = SlicedEll<double>::from_csr(a, 16);
  const auto x = testing::random_vector<double>(100, 5);
  std::vector<double> y(100);
  spmv(s, std::span<const double>(x), std::span<double>(y));
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
}

TEST(SlicedEll, SpmvMatchesReferenceSortedWindows) {
  // Columns keep their labels: the sorted image reads x and writes y in
  // the original basis, storing image row r at y[old_of(r)].
  for (index_t sigma : {4, 32, 100}) {
    const auto a = testing::random_csr<double>(100, 100, 0, 12, 6);
    const auto s = SlicedEll<double>::from_csr(a, 16, sigma);
    ASSERT_EQ(s.row_map(), s.perm.new_to_old().data());
    const auto x = testing::random_vector<double>(100, 7);
    std::vector<double> y(100);
    spmv(s, std::span<const double>(x), std::span<double>(y));
    SCOPED_TRACE(::testing::Message() << "sigma=" << sigma);
    testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                         1e-12);
  }
}

/// Matrices of the in-place build checks: random, degenerate, and the
/// paper's DLR1, HMEp and sAMG at small scale.
std::vector<std::pair<std::string, Csr<double>>> build_matrices() {
  std::vector<std::pair<std::string, Csr<double>>> m;
  m.emplace_back("random", testing::random_csr<double>(300, 300, 0, 40, 11));
  m.emplace_back("0x0", Csr<double>::from_coo(Coo<double>(0, 0)));
  m.emplace_back("all rows empty", Csr<double>::from_coo(Coo<double>(40, 40)));
  Coo<double> dense(45, 45);
  for (index_t i = 0; i < 45; ++i) {
    if (i == 11)
      for (index_t j = 0; j < 45; ++j) dense.add(i, j, 0.5 + j);
    else
      dense.add(i, (7 * i) % 45, 1.0 + i);
  }
  m.emplace_back("one dense row", Csr<double>::from_coo(std::move(dense)));
  m.emplace_back("n < C", testing::random_csr<double>(13, 13, 1, 5, 12));
  m.emplace_back("tall", testing::random_csr<double>(170, 90, 0, 12, 13));
  m.emplace_back("wide", testing::random_csr<double>(90, 170, 0, 12, 14));
  const std::pair<const char*, double> named[] = {
      {"DLR1", 1024}, {"HMEp", 2048}, {"sAMG", 1024}};
  for (const auto& [name, scale] : named)
    m.emplace_back(name, make_named(name, scale).matrix);
  return m;
}

TEST(SlicedEll, SortedBuildReadsCsrInPlaceLikeTheCopy) {
  // A sorted build gathers each row straight from the CSR. Its image
  // must equal the one laid out from permute_csr's row-permuted copy,
  // array by array.
  for (const auto& [name, a] : build_matrices()) {
    const std::pair<index_t, index_t> shapes[] = {
        {8, 3}, {32, 256}, {32, std::max<index_t>(a.n_rows, 1)}};
    for (const auto& [c, sigma] : shapes) {
      SCOPED_TRACE(name + " C=" + std::to_string(c) +
                   " sigma=" + std::to_string(sigma));
      const auto s = SlicedEll<double>::from_csr(a, c, sigma);
      const auto copy = SlicedEll<double>::from_csr(
          permute_csr(a, s.perm, PermuteColumns::no), c, 1);
      s.validate();
      EXPECT_EQ(s.n_slices, copy.n_slices);
      EXPECT_EQ(s.padded_rows, copy.padded_rows);
      EXPECT_EQ(s.nnz, copy.nnz);
      EXPECT_EQ(s.slice_ptr, copy.slice_ptr);
      EXPECT_EQ(s.row_len, copy.row_len);
      EXPECT_EQ(s.col_idx, copy.col_idx);
      EXPECT_EQ(s.val, copy.val);
    }
  }
}

TEST(SlicedEll, JdsBuildReadsCsrInPlaceLikeTheCopy) {
  for (const auto& [name, a] : build_matrices()) {
    SCOPED_TRACE(name);
    const auto j = Jds<double>::from_csr(a);
    // The copy's rows are already sorted: its stable sort keeps them.
    const auto copy =
        Jds<double>::from_csr(permute_csr(a, j.perm, PermuteColumns::no));
    j.validate();
    ASSERT_EQ(copy.perm.new_to_old(),
              Permutation::identity(a.n_rows).new_to_old());
    EXPECT_EQ(j.width, copy.width);
    EXPECT_EQ(j.nnz, copy.nnz);
    EXPECT_EQ(j.jd_ptr, copy.jd_ptr);
    EXPECT_EQ(j.row_len, copy.row_len);
    EXPECT_EQ(j.col_idx, copy.col_idx);
    EXPECT_EQ(j.val, copy.val);
  }
}

TEST(SlicedEll, SliceHeightOneIsCsrLike) {
  const auto a = testing::random_csr<double>(40, 40, 0, 7, 10);
  const auto s = SlicedEll<double>::from_csr(a, 1);
  // Each slice is one row padded to itself: zero fill.
  EXPECT_EQ(s.stored_entries(), a.nnz());
  EXPECT_DOUBLE_EQ(s.fill_fraction(), 0.0);
}

}  // namespace
}  // namespace spmvm
