#include "sparse/sliced_ell.hpp"

#include <gtest/gtest.h>

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
  EXPECT_TRUE(s.perm.is_identity());  // σ = 1
}

TEST(SlicedEll, StoresLessThanEllpack) {
  const auto a = testing::random_csr<double>(256, 256, 1, 32, 2);
  const auto e = SlicedEll<double>::ellpack(a, 32);
  const auto s = SlicedEll<double>::from_csr(a, 32);
  EXPECT_LE(s.stored_entries(), e.stored_entries());
}

TEST(SlicedEll, FullSortMinimizesFill) {
  const auto a = testing::random_csr<double>(256, 256, 1, 32, 3);
  const auto unsorted = SlicedEll<double>::from_csr(a, 32, 1);
  const auto sorted =
      SlicedEll<double>::from_csr(a, 32, a.n_rows, PermuteColumns::no);
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
  for (index_t sigma : {4, 32, 100}) {
    const auto a = testing::random_csr<double>(100, 100, 0, 12, 6);
    const auto s =
        SlicedEll<double>::from_csr(a, 16, sigma, PermuteColumns::no);
    const auto x = testing::random_vector<double>(100, 7);
    std::vector<double> y_perm(100), y(100);
    spmv(s, std::span<const double>(x), std::span<double>(y_perm));
    s.perm.from_permuted<double>(y_perm, y);
    SCOPED_TRACE(::testing::Message() << "sigma=" << sigma);
    testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                         1e-12);
  }
}

TEST(SlicedEll, SpmvSymmetricPermutation) {
  const auto a = testing::random_csr<double>(90, 90, 1, 9, 8);
  const auto s = SlicedEll<double>::from_csr(a, 8, 90, PermuteColumns::yes);
  const auto x = testing::random_vector<double>(90, 9);
  std::vector<double> x_perm(90), y_perm(90), y(90);
  s.perm.to_permuted<double>(x, x_perm);
  spmv(s, std::span<const double>(x_perm), std::span<double>(y_perm));
  s.perm.from_permuted<double>(y_perm, y);
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
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
