#include "sparse/jds.hpp"

#include <gtest/gtest.h>

#include "sparse/spmv_host.hpp"
#include "test_helpers.hpp"

namespace spmvm {
namespace {

TEST(Jds, BuildsNonIncreasingDiagonals) {
  const auto a = testing::random_csr<double>(50, 50, 0, 12, 7);
  const auto j = Jds<double>::from_csr(a);
  j.validate();
  EXPECT_EQ(j.nnz, a.nnz());
  EXPECT_EQ(j.width, a.max_row_len());
}

TEST(Jds, NoStorageOverhead) {
  const auto a = testing::random_csr<double>(64, 64, 0, 9, 8);
  const auto j = Jds<double>::from_csr(a);
  // Classic JDS stores exactly nnz entries — zero fill by construction.
  EXPECT_EQ(j.jd_ptr.back(), a.nnz());
}

TEST(Jds, SpmvMatchesReferenceRowPermutationOnly) {
  const auto a = testing::random_csr<double>(60, 60, 0, 10, 9);
  const auto j = Jds<double>::from_csr(a);
  const auto x = testing::random_vector<double>(60, 10);
  std::vector<double> y_perm(60), y(60);
  spmv(j, std::span<const double>(x), std::span<double>(y_perm));
  j.perm.from_permuted<double>(y_perm, y);
  testing::expect_vectors_near<double>(testing::reference_spmv(a, x), y,
                                       1e-12);
}

TEST(Jds, HandlesEmptyRows) {
  Coo<double> coo(5, 5);
  coo.add(2, 1, 3.0);
  const auto j = Jds<double>::from_csr(Csr<double>::from_coo(std::move(coo)));
  j.validate();
  EXPECT_EQ(j.width, 1);
  EXPECT_EQ(j.diag_len(0), 1);
}

}  // namespace
}  // namespace spmvm
