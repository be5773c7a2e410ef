#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "matgen/generators.hpp"
#include "solver/cg.hpp"
#include "solver/kernels.hpp"
#include "solver/lanczos.hpp"
#include "test_helpers.hpp"

namespace spmvm::solver {
namespace {

using spmvm::testing::random_vector;

TEST(Kernels, DotAxpyScale) {
  std::vector<double> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ((dot<double>(a, b)), 32.0);
  EXPECT_DOUBLE_EQ(norm2<double>(std::span<const double>(b)),
                   std::sqrt(77.0));
  axpy<double>(2.0, a, b);  // b = {6, 9, 12}
  EXPECT_EQ(b, (std::vector<double>{6, 9, 12}));
  scale<double>(0.5, b);
  EXPECT_EQ(b, (std::vector<double>{3, 4.5, 6}));
  xpay<double>(a, 2.0, b);  // b = a + 2b
  EXPECT_EQ(b, (std::vector<double>{7, 11, 15}));
}

TEST(Cg, SolvesPoisson2d) {
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson2d<double>(16, 16));
  const auto op = make_operator<double>(a);
  const auto x_true = random_vector<double>(a->n_rows, 1);
  std::vector<double> b(static_cast<std::size_t>(a->n_rows));
  op.apply(std::span<const double>(x_true), std::span<double>(b));

  std::vector<double> x(b.size(), 0.0);
  const auto r = cg(op, std::span<const double>(b), std::span<double>(x),
                    1e-12, 2000);
  EXPECT_TRUE(r.converged);
  spmvm::testing::expect_vectors_near<double>(x_true, x, 1e-7);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson2d<double>(8, 8));
  const auto op = make_operator<double>(a);
  std::vector<double> b(64, 0.0), x(64, 0.0);
  const auto r = cg(op, std::span<const double>(b), std::span<double>(x));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Cg, ReportsResidualAccurately) {
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson3d<double>(6, 6, 6));
  const auto op = make_operator<double>(a);
  const auto b = random_vector<double>(a->n_rows, 2);
  std::vector<double> x(b.size(), 0.0);
  const auto r = cg(op, std::span<const double>(b), std::span<double>(x),
                    1e-10, 2000);
  ASSERT_TRUE(r.converged);
  // Recompute ||b - A x|| independently.
  std::vector<double> ax(b.size());
  op.apply(std::span<const double>(x), std::span<double>(ax));
  double res = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    res += (b[i] - ax[i]) * (b[i] - ax[i]);
  EXPECT_NEAR(std::sqrt(res), r.residual_norm,
              1e-8 * norm2<double>(std::span<const double>(b)));
}

TEST(Cg, PjdsVariantMatchesCsrSolution) {
  // The paper's workflow: iterate in the permuted pJDS basis, permuting
  // only at entry and exit. The solution must match plain CSR CG.
  const auto csr = make_poisson2d<double>(20, 20);
  const auto b = random_vector<double>(csr.n_rows, 3);

  std::vector<double> x_csr(b.size(), 0.0), x_pjds(b.size(), 0.0);
  const auto a = std::make_shared<const Csr<double>>(csr);
  const auto rc = cg(make_operator<double>(a), std::span<const double>(b),
                     std::span<double>(x_csr), 1e-12, 2000);
  const auto rp =
      cg(make_operator<double>(formats::registry<double>(), "pjds", csr),
         std::span<const double>(b), std::span<double>(x_pjds), 1e-12, 2000);
  EXPECT_TRUE(rc.converged);
  EXPECT_TRUE(rp.converged);
  spmvm::testing::expect_vectors_near<double>(x_csr, x_pjds, 1e-7);
}

TEST(Cg, PjdsUsesNontrivialPermutation) {
  // Ensure the pJDS path actually sorts rows (matrix with varying row
  // lengths), stores them back through its row map, and still solves
  // correctly.
  const auto banded = make_banded<double>(300, 6);
  const auto b = random_vector<double>(300, 4);
  std::vector<double> x(300, 0.0);
  const auto r =
      cg(make_operator<double>(formats::registry<double>(), "pjds", banded),
         std::span<const double>(b), std::span<double>(x), 1e-10, 3000);
  EXPECT_TRUE(r.converged);
  std::vector<double> ax(300);
  spmv(banded, std::span<const double>(x), std::span<double>(ax));
  spmvm::testing::expect_vectors_near<double>(b, ax, 1e-6);
}

TEST(Cg, NonSpdBailsOutGracefully) {
  // Indefinite diagonal matrix: p·Ap goes non-positive; CG must stop
  // without claiming convergence.
  Coo<double> coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, -1.0);
  coo.add(2, 2, 1.0);
  coo.add(3, 3, -2.0);
  const auto a = std::make_shared<const Csr<double>>(
      Csr<double>::from_coo(std::move(coo)));
  const std::vector<double> b = {1, 1, 1, 1};
  std::vector<double> x(4, 0.0);
  const auto r = cg(make_operator<double>(a), std::span<const double>(b),
                    std::span<double>(x), 1e-12, 100);
  EXPECT_FALSE(r.converged);
}

TEST(Tridiag, SingleElement) {
  const double alpha[] = {3.5};
  EXPECT_NEAR(tridiag_max_eigenvalue(alpha, {}), 3.5, 1e-10);
}

TEST(Tridiag, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  const double alpha[] = {2.0, 2.0};
  const double beta[] = {1.0};
  EXPECT_NEAR(tridiag_max_eigenvalue(alpha, beta), 3.0, 1e-10);
}

TEST(Tridiag, LaplacianChain) {
  // Tridiag(-1, 2, -1) of size n: max eigenvalue 2 + 2 cos(pi/(n+1)).
  const int n = 10;
  std::vector<double> alpha(n, 2.0), beta(n - 1, -1.0);
  const double expect = 2.0 + 2.0 * std::cos(M_PI / (n + 1));
  EXPECT_NEAR(tridiag_max_eigenvalue(alpha, beta), expect, 1e-9);
}

TEST(Lanczos, DiagonalMatrixExactValue) {
  Coo<double> coo(50, 50);
  for (index_t i = 0; i < 50; ++i) coo.add(i, i, 1.0 + i * 0.1);
  const auto a = std::make_shared<const Csr<double>>(
      Csr<double>::from_coo(std::move(coo)));
  const auto r = lanczos_max_eigenvalue(make_operator<double>(a), 100, 1e-12);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, 1.0 + 49 * 0.1, 1e-6);
}

TEST(Lanczos, Poisson2dSpectrum) {
  // 5-point stencil on nx x ny: max eigenvalue
  //   4 - 2cos(pi nx/(nx+1)) - 2cos(pi ny/(ny+1)).
  const index_t nx = 12, ny = 12;
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson2d<double>(nx, ny));
  const auto r = lanczos_max_eigenvalue(make_operator<double>(a), 200, 1e-11);
  const double expect = 4.0 - 2.0 * std::cos(M_PI * nx / (nx + 1.0)) -
                        2.0 * std::cos(M_PI * ny / (ny + 1.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, expect, 1e-5);
}

TEST(Lanczos, PermutedPjdsBasisGivesSameEigenvalue) {
  // Eigenvalues are basis-independent: Lanczos on P·A·Pᵀ must agree with
  // Lanczos on A — the HMEp eigensolver use case.
  GenConfig cfg;
  cfg.scale = 4096;
  auto hmep = make_hmep<double>(cfg);
  // Symmetrize (Lanczos needs symmetry): A := (A + Aᵀ) via add_symmetric.
  Coo<double> coo(hmep.n_rows, hmep.n_cols);
  for (index_t i = 0; i < hmep.n_rows; ++i)
    for (offset_t k = hmep.row_ptr[static_cast<std::size_t>(i)];
         k < hmep.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t c = hmep.col_idx[static_cast<std::size_t>(k)];
      if (c >= i)
        coo.add_symmetric(i, c, hmep.val[static_cast<std::size_t>(k)]);
    }
  const auto sym = std::make_shared<const Csr<double>>(
      Csr<double>::from_coo(std::move(coo)));

  // Permuted once up front (P·A·Pᵀ), as a solver iterating in the pJDS
  // basis does; the eigenvalues do not change.
  const auto r_csr =
      lanczos_max_eigenvalue(make_operator<double>(sym), 300, 1e-10);
  const auto r_pjds = lanczos_max_eigenvalue(
      make_operator<double>(
          formats::registry<double>(), "pjds",
          spmvm::testing::sorted_symmetric(*sym, sym->n_rows)),
      300, 1e-10);
  EXPECT_TRUE(r_csr.converged);
  EXPECT_TRUE(r_pjds.converged);
  EXPECT_NEAR(r_csr.eigenvalue, r_pjds.eigenvalue,
              1e-4 * std::abs(r_csr.eigenvalue));
}

TEST(Operator, RejectsShortVectors) {
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson2d<double>(4, 4));
  const auto op = make_operator<double>(a);
  std::vector<double> x(8), y(16);
  EXPECT_THROW(op.apply(std::span<const double>(x), std::span<double>(y)),
               Error);
}

TEST(Operator, RowSortedPlanRequiresPermutedColumns) {
  // A plan that stores y in sorted row order reads x in another basis
  // than it writes y; the operator factory must reject it. jds is the
  // one such plan: the sorted SELL-C-σ presets write y through their row
  // map and apply in the original basis.
  const auto a = make_poisson2d<double>(4, 4);
  const std::shared_ptr<const formats::FormatPlan<double>> jds =
      formats::registry<double>().build("jds", a);
  ASSERT_NE(jds->permutation(), nullptr);
  EXPECT_THROW(make_operator<double>(jds), Error);

  const std::shared_ptr<const formats::FormatPlan<double>> pjds =
      formats::registry<double>().build("pjds", a);
  ASSERT_EQ(pjds->permutation(), nullptr);
  const auto op = make_operator<double>(pjds);
  const auto x = spmvm::testing::random_vector<double>(a.n_cols, 3);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  op.apply(std::span<const double>(x), std::span<double>(y));
  spmvm::testing::expect_vectors_near<double>(
      spmvm::testing::reference_spmv(a, x), y, 1e-13);
}

}  // namespace
}  // namespace spmvm::solver

namespace spmvm::solver {
namespace {

TEST(TridiagMin, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  const double alpha[] = {2.0, 2.0};
  const double beta[] = {1.0};
  EXPECT_NEAR(tridiag_min_eigenvalue(alpha, beta), 1.0, 1e-9);
}

TEST(TridiagMin, LaplacianChain) {
  const int n = 10;
  std::vector<double> alpha(n, 2.0), beta(n - 1, -1.0);
  const double expect = 2.0 - 2.0 * std::cos(M_PI / (n + 1));
  EXPECT_NEAR(tridiag_min_eigenvalue(alpha, beta), expect, 1e-8);
}

TEST(LanczosMin, Poisson2dSmallestEigenvalue) {
  const index_t nx = 10, ny = 10;
  const auto a = std::make_shared<const Csr<double>>(
      make_poisson2d<double>(nx, ny));
  const auto r =
      lanczos_min_eigenvalue(make_operator<double>(a), 300, 1e-11);
  const double expect = 4.0 - 2.0 * std::cos(M_PI / (nx + 1.0)) -
                        2.0 * std::cos(M_PI / (ny + 1.0));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.eigenvalue, expect, 1e-5);
}

TEST(LanczosMin, ConditionNumberOfSpdSystem) {
  // kappa = lambda_max / lambda_min of a banded SPD matrix must be
  // finite and > 1 — the quantity that governs CG iteration counts.
  const auto a = std::make_shared<const Csr<double>>(
      make_banded<double>(200, 4));
  const auto op = make_operator<double>(a);
  const auto hi = lanczos_max_eigenvalue(op, 300, 1e-10);
  const auto lo = lanczos_min_eigenvalue(op, 300, 1e-10);
  ASSERT_TRUE(hi.converged);
  ASSERT_TRUE(lo.converged);
  EXPECT_GT(lo.eigenvalue, 0.0);  // SPD
  EXPECT_GT(hi.eigenvalue, lo.eigenvalue);
}

}  // namespace
}  // namespace spmvm::solver
