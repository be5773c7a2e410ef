#include "sparse/convert.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "formats/registry.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace spmvm {
namespace {

TEST(PermuteCsr, RowOnlyReordersRows) {
  const auto a = testing::random_csr<double>(20, 30, 1, 5, 11);
  const auto p = Permutation::from_new_to_old([] {
    std::vector<index_t> v(20);
    for (index_t i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = 19 - i;
    return v;
  }());
  const auto b = permute_csr(a, p, PermuteColumns::no);
  b.validate();
  for (index_t r = 0; r < 20; ++r)
    EXPECT_EQ(b.dense_row(r), a.dense_row(19 - r));
}

TEST(PermuteCsr, SymmetricPermutationPreservesProduct) {
  // (P A Pᵀ)(P x) == P (A x) — the identity that lets solvers iterate in
  // the permuted basis.
  const auto a = testing::random_csr<double>(40, 40, 1, 6, 13);
  std::vector<index_t> lens(40);
  for (index_t i = 0; i < 40; ++i)
    lens[static_cast<std::size_t>(i)] = a.row_len(i);
  const auto p = Permutation::sort_descending(lens, 40);
  const auto b = permute_csr(a, p, PermuteColumns::yes);
  b.validate();

  const auto x = testing::random_vector<double>(40, 17);
  std::vector<double> x_perm(40);
  p.to_permuted<double>(x, x_perm);

  const auto y_ref = testing::reference_spmv(a, x);
  const auto y_perm = testing::reference_spmv(b, x_perm);
  std::vector<double> y_back(40);
  p.from_permuted<double>(y_perm, y_back);
  testing::expect_vectors_near<double>(y_ref, y_back, 1e-12);
}

TEST(PermuteCsr, SymmetricRequiresSquare) {
  const auto a = testing::random_csr<double>(4, 5, 1, 2, 1);
  const auto p = Permutation::identity(4);
  EXPECT_THROW(permute_csr(a, p, PermuteColumns::yes), Error);
}

TEST(PermuteCsr, IdentityIsNoop) {
  const auto a = testing::random_csr<double>(25, 25, 0, 7, 19);
  const auto b = permute_csr(a, Permutation::identity(25), PermuteColumns::yes);
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(Transpose, InvolutionRestoresMatrix) {
  const auto a = testing::random_csr<double>(30, 45, 0, 9, 23);
  const auto t = transpose(a);
  t.validate();
  EXPECT_EQ(t.n_rows, 45);
  EXPECT_EQ(t.n_cols, 30);
  EXPECT_TRUE(structurally_equal(a, transpose(t)));
}

TEST(Transpose, MatchesDenseTranspose) {
  const auto a = testing::random_csr<double>(8, 6, 0, 4, 29);
  const auto t = transpose(a);
  for (index_t i = 0; i < a.n_rows; ++i) {
    const auto row = a.dense_row(i);
    for (index_t j = 0; j < a.n_cols; ++j)
      EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(j)],
                       t.dense_row(j)[static_cast<std::size_t>(i)]);
  }
}

TEST(IsSymmetric, DetectsSymmetry) {
  Coo<double> coo(3, 3);
  coo.add_symmetric(0, 1, 2.0);
  coo.add(2, 2, 1.0);
  const auto sym = Csr<double>::from_coo(std::move(coo));
  EXPECT_TRUE(is_symmetric(sym));

  Coo<double> coo2(3, 3);
  coo2.add(0, 1, 2.0);
  const auto asym = Csr<double>::from_coo(std::move(coo2));
  EXPECT_FALSE(is_symmetric(asym));
}

TEST(IsSymmetric, NonSquareIsNever) {
  const auto a = testing::random_csr<double>(3, 4, 1, 2, 31);
  EXPECT_FALSE(is_symmetric(a));
}

// ---- registry-wide properties: CSR -> plan -> spMVM/to_csr ---------------

/// Apply the plan in the *original* basis: carry x/y across the row
/// permutation when the plan has one.
std::vector<double> plan_apply(const formats::FormatPlan<double>& plan,
                               const Csr<double>& a,
                               const std::vector<double>& x) {
  const Permutation* perm = plan.permutation();
  std::vector<double> xb = x;
  std::vector<double> yb(static_cast<std::size_t>(a.n_rows));
  if (perm != nullptr && plan.columns_permuted())
    perm->to_permuted<double>(x, xb);
  plan.spmv(std::span<const double>(xb), std::span<double>(yb));
  if (perm == nullptr) return yb;
  std::vector<double> y(yb.size());
  perm->from_permuted<double>(yb, y);
  return y;
}

std::vector<Csr<double>> property_matrices() {
  std::vector<Csr<double>> ms;
  ms.push_back(testing::random_csr<double>(64, 64, 0, 9, 41));
  ms.push_back(testing::random_csr<double>(50, 70, 1, 6, 43));  // rectangular
  ms.push_back(testing::random_csr<double>(33, 33, 0, 17, 47));  // ragged
  GenConfig cfg;
  cfg.scale = 512;
  ms.push_back(make_samg<double>(cfg));
  return ms;
}

TEST(FormatRegistry, EveryPlanMatchesReferenceSpmv) {
  const auto& reg = formats::registry<double>();
  for (const auto& a : property_matrices()) {
    const auto x = testing::random_vector<double>(a.n_cols, 53);
    const auto y_ref = testing::reference_spmv(a, x);
    for (const formats::FormatInfo& info : reg.list()) {
      if (std::string_view(info.name) == "auto") continue;
      SCOPED_TRACE(std::string(info.name) + " " + std::to_string(a.n_rows) +
                   "x" + std::to_string(a.n_cols));
      const auto plan = reg.build(info.name, a);
      EXPECT_EQ(plan->n_rows(), a.n_rows);
      EXPECT_EQ(plan->n_cols(), a.n_cols);
      EXPECT_EQ(plan->nnz(), a.nnz());
      testing::expect_vectors_near<double>(y_ref, plan_apply(*plan, a, x),
                                           1e-11);
    }
  }
}

TEST(FormatRegistry, EveryPlanRecoversCsr) {
  const auto& reg = formats::registry<double>();
  for (const auto& a : property_matrices()) {
    const auto x = testing::random_vector<double>(a.n_cols, 59);
    const auto y_ref = testing::reference_spmv(a, x);
    for (const formats::FormatInfo& info : reg.list()) {
      if (std::string_view(info.name) == "auto") continue;
      SCOPED_TRACE(info.name);
      const Csr<double> back = reg.build(info.name, a)->to_csr();
      back.validate();
      EXPECT_EQ(back.n_rows, a.n_rows);
      EXPECT_EQ(back.n_cols, a.n_cols);
      // Recovery drops the fill and undoes permutations, so the product
      // must match the original exactly (fill contributes 0·x anyway).
      testing::expect_vectors_near<double>(
          y_ref, testing::reference_spmv(back, x), 1e-12);
    }
  }
}

TEST(FormatRegistry, NativeAxpbyMatchesApplyPlusBlas1) {
  // y = beta*y0 + alpha*A*x: formats with a fused kernel must agree with
  // the two-pass fallback, and the spmv_axpby return value must match
  // the advertised capability.
  const auto& reg = formats::registry<double>();
  const double alpha = 0.75, beta = -1.25;
  for (const auto& a : property_matrices()) {
    if (a.n_rows != a.n_cols) continue;  // axpby consumers are square-only
    const auto n = static_cast<std::size_t>(a.n_rows);
    const auto x = testing::random_vector<double>(a.n_rows, 61);
    const auto y0 = testing::random_vector<double>(a.n_rows, 67);
    for (const formats::FormatInfo& info : reg.list()) {
      if (std::string_view(info.name) == "auto") continue;
      SCOPED_TRACE(info.name);
      const auto plan = reg.build(info.name, a);

      // Both passes work in the plan's own basis.
      std::vector<double> ax(n);
      plan->spmv(std::span<const double>(x), std::span<double>(ax));
      std::vector<double> expected(n);
      for (std::size_t i = 0; i < n; ++i)
        expected[i] = beta * y0[i] + alpha * ax[i];

      std::vector<double> y = y0;
      const bool fused = plan->spmv_axpby(std::span<const double>(x),
                                          std::span<double>(y), alpha, beta);
      EXPECT_EQ(fused, info.native_axpby);
      if (fused)
        testing::expect_vectors_near<double>(expected, y, 1e-11);
      else
        testing::expect_vectors_near<double>(y0, y, 0.0);  // left untouched
    }
  }
}

TEST(FormatRegistry, AutoSelectionIsDeterministicPerMatrixClass) {
  // With the probe disabled the auto plan ranks candidates purely by the
  // Eq. 1 code balance of their sized footprints — bit-identical across
  // runs, so the choice per Table I matrix class is testable.
  formats::PlanOptions opt;
  opt.probe = false;
  struct Item {
    const char* name;
    double scale;
  };
  for (const auto& [name, scale] :
       {Item{"DLR1", 64}, Item{"HMEp", 128}, Item{"sAMG", 128}}) {
    SCOPED_TRACE(name);
    const auto a = make_named(name, scale).matrix;
    const auto plan = formats::registry<double>().build("auto", a, opt);
    const formats::AutoChoice* c = plan->auto_choice();
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->chosen.empty());
    ASSERT_LT(c->chosen_index, c->candidates.size());
    EXPECT_EQ(c->chosen, c->candidates[c->chosen_index].name);
    EXPECT_EQ(c->chosen_index, c->model_index);  // no probe override
    // The chosen format must actually be registered and buildable.
    EXPECT_NE(formats::registry<double>().find(c->chosen), nullptr);

    // Same inputs, same choice.
    const auto again = formats::registry<double>().build("auto", a, opt);
    EXPECT_EQ(again->auto_choice()->chosen, c->chosen);

    // The winner delegates: the auto plan computes the same product.
    const auto x = testing::random_vector<double>(a.n_cols, 71);
    testing::expect_vectors_near<double>(
        testing::reference_spmv(a, x), plan_apply(*plan, a, x), 1e-11);
  }
}

}  // namespace
}  // namespace spmvm
