// The `auto` plan's sizing contract: every concrete registry format's
// sizer reports exactly the footprint of the plan its builder returns,
// ranking from those sizes at α = 1/N_nzr reproduces the ranking of
// built plans at the simulator's α, auto builds only the candidates it
// probes, and the probe times them in interleaved rounds.
#include "formats/auto_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "formats/registry.hpp"
#include "matgen/suite.hpp"
#include "perfmodel/balance.hpp"
#include "test_helpers.hpp"
#include "util/timer.hpp"

namespace spmvm::formats {
namespace {

using spmvm::testing::random_csr;

struct Named {
  std::string name;
  Csr<double> a;
};

/// Diagonal plus one fully dense row.
Csr<double> one_dense_row(index_t n, index_t dense) {
  Coo<double> coo(n, n);
  for (index_t i = 0; i < n; ++i)
    if (i != dense) coo.add(i, i, 1.0 + i);
  for (index_t j = 0; j < n; ++j) coo.add(dense, j, 2.0 + j);
  return Csr<double>::from_coo(std::move(coo));
}

std::vector<Named> sizing_matrices() {
  std::vector<Named> m;
  m.push_back({"random square", random_csr<double>(300, 300, 0, 20, 3)});
  m.push_back({"random non-square", random_csr<double>(170, 90, 0, 12, 5)});
  m.push_back({"all rows empty", Csr<double>::from_coo(Coo<double>(40, 40))});
  m.push_back({"one dense row", one_dense_row(97, 41)});
  m.push_back({"n_rows < chunk", random_csr<double>(13, 13, 1, 5, 7)});
  m.push_back({"2500 rows", random_csr<double>(2500, 2500, 0, 30, 9)});
  // Row lengths spanning more than 256 within one sort window: the
  // row-length sort needs a second radix digit.
  m.push_back({"lengths 0..520", random_csr<double>(520, 600, 0, 520, 13)});
  for (const auto& [name, scale] :
       std::vector<std::pair<std::string, double>>{{"DLR1", 1024},
                                                   {"DLR2", 2048},
                                                   {"HMEp", 2048},
                                                   {"sAMG", 1024},
                                                   {"UHBR", 8192}})
    m.push_back({name, make_named(name, scale).matrix});
  return m;
}

std::vector<std::pair<std::string, PlanOptions>> sizing_options() {
  std::vector<std::pair<std::string, PlanOptions>> o(5);
  o[0].first = "default";
  o[1].first = "chunk 8";
  o[1].second.chunk = 8;
  o[2].first = "sort_window 64";
  o[2].second.sort_window = 64;
  o[3].first = "block 2x3";
  o[3].second.block_r = 2;
  o[3].second.block_c = 3;
  o[4].first = "permute_columns no";
  o[4].second.permute_columns = PermuteColumns::no;
  return o;
}

TEST(FormatSizing, MatchesBuiltFootprint) {
  const auto& reg = registry<double>();
  std::size_t sized_formats = 0;
  for (const auto& e : reg.entries())
    if (e.size != nullptr) ++sized_formats;
    else EXPECT_STREQ(e.info.name, "auto");  // the only entry without one
  EXPECT_EQ(sized_formats, 8u);

  for (const Named& m : sizing_matrices())
    for (const auto& [option, opts] : sizing_options())
      for (const auto& e : reg.entries()) {
        if (e.size == nullptr) continue;
        SCOPED_TRACE(m.name + " / " + option + " / " + e.info.name);
        const Footprint sized = e.size(m.a, opts);
        const Footprint built = e.builder(m.a, opts, e.info)->footprint();
        EXPECT_EQ(sized.stored_entries, built.stored_entries);
        EXPECT_EQ(sized.index_entries, built.index_entries);
        EXPECT_EQ(sized.true_nnz, built.true_nnz);
        EXPECT_EQ(sized.aux_bytes, built.aux_bytes);
      }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Candidate indices ranked by balance, registry order on ties.
std::vector<std::size_t> rank_by(const std::vector<double>& balance) {
  std::vector<std::size_t> order(balance.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t l, std::size_t r) {
                     return balance[l] < balance[r];
                   });
  return order;
}

TEST(AutoSelect, RankingMatchesBuildingEveryCandidate) {
  const auto& reg = registry<double>();
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tesla_c2070();
  PlanOptions opts;
  opts.probe = false;
  std::vector<Named> mats;
  mats.push_back({"random square", random_csr<double>(300, 300, 0, 20, 3)});
  mats.push_back({"random non-square", random_csr<double>(170, 90, 1, 12, 5)});
  mats.push_back({"one dense row", one_dense_row(97, 41)});
  for (const char* name : {"DLR1", "DLR2", "HMEp", "sAMG", "UHBR"})
    mats.push_back({name, make_named(name, 1024).matrix});

  for (const Named& m : mats) {
    SCOPED_TRACE(m.name);
    // Build every candidate, and measure α on the built ELLPACK-R plan
    // with the L2 simulator.
    std::vector<std::shared_ptr<const FormatPlan<double>>> plans;
    double alpha_sim = 0.0;
    for (const auto& e : reg.entries()) {
      if (std::string(e.info.name) == "auto") continue;
      plans.push_back(reg.build(e.info.name, m.a, opts));
      if (std::string(e.info.name) == "ellpack_r")
        alpha_sim = plans.back()->simulate(dev)->stats.measured_alpha(
            sizeof(double));
    }
    ASSERT_GT(alpha_sim, 0.0);
    const auto balances = [&](double alpha) {
      std::vector<double> b;
      for (const auto& p : plans)
        b.push_back(perfmodel::code_balance_stored(
            p->footprint().total_bytes(sizeof(double)),
            static_cast<std::size_t>(m.a.nnz()),
            static_cast<std::size_t>(m.a.n_rows), sizeof(double), alpha));
      return b;
    };
    const std::vector<double> balance =
        balances(perfmodel::alpha_ideal(m.a.avg_row_len()));
    const std::vector<std::size_t> order = rank_by(balance);

    std::shared_ptr<const FormatPlan<double>> chosen;
    const AutoChoice c = choose_format(reg, m.a, opts, &chosen);
    ASSERT_EQ(c.candidates.size(), plans.size());
    std::vector<double> auto_balance;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(c.candidates[i].name, plans[i]->info().name);
      EXPECT_EQ(bits(c.candidates[i].balance), bits(balance[i]))
          << c.candidates[i].name;
      EXPECT_EQ(c.candidates[i].probe_seconds, -1.0);
      auto_balance.push_back(c.candidates[i].balance);
    }
    // The ranking at the simulated α is the ranking at 1/N_nzr.
    EXPECT_EQ(rank_by(auto_balance), order);
    EXPECT_EQ(rank_by(balances(alpha_sim)), order);
    EXPECT_EQ(c.model_index, order.front());
    EXPECT_EQ(c.chosen_index, c.model_index);
    EXPECT_EQ(c.chosen, plans[order.front()]->info().name);
    ASSERT_NE(chosen, nullptr);
    EXPECT_EQ(chosen->info().name, c.chosen);
  }
}

// A private registry whose builders wrap the built-ins, count builds and
// log every single-vector product of the plans they return.
constexpr std::size_t kBuiltins = 9;  // eight formats + auto
std::map<std::string, int> g_builds;
std::vector<std::string> g_products;

class LoggingPlan final : public FormatPlan<double> {
 public:
  explicit LoggingPlan(std::unique_ptr<FormatPlan<double>> inner)
      : inner_(std::move(inner)) {}
  const FormatInfo& info() const override { return inner_->info(); }
  index_t n_rows() const override { return inner_->n_rows(); }
  index_t n_cols() const override { return inner_->n_cols(); }
  offset_t nnz() const override { return inner_->nnz(); }
  Footprint footprint() const override { return inner_->footprint(); }
  Csr<double> to_csr() const override { return inner_->to_csr(); }
  void spmv(std::span<const double> x, std::span<double> y,
            int n_threads) const override {
    g_products.push_back(info().name);
    inner_->spmv(x, y, n_threads);
  }

 private:
  std::unique_ptr<FormatPlan<double>> inner_;
};

template <std::size_t I>
std::unique_ptr<FormatPlan<double>> counting_builder(const Csr<double>& a,
                                                     const PlanOptions& opts,
                                                     const FormatInfo& info) {
  ++g_builds[info.name];
  return std::make_unique<LoggingPlan>(
      registry<double>().entries()[I].builder(a, opts, info));
}

template <std::size_t... I>
void register_counting(FormatRegistry<double>& reg,
                       std::index_sequence<I...>) {
  const auto& builtins = registry<double>().entries();
  ((builtins[I].size != nullptr
        ? reg.register_format(builtins[I].info, &counting_builder<I>,
                              builtins[I].size)
        : void()),
   ...);
}

/// Candidate names ranked by model balance, registry order on ties.
std::vector<std::string> ranked(const AutoChoice& c) {
  std::vector<double> balance;
  for (const AutoCandidate& x : c.candidates) balance.push_back(x.balance);
  std::vector<std::string> names;
  for (const std::size_t i : rank_by(balance))
    names.push_back(c.candidates[i].name);
  return names;
}

TEST(AutoSelect, BuildsOnlyProbedCandidates) {
  ASSERT_EQ(registry<double>().entries().size(), kBuiltins);
  FormatRegistry<double> reg;
  register_counting(reg, std::make_index_sequence<kBuiltins>{});
  ASSERT_EQ(reg.entries().size(), 8u);
  const auto a = random_csr<double>(400, 400, 0, 24, 11);

  // Builds per format for one selection, and the selection itself.
  const auto select = [&](const PlanOptions& opts) {
    g_builds.clear();
    std::shared_ptr<const FormatPlan<double>> chosen;
    const AutoChoice c = choose_format(reg, a, opts, &chosen);
    EXPECT_NE(chosen, nullptr);
    return std::make_pair(g_builds, c);
  };
  PlanOptions opts;
  opts.probe_min_seconds = 0.0;
  opts.probe_reps = 1;

  {
    SCOPED_TRACE("probe off");
    opts.probe = false;
    const auto [builds, c] = select(opts);
    std::map<std::string, int> want{{c.candidates[c.model_index].name, 1}};
    EXPECT_EQ(builds, want);
  }
  {
    SCOPED_TRACE("two probed");
    opts.probe = true;
    opts.probe_candidates = 2;
    const auto [builds, c] = select(opts);
    const std::vector<std::string> r = ranked(c);
    std::map<std::string, int> want{{r[0], 1}, {r[1], 1}};
    EXPECT_EQ(builds, want);
    for (const AutoCandidate& k : c.candidates)
      EXPECT_EQ(k.probe_seconds >= 0.0, k.name == r[0] || k.name == r[1])
          << k.name;
  }
  {
    SCOPED_TRACE("all probed");
    opts.probe_candidates = 0;
    const auto [builds, c] = select(opts);
    std::map<std::string, int> want;
    for (const AutoCandidate& k : c.candidates) want[k.name] = 1;
    EXPECT_EQ(builds.size(), 8u);
    EXPECT_EQ(builds, want);
  }
}

TEST(AutoSelect, ProbeTimesCandidatesInInterleavedRounds) {
  FormatRegistry<double> reg;
  register_counting(reg, std::make_index_sequence<kBuiltins>{});
  const auto a = random_csr<double>(400, 400, 0, 24, 11);
  PlanOptions opts;
  opts.probe_min_seconds = 0.0;
  opts.probe_reps = 4;

  // Per candidate, in rank order: one warm-up product, then one product
  // per round, round-robin, until each has probe_reps timed products.
  for (const int k : {1, 2, 3}) {
    SCOPED_TRACE("probe_candidates " + std::to_string(k));
    opts.probe_candidates = k;
    g_products.clear();
    const AutoChoice c = choose_format(reg, a, opts);
    const std::vector<std::string> r = ranked(c);
    const auto kk = static_cast<std::size_t>(k);
    ASSERT_EQ(g_products.size(), kk * (1 + 4));
    for (std::size_t j = 0; j < g_products.size(); ++j)
      EXPECT_EQ(g_products[j], r[j % kk]) << "product " << j;
    for (std::size_t j = 0; j < r.size(); ++j) {
      const auto it = std::find_if(
          c.candidates.begin(), c.candidates.end(),
          [&](const AutoCandidate& x) { return x.name == r[j]; });
      EXPECT_EQ(it->probe_seconds >= 0.0, j < kk) << r[j];
    }
  }

  // A time budget adds whole rounds: the order stays round-robin and
  // the rounds last at least probe_min_seconds per candidate.
  opts.probe_candidates = 2;
  opts.probe_reps = 1;
  opts.probe_min_seconds = 0.005;
  g_products.clear();
  const Timer t;
  const AutoChoice c = choose_format(reg, a, opts);
  EXPECT_GE(t.seconds(), 2 * opts.probe_min_seconds);
  const std::vector<std::string> r = ranked(c);
  EXPECT_GT(g_products.size(), 2u * (1 + 1));
  EXPECT_EQ(g_products.size() % 2, 0u);
  for (std::size_t j = 0; j < g_products.size(); ++j)
    ASSERT_EQ(g_products[j], r[j % 2]) << "product " << j;
}

}  // namespace
}  // namespace spmvm::formats
