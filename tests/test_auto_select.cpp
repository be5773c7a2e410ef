// The `auto` plan's sizing contract: every concrete registry format's
// sizer reports exactly the footprint of the plan its builder returns,
// ranking from those sizes reproduces ranking from built plans bit for
// bit, and auto builds only the α reference and the probed candidates.
#include "formats/auto_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "formats/registry.hpp"
#include "matgen/suite.hpp"
#include "perfmodel/balance.hpp"
#include "test_helpers.hpp"

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
    // Build every candidate and measure α on the built ELLPACK-R plan.
    std::vector<std::shared_ptr<const FormatPlan<double>>> plans;
    double alpha = 0.0;
    for (const auto& e : reg.entries()) {
      if (std::string(e.info.name) == "auto") continue;
      plans.push_back(reg.build(e.info.name, m.a, opts));
      if (std::string(e.info.name) == "ellpack_r")
        alpha = plans.back()->simulate(dev)->stats.measured_alpha(
            sizeof(double));
    }
    std::vector<double> balance;
    for (const auto& p : plans)
      balance.push_back(perfmodel::code_balance_stored(
          p->footprint().total_bytes(sizeof(double)),
          static_cast<std::size_t>(m.a.nnz()),
          static_cast<std::size_t>(m.a.n_rows), sizeof(double), alpha));
    std::vector<std::size_t> order(plans.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t l, std::size_t r) {
                       return balance[l] < balance[r];
                     });

    std::shared_ptr<const FormatPlan<double>> chosen;
    const AutoChoice c = choose_format(reg, m.a, opts, &chosen);
    EXPECT_EQ(bits(c.alpha_measured), bits(alpha));
    ASSERT_EQ(c.candidates.size(), plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(c.candidates[i].name, plans[i]->info().name);
      EXPECT_EQ(bits(c.candidates[i].balance), bits(balance[i]))
          << c.candidates[i].name;
      EXPECT_EQ(c.candidates[i].probe_seconds, -1.0);
    }
    EXPECT_EQ(c.model_index, order.front());
    EXPECT_EQ(c.chosen_index, c.model_index);
    EXPECT_EQ(c.chosen, plans[order.front()]->info().name);
    ASSERT_NE(chosen, nullptr);
    EXPECT_EQ(chosen->info().name, c.chosen);
  }
}

// A private registry whose builders wrap the built-ins and count calls.
constexpr std::size_t kBuiltins = 9;  // eight formats + auto
std::map<std::string, int> g_builds;

template <std::size_t I>
std::unique_ptr<FormatPlan<double>> counting_builder(const Csr<double>& a,
                                                     const PlanOptions& opts,
                                                     const FormatInfo& info) {
  ++g_builds[info.name];
  return registry<double>().entries()[I].builder(a, opts, info);
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
  // Names ranked by model balance, registry order on ties.
  const auto ranked = [](const AutoChoice& c) {
    std::vector<AutoCandidate> k = c.candidates;
    std::stable_sort(k.begin(), k.end(),
                     [](const AutoCandidate& l, const AutoCandidate& r) {
                       return l.balance < r.balance;
                     });
    std::vector<std::string> names;
    for (const AutoCandidate& x : k) names.push_back(x.name);
    return names;
  };
  PlanOptions opts;
  opts.probe_min_seconds = 0.0;
  opts.probe_reps = 1;

  {
    SCOPED_TRACE("probe off");
    opts.probe = false;
    const auto [builds, c] = select(opts);
    std::map<std::string, int> want{{c.candidates[c.model_index].name, 1},
                                    {"ellpack_r", 1}};
    EXPECT_EQ(builds, want);
  }
  {
    SCOPED_TRACE("two probed");
    opts.probe = true;
    opts.probe_candidates = 2;
    const auto [builds, c] = select(opts);
    const std::vector<std::string> r = ranked(c);
    std::map<std::string, int> want{{r[0], 1}, {r[1], 1}, {"ellpack_r", 1}};
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

}  // namespace
}  // namespace spmvm::formats
