#include "formats/auto_select.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "perfmodel/balance.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvm::formats {

namespace {

/// Delegating wrapper returned by the "auto" registry entry: behaves
/// exactly like the chosen plan but reports the selection record.
template <class T>
class AutoPlan final : public FormatPlan<T> {
 public:
  AutoPlan(std::shared_ptr<const FormatPlan<T>> chosen, AutoChoice choice,
           const FormatInfo& info)
      : chosen_(std::move(chosen)), choice_(std::move(choice)), info_(&info) {}

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return chosen_->n_rows(); }
  index_t n_cols() const override { return chosen_->n_cols(); }
  offset_t nnz() const override { return chosen_->nnz(); }
  Footprint footprint() const override { return chosen_->footprint(); }
  Csr<T> to_csr() const override { return chosen_->to_csr(); }
  void spmv(std::span<const T> x, std::span<T> y,
            int n_threads) const override {
    chosen_->spmv(x, y, n_threads);
  }
  bool spmv_axpby(std::span<const T> x, std::span<T> y, T alpha, T beta,
                  int n_threads) const override {
    return chosen_->spmv_axpby(x, y, alpha, beta, n_threads);
  }
  void spmmv(std::span<const T> x, std::span<T> y, int k,
             int n_threads) const override {
    chosen_->spmmv(x, y, k, n_threads);
  }
  const Permutation* permutation() const override {
    return chosen_->permutation();
  }
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override {
    return chosen_->simulate(dev, opt);
  }
  const AutoChoice* auto_choice() const override { return &choice_; }

 private:
  std::shared_ptr<const FormatPlan<T>> chosen_;
  AutoChoice choice_;
  const FormatInfo* info_;
};

}  // namespace

template <class T>
AutoChoice choose_format(const FormatRegistry<T>& reg, const Csr<T>& a,
                         const PlanOptions& opts,
                         std::shared_ptr<const FormatPlan<T>>* chosen) {
  SPMVM_REQUIRE(a.nnz() > 0, "auto format selection needs a non-empty matrix");

  std::vector<const typename FormatRegistry<T>::Entry*> entries;
  std::vector<Footprint> sizes;
  AutoChoice choice;
  for (const auto& e : reg.entries()) {
    if (e.size == nullptr) continue;
    entries.push_back(&e);
    sizes.push_back(e.size(a, opts));
    choice.candidates.push_back({e.info.name, 0.0, -1.0});
  }
  SPMVM_REQUIRE(!entries.empty(), "format registry has no concrete formats");

  // Eq. 1 charges every format of one matrix the same RHS term, s·α
  // bytes per non-zero, so α cannot reorder the ranking: equal stored
  // bytes give bit-equal balances, and byte counts a byte or more apart
  // stay apart through the rounded sum and the division by 2·nnz. The
  // ideal α = 1/N_nzr is the one the serve batcher prices with.
  const double alpha = perfmodel::alpha_ideal(a.avg_row_len());
  for (std::size_t i = 0; i < entries.size(); ++i)
    choice.candidates[i].balance = perfmodel::code_balance_stored(
        sizes[i].total_bytes(sizeof(T)), static_cast<std::size_t>(a.nnz()),
        static_cast<std::size_t>(a.n_rows), sizeof(T), alpha);

  // Model ranking; stable sort keeps registry order on exact ties, so
  // the model-only path is fully deterministic.
  std::vector<std::size_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t l, std::size_t r) {
    return choice.candidates[l].balance < choice.candidates[r].balance;
  });
  choice.model_index = order.front();
  choice.chosen_index = choice.model_index;

  // Only the top k are built: the probed candidates, or the model winner
  // alone without a probe. Index-aligned with `entries`.
  std::size_t k = 1;
  if (opts.probe) {
    SPMVM_REQUIRE(opts.probe_reps >= 1, "auto probe needs at least 1 rep");
    SPMVM_REQUIRE(opts.probe_min_seconds >= 0.0,
                  "negative auto probe duration");
    k = opts.probe_candidates <= 0
            ? order.size()
            : std::min<std::size_t>(
                  static_cast<std::size_t>(opts.probe_candidates),
                  order.size());
  }
  const std::span<const std::size_t> top(order.data(), k);
  std::vector<std::shared_ptr<const FormatPlan<T>>> plans(entries.size());
  for (const std::size_t i : top)
    plans[i] = entries[i]->builder(a, opts, entries[i]->info);

  if (opts.probe) {
    std::vector<T> x(static_cast<std::size_t>(a.n_cols), T{1});
    std::vector<T> y(static_cast<std::size_t>(a.n_rows));
    const auto product = [&](std::size_t i) {
      plans[i]->spmv(std::span<const T>(x), std::span<T>(y),
                     opts.probe_threads);
    };
    // One warm-up product each, then rounds that time one product of
    // every candidate in turn, so host drift lands on all of them alike;
    // each keeps its fastest.
    for (const std::size_t i : top) product(i);
    const Timer total;
    const double budget = opts.probe_min_seconds * static_cast<double>(k);
    for (int round = 0; round < opts.probe_reps || total.seconds() < budget;
         ++round)
      for (const std::size_t i : top) {
        const Timer t;
        product(i);
        const double s = t.seconds();
        double& fastest = choice.candidates[i].probe_seconds;
        if (fastest < 0.0 || s < fastest) fastest = s;
      }
    std::size_t best = choice.chosen_index;
    for (const std::size_t i : top)
      if (choice.candidates[i].probe_seconds <
          choice.candidates[best].probe_seconds)
        best = i;
    choice.chosen_index = best;
  }

  choice.chosen = choice.candidates[choice.chosen_index].name;
  if (chosen != nullptr) *chosen = std::move(plans[choice.chosen_index]);
  return choice;
}

template <class T>
std::unique_ptr<FormatPlan<T>> make_auto_plan(const FormatRegistry<T>& reg,
                                              const Csr<T>& a,
                                              const PlanOptions& opts,
                                              const FormatInfo& info) {
  std::shared_ptr<const FormatPlan<T>> chosen;
  AutoChoice choice = choose_format(reg, a, opts, &chosen);

  obs::gauge("formats.auto.chosen_index")
      .set(static_cast<double>(choice.chosen_index));
  obs::gauge("formats.auto.model_index")
      .set(static_cast<double>(choice.model_index));
  for (const AutoCandidate& c : choice.candidates) {
    obs::gauge("formats.auto.balance." + c.name).set(c.balance);
    if (c.probe_seconds >= 0.0)
      obs::gauge("formats.auto.probe_seconds." + c.name).set(c.probe_seconds);
  }

  return std::make_unique<AutoPlan<T>>(std::move(chosen), std::move(choice),
                                       info);
}

#define SPMVM_INSTANTIATE_AUTO_SELECT(T)                            \
  template AutoChoice choose_format(                                \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,  \
      std::shared_ptr<const FormatPlan<T>>*);                       \
  template std::unique_ptr<FormatPlan<T>> make_auto_plan(           \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,  \
      const FormatInfo&)

SPMVM_INSTANTIATE_AUTO_SELECT(float);
SPMVM_INSTANTIATE_AUTO_SELECT(double);

}  // namespace spmvm::formats
