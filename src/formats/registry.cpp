#include "formats/registry.hpp"

#include <string>

#include "formats/auto_select.hpp"
#include "formats/plans.hpp"
#include "util/error.hpp"

namespace spmvm::formats {

namespace {

/// Row-sorting formats relabel columns only for square matrices (the
/// symmetric permutation P·A·Pᵀ is undefined otherwise).
template <class T>
PermuteColumns effective_permute(const Csr<T>& a, const PlanOptions& opts) {
  return a.n_rows == a.n_cols ? opts.permute_columns : PermuteColumns::no;
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_csr(const Csr<T>& a,
                                         const PlanOptions&,
                                         const FormatInfo& info) {
  return std::make_unique<CsrPlan<T>>(a, info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_ellpack(const Csr<T>& a,
                                             const PlanOptions& opts,
                                             const FormatInfo& info) {
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::ellpack(a, opts.chunk), info, /*full_width=*/true);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_ellpack_r(const Csr<T>& a,
                                               const PlanOptions& opts,
                                               const FormatInfo& info) {
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::ellpack(a, opts.chunk), info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_jds(const Csr<T>& a,
                                         const PlanOptions& opts,
                                         const FormatInfo& info) {
  const PermuteColumns pc = effective_permute(a, opts);
  return std::make_unique<JdsPlan<T>>(Jds<T>::from_csr(a, pc), info,
                                      pc == PermuteColumns::yes);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_sliced_ell(const Csr<T>& a,
                                                const PlanOptions& opts,
                                                const FormatInfo& info) {
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::from_csr(a, opts.chunk, /*sort_window=*/1,
                             PermuteColumns::no),
      info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_sell_c_sigma(const Csr<T>& a,
                                                  const PlanOptions& opts,
                                                  const FormatInfo& info) {
  const index_t sigma =
      opts.sort_window > 0 ? opts.sort_window : 8 * opts.chunk;
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::from_csr(a, opts.chunk, sigma, effective_permute(a, opts)),
      info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_bellpack(const Csr<T>& a,
                                              const PlanOptions& opts,
                                              const FormatInfo& info) {
  return std::make_unique<BellpackPlan<T>>(
      Bellpack<T>::from_csr(a, opts.block_r, opts.block_c, opts.chunk), info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_pjds(const Csr<T>& a,
                                          const PlanOptions& opts,
                                          const FormatInfo& info) {
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::pjds(a, opts.chunk, effective_permute(a, opts)), info);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_auto(const Csr<T>& a,
                                          const PlanOptions& opts,
                                          const FormatInfo& info) {
  return make_auto_plan<T>(registry<T>(), a, opts, info);
}

template <class T>
void register_builtins(FormatRegistry<T>& reg) {
  reg.register_format({"csr", "compressed row storage (host reference)",
                       /*sorts_rows=*/false, /*native_axpby=*/true,
                       /*has_sim_kernel=*/true, /*native_spmmv=*/true},
                      &build_csr<T>);
  reg.register_format({"ellpack", "ELLPACK rectangle, full-width kernel",
                       false, true, true, /*native_spmmv=*/true},
                      &build_ellpack<T>);
  reg.register_format({"ellpack_r", "ELLPACK + rowmax[] early exit",
                       false, true, true, /*native_spmmv=*/true},
                      &build_ellpack_r<T>);
  reg.register_format({"jds", "jagged diagonals, full sort, no padding",
                       true, false, false},
                      &build_jds<T>);
  reg.register_format({"sliced_ell", "sliced ELLPACK (C=chunk, sigma=1)",
                       false, true, true, /*native_spmmv=*/true},
                      &build_sliced_ell<T>);
  reg.register_format({"sell_c_sigma", "sliced ELLPACK + windowed sort",
                       true, true, true, /*native_spmmv=*/true},
                      &build_sell_c_sigma<T>);
  reg.register_format({"bellpack", "blocked ELLPACK, dense tiles",
                       false, false, false},
                      &build_bellpack<T>);
  reg.register_format({"pjds", "padded jagged diagonals (the paper's format)",
                       true, true, true, /*native_spmmv=*/true},
                      &build_pjds<T>);
  reg.register_format({"auto", "Eq. 1 ranking at measured alpha + probe",
                       true, false, false},
                      &build_auto<T>);
}

}  // namespace

template <class T>
void FormatRegistry<T>::register_format(const FormatInfo& info,
                                        Builder builder) {
  SPMVM_REQUIRE(builder != nullptr, "format builder must be non-null");
  SPMVM_REQUIRE(find(info.name) == nullptr,
                std::string("format '") + info.name + "' already registered");
  entries_.push_back(Entry{info, builder});
}

template <class T>
const typename FormatRegistry<T>::Entry* FormatRegistry<T>::find(
    std::string_view name) const {
  for (const Entry& e : entries_)
    if (name == e.info.name) return &e;
  return nullptr;
}

template <class T>
std::shared_ptr<const FormatPlan<T>> FormatRegistry<T>::build(
    std::string_view name, const Csr<T>& a, const PlanOptions& opts) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    std::string known;
    for (const Entry& k : entries_) {
      if (!known.empty()) known += ", ";
      known += k.info.name;
    }
    throw Error(std::string("unknown format '") + std::string(name) +
                "'; registered: " + known);
  }
  return e->builder(a, opts, e->info);
}

template <class T>
std::vector<FormatInfo> FormatRegistry<T>::list() const {
  std::vector<FormatInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  return out;
}

template <class T>
FormatRegistry<T>& registry() {
  static FormatRegistry<T>* reg = [] {
    auto* r = new FormatRegistry<T>();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

template class FormatRegistry<float>;
template class FormatRegistry<double>;
template FormatRegistry<float>& registry<float>();
template FormatRegistry<double>& registry<double>();

}  // namespace spmvm::formats
