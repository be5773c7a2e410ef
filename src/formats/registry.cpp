#include "formats/registry.hpp"

#include <algorithm>
#include <string>

#include "formats/auto_select.hpp"
#include "formats/plans.hpp"
#include "util/error.hpp"

namespace spmvm::formats {

namespace {

template <class T>
std::unique_ptr<FormatPlan<T>> build_csr(const Csr<T>& a,
                                         const PlanOptions&,
                                         const FormatInfo& info) {
  return std::make_unique<CsrPlan<T>>(a, info);
}

template <class T>
Footprint size_csr(const Csr<T>& a, const PlanOptions&) {
  return footprint(a);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_jds(const Csr<T>& a, const PlanOptions&,
                                         const FormatInfo& info) {
  return std::make_unique<JdsPlan<T>>(Jds<T>::from_csr(a), info);
}

template <class T>
Footprint size_jds(const Csr<T>& a, const PlanOptions&) {
  return jds_size(a);
}

template <class T>
std::unique_ptr<FormatPlan<T>> build_bellpack(const Csr<T>& a,
                                              const PlanOptions& opts,
                                              const FormatInfo& info) {
  return std::make_unique<BellpackPlan<T>>(
      Bellpack<T>::from_csr(a, opts.block_r, opts.block_c, opts.chunk), info);
}

template <class T>
Footprint size_bellpack(const Csr<T>& a, const PlanOptions& opts) {
  return bellpack_size(a, opts.block_r, opts.block_c, opts.chunk);
}

/// One SELL-C-σ preset (sparse/sliced_ell.hpp) for one matrix. Its
/// builder and its sizer both read it, so they cannot disagree on C or σ.
struct SellPreset {
  index_t slice_height;  // C
  index_t sort_window;   // σ
  bool full_width;  // plain ELLPACK: no row_len[] read or stored
};

template <class T>
SellPreset ellpack_preset(const Csr<T>& a, const PlanOptions& opts) {
  return {ellpack_slice_height(a.n_rows, opts.chunk), 1, true};
}

template <class T>
SellPreset ellpack_r_preset(const Csr<T>& a, const PlanOptions& opts) {
  return {ellpack_slice_height(a.n_rows, opts.chunk), 1, false};
}

template <class T>
SellPreset sliced_ell_preset(const Csr<T>&, const PlanOptions& opts) {
  return {opts.chunk, 1, false};
}

template <class T>
SellPreset sell_c_sigma_preset(const Csr<T>&, const PlanOptions& opts) {
  return {opts.chunk, opts.sort_window > 0 ? opts.sort_window : 8 * opts.chunk,
          false};
}

template <class T>
SellPreset pjds_preset(const Csr<T>& a, const PlanOptions& opts) {
  return {opts.chunk, std::max<index_t>(a.n_rows, 1), false};
}

template <class T>
using PresetFn = SellPreset (*)(const Csr<T>&, const PlanOptions&);

template <class T, PresetFn<T> Preset>
std::unique_ptr<FormatPlan<T>> build_sell(const Csr<T>& a,
                                          const PlanOptions& opts,
                                          const FormatInfo& info) {
  const SellPreset p = Preset(a, opts);
  return std::make_unique<SlicedEllPlan<T>>(
      SlicedEll<T>::from_csr(a, p.slice_height, p.sort_window), info,
      p.full_width);
}

template <class T, PresetFn<T> Preset>
Footprint size_sell(const Csr<T>& a, const PlanOptions& opts) {
  const SellPreset p = Preset(a, opts);
  return sliced_ell_size(a, p.slice_height, p.sort_window, !p.full_width);
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
                      &build_csr<T>, &size_csr<T>);
  reg.register_format({"ellpack", "ELLPACK rectangle, full-width kernel",
                       false, true, true, /*native_spmmv=*/true},
                      &build_sell<T, &ellpack_preset<T>>,
                      &size_sell<T, &ellpack_preset<T>>);
  reg.register_format({"ellpack_r", "ELLPACK + rowmax[] early exit",
                       false, true, true, /*native_spmmv=*/true},
                      &build_sell<T, &ellpack_r_preset<T>>,
                      &size_sell<T, &ellpack_r_preset<T>>);
  reg.register_format({"jds", "jagged diagonals, full sort, no padding",
                       true, false, false},
                      &build_jds<T>, &size_jds<T>);
  reg.register_format({"sliced_ell", "sliced ELLPACK (C=chunk, sigma=1)",
                       false, true, true, /*native_spmmv=*/true},
                      &build_sell<T, &sliced_ell_preset<T>>,
                      &size_sell<T, &sliced_ell_preset<T>>);
  reg.register_format({"sell_c_sigma", "sliced ELLPACK + windowed sort",
                       true, true, true, /*native_spmmv=*/true},
                      &build_sell<T, &sell_c_sigma_preset<T>>,
                      &size_sell<T, &sell_c_sigma_preset<T>>);
  reg.register_format({"bellpack", "blocked ELLPACK, dense tiles",
                       false, false, false},
                      &build_bellpack<T>, &size_bellpack<T>);
  reg.register_format({"pjds", "padded jagged diagonals (the paper's format)",
                       true, true, true, /*native_spmmv=*/true},
                      &build_sell<T, &pjds_preset<T>>,
                      &size_sell<T, &pjds_preset<T>>);
  // No sizer: `auto` delegates to a format it picks and is never a
  // candidate itself.
  reg.register_format({"auto", "Eq. 1 ranking by stored bytes + probe",
                       true, false, false},
                      &build_auto<T>);
}

}  // namespace

template <class T>
void FormatRegistry<T>::register_format(const FormatInfo& info,
                                        Builder builder, Sizer size) {
  SPMVM_REQUIRE(builder != nullptr, "format builder must be non-null");
  SPMVM_REQUIRE(find(info.name) == nullptr,
                std::string("format '") + info.name + "' already registered");
  entries_.push_back(Entry{info, builder, size});
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
