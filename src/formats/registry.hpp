// The format registry — the single place storage formats are enumerated.
//
// Every consumer that used to hand-enumerate formats (solver Operator
// factories, dist kernels, the cluster model, the Eq. 1 model check, the
// format and simulator benches, the examples) resolves plans by name
// here instead; adding a format is one register_format() call. Which
// SELL-C-σ preset a name means (C, σ, row sort, full width) is decided
// only in registry.cpp. registry<T>() returns the process-wide instance
// pre-loaded with the built-in formats:
//
//   csr          CSR, thread-per-row host kernel, CSR-vector sim kernel
//   ellpack      ELLPACK rectangle, full-width kernel (Fig. 2a)
//   ellpack_r    same storage + rowmax[] early exit (Listing 1)
//   jds          classic JDS, full descending sort, no padding
//   sliced_ell   sliced ELLPACK, C = chunk, original row order (σ = 1)
//   sell_c_sigma sliced ELLPACK with windowed sort (SELL-C-σ)
//   bellpack     blocked ELLPACK, dense block_r × block_c tiles
//   pjds         the paper's padded JDS (Sec. II-A)
//   auto         Eq. 1 ranking by stored bytes + measured probe
//
// ellpack, ellpack_r, sliced_ell, sell_c_sigma and pjds are presets of
// one SELL-C-σ storage (sparse/sliced_ell.hpp) with one SlicedEllPlan.
// Every plan is built in the paper's Listing 2 basis (rows sorted,
// columns keep their labels), which every simulator consumer times. A
// solver that iterates in the sorted basis builds from permute_csr's
// P·A·Pᵀ (sparse/convert.hpp) instead.
//
// Every concrete format also registers a sizer next to its builder: the
// Footprint the builder's plan would report, computed by the builder's
// own layout step (row lengths and slice offsets, diagonal count, tile
// pattern) without storing an entry. `auto` ranks the entries that have
// one from their sizes and builds only the formats it probes.
#pragma once

#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "formats/format_plan.hpp"

namespace spmvm::formats {

template <class T>
class FormatRegistry {
 public:
  /// Build the format from CSR. The FormatInfo reference is the
  /// registry-owned entry (stable address) the plan points back at.
  using Builder = std::unique_ptr<FormatPlan<T>> (*)(const Csr<T>&,
                                                     const PlanOptions&,
                                                     const FormatInfo&);
  /// Footprint of the plan the builder would return for the same input,
  /// equal field by field to its footprint().
  using Sizer = Footprint (*)(const Csr<T>&, const PlanOptions&);
  struct Entry {
    FormatInfo info;
    Builder builder;
    Sizer size = nullptr;  // nullptr: not an `auto` candidate
  };

  /// Register a format under a unique name (throws on duplicates).
  void register_format(const FormatInfo& info, Builder builder,
                       Sizer size = nullptr);

  /// Registered entry by exact name; nullptr when unknown.
  const Entry* find(std::string_view name) const;

  /// Build `name` from `a`. Throws spmvm::Error for unknown names,
  /// listing what is registered.
  std::shared_ptr<const FormatPlan<T>> build(std::string_view name,
                                             const Csr<T>& a,
                                             const PlanOptions& opts = {}) const;

  /// All registered formats, registration order.
  std::vector<FormatInfo> list() const;

  const std::deque<Entry>& entries() const { return entries_; }

 private:
  // deque: plans keep pointers into entries' FormatInfo, so addresses
  // must survive later registrations.
  std::deque<Entry> entries_;
};

/// The process-wide registry with the built-in formats pre-registered.
template <class T>
FormatRegistry<T>& registry();

extern template class FormatRegistry<float>;
extern template class FormatRegistry<double>;
extern template FormatRegistry<float>& registry<float>();
extern template FormatRegistry<double>& registry<double>();

}  // namespace spmvm::formats
