// Model-guided format selection — the paper's implicit workflow made a
// first-class plan.
//
// Policy (see DESIGN.md "Format engine"):
//   1. Size every registered concrete format from the CSR with its
//      registry sizer: the bytes its plan would store, from the
//      builder's own layout step, without building it.
//   2. Rank the formats by the generalized Eq. 1 code balance
//      (perfmodel::code_balance_stored over the sized footprint, so zero
//      fill and metadata count) at the ideal α = 1/N_nzr. Eq. 1 charges
//      every format of one matrix the same RHS term, s·α, so the ranking
//      is the same at any α and nothing is simulated.
//   3. Optionally confirm with a short measured host probe of the top
//      candidates, timed in interleaved rounds; the fastest wins.
// Only the probed candidates (the model winner alone without a probe)
// are built. With probing disabled the selection is bit-deterministic:
// the sizes are exact and ties break by registry order.
#pragma once

#include <memory>

#include "formats/format_plan.hpp"

namespace spmvm::formats {

template <class T>
class FormatRegistry;

/// Run the selection policy over every registry entry with a sizer
/// (AutoChoice::candidates, registry order). Builds only the probed
/// candidates: the top `probe_candidates` by model balance (every one
/// when <= 0), or the model winner alone when `probe` is off. The probe
/// warms each candidate once, then times one product of each per round
/// until every one has `probe_reps` samples and the rounds have taken
/// `probe_min_seconds` per candidate; each keeps its minimum. When
/// `chosen` is non-null the winning plan is returned through it.
template <class T>
AutoChoice choose_format(const FormatRegistry<T>& reg, const Csr<T>& a,
                         const PlanOptions& opts,
                         std::shared_ptr<const FormatPlan<T>>* chosen = nullptr);

/// The registry builder behind the "auto" entry: runs choose_format and
/// wraps the winning plan, recording the choice in obs gauges
/// (formats.auto.*) and exposing it via FormatPlan::auto_choice().
template <class T>
std::unique_ptr<FormatPlan<T>> make_auto_plan(const FormatRegistry<T>& reg,
                                              const Csr<T>& a,
                                              const PlanOptions& opts,
                                              const FormatInfo& info);

#define SPMVM_EXTERN_AUTO_SELECT(T)                                       \
  extern template AutoChoice choose_format(                               \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,        \
      std::shared_ptr<const FormatPlan<T>>*);                             \
  extern template std::unique_ptr<FormatPlan<T>> make_auto_plan(          \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,        \
      const FormatInfo&)

SPMVM_EXTERN_AUTO_SELECT(float);
SPMVM_EXTERN_AUTO_SELECT(double);
#undef SPMVM_EXTERN_AUTO_SELECT

}  // namespace spmvm::formats
