// Roofline efficiency ledger (DESIGN.md §12).
//
// The trace layer (obs/trace) answers "how long did it take?"; the
// ledger answers "how far from the roofline was it?". Instrumented
// sites open a LedgerScope carrying a WorkDesc (obs/roofline); on close
// the sample folds into a per-{lane, format, phase, rank} efficiency
// record: achieved GB/s and GF/s against the model prediction — Eq. 1
// at measured α for kernels, ClusterSpec/PCIe link limits for
// dist/CommPlan traffic.
//
// Off by default: a disabled LedgerScope is one relaxed atomic load and
// records nothing. Enable with SPMVM_ROOFLINE=1 or set_ledger_enabled.
//
// On top of the records:
//  - exporters: roofline_table() (ASCII) and roofline_json()
//    (schema-versioned, fingerprinted like bench.json).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/roofline.hpp"
#include "obs/trace.hpp"

namespace spmvm::obs {

/// Whether LedgerScope records samples (SPMVM_ROOFLINE env or
/// set_ledger_enabled).
bool ledger_enabled();

/// Turn the ledger on/off at runtime, overriding the environment.
void set_ledger_enabled(bool on);

/// Roofs the ledger folds predictions against. Defaults come from
/// RooflineSpec::from_env() at first use.
RooflineSpec roofline_spec();
void set_roofline_spec(const RooflineSpec& spec);

/// One folded efficiency record: every sample with the same
/// {lane, format, phase, rank} key lands here.
struct EffRecord {
  RoofLane lane = RoofLane::host;
  std::string format;  // storage format / comm scheme / solver
  std::string phase;   // "spmv", "sends", "dot", ...
  int rank = -1;       // obs::current_rank() at record time

  std::uint64_t calls = 0;
  double seconds = 0.0;      // measured wall time, summed
  double bytes = 0.0;        // WorkDesc bytes, summed
  double flops = 0.0;
  double nnz = 0.0;
  double alpha_sum = 0.0;    // per-call α, mean_alpha() averages
  double predicted_s = 0.0;  // model lower bound, summed

  double achieved_gbs() const;
  double achieved_gflops() const;
  double predicted_gflops() const;
  /// predicted_s / seconds ∈ (0, 1] when the model holds; 0 when the
  /// record carries no prediction.
  double efficiency() const;
  double mean_alpha() const;
  /// "lane/format/phase" or "lane/format/phase@rank".
  std::string key() const;
};

/// Fold one measured sample into the ledger (no-op while disabled).
/// `format` and `phase` must point to static storage or outlive the
/// call (they are copied into the record key on first sight).
void ledger_record(RoofLane lane, const char* format, const char* phase,
                   double seconds, const WorkDesc& work);

/// RAII sample: measures [construction, destruction) and folds it into
/// the ledger. Disabled: one atomic load, no clock reads.
class LedgerScope {
 public:
  LedgerScope(RoofLane lane, const char* format, const char* phase)
      : active_(ledger_enabled()),
        lane_(lane),
        format_(format),
        phase_(phase) {
    if (active_) t0_ns_ = now_ns();
  }
  ~LedgerScope() {
    if (active_)
      ledger_record(lane_, format_, phase_,
                    static_cast<double>(now_ns() - t0_ns_) * 1e-9, work_);
  }
  LedgerScope(const LedgerScope&) = delete;
  LedgerScope& operator=(const LedgerScope&) = delete;

  /// True when this scope will record — use to skip WorkDesc
  /// computations in hot paths.
  bool active() const { return active_; }
  void set_work(const WorkDesc& w) {
    if (active_) work_ = w;
  }

 private:
  bool active_;
  RoofLane lane_;
  const char* format_;
  const char* phase_;
  std::uint64_t t0_ns_ = 0;
  WorkDesc work_;
};

/// One point of a solver's residual-vs-wall-time trajectory.
struct ResidualPoint {
  std::string solver;
  std::uint64_t iteration = 0;
  double residual = 0.0;
  double t_s = 0.0;  // seconds since the trace epoch (obs::now_ns)
};

/// Append a residual point (no-op while the ledger is disabled). The
/// series is bounded; overflow is dropped and counted in
/// `ledger.residual_dropped`.
void ledger_residual(const char* solver, std::uint64_t iteration,
                     double residual);

/// Snapshot the ledger: records sorted by key / the residual series.
std::vector<EffRecord> ledger_snapshot();
std::vector<ResidualPoint> residual_series();

/// Drop every record and residual point (enable state and roofs kept).
void reset_ledger();

// ---- exporters ------------------------------------------------------------

inline constexpr int kRooflineSchemaVersion = 2;

/// ASCII roofline report: one row per record with achieved GB/s, GF/s,
/// the model GF/s and the efficiency percentage.
std::string roofline_table();
std::string roofline_table(const std::vector<EffRecord>& records);

/// Schema-versioned JSON document: {"schema_version", "metadata"
/// (machine fingerprint, like bench.json), "records", "residuals"}.
std::string roofline_json();

}  // namespace spmvm::obs
