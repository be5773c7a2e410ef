#include "obs/ledger.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/ascii.hpp"

namespace spmvm::obs {

namespace {

constexpr std::size_t kResidualCap = 65536;

// Same convention as SPMVM_TRACE: set and not "0" means on.
bool env_on(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

/// All mutable ledger state under one mutex. Leaked on purpose so
/// instrumented sites in static destructors stay safe.
struct LedgerState {
  std::mutex m;
  RooflineSpec spec = RooflineSpec::from_env();
  std::map<std::tuple<int, std::string, std::string, int>, EffRecord>
      records;
  std::vector<ResidualPoint> residuals;
};

LedgerState& state() {
  static LedgerState* s = new LedgerState;
  return *s;
}

std::atomic<bool>& ledger_flag() {
  static std::atomic<bool>* f =
      new std::atomic<bool>(env_on("SPMVM_ROOFLINE"));
  return *f;
}

// ---- JSON rendering -------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

// ---- enable / configuration ----------------------------------------------

bool ledger_enabled() {
  return ledger_flag().load(std::memory_order_relaxed);
}

void set_ledger_enabled(bool on) {
  ledger_flag().store(on, std::memory_order_relaxed);
}

RooflineSpec roofline_spec() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  return s.spec;
}

void set_roofline_spec(const RooflineSpec& spec) {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  s.spec = spec;
}

// ---- EffRecord derived quantities -----------------------------------------

double EffRecord::achieved_gbs() const {
  return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

double EffRecord::achieved_gflops() const {
  return seconds > 0.0 ? flops / seconds / 1e9 : 0.0;
}

double EffRecord::predicted_gflops() const {
  return predicted_s > 0.0 ? flops / predicted_s / 1e9 : 0.0;
}

double EffRecord::efficiency() const {
  return (seconds > 0.0 && predicted_s > 0.0) ? predicted_s / seconds : 0.0;
}

double EffRecord::mean_alpha() const {
  return calls > 0 ? alpha_sum / static_cast<double>(calls) : 0.0;
}

std::string EffRecord::key() const {
  std::string k = to_string(lane);
  k += "/";
  k += format;
  k += "/";
  k += phase;
  if (rank >= 0) {
    k += "@";
    k += std::to_string(rank);
  }
  return k;
}

// ---- recording ------------------------------------------------------------

void ledger_record(RoofLane lane, const char* format, const char* phase,
                   double seconds, const WorkDesc& work) {
  if (!ledger_enabled()) return;
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  const int rank = current_rank();
  EffRecord& r = s.records[{static_cast<int>(lane),
                            format != nullptr ? format : "?",
                            phase != nullptr ? phase : "?", rank}];
  if (r.calls == 0) {
    r.lane = lane;
    r.format = format != nullptr ? format : "?";
    r.phase = phase != nullptr ? phase : "?";
    r.rank = rank;
  }
  const double pred = predicted_seconds(s.spec, lane, work);
  ++r.calls;
  r.seconds += seconds;
  r.bytes += static_cast<double>(work.bytes);
  r.flops += static_cast<double>(work.flops);
  r.nnz += static_cast<double>(work.nnz);
  r.alpha_sum += work.alpha;
  r.predicted_s += pred;
}

void ledger_residual(const char* solver, std::uint64_t iteration,
                     double residual) {
  if (!ledger_enabled()) return;
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  if (s.residuals.size() >= kResidualCap) {
    counter("ledger.residual_dropped").add();
    return;
  }
  ResidualPoint p;
  p.solver = solver != nullptr ? solver : "?";
  p.iteration = iteration;
  p.residual = residual;
  p.t_s = static_cast<double>(now_ns()) * 1e-9;
  s.residuals.push_back(std::move(p));
}

std::vector<EffRecord> ledger_snapshot() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  std::vector<EffRecord> out;
  out.reserve(s.records.size());
  for (const auto& [key, r] : s.records) out.push_back(r);
  return out;
}

std::vector<ResidualPoint> residual_series() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  return s.residuals;
}

void reset_ledger() {
  LedgerState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  s.records.clear();
  s.residuals.clear();
}

// ---- exporters ------------------------------------------------------------

std::string roofline_table(const std::vector<EffRecord>& records) {
  std::ostringstream os;
  if (records.empty()) {
    os << "(empty roofline ledger)\n";
    return os.str();
  }
  AsciiTable t({"lane", "format", "phase", "rank", "calls", "GB/s", "GF/s",
                "model GF/s", "eff %", "alpha"});
  for (const EffRecord& r : records)
    t.add_row({to_string(r.lane), r.format, r.phase,
               r.rank < 0 ? std::string("-") : std::to_string(r.rank),
               std::to_string(r.calls), fmt(r.achieved_gbs(), 2),
               fmt(r.achieved_gflops(), 2), fmt(r.predicted_gflops(), 2),
               fmt(100.0 * r.efficiency(), 1),
               r.alpha_sum > 0.0 ? fmt(r.mean_alpha(), 4)
                                 : std::string("-")});
  os << t.render();
  return os.str();
}

std::string roofline_table() { return roofline_table(ledger_snapshot()); }

std::string roofline_json() {
  const std::vector<EffRecord> records = ledger_snapshot();
  const std::vector<ResidualPoint> residuals = residual_series();
  std::ostringstream os;
  os << "{\n  \"schema_version\": " << kRooflineSchemaVersion << ",\n";
  os << "  \"metadata\": {";
  bool first = true;
  for (const auto& [k, v] : machine_fingerprint()) {
    os << (first ? "" : ", ") << jstr(k) << ": " << jstr(v);
    first = false;
  }
  os << "},\n  \"records\": [";
  first = true;
  for (const EffRecord& r : records) {
    os << (first ? "\n" : ",\n") << "    {\"lane\": " << jstr(to_string(r.lane))
       << ", \"format\": " << jstr(r.format)
       << ", \"phase\": " << jstr(r.phase) << ", \"rank\": " << r.rank
       << ", \"calls\": " << r.calls
       << ", \"seconds\": " << jnum(r.seconds)
       << ", \"bytes\": " << jnum(r.bytes)
       << ", \"flops\": " << jnum(r.flops) << ", \"nnz\": " << jnum(r.nnz)
       << ", \"alpha\": " << jnum(r.mean_alpha())
       << ", \"predicted_seconds\": " << jnum(r.predicted_s)
       << ", \"achieved_gbs\": " << jnum(r.achieved_gbs())
       << ", \"achieved_gflops\": " << jnum(r.achieved_gflops())
       << ", \"model_gflops\": " << jnum(r.predicted_gflops())
       << ", \"efficiency\": " << jnum(r.efficiency()) << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"residuals\": [";
  first = true;
  for (const ResidualPoint& p : residuals) {
    os << (first ? "\n" : ",\n") << "    {\"solver\": " << jstr(p.solver)
       << ", \"iteration\": " << p.iteration
       << ", \"residual\": " << jnum(p.residual)
       << ", \"seconds\": " << jnum(p.t_s) << "}";
    first = false;
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

}  // namespace spmvm::obs
