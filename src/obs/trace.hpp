// Span tracing for the whole stack (DESIGN.md §7 "Observability").
//
// Every instrumented site opens an RAII span (SPMVM_TRACE_SPAN) that is
// recorded into the *calling thread's* buffer — appends never touch
// another thread's data, so kernels, pool workers and the msg runtime's
// rank threads can all trace concurrently. Tracing is off by default:
// a disabled span is one relaxed atomic load and performs no allocation
// whatsoever (asserted in test_trace.cpp). Enable with the environment
// variable SPMVM_TRACE=1 or set_tracing(true).
//
// Spans nest: the per-thread depth is recorded so exporters can rebuild
// the call tree. Completed spans are appended when the guard closes;
// collect() snapshots every thread's buffer for export (Chrome trace
// JSON via obs/trace_export, ASCII via dist/Timeline).
//
// Distributed runs (DESIGN.md §11): set_rank() stamps a rank lane into
// every span the calling thread records, so a multi-rank trace exports
// as one timeline with a pid lane per rank. Message flow ids
// (next_flow_id + SpanGuard::set_flow) link a send span to its matching
// receive across rank lanes — the Chrome exporter draws them as flow
// arrows. Per-thread span storage is bounded: once a thread holds
// trace_cap() spans, further spans are dropped and counted in the
// `trace.dropped_spans` counter (cap configurable via SPMVM_TRACE_CAP,
// 0 = unbounded).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spmvm::obs {

/// Direction of the message flow a span participates in.
enum class FlowDir : std::uint8_t { none = 0, send = 1, recv = 2 };

/// One completed span. `name` and the attribute keys are pointers to
/// static-storage strings (the macros pass literals), never owned.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;  // since the process trace epoch
  std::uint64_t t1_ns = 0;
  std::uint32_t tid = 0;    // sequential thread id (see trace_threads())
  std::int32_t rank = -1;   // owning rank lane (set_rank); -1 = unranked
  std::uint16_t depth = 0;  // nesting level within the thread
  std::uint64_t bytes = 0;  // payload the span moved; 0 = not set
  std::uint64_t flow_id = 0;          // nonzero: send→recv pairing id
  FlowDir flow = FlowDir::none;       // which end of the flow this is
  static constexpr int kMaxArgs = 2;
  const char* arg_name[kMaxArgs] = {nullptr, nullptr};
  double arg_value[kMaxArgs] = {0.0, 0.0};
  int n_args = 0;

  double seconds() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-9;
  }
};

/// Identity of a thread that recorded spans: sequential id + actor name
/// ("pool worker 3", "comm thread", ... — empty means unnamed) + the
/// rank the thread belongs to (-1 when set_rank was never called).
struct TraceThread {
  std::uint32_t tid = 0;
  std::string name;
  std::int32_t rank = -1;
};

/// Whether spans are being recorded (SPMVM_TRACE env or set_tracing).
bool tracing_enabled();

/// Turn recording on/off at runtime, overriding the environment.
void set_tracing(bool on);

/// Label the calling thread for exports (actor row in timelines). Takes
/// effect even while tracing is off, so threads spawned before a trace
/// is enabled keep their names.
void set_thread_name(const std::string& name);

/// Assign the calling thread to a rank lane: every span it records from
/// now on carries `rank`, and exporters lay it out in that rank's pid
/// lane. msg::Runtime::run calls this for every rank thread; a plan's
/// persistent comm thread inherits its owner's rank the same way.
/// Like set_thread_name, effective even while tracing is off. -1 clears.
void set_rank(int rank);

/// The calling thread's rank lane (-1 when unassigned).
int current_rank();

/// Allocate a process-unique message flow id (monotonic, starts at 1).
/// The sender stamps it on its send span (SpanGuard::set_flow) and
/// ships it with the message; the receiver stamps the same id on its
/// receive span, which lets exporters draw the send→recv arrow.
std::uint64_t next_flow_id();

/// Per-thread span-buffer cap (0 = unbounded). Initialized from the
/// SPMVM_TRACE_CAP environment variable, default 1M spans per thread;
/// spans recorded beyond the cap are dropped and counted in the
/// `trace.dropped_spans` counter instead of growing the buffer.
std::size_t trace_cap();
void set_trace_cap(std::size_t cap);

/// Nanoseconds since the process-wide trace epoch.
std::uint64_t now_ns();

/// Snapshot all completed spans of every thread, ordered by start time.
std::vector<TraceEvent> collect();

/// Threads that have recorded at least one span (or were named).
std::vector<TraceThread> trace_threads();

/// Drop all recorded spans (thread registrations are kept).
void clear_trace();

/// Span name "<prefix><format><suffix>" for sites shared by several
/// formats (kernel/<fmt>_axpby, gpusim/<fmt>, ...), in static storage:
/// each distinct triple is composed once and kept for the life of the
/// process. All three arguments must point to static storage. Returns
/// nullptr while tracing is off (no lock taken); SpanGuard records a
/// null name as nothing.
const char* format_span_name(const char* prefix, const char* format,
                             const char* suffix = "");

/// RAII span: records [construction, destruction) into the calling
/// thread's buffer when tracing is enabled, else does nothing.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, std::uint64_t bytes = 0);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// True when this span is being recorded — use to skip attribute
  /// computations in hot paths.
  bool active() const { return active_; }

  void set_bytes(std::uint64_t bytes) {
    if (active_) event_.bytes = bytes;
  }

  /// Attach a numeric attribute (α, predicted seconds, residual, ...).
  /// `key` must point to static storage. Beyond kMaxArgs is ignored.
  void set_arg(const char* key, double value) {
    if (!active_ || event_.n_args >= TraceEvent::kMaxArgs) return;
    event_.arg_name[event_.n_args] = key;
    event_.arg_value[event_.n_args] = value;
    ++event_.n_args;
  }

  /// Mark this span as one end of a message flow (see next_flow_id).
  void set_flow(FlowDir dir, std::uint64_t id) {
    if (!active_) return;
    event_.flow = dir;
    event_.flow_id = id;
  }

 private:
  TraceEvent event_;
  bool active_ = false;
};

#define SPMVM_OBS_CONCAT2(a, b) a##b
#define SPMVM_OBS_CONCAT(a, b) SPMVM_OBS_CONCAT2(a, b)

/// Anonymous span covering the rest of the enclosing scope.
/// Usage: SPMVM_TRACE_SPAN("kernel/pjds");            — name only
///        SPMVM_TRACE_SPAN("kernel/pjds", bytes);     — with payload
#define SPMVM_TRACE_SPAN(...)                                         \
  ::spmvm::obs::SpanGuard SPMVM_OBS_CONCAT(spmvm_trace_span_,         \
                                           __LINE__) { __VA_ARGS__ }

/// Named span for sites that attach attributes after the fact:
///   SPMVM_TRACE_SPAN_NAMED(span, "gpusim/pjds");
///   if (span.active()) span.set_arg("alpha", a);
#define SPMVM_TRACE_SPAN_NAMED(var, ...)                              \
  ::spmvm::obs::SpanGuard var { __VA_ARGS__ }

}  // namespace spmvm::obs
