#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>

#include "obs/metrics.hpp"

namespace spmvm::obs {

namespace {

/// Per-thread span storage. The owning thread appends under `m`; the
/// critical sections are a few instructions, so the mutex is effectively
/// uncontended except while collect() snapshots — which keeps the
/// concurrent-collection path race-free (validated under TSan).
struct ThreadBuffer {
  std::mutex m;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  std::string name;
  std::int32_t rank = -1;
};

struct Registry {
  std::mutex m;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may outlive main
  return *r;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{[] {
    const char* e = std::getenv("SPMVM_TRACE");
    return e != nullptr && *e != '\0' && std::string_view(e) != "0";
  }()};
  return flag;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local std::uint16_t t_depth = 0;
thread_local std::int32_t t_rank = -1;

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::size_t env_trace_cap() {
  const char* e = std::getenv("SPMVM_TRACE_CAP");
  if (e == nullptr || *e == '\0') return std::size_t{1} << 20;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e, &end, 10);
  return (end != nullptr && *end == '\0') ? static_cast<std::size_t>(v)
                                          : std::size_t{1} << 20;
}

std::atomic<std::size_t>& cap_value() {
  static std::atomic<std::size_t> cap{env_trace_cap()};
  return cap;
}

}  // namespace

bool tracing_enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_tracing(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  // Not gated on tracing_enabled(): a thread named while tracing is off
  // (e.g. a pool worker spawned early) keeps its actor label for traces
  // enabled later. Once per thread, so the registration cost is moot.
  ThreadBuffer& b = thread_buffer();
  std::lock_guard<std::mutex> lk(b.m);
  b.name = name;
}

void set_rank(int rank) {
  t_rank = rank;
  // Mirror into the registry (like set_thread_name) so trace_threads()
  // reports the lane even for threads that recorded no spans yet.
  ThreadBuffer& b = thread_buffer();
  std::lock_guard<std::mutex> lk(b.m);
  b.rank = rank;
}

int current_rank() { return t_rank; }

std::uint64_t next_flow_id() {
  static std::atomic<std::uint64_t> id{1};
  return id.fetch_add(1, std::memory_order_relaxed);
}

std::size_t trace_cap() {
  return cap_value().load(std::memory_order_relaxed);
}

void set_trace_cap(std::size_t cap) {
  cap_value().store(cap, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

std::vector<TraceEvent> collect() {
  std::vector<TraceEvent> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->m);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t0_ns < b.t0_ns;
                   });
  return out;
}

std::vector<TraceThread> trace_threads() {
  std::vector<TraceThread> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->m);
    out.push_back({b->tid, b->name, b->rank});
  }
  std::sort(out.begin(), out.end(),
            [](const TraceThread& a, const TraceThread& b) {
              return a.tid < b.tid;
            });
  return out;
}

void clear_trace() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.m);
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->m);
    b->events.clear();
  }
}

const char* format_span_name(const char* prefix, const char* format,
                             const char* suffix) {
  if (!tracing_enabled()) return nullptr;
  using Key = std::tuple<const char*, const char*, const char*>;
  static std::mutex m;
  static std::map<Key, std::string> names;
  std::lock_guard<std::mutex> lk(m);
  auto [it, added] = names.try_emplace(Key{prefix, format, suffix});
  if (added) it->second = std::string(prefix) + format + suffix;
  return it->second.c_str();
}

SpanGuard::SpanGuard(const char* name, std::uint64_t bytes) {
  if (name == nullptr || !tracing_enabled()) return;
  active_ = true;
  event_.name = name;
  event_.bytes = bytes;
  event_.rank = t_rank;
  event_.depth = t_depth++;
  event_.t0_ns = now_ns();
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  --t_depth;
  ThreadBuffer& b = thread_buffer();
  const std::size_t cap = trace_cap();
  std::lock_guard<std::mutex> lk(b.m);
  if (cap != 0 && b.events.size() >= cap) {
    // Bounded buffers: long solver runs with tracing left on saturate
    // at the cap instead of growing without limit. The loss is counted
    // so an exported trace can flag itself as incomplete.
    static Counter& c_dropped = counter("trace.dropped_spans");
    c_dropped.add();
    return;
  }
  event_.tid = b.tid;
  // Stamp the end after the append: a buffer that grows here grows
  // inside this span, not in the gap before the next one, so phase
  // spans keep summing to their iteration's wall time (obs/attribution).
  b.events.push_back(event_);
  b.events.back().t1_ns = now_ns();
}

}  // namespace spmvm::obs
