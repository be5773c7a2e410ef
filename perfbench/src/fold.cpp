#include "fold.hpp"

#include <algorithm>

namespace perfbench {

std::string layer_of(const char* span_name) {
  if (span_name == nullptr) return {};
  const std::string name(span_name);
  if (name.rfind("pb/", 0) == 0) {
    const auto slash = name.find('/', 3);
    return name.substr(3, slash == std::string::npos ? std::string::npos
                                                     : slash - 3);
  }
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"kernel/", "formats"}, {"exec/", "exec"}, {"serve/", "serve"},
      {"comm/", "dist"},      {"dist/", "dist"}, {"msg/", "msg"},
      {"pool/", "util"},
  };
  for (const auto& [prefix, layer] : kPrefixes)
    if (name.rfind(prefix, 0) == 0) return layer;
  return {};
}

Fold fold_self_times(const std::vector<spmvm::obs::TraceEvent>& events,
                     const std::set<std::uint32_t>& bench_tids) {
  struct Span {
    std::string layer;
    std::uint64_t t0, t1;
    double self_s;
  };
  std::map<std::uint32_t, std::vector<Span>> by_thread;
  for (const auto& e : events) {
    std::string layer = layer_of(e.name);
    if (layer.empty() || e.t1_ns < e.t0_ns) continue;
    by_thread[e.tid].push_back(
        {std::move(layer), e.t0_ns, e.t1_ns, e.seconds()});
  }

  Fold out;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    std::vector<Span*> stack;
    for (Span& s : spans) {
      while (!stack.empty() && stack.back()->t1 <= s.t0) stack.pop_back();
      if (!stack.empty() && s.t1 <= stack.back()->t1)
        stack.back()->self_s -= static_cast<double>(s.t1 - s.t0) * 1e-9;
      stack.push_back(&s);
    }
    auto& dst =
        bench_tids.count(tid) ? out.bench_self_s : out.worker_self_s;
    for (const Span& s : spans) dst[s.layer] += s.self_s;
  }
  return out;
}

}  // namespace perfbench
