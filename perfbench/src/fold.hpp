// Self-time folding of a recorded trace into per-layer totals.
//
// The benchmark opens `pb/<layer>/<call>` spans around every call it
// makes into a module, plus one `pb/bench/...` root span per thread it
// drives. The library's own spans (kernel/*, serve/*, comm/*, msg/*, ...)
// nest inside them. A span's self time is its duration minus the part of
// it that directly nested mapped spans cover; spans whose name maps to
// no layer are transparent (their time stays with the enclosing span).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Layer a span belongs to: "pb/<layer>/..." names the layer directly;
/// library spans map by prefix (kernel/ → formats, exec/ → exec,
/// serve/ → serve, comm/ and dist/ → dist, msg/ → msg, pool/ → util).
/// Empty for spans that map to no layer.
std::string layer_of(const char* span_name);

struct Fold {
  /// Self seconds per layer over the threads in `bench_tids`.
  std::map<std::string, double> bench_self_s;
  /// Self seconds per layer over every other thread (server workers,
  /// comm threads, pool workers).
  std::map<std::string, double> worker_self_s;
};

/// Fold `events` per thread. Spans on one thread must nest (RAII spans
/// do); ties in start time put the longer span first.
Fold fold_self_times(const std::vector<spmvm::obs::TraceEvent>& events,
                     const std::set<std::uint32_t>& bench_tids);

}  // namespace perfbench
