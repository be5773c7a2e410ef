// Metric names, units and the result line.
//
// Every run prints every metric of its mode (end-to-end with tracing
// off, per-layer with tracing on), whichever workload it ran: the
// names are the same across workloads. A per-layer metric of a layer the
// workload never calls reads 0 (see perfbench/README.md). BENCHMARK.json
// lists the same names; run.py rejects a result whose names differ.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Storage formats the sweep covers: every registry entry plus `auto`.
const std::vector<std::string>& sweep_formats();
/// Paper matrices the sweep scales to its working-set target.
const std::vector<std::string>& sweep_matrices();
/// Whether the sweep builds `fmt` for `matrix`.
bool sweep_covers(const std::string& matrix, const std::string& fmt);
/// Layers self time is folded into (benchmark threads / other threads).
const std::vector<std::string>& bench_thread_layers();
const std::vector<std::string>& worker_layers();
/// Comm-plan phases of the halo attribution.
const std::vector<std::string>& halo_phases();

std::vector<MetricSpec> end_to_end_specs();
std::vector<MetricSpec> per_layer_specs();

/// One run's outcome: operation counts, metric values and the regime
/// notes recorded next to them.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The result object: correct/attempted/failed, every metric of
  /// `specs` (unset ones as 0) and the regime notes under "regime".
  std::string to_json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> notes_;  // raw JSON values
};

}  // namespace perfbench
