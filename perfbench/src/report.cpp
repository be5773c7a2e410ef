#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<std::string>& sweep_formats() {
  static const std::vector<std::string> f = {
      "csr",          "ellpack",  "ellpack_r", "jds", "sliced_ell",
      "sell_c_sigma", "bellpack", "pjds",      "auto"};
  return f;
}

const std::vector<std::string>& sweep_matrices() {
  static const std::vector<std::string> m = {"DLR1", "HMEp", "sAMG"};
  return m;
}

bool sweep_covers(const std::string& matrix, const std::string& fmt) {
  // BELLPACK's dense 4x4 tiles suit DLR1's 6x6-block structure; on HMEp
  // and sAMG they store 10-16x fill (1.2 GB at the sweep's sizes).
  return fmt != "bellpack" || matrix == "DLR1";
}

const std::vector<std::string>& bench_thread_layers() {
  static const std::vector<std::string> l = {"formats", "exec", "serve", "dist",
                                             "msg",     "util", "bench"};
  return l;
}

const std::vector<std::string>& worker_layers() {
  static const std::vector<std::string> l = {"formats", "exec", "serve",
                                             "dist",    "msg",  "util"};
  return l;
}

const std::vector<std::string>& halo_phases() {
  static const std::vector<std::string> p = {"gather", "post",     "wait",
                                             "local",  "nonlocal", "repost"};
  return p;
}

std::vector<MetricSpec> end_to_end_specs() {
  return {{"setup_s", "s"}, {"gflops", "GF/s"}, {"p10_ms", "ms"}};
}

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> s;
  s.push_back({"matgen.generate_s", "s"});
  for (const auto& f : sweep_formats()) s.push_back({"formats.build_s." + f, "s"});
  for (const auto& f : sweep_formats())
    s.push_back({"formats.bytes_per_nnz." + f, "B/nnz"});
  s.push_back({"formats.auto.model_agrees", "count"});
  for (const auto& m : sweep_matrices())
    for (const auto& f : sweep_formats())
      if (sweep_covers(m, f)) s.push_back({"exec.gflops." + m + "." + f, "GF/s"});
  for (const auto& f : sweep_formats()) s.push_back({"exec.bw_frac." + f, "ratio"});
  for (const auto& f : sweep_formats())
    s.push_back({"exec.block_gain." + f, "ratio"});
  s.push_back({"exec.bind_s", "s"});
  s.push_back({"exec.triad_gbs", "GB/s"});
  for (const char* p : {"nominal", "overload"}) {
    const std::string b = std::string("serve.") + p + ".";
    s.push_back({b + "submit_us.p50", "us"});
    s.push_back({b + "submit_us.p99", "us"});
    s.push_back({b + "queue_ms.p50", "ms"});
    s.push_back({b + "queue_ms.p99", "ms"});
    s.push_back({b + "batch_wait_ms.p50", "ms"});
    s.push_back({b + "execute_ms.p50", "ms"});
    s.push_back({b + "resolve_ms.p50", "ms"});
    s.push_back({b + "batch_width.mean", "count"});
    s.push_back({b + "shed_ratio", "ratio"});
    s.push_back({b + "gen_late_ms.p99", "ms"});
  }
  s.push_back({"serve.capacity_rps", "1/s"});
  s.push_back({"serve.p50_ms", "ms"});
  s.push_back({"serve.p99_ms", "ms"});
  s.push_back({"dist.plan_build_s", "s"});
  s.push_back({"dist.spmv_us.p50", "us"});
  s.push_back({"msg.allreduce_us.p50", "us"});
  s.push_back({"dist.halo_bytes_per_iter", "B"});
  s.push_back({"msg.rendezvous_ratio", "ratio"});
  s.push_back({"dist.rank_skew", "ratio"});
  s.push_back({"halo.iter_p50_us", "us"});
  s.push_back({"halo.iter_p99_us", "us"});
  for (const auto& p : halo_phases()) s.push_back({"dist.phase_frac." + p, "ratio"});
  s.push_back({"dist.overlap_frac", "ratio"});
  s.push_back({"obs.trace_overhead_frac", "ratio"});
  s.push_back({"obs.export_ms", "ms"});
  for (const auto& l : bench_thread_layers()) s.push_back({"self_ms." + l, "ms"});
  for (const auto& l : worker_layers()) s.push_back({"worker_ms." + l, "ms"});
  s.push_back({"trace.wall_ms", "ms"});
  s.push_back({"trace.unexplained_ms", "ms"});
  return s;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, json_string(value));
}

void Report::note(const std::string& key, double value) {
  notes_.emplace_back(key, json_number(value));
}

std::string Report::to_json(const std::vector<MetricSpec>& specs) const {
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    o << (i ? ", " : "") << json_string(specs[i].name)
      << ": {\"value\": " << json_number(get(specs[i].name))
      << ", \"unit\": " << json_string(specs[i].unit) << "}";
  }
  o << "}, \"regime\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    o << (i ? ", " : "") << json_string(notes_[i].first) << ": "
      << notes_[i].second;
  o << "}}";
  return o.str();
}

}  // namespace perfbench
