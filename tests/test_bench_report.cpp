#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "suite_scenarios.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvm::obs {
namespace {

BenchReport sample_report() {
  BenchReport r;
  r.binary = "bench_suite";
  r.metadata = {{"mode", "smoke"}, {"note", "quote \" backslash \\ done"}};
  BenchEntry e;
  e.name = "host/csr";
  e.repetitions = 5;
  e.mean_seconds = 1.5e-3;
  e.median_seconds = 1.4e-3;
  e.min_seconds = 1.2e-3;
  e.max_seconds = 2.0e-3;
  e.stddev_seconds = 2.5e-4;
  e.counters = {{"GF/s", 12.5}, {"GB/s", 83.0}};
  r.entries.push_back(e);
  BenchEntry m;
  m.name = "model/DLR1";
  m.counters = {{"alpha_measured", 0.31}};
  r.entries.push_back(m);
  return r;
}

TEST(BenchReport, JsonRoundTrip) {
  const BenchReport r = sample_report();
  const BenchReport p = parse_bench_report(r.to_json());

  EXPECT_EQ(p.schema_version, kBenchSchemaVersion);
  EXPECT_EQ(p.binary, r.binary);
  ASSERT_EQ(p.metadata.size(), r.metadata.size());
  EXPECT_EQ(p.metadata, r.metadata);  // escapes survive the round trip
  ASSERT_EQ(p.entries.size(), r.entries.size());
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    const BenchEntry& a = r.entries[i];
    const BenchEntry& b = p.entries[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.repetitions, a.repetitions);
    EXPECT_DOUBLE_EQ(b.mean_seconds, a.mean_seconds);
    EXPECT_DOUBLE_EQ(b.median_seconds, a.median_seconds);
    EXPECT_DOUBLE_EQ(b.min_seconds, a.min_seconds);
    EXPECT_DOUBLE_EQ(b.max_seconds, a.max_seconds);
    EXPECT_DOUBLE_EQ(b.stddev_seconds, a.stddev_seconds);
    ASSERT_EQ(b.counters.size(), a.counters.size());
    for (std::size_t j = 0; j < a.counters.size(); ++j) {
      EXPECT_EQ(b.counters[j].first, a.counters[j].first);
      EXPECT_DOUBLE_EQ(b.counters[j].second, a.counters[j].second);
    }
  }
}

TEST(BenchReport, WriteLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "bench_report_rt.json";
  const BenchReport r = sample_report();
  ASSERT_TRUE(r.write(path));
  const BenchReport p = load_bench_report(path);
  EXPECT_EQ(p.schema_version, r.schema_version);
  ASSERT_EQ(p.entries.size(), r.entries.size());
  EXPECT_EQ(p.entries[0].name, r.entries[0].name);
  std::remove(path.c_str());
}

TEST(BenchReport, PreVersioningFilesParseAsVersionZero) {
  // PR 2-era reports had no schema_version field.
  const std::string json =
      R"({"binary": "bench_kernels", "metadata": {}, "benchmarks": [)"
      R"({"name": "k", "repetitions": 1, "median_seconds": 2.0,)"
      R"( "min_seconds": 2.0, "max_seconds": 2.0, "stddev_seconds": 0.0,)"
      R"( "counters": {}}]})";
  const BenchReport p = parse_bench_report(json);
  EXPECT_EQ(p.schema_version, 0);
  ASSERT_EQ(p.entries.size(), 1u);
  EXPECT_EQ(p.entries[0].name, "k");
  EXPECT_DOUBLE_EQ(p.entries[0].median_seconds, 2.0);
}

TEST(BenchReport, UnknownKeysAreSkipped) {
  const std::string json =
      R"({"schema_version": 1, "binary": "x", "future_field": [1, {"a": 2}],)"
      R"( "metadata": {"k": "v"}, "benchmarks": []})";
  const BenchReport p = parse_bench_report(json);
  EXPECT_EQ(p.schema_version, 1);
  EXPECT_EQ(p.binary, "x");
}

TEST(BenchReport, MalformedJsonThrows) {
  EXPECT_THROW(parse_bench_report(""), Error);
  EXPECT_THROW(parse_bench_report("{"), Error);
  EXPECT_THROW(parse_bench_report("[1,2]"), Error);
  EXPECT_THROW(parse_bench_report(R"({"binary": )"), Error);
}

TEST(BenchReport, LoadMissingFileThrows) {
  EXPECT_THROW(load_bench_report("/nonexistent/bench.json"), Error);
}

TEST(BenchReport, FindLocatesEntriesByName) {
  const BenchReport r = sample_report();
  ASSERT_NE(r.find("model/DLR1"), nullptr);
  EXPECT_DOUBLE_EQ(r.find("model/DLR1")->counters[0].second, 0.31);
  EXPECT_EQ(r.find("absent"), nullptr);
}

TEST(BenchReport, MachineFingerprintNamesTheHost) {
  const auto fp = machine_fingerprint();
  std::set<std::string> keys;
  for (const auto& [k, v] : fp) keys.insert(k);
  for (const char* want : {"hostname", "cores", "compiler", "arch", "os",
                           "cxx_flags"})
    EXPECT_TRUE(keys.count(want)) << "missing fingerprint key: " << want;
  for (const auto& [k, v] : fp)
    if (k == "cores") EXPECT_GT(std::stoi(v), 0);
}

TEST(BenchReport, EntryFromStatsCopiesTheSummary) {
  MeasureStats s;
  s.reps = 4;
  s.mean_seconds = 2.0;
  s.median_seconds = 1.9;
  s.min_seconds = 1.5;
  s.max_seconds = 2.6;
  s.stddev_seconds = 0.4;
  const BenchEntry e = entry_from_stats("k", s, {{"GF/s", 3.0}});
  EXPECT_EQ(e.repetitions, 4);
  EXPECT_DOUBLE_EQ(e.mean_seconds, 2.0);
  EXPECT_DOUBLE_EQ(e.median_seconds, 1.9);
  EXPECT_DOUBLE_EQ(e.min_seconds, 1.5);
  EXPECT_DOUBLE_EQ(e.max_seconds, 2.6);
  EXPECT_DOUBLE_EQ(e.stddev_seconds, 0.4);
  ASSERT_EQ(e.counters.size(), 1u);
  EXPECT_EQ(e.counters[0].first, "GF/s");
}

TEST(BenchReport, ConsumeJsonFlag) {
  std::string path, err;

  {
    const char* raw[] = {"bench", "--smoke", "--json", "out.json", "--list"};
    char** argv = const_cast<char**>(raw);
    int argc = 5;
    EXPECT_TRUE(consume_json_flag(&argc, argv, &path, &err));
    EXPECT_EQ(path, "out.json");
    ASSERT_EQ(argc, 3);  // flag + value stripped, order kept
    EXPECT_STREQ(argv[1], "--smoke");
    EXPECT_STREQ(argv[2], "--list");
  }
  {
    const char* raw[] = {"bench", "--json=x.json"};
    char** argv = const_cast<char**>(raw);
    int argc = 2;
    path.clear();
    EXPECT_TRUE(consume_json_flag(&argc, argv, &path, &err));
    EXPECT_EQ(path, "x.json");
    EXPECT_EQ(argc, 1);
  }
  {
    // A bare --json must not swallow the following flag.
    const char* raw[] = {"bench", "--json", "--smoke"};
    char** argv = const_cast<char**>(raw);
    int argc = 3;
    EXPECT_FALSE(consume_json_flag(&argc, argv, &path, &err));
    EXPECT_FALSE(err.empty());
  }
  {
    const char* raw[] = {"bench", "--json="};
    char** argv = const_cast<char**>(raw);
    int argc = 2;
    err.clear();
    EXPECT_FALSE(consume_json_flag(&argc, argv, &path, &err));
    EXPECT_FALSE(err.empty());
  }
  {
    const char* raw[] = {"bench", "--json"};
    char** argv = const_cast<char**>(raw);
    int argc = 2;
    EXPECT_FALSE(consume_json_flag(&argc, argv, &path, &err));
  }
}

}  // namespace
}  // namespace spmvm::obs

namespace spmvm::suite {
namespace {

TEST(SuiteRegistry, IsFixedAndOrdered) {
  const auto s = scenarios();
  ASSERT_EQ(s.size(), 10u);
  const std::vector<std::string> names = {
      "host_kernels",    "auto_format",     "auto_model",
      "model_deviation", "host_reference",  "exec_backends",
      "pcie_thresholds", "dist_comm_modes", "dist_comm",
      "serve"};
  std::set<std::string> seen;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].name, names[i]);
    EXPECT_NE(s[i].description[0], '\0');
    EXPECT_NE(s[i].run, nullptr);
    seen.insert(s[i].name);
  }
  EXPECT_EQ(seen.size(), s.size());  // names unique
}

TEST(SuiteRegistry, DeterministicScenariosReproduce) {
  // Model-only scenarios must emit bit-identical reports on every run —
  // the property the CI regression gate relies on.
  SuiteConfig cfg;
  cfg.smoke = true;
  cfg.min_reps = 1;
  cfg.min_seconds = 0.0;
  for (const char* filter :
       {"pcie_thresholds", "dist_comm_modes", "exec_backends", "serve",
        "auto_model"}) {
    const obs::BenchReport a = run_suite(cfg, filter);
    const obs::BenchReport b = run_suite(cfg, filter);
    ASSERT_FALSE(a.entries.empty()) << filter;
    ASSERT_EQ(a.entries.size(), b.entries.size()) << filter;
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
      EXPECT_EQ(a.entries[i].name, b.entries[i].name);
      EXPECT_EQ(a.entries[i].counters, b.entries[i].counters) << filter;
      EXPECT_EQ(a.entries[i].mean_seconds, b.entries[i].mean_seconds);
    }
  }
}

TEST(SuiteRegistry, RunSuiteStampsFingerprintAndConfig) {
  SuiteConfig cfg;
  cfg.smoke = true;
  const obs::BenchReport r = run_suite(cfg, "pcie_thresholds");
  std::set<std::string> keys;
  for (const auto& [k, v] : r.metadata) keys.insert(k);
  for (const char* want :
       {"hostname", "cores", "compiler", "mode", "min_reps", "filter"})
    EXPECT_TRUE(keys.count(want)) << "missing metadata key: " << want;
  EXPECT_EQ(r.binary, "bench_suite");
  EXPECT_EQ(r.schema_version, obs::kBenchSchemaVersion);
  // Filter selects exactly the one scenario's entries.
  for (const obs::BenchEntry& e : r.entries)
    EXPECT_EQ(e.name.rfind("pcie/", 0), 0u) << e.name;
}

TEST(SuiteRegistry, SuiteReportSurvivesJsonRoundTrip) {
  SuiteConfig cfg;
  cfg.smoke = true;
  const obs::BenchReport r = run_suite(cfg, "dist_comm_modes");
  const obs::BenchReport p = obs::parse_bench_report(r.to_json());
  ASSERT_EQ(p.entries.size(), r.entries.size());
  for (std::size_t i = 0; i < r.entries.size(); ++i) {
    EXPECT_EQ(p.entries[i].name, r.entries[i].name);
    // The writer prints %.9g, so model seconds survive to ~1e-9 relative.
    EXPECT_NEAR(p.entries[i].mean_seconds, r.entries[i].mean_seconds,
                1e-8 * std::abs(r.entries[i].mean_seconds) + 1e-15);
  }
}

}  // namespace
}  // namespace spmvm::suite
