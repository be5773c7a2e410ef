// perfbench: the repository benchmark program.
//
//   perfbench --workload <sweep|serve|halo> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <path>]
//
// Logs go to stderr; the last stdout line is one JSON object with
// correct/attempted/failed, the metrics of the mode (end-to-end with
// --trace 0, per-layer with --trace 1) and the regime the run saw.
// perfbench/run.py builds this binary and forwards the result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sweep|serve|halo> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
}

bool parse(int argc, char** argv, perfbench::RunArgs* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--trace-out") {
      a->trace_path = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!parse(argc, argv, &args)) {
    usage();
    return 2;
  }
  // Spans are recorded only inside the traced replay, whatever the
  // environment says.
  spmvm::obs::set_tracing(false);
  spmvm::obs::set_trace_cap(0);

  perfbench::Report report;
  report.note("workload", args.workload);
  report.note("seed", static_cast<double>(args.seed));
  report.note("seconds", args.seconds);
  report.note("trace", args.trace ? 1.0 : 0.0);
  try {
    if (args.workload == "sweep") {
      perfbench::run_sweep(args, report);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, report);
    } else if (args.workload == "halo") {
      perfbench::run_halo(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0)
    report.note("max_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  const auto specs = args.trace ? perfbench::per_layer_specs()
                                : perfbench::end_to_end_specs();
  std::printf("%s\n", report.to_json(specs).c_str());
  return 0;
}
