#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload <sweep|serve|halo> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the libraries under src/ and the benchmark under perfbench/ into
.bench_build/perfbench (Release, incremental), runs one workload and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics
plus a Chrome trace under .bench_build/traces/. Build and run logs go to
standard error; the full result, including the regime the run saw, is
kept under .bench_build/results/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(cmd):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))
    if r.returncode != 0:
        fail(f"exit code {r.returncode}: " + " ".join(cmd))
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail("no result line")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        fail(f"malformed result line: {e}")


def validate(result, expected):
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} is not a finite number: {v!r}")
        if m.get("unit") != expected[name]:
            fail(f"metric {name} has unit {m.get('unit')!r}, expected {expected[name]!r}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        fail("no operation attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own helper tests")
    a = ap.parse_args()

    if a.selftest:
        build()
        r = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT)
        sys.exit(r.returncode)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if a.seed < 0 or not seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    group = spec["per_layer"] if a.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in group}

    build()
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(float(seconds)),
           "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".json")]
    result = run_binary(cmd)
    validate(result, expected)

    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
