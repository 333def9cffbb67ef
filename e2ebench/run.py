#!/usr/bin/env python3
"""Builds and runs the end-to-end FieldSwap benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pipeline_earnings, serve_tenants (see NOTES.md).

The first call configures and builds the benchmark and the library from
source (into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench) and
pre-trains the invoice candidate model into e2ebench/.work/; later calls
reuse both. Each call runs the benchmark's arithmetic self-tests, then the
workload. The last line of stdout is the result JSON, its metrics checked
against the names and units BENCHMARK.json declares (a per-layer metric the
workload does not report reads 0); a failed build, self-test, output check
or metric check exits non-zero without one.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline_earnings", "serve_tenants")
# The first run also builds the library and pre-trains the candidate model.
RUN_TIMEOUT_S = 800


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        log("%s: %s" % (cmd[0], error))
        return False


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line with its metrics checked against BENCHMARK.json, or
    None (after logging why) when one is undeclared, has another unit, or is
    a missing end-to-end metric."""
    declared = declared_metrics(trace)
    try:
        result = json.loads(line)
        metrics = result["metrics"]
    except (ValueError, TypeError, KeyError):
        log("no result line")
        return None
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            log("undeclared metric %s [%s]" % (name, metric["unit"]))
            return None
    for name, unit in declared.items():
        if name in metrics:
            continue
        if not trace:
            log("missing metric " + name)
            return None
        print("%-34s %16.6f %-8s n=0" % (name, 0, unit))
        metrics[name] = {"value": 0, "unit": unit}
    return result


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1), "--target", "e2ebench",
                      "e2ebench_selftest"], 900)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    if not build(build_dir):
        log("build failed")
        return 1
    if not run_quiet([os.path.join(build_dir, "e2ebench_selftest")], 60):
        log("self-test failed")
        return 1

    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(HERE, ".work")]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("benchmark timed out")
        return 1
    if child.returncode != 0:
        print(stdout, end="", flush=True)
        return child.returncode if child.returncode > 0 else 1
    lines = stdout.splitlines() or [""]
    print("\n".join(lines[:-1]), flush=True)
    result = check_result(lines[-1], args.trace == "1")
    if result is None:
        return 4
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
