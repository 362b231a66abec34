#!/usr/bin/env python3
"""Builds and runs the MultiPub end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload des_fanout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the middleware sources
under src/ plus the harness) into .bench_build/perfbench; later calls only
re-check the build. The benchmark's last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; this script
checks that its metric names and units are exactly the ones BENCHMARK.json
lists for the requested mode, and exits non-zero when the build fails, the
run fails a correctness audit, or the result does not match.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("des_fanout", "des_cohort", "live_fanout", "control_churn")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs a build step; its output goes to stderr only on failure."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        fail("failed: " + " ".join(command))


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
               BUILD_TIMEOUT_S)
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are not correct/attempted/failed/metrics")
    expected = expected_metrics(trace)
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(expected - got), sorted(got - expected)))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary], cwd=ROOT, check=False).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    os.makedirs(TRACES, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACES]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit code %d)" % done.returncode)
    result = check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        sys.exit(done.returncode or 1)


if __name__ == "__main__":
    main()
