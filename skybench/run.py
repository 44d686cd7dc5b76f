#!/usr/bin/env python3
"""Build and run the repository benchmark (skybench/README.md).

    python3 skybench/run.py --workload spark-tc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds
the benchmark package (skybench/CMakeLists.txt, which builds the
runtime from src/) into .bench_build/skybench; later runs rebuild only
what changed. The measuring program's last output line is one JSON
object with the keys correct, attempted, failed and metrics; this
script checks it against BENCHMARK.json's metric lists and prints it
as its own last line. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "skybench")
BINARY = os.path.join(BUILD_DIR, "skybench")
WORKLOADS = ("spark-tc", "flink-tpch", "media-model")
# A run that hangs must not outlive the caller's budget.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no runtime sources under %s/src; run from a full checkout"
             % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "skybench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name -> unit) of the metrics BENCHMARK.json names for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        fail("no operation was attempted")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            fail("metric %s has keys %s" % (name, sorted(m)))
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s has no finite value" % name)
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        fail("metrics %s differ from BENCHMARK.json's %s"
             % (sorted(set(metrics) ^ set(want)),
                "per_layer" if trace else "end_to_end"))
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="input size; tiny is for the self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb the reference results (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    build()

    # The runtime's own tracer and debug validators stay off, and the
    # benchmark pins every mode it depends on: drop the runtime's
    # environment knobs.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SKYWAY_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        fail("the run exited with status %d" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the run printed no result line")
    check_result(result, args.trace)

    for line in lines[:-1]:
        print(line)
    print("run.py: measured in %.1f s" % (time.monotonic() - start))
    print(lines[-1])


if __name__ == "__main__":
    main()
