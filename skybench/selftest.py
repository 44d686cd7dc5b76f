#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny input size.

    python3 skybench/selftest.py

Run from the root of a checkout; takes under a minute after the build.
It checks, for every workload, that

  * every metric BENCHMARK.json names is printed, with its unit, in
    the untraced (end-to-end) and the traced (per-layer) run, that the
    run is correct with no failed operation, and that no end-to-end
    metric reads 0;
  * a deliberately corrupted reference makes every operation count as
    failed and the run as incorrect;
  * two runs with the same seed give identical deterministic counters
    (wire bytes, records, byte composition), and on the engines another
    seed gives other wire bytes;

and that the benchmark exits non-zero, without a result, in a
directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spark-tc", "flink-tpch", "media-model")

# Per-layer counters that depend only on the seed.
DETERMINISTIC = (
    "minispark.records_shuffled",
    "miniflink.records_shuffled",
    "skyway.sender.objects",
    "skyway.sender.header_bytes",
    "skyway.sender.pointer_bytes",
    "skyway.sender.padding_bytes",
    "skyway.sender.data_bytes",
    "skyway.wirecompact.saved_bytes",
    "skyway.wirecompact.compact_records",
    "net.bytes_sent",
    "net.messages_sent",
    "skyway.receiver.objects",
    "skyway.receiver.bytes",
    "skyway.receiver.refs_absolutized",
)

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("skybench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny", *extra]
    res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    result = None
    if res.returncode == 0:
        result = json.loads(res.stdout.rstrip("\n").split("\n")[-1])
    else:
        sys.stderr.write(res.stderr[-3000:])
    return res.returncode, result, res.stdout


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    end_to_end, per_layer = metric_lists()
    for w in WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            rc, r, out = run(w, 1, trace)
            check(rc == 0 and r is not None, "%s trace %d exits 0" % (w, trace))
            if r is None:
                continue
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s trace %d correct, no failed op" % (w, trace))
            got = {k: m["unit"] for k, m in r["metrics"].items()}
            check(got == want, "%s trace %d prints every metric with its "
                  "unit" % (w, trace))
            printed = all(any(line.split()[:1] == [name] and
                              line.split()[-1] == unit
                              for line in out.split("\n"))
                          for name, unit in want.items())
            check(printed, "%s trace %d summary lines name each metric and "
                  "unit" % (w, trace))
            if trace == 0:
                zero = [k for k, m in r["metrics"].items() if m["value"] <= 0]
                check(not zero, "%s end-to-end metrics nonzero %s" % (w, zero))

        rc, r, _ = run(w, 1, 0, "--corrupt-reference")
        check(rc == 0 and r is not None and not r["correct"] and
              r["failed"] == r["attempted"] > 0,
              "%s corrupted reference fails every op" % w)

        runs = [run(w, 7, 1)[1], run(w, 7, 1)[1]]
        check(all(runs) and
              all(runs[0]["metrics"][k]["value"] ==
                  runs[1]["metrics"][k]["value"] for k in DETERMINISTIC),
              "%s same seed repeats the deterministic counters" % w)
        wires = [run(w, s, 0)[1] for s in (7, 7, 8)]
        if all(wires):
            b = [x["metrics"]["wire_bytes"]["value"] for x in wires]
            # Media-content graphs have a fixed shape; only their
            # string contents change with the seed.
            moves = b[0] != b[2] or w == "media-model"
            check(b[0] == b[1] and moves,
                  "%s wire_bytes repeat for a seed, move with it %s" % (w, b))
        else:
            check(False, "%s wire_bytes runs exit 0" % w)

    # Without the runtime's sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "skybench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, r, out = run("media-model", 1, 0, cwd=bare)
    check(rc != 0 and r is None and '"correct"' not in out,
          "bare directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
