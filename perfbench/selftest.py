#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (under a minute):

    python3 perfbench/selftest.py

Checks that
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) named in BENCHMARK.json, with its unit,
    and that its outputs pass the reference check;
  * a deliberately corrupted part file is counted as a failed run;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")
TINY = ["--scale", "0.01", "--work", WORK]


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run(workload, trace)
            check(rc == 0 and result is not None,
                  "%s --trace %d prints a result" % (workload, trace))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s --trace %d result keys" % (workload, trace))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s --trace %d outputs match the reference"
                  % (workload, trace))
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == expected,
                  "%s --trace %d prints every %s metric with its unit"
                  % (workload, trace, key))
            numbers = all(isinstance(m["value"], (int, float))
                          for m in result["metrics"].values())
            check(numbers, "%s --trace %d values are numbers"
                  % (workload, trace))
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      "%s end-to-end metrics are non-zero" % workload)

    first = bench["workloads"][0]["name"]
    rc, result, _ = run(first, 0, ["--corrupt-run", "1"])
    check(rc == 0 and result is not None and result["failed"] == 1
          and not result["correct"],
          "a corrupted part file counts as one failed run")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = run(first, 0, cwd=bare)
    check(rc != 0 and result is None,
          "without the sources run.py fails and prints no result")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
