#!/usr/bin/env python3
"""End-to-end benchmark of textmr.

Builds the harness (perfbench/CMakeLists.txt, a Release build of the
textmr sources in ../src) into .bench_build/perfbench, then runs one
benchmark run and passes its output through. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload wordcount-hash --seed 1 \
        --seconds 8 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json at the root
of the checkout. Extra flags (--scale F, --corrupt-run K, --work DIR) go
to the harness unchanged; selftest.py uses them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "perfbench_harness"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no textmr sources at %s/src; run from a checkout"
              % ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 2

    cmd = [HARNESS, "bench", "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work", os.path.join(ROOT, ".bench_work")] + extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
