#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload feasible --seed 1 --seconds 32 --trace 0

The program (perfbench/bench.ml) is built with dune inside the checkout
(default profile, dune cache disabled so nothing is written outside it), then
run with the same arguments plus the source revision when one is known.
Its standard output is passed through unchanged; the last line is the
result object.  The exit code is the program's: 0 when every verdict was
right, 1 on a wrong or missing verdict, 2 on a usage or build error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("feasible", "refute", "conn", "serve")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def source_revision():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    sys.stdout.flush()
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", source_revision()],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
