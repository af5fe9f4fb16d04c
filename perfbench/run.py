#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/, which compiles the ff libraries
from src/) with CMake into .bench_build/ at the repository root, then runs
one workload:

    python3 perfbench/run.py --workload fig3_network --seed 1 \
        --seconds 10 --trace 0

Build output goes to stderr and the driver's stdout passes through, so the
last line of stdout is the result JSON. --trace 1 also writes the traced
run's spans to .bench_build/spans-<workload>-<seed>.jsonl. --smoke
shortens every simulated horizon (used by the schema tests).
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SystemExit("run.py: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise SystemExit("run.py: build failed")
    return BUILD


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build_dir = build(["ffbench"])
    cmd = [str(build_dir / "ffbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--spans-out", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
