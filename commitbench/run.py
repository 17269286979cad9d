#!/usr/bin/env python3
"""Build and run the commit-path benchmark.

Usage, from the repository root:

    python3 commitbench/run.py --workload inflight-r4 --seed 1 --seconds 30 --trace 0

Builds commitbench/ (which compiles the repository's src/ tree) with CMake
into $CARGO_TARGET_DIR/commitbench, or .bench_build/commitbench when that
variable is unset, then runs the benchmark program. Build output goes to
standard error; the program's report, ending in one JSON line, goes to
standard output. Exits non-zero when the sources are missing, the build
fails, or any correctness or determinism check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inflight-r4", "wide-r13", "cluster-zipf")


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"commitbench: {needed} not found under {ROOT}; the "
                  "benchmark builds the program from the repository sources",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "commitbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"commitbench: build failed: {err}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run(
        [os.path.join(build_dir, "commit_bench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
