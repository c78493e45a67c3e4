#!/usr/bin/env python3
"""Builds and runs the corona wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds the corona library from src/ together with the benchmark driver
under $CARGO_TARGET_DIR (default .bench_build); later calls only check the
build.  Build output goes to stderr; the driver's last stdout line is the
JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no corona sources at {ROOT / 'src'}", file=sys.stderr)
        return 3

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (build / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=300)
        subprocess.run(["cmake", "--build", str(build), "-j", jobs,
                        "--target", "corona_perfbench"],
                       stdout=sys.stderr, check=True, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [str(build / "corona_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
