#!/usr/bin/env python3
"""Builds the performance ledger from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <hatp-wide|hatp-narrow|fixed-pool>
                             --seed <n> --seconds <s> --trace <0|1>

The ledger binary is configured with CMake (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; a rebuild is
incremental. Build output goes to standard error. The ledger's standard
output is passed through: its last line is the result JSON. The exit code is
the ledger's, or non-zero when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_ledger",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench_ledger"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    sys.stdout.flush()
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(build_dir / "work")]).returncode


if __name__ == "__main__":
    sys.exit(main())
