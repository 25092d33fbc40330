#!/usr/bin/env python3
"""Builds the pod-simulator benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tab3_plb --seed 1 --seconds 25 --trace 0

`--trace 0` runs the end-to-end binary and prints the end-to-end metrics;
`--trace 1` runs the traced binary, prints the per-layer metrics and writes
the span file and per-layer summary into `perfbench/out/`. The last line of
standard output is the JSON result. Any failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("tab3_plb", "limiter_overload", "cps_churn", "tiers_zipf")
# Leaves room under the 180 s limit for the build check and start-up.
RUN_TIMEOUT_S = 170


def fail(msg: str) -> "NoReturn":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> Path:
    """Builds both binaries in release mode; returns the binary directory."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(BENCH_DIR / "Cargo.toml"),
        "--bins",
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", BENCH_DIR / "target"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "release"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    bin_dir = build()
    exe = bin_dir / ("pod_traced" if args.trace else "pod")
    cmd = [
        str(exe),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        cmd += ["--out", str(BENCH_DIR / "out")]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{exe.name} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    print(done.stdout, end="")


if __name__ == "__main__":
    main()
