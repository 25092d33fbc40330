#!/usr/bin/env python3
"""A/B comparison of this checkout against a parent revision on perfbench.

Usage (from anywhere inside the repository):

    python3 scripts/perf_ab.py PARENT_REV [--pairs 10] [--seconds 25] [--seed N]

The parent is checked out with `git worktree` under `.bench_build/`, and
each tree is built and run with its own `perfbench/run.py`, with its Cargo
target under `.bench_build/<side>` at the repository root; a 1 s run per
side builds both before any timed run. The change side
is the working tree as it is, local edits included. Workloads and
end-to-end metrics come from `BENCHMARK.json`. Each pair runs every
workload on both sides with the same seed (`--seed` plus the pair index);
the side that runs first alternates from pair to pair.

For each workload and metric the script prints each side's median and
quartiles, the ratio of the medians (change / parent) and the number of
pairs the change won (ties count for neither side). It ends with one JSON
entry for `BENCH_e2e.json`, then removes the worktree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(
    subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
)
BUILD = ROOT / ".bench_build"
PARENT_TREE = BUILD / "parent-tree"
# The medians recorded in the BENCH_e2e.json entry.
ENTRY_METRICS = ("sim_pkts_per_s", "setup_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_side(tree: Path, side: str, workload: str, seed: int, seconds: int) -> dict:
    """Runs one workload on one side; returns its metric values by name."""
    cmd = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    env = {**os.environ, "CARGO_TARGET_DIR": str(BUILD / side)}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perf_ab: {side} {workload} seed {seed} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3); with fewer than two values all three are the value."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    parent = git("rev-parse", args.parent_rev)
    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"

    BUILD.mkdir(exist_ok=True)
    if PARENT_TREE.exists():
        git("worktree", "remove", "--force", str(PARENT_TREE))
    git("worktree", "add", "--detach", str(PARENT_TREE), parent)
    try:
        trees = {"parent": PARENT_TREE, "change": ROOT}
        # A 1 s run per side builds both binaries before anything is timed.
        for side, tree in trees.items():
            run_side(tree, side, workloads[0], args.seed, 1)
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            seed = args.seed + i
            for w in workloads:
                for side in order:
                    values = run_side(trees[side], side, w, seed, args.seconds)
                    runs[w][side].append(values)
                    print(
                        f"pair {i + 1}/{args.pairs} {w:<17} {side:<6} "
                        f"sim_pkts_per_s {values['sim_pkts_per_s']:.0f}",
                        file=sys.stderr,
                        flush=True,
                    )
    finally:
        git("worktree", "remove", "--force", str(PARENT_TREE))

    print(
        f"parent {parent[:12]}  change {commit[:12]}  "
        f"{args.pairs} pairs x {args.seconds} s, seeds {args.seed}..{args.seed + args.pairs - 1}"
    )
    header = f"{'workload':<17} {'metric':<17} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7} wins"
    print(header)
    entry_workloads = {}
    for w in workloads:
        entry_workloads[w] = {"parent": {}, "change": {}}
        for m in metrics:
            name = m["name"]
            p = [r[name] for r in runs[w]["parent"]]
            c = [r[name] for r in runs[w]["change"]]
            pq, cq = quartiles(p), quartiles(c)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            higher = m["better"] == "higher"
            wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(
                f"{w:<17} {name:<17} {fmt(pq):>32} {fmt(cq):>32} "
                f"{ratio:>7.3f} {wins}/{args.pairs}"
            )
            if name in ENTRY_METRICS:
                entry_workloads[w]["parent"][name] = pq[1]
                entry_workloads[w]["change"][name] = cq[1]
    entry = {
        "commit": commit,
        "parent": parent,
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": list(range(args.seed, args.seed + args.pairs)),
            "order": "alternating: parent first in odd-numbered pairs",
            "statistic": "median over pairs",
        },
        "workloads": entry_workloads,
    }
    print(json.dumps(entry, indent=2))


if __name__ == "__main__":
    main()
