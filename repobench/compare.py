"""Paired comparison of two checkouts with the same benchmark code.

Usage::

    python3 repobench/compare.py --parent ../parent --change . \\
        --pairs 10 --claim p50_us:reads

Both checkouts are measured by *this* checkout's ``run.py`` (``--root``
points it at the other tree's ``src/``), on every workload of
``BENCHMARK.json``, pair by pair with a fresh seed per pair (``SEED0``,
``SEED0 + 1``, ...), alternating which side runs first.  At least
:data:`MIN_PAIRS` pairs are run.  For every (metric, workload) the tool
prints each side's median and quartiles and a verdict
under the benchmark's own bounds:

``ok``          the change's median is not worse than the parent's by more
                than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the parent's own spread (inter-quartile range over median)
                is wider than the bound, and the change did not read
                better than the parent in every run.

A ``--claim metric:workload`` holds when at least :data:`MIN_PAIRS` pairs
ran, the change won at least nine pairs in ten (ties count for neither
side) and the medians differ by more than the parent's inter-quartile
range.  The exit code is 1 when any pair regressed, any run failed its
correctness check, or a claim was not shown.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Fewest pairs a comparison runs, and a claim needs (choosing-metrics §8).
MIN_PAIRS = 10
#: Seed of the first pair; pair ``i`` uses ``SEED0 + i``.
SEED0 = 1000


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> tuple[str, int]:
    """(verdict, pairs the change won) for one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    worse = sign * (statistics.median(change) - pmed) / pmed
    spread = (p3 - p1) / pmed
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return ("regressed" if worse > bound else "ok"), wins


def claim_holds(parent, change, better: str, wins: int) -> bool:
    p1, pmed, p3 = quartiles(parent)
    gain = (pmed - statistics.median(change)) * (1.0 if better == "lower" else -1.0)
    return (len(parent) >= MIN_PAIRS and wins >= math.ceil(0.9 * len(parent))
            and gain > (p3 - p1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--claim", action="append", default=[], help="metric:workload")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"need at least {MIN_PAIRS} pairs")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]  # run length is the benchmark's, on both sides
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {(side, w): [] for side in sides for w in workloads}
    failures = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_once(sides[side], w, SEED0 + i, seconds)
                if not result["correct"]:
                    failures.append(f"{side} {w} seed {SEED0 + i}")
                values[side, w].append(result["metrics"])
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr, flush=True)
    bad = bool(failures)
    wins_of = {}
    print(f"{'metric':18s} {'workload':8s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} wins  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for w in workloads:
            parent = [m[name]["value"] for m in values["parent", w]]
            change = [m[name]["value"] for m in values["change", w]]
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            wins_of[name, w] = (parent, change, metric["better"], wins)
            bad |= result == "regressed"
            pq = "/".join(f"{x:.4g}" for x in quartiles(parent))
            cq = "/".join(f"{x:.4g}" for x in quartiles(change))
            print(f"{name:18s} {w:8s} {pq:>32s} {cq:>32s} {wins:2d}/{args.pairs}  {result}")
    for claim in args.claim:
        name, w = claim.split(":")
        parent, change, better, wins = wins_of[name, w]
        holds = claim_holds(parent, change, better, wins)
        bad |= not holds
        print(f"claim {claim}: {'holds' if holds else 'not shown'} "
              f"({wins}/{args.pairs} pairs won)")
    for failure in failures:
        print(f"incorrect run: {failure}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
