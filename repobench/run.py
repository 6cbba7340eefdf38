"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload reads --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same work and prints the per-layer
ledger plus the tracing overhead.  The last line of standard output is
the result object; the line before it is the run envelope with the
details behind each number.  A traced run also writes its spans to
``.bench_out/`` in the measured checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCHEMA_VERSION = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "p50_us": "us",
    "tail_us": "us",
    "update_p50_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("build", "reads", "churn", "routed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=str(HERE.parent),
                    help="checkout whose src/ is measured (default: this one)")
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes are for the benchmark's own tests")
    return ap.parse_args(argv)


def source_digest(src: Path) -> str:
    """Content hash of the measured package, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev(root: Path) -> str:
    """HEAD of the measured checkout, or "" when it is not a git work tree."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return ""  # not a work tree, or one that merely contains the checkout
    return lines[1]


def envelope(args, root: Path) -> dict:
    import numpy

    return {
        "schema_version": SCHEMA_VERSION,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root / "src"),
        "command": [sys.executable, *sys.argv],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def measure(workload, seconds: float, trace: bool):
    """Set up, prepare, and run passes for ``seconds``; returns a report."""
    from ledger import Ledger
    from probe import probe_us, scaled_call
    from workloads import peak_rss_mb, reset_peak_rss

    for _ in range(20):
        probe_us()  # its first calls pay one-time dispatch and cache costs
    setup_s = []
    for i in range(SETUP_REPEATS):
        problems = workload.teardown() if i else []
        if problems:
            raise RuntimeError("; ".join(problems))
        setup_s.append(scaled_call(workload.setup))
    workload.prepare()
    gc.collect()
    # an untimed first pass warms the heap, so no timed pass pays for
    # growing it, and gives the peak memory of one pass from live memory
    reset_peak_rss()
    warm = workload.run_pass(None)
    peak = peak_rss_mb(workload.child_pids())
    ledger = Ledger() if trace else None
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or len(plain) < MIN_PASSES
           or (trace and len(traced) < MIN_PASSES)):
        gc.collect()  # no pass pays for another's garbage
        if trace and len(plain) > len(traced):
            with ledger.installed():
                traced.append(workload.run_pass(ledger))
        else:
            plain.append(workload.run_pass(None))
    return setup_s, warm, peak, plain, traced, ledger


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package to measure at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from ledger import layer_metrics
    from workloads import WORKLOADS, pin_client

    env = envelope(args, root)
    pin_client()
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        setup_s, warm, peak, plain, traced, ledger = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        problems = workload.close()
    passes = [warm, *plain, *traced]
    attempted = sum(p["tally"].attempted for p in passes)
    failed = sum(p["tally"].failed for p in passes)
    errors = [p["tally"].first_error for p in passes if p["tally"].first_error]
    summary, details = workload.summarize(plain)
    raw, _ = workload.summarize([p["raw"] for p in plain])
    details.update({
        "throughput_per_pass": [p["throughput"] for p in plain],
        "unscaled": raw,
        "unscaled_throughput_per_pass": [p["raw"]["throughput"] for p in plain],
        "probe_us_per_pass": [p["probe_us"] for p in plain],
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_s_each": [s for s, _, _ in setup_s],
        "setup_unscaled_s_each": [raw for _, raw, _ in setup_s],
        "setup_probe_us_each": [probe for _, _, probe in setup_s],
        "first_error": errors[0] if errors else "",
        "shutdown_problems": problems,
        "why": workload.why,
    })
    if args.trace:
        untraced = statistics.median(p["tally"].busy_s for p in plain)
        overhead = statistics.median(p["tally"].busy_s for p in traced) / untraced - 1.0
        ratios = workload.layer_ratios(traced)
        ratios["obs.trace_overhead"] = (overhead, "ratio")
        values = layer_metrics(ledger, len(traced), workload.layer_counts(traced), ratios)
        write_spans(root, args, env, ledger)
    else:
        summary["peak_rss_mb"] = peak
        summary["setup_s"] = statistics.median(s for s, _, _ in setup_s)
        values = {k: (summary[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    print(json.dumps({"envelope": env, "details": details}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def write_spans(root: Path, args, env: dict, ledger) -> None:
    """Spans of the traced passes, as ``[id, name, t0_ns, t1_ns, parent, op]``."""
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"envelope": env, "spans": ledger.spans}))


if __name__ == "__main__":
    sys.exit(main())
