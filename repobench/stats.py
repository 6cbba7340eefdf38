"""Order statistics shared by the workloads.

A run replays fixed passes for as long as ``--seconds`` allows.  Latency
statistics pool the samples of all passes at percentiles fixed by one
pass (a median, or the tail one pass's sample count defines), and rates
are the median of per-pass rates, so no statistic drifts with the number
of passes that fit into a run.
"""

from __future__ import annotations

import math
import statistics

#: The tail percentile must leave at least this many samples above it.
TAIL_ABOVE = 10


def tail_rank(n: int) -> tuple[int, int]:
    """``(percentile, index)`` of the highest whole percentile of ``n``
    sorted samples that still has at least :data:`TAIL_ABOVE` above it.

    ``index`` is the nearest-rank position in the ascending sample list.
    Raises ``ValueError`` when ``n`` is too small to have such a tail.
    """
    if n <= TAIL_ABOVE:
        raise ValueError(f"need more than {TAIL_ABOVE} samples for a tail, got {n}")
    pct = math.floor(100 * (n - TAIL_ABOVE) / n)
    while True:
        index = max(math.ceil(pct * n / 100) - 1, 0)
        if n - 1 - index >= TAIL_ABOVE:
            return pct, index
        pct -= 1


def tail(samples, per_pass: int) -> float:
    """The tail of ``samples`` at the percentile :func:`tail_rank` gives
    for one pass of ``per_pass`` samples.

    ``samples`` may pool several passes: the percentile stays the one a
    single pass defines, so the statistic does not drift with the number
    of passes, and pooling only makes it more precise.
    """
    ordered = sorted(samples)
    pct, _ = tail_rank(per_pass)
    return ordered[max(math.ceil(pct * len(ordered) / 100) - 1, 0)]


def pooled(passes, key: str) -> dict:
    """Merge each pass's ``{group: [samples]}`` under ``key``."""
    out: dict = {}
    for p in passes:
        for group, samples in p[key].items():
            out.setdefault(group, []).extend(samples)
    return out


def weighted_medians(groups: dict, weights: dict) -> float:
    """Per-group medians combined with fixed weights (normalised).

    Used where one op stream mixes populations of very different cost: a
    plain median of the mix can land in the gap between populations and
    jump when their share shifts, while each group's median is steady.
    """
    total = sum(weights[k] for k in groups)
    return sum(statistics.median(groups[k]) * weights[k] for k in groups) / total


def median_of(passes, key: str) -> float:
    """Median over passes of one per-pass value."""
    return statistics.median(p[key] for p in passes)
