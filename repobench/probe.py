"""Host-speed probe: fixed work, independent of the measured program.

On a shared host the speed of one core drifts by a third or more for
seconds at a time (other tenants, clock boost), which moves every wall
time of a run together.  The workloads run this probe between short
windows of ops and scale each window's raw times by
``REFERENCE_US / probe_us``: a time reported in ``us`` is the time the op
would have taken on the reference host.  Each probe point is the median
of :data:`PROBES` back-to-back probes, so a preemption inside one of them
does not rescale a whole window.  The probe's code never changes
with the program, so a change to the program moves the scaled time by
exactly as much as it moves the raw time on a steady host.

Ops do not all slow down as much as the probe does: work over arrays of
megabytes is held up by a contending neighbour about half as much as the
interpreter-bound probe.  Such ops are scaled by the factor raised to
:data:`ARRAY_SENSITIVITY`, a constant fitted once on the reference host.

The probe mixes the kinds of work the program does: interpreter dispatch
over a wide code footprint, many small numpy calls, and passes over
arrays larger than the first-level caches.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

#: Probe time on the reference host (2-vCPU cloud VM, CPython 3.11,
#: numpy 2.4, quiet-host level); only the unit of scaled times hangs on it.
REFERENCE_US = 700.0

#: Probes per probe point; their median is the point's host speed.
PROBES = 5

#: Exponent of the scale factor for work over arrays of megabytes (graph
#: generation, builds, ``put_graph``, updates and their patches, the write
#: path's edge lookups).  Over ten ``reads`` runs on hosts whose probe
#: ranged 550-1000 us, the raw no-op write time grew as the probe time to
#: the power 0.56; over 35 ``churn`` runs the fitted powers of its four
#: time metrics ranged 0.4-0.7.
ARRAY_SENSITIVITY = 0.5

_RNG = np.random.default_rng(12345)
_SMALL = [_RNG.integers(0, 1000, size=64) for _ in range(4)]
_KEYS = np.sort(_RNG.integers(0, 1 << 40, size=4096))
_NAMES = {i: str(i) for i in range(200)}
_ARRAY = _RNG.random(8192)
_BYTES = _RNG.integers(0, 256, size=1 << 17, dtype=np.uint8).tobytes()


def _work() -> int:
    # a wide code footprint (many numpy entry points, containers,
    # serialization) tracks interpreter-heavy ops far better than a
    # tight loop does when a neighbour contends for the core
    acc = 0
    for a in _SMALL:
        u = np.unique(a)
        acc += int(np.searchsorted(_KEYS, a).sum() % 3)
        acc += int(np.bincount(a % 16).max())
        acc += int(np.cumsum(a)[-1] % 7)
        acc += int(np.where(a > 500, a, 0).sum() % 5)
        acc += int(np.repeat(a[:8], 2).size)
        acc += int(np.isin(a[:16], u).sum())
        acc += int(np.concatenate([a, u]).argsort()[0])
        acc += len(json.dumps([int(x) for x in a[:16]]))
        acc += sum(len(_NAMES[k]) for k in range(0, 200, 7))
        acc += sorted(_NAMES, key=lambda k: -k)[0]
    acc += int(np.argsort(_ARRAY)[0])
    acc += hashlib.sha256(_BYTES).digest()[0]
    return acc


def probe_us() -> float:
    """Wall time of one probe, in microseconds."""
    t0 = time.perf_counter_ns()
    _work()
    return (time.perf_counter_ns() - t0) * 1e-3


def host_us() -> float:
    """Median of :data:`PROBES` back-to-back probes, in microseconds."""
    return statistics.median(probe_us() for _ in range(PROBES))


class Windows:
    """Per-op scale factors for one pass, from probes between op windows.

    A probe point (see :func:`host_us`) runs before the first op, after
    every ``every`` ops, and after the last; the ops of each window are
    scaled by the mean of the two points that bracket it.
    """

    def __init__(self, every: int):
        self.every = int(every)
        self.ops = 0
        self.probes = [host_us()]

    def tick(self) -> None:
        """Count one finished op (call it outside the op's timed region)."""
        self.ops += 1
        if self.ops % self.every == 0:
            self.probes.append(host_us())

    def factors(self) -> list[float]:
        """One factor per op, in op order: reference time over raw time."""
        if self.ops % self.every:
            self.probes.append(host_us())
        per_window = [2 * REFERENCE_US / (a + b) for a, b in zip(self.probes, self.probes[1:])]
        return [per_window[i // self.every] for i in range(self.ops)]


def scaled_call(fn) -> tuple[float, float, float]:
    """Run array work ``fn()`` (a set-up) between two probe points.

    Returns its reference-host seconds (the factor raised to
    :data:`ARRAY_SENSITIVITY`), its raw seconds and the mean of the two
    points.
    """
    before = host_us()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    probe = (before + host_us()) / 2
    return seconds * (REFERENCE_US / probe) ** ARRAY_SENSITIVITY, seconds, probe
