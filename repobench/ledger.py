"""The layer ledger: spans recorded around the program's public callables.

Nothing inside ``src/`` is edited.  :meth:`Ledger.installed` replaces each
boundary callable (a module function as the calling module looks it up,
or a class attribute) with a wrapper that records one span, and restores
the originals on exit.  Spans live in memory as tuples

    ``(span_id, name, t0_ns, t1_ns, parent_id, op_id)``

where ``parent_id`` is the innermost enclosing recorded span (-1 at top
level) and ``op_id`` is ``(pass, op)``: the traced pass and the workload
op (build, record or frame) that was running, or -1 between ops; spans
between ops (per-pass preparation, stats reads) are kept in the dump but
left out of the metrics.  A span's *self* time is its duration minus its direct children.

Pipeline stages are timed by wrapping the public
``repro.core.pipeline.get_strategy``: it returns the registered spec with
a timed ``fn``, so no simulated ``Machine`` (whose charging would inflate
stage times) is involved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
import time

from repro import api
from repro.cluster import backend as backend_mod
from repro.cluster import router as router_mod
from repro.cluster.backend import ProcessBackend
from repro.cluster.router import ShardRouter
from repro.core import pipeline
from repro.obs import Sink
from repro.runtime.process import ProcessTeam
from repro.service import BCCIndex, ServiceEngine
from repro.service import engine as engine_mod
from repro.service import store, updates

STAGES = pipeline.STAGE_ORDER

#: (owner, attribute, boundary name).  Module-level functions are patched
#: in the module the caller resolves them from at call time.
BOUNDARIES = (
    (store, "graph_fingerprint", "store.fingerprint"),
    (updates, "apply_add_edges", "updates.apply"),
    (updates, "apply_remove_edges", "updates.apply"),
    (engine_mod, "classify_add", "deltalog.classify"),
    (engine_mod, "classify_remove", "deltalog.classify"),
    (ServiceEngine, "add_edges", "engine.update"),
    (ServiceEngine, "remove_edges", "engine.update"),
    (engine_mod, "plan_maintenance", "maintenance.plan"),
    (engine_mod, "apply_plan", "maintenance.apply"),
    (updates, "extend_index", "updates.patch"),
    (updates, "shrink_index", "updates.patch"),
    (BCCIndex, "build", "index.build"),
    (api, "biconnected_components", "core.bcc"),
    (BCCIndex, "__init__", "index.ctor"),
    (BCCIndex, "same_bcc", "index.point"),
    (BCCIndex, "is_articulation", "index.point"),
    (BCCIndex, "is_bridge", "index.point"),
    (BCCIndex, "component_of_edge", "index.point"),
    (BCCIndex, "num_components", "index.point"),
    (BCCIndex, "same_bcc_many", "index.batch"),
    (BCCIndex, "is_articulation_many", "index.batch"),
    (BCCIndex, "is_bridge_many", "index.batch"),
    (BCCIndex, "component_of_edge_many", "index.batch"),
    (BCCIndex, "classify_edges", "index.batch"),
    (ServiceEngine, "query", "engine.query"),
    (ServiceEngine, "query_many", "engine.query"),
    (ShardRouter, "apply_batch", "cluster.frame"),
    (router_mod, "split_records", "cluster.split"),
    (router_mod, "gather", "cluster.gather"),
    (ProcessBackend, "execute", "cluster.execute"),
    (backend_mod, "decode_answer", "cluster.decode"),
    (ProcessTeam, "zeros", "runtime.shm"),
    (ProcessTeam, "release", "runtime.shm"),
)

#: Per-layer timing metrics: (metric, boundary, unit, statistic).
#: ``incl`` is the median call duration, ``self`` the median self time,
#: ``per_op`` the median over ops of the boundary's summed duration.
TIMED = (
    ("store.fingerprint_us", "store.fingerprint", "us", "incl"),
    ("updates.apply_us", "updates.apply", "us", "incl"),
    ("deltalog.classify_us", "deltalog.classify", "us", "incl"),
    ("engine.update_self_us", "engine.update", "us", "self"),
    ("maintenance.plan_us", "maintenance.plan", "us", "incl"),
    ("maintenance.apply_ms", "maintenance.apply", "ms", "self"),
    ("updates.patch_ms", "updates.patch", "ms", "incl"),
    ("index.build_ms", "index.build", "ms", "incl"),
    ("core.bcc_ms", "core.bcc", "ms", "incl"),
    *((f"core.stage.{s}_ms", f"core.stage.{s}", "ms", "incl") for s in STAGES),
    ("index.ctor_ms", "index.ctor", "ms", "self"),
    ("index.point_us", "index.point", "us", "incl"),
    ("engine.query_self_us", "engine.query", "us", "self"),
    ("cluster.frame_us", "cluster.frame", "us", "incl"),
    ("cluster.split_us", "cluster.split", "us", "incl"),
    ("cluster.gather_us", "cluster.gather", "us", "incl"),
    ("cluster.execute_us", "cluster.execute", "us", "incl"),
    ("cluster.decode_us", "cluster.decode", "us", "incl"),
    ("runtime.shm_us", "runtime.shm", "us", "per_op"),
)

#: Counts read from the program's public stats or from answers, per pass.
COUNTS = (
    ("maintenance.incremental", "count"),
    ("maintenance.full", "count"),
    ("maintenance.bailouts", "count"),
    ("cluster.rejected", "count"),
)

_SCALE = {"us": 1e-3, "ms": 1e-6}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out = []
    for metric, boundary, unit, _ in TIMED:
        out.append((metric, unit))
        out.append((f"{boundary}.calls", "count"))
    out.append(("index.batch_ns_per_item", "ns/item"))
    out.append(("index.batch.calls", "count"))
    out.extend(COUNTS)
    out.append(("engine.cache_hit_ratio", "ratio"))
    out.append(("obs.events_per_query", "events/query"))
    out.append(("obs.trace_overhead", "ratio"))
    return out


class EventCounter(Sink):
    """Counts every instant event emitted on a telemetry it is added to."""

    def __init__(self):
        self.events = 0

    def on_event(self, name, path, t_ns, attrs) -> None:
        self.events += 1


class Ledger:
    """In-memory span recorder (see module docstring)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.pass_no = 0
        self.bailouts = 0
        self.batch_items = 0
        self._stack: list[tuple[int, str]] = []
        self._next = 0

    def _wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            # a scalar index query is a size-1 wrapper over a batch kernel:
            # its inner kernel call stays inside the point span
            if name == "index.batch" and stack and stack[-1][1] == "index.point":
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, (self.pass_no, self.op)))
            if self.op == -1:
                pass  # outside every workload op, like the spans left out below
            elif name == "maintenance.apply" and result is None:
                self.bailouts += 1
            elif name == "index.batch":
                self.batch_items += len(result["block"] if isinstance(result, dict) else result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block (one pass)."""
        self.pass_no += 1
        self.op = -1
        saved = []
        try:
            for owner, attr, name in BOUNDARIES:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            lookup = pipeline.get_strategy
            timed_specs: dict = {}

            def get_strategy(stage, strategy):
                spec = lookup(stage, strategy)
                key = (stage, strategy)
                if key not in timed_specs:
                    timed_specs[key] = dataclasses.replace(
                        spec, fn=self._wrap(f"core.stage.{stage}", spec.fn))
                return timed_specs[key]

            saved.append((pipeline, "get_strategy", lookup))
            pipeline.get_strategy = get_strategy
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------- #

    def per_boundary(self) -> dict:
        """boundary -> list of (op, duration_ns, self_ns), in span order."""
        child_ns: dict[int, int] = {}
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        out: dict[str, list] = {}
        for sid, name, t0, t1, _, op in sorted(self.spans):
            if op[1] == -1:
                continue  # outside every workload op: per-pass preparation
            dur = t1 - t0
            out.setdefault(name, []).append((op, dur, dur - child_ns.get(sid, 0)))
        return out


def layer_metrics(ledger: Ledger, passes: int, counts: dict, ratios: dict) -> dict:
    """The per-layer metric dict of a traced run.

    ``ledger`` holds the spans of ``passes`` traced passes; ``counts``
    and ``ratios`` carry the values read from public stats and answers.
    Call counts are per pass, so they repeat exactly for a fixed seed.
    """
    rows = ledger.per_boundary()
    out = {}
    for metric, boundary, unit, stat in TIMED:
        calls = rows.get(boundary, [])
        if not calls:
            value = 0.0
        elif stat == "per_op":
            per_op: dict = {}
            for op, dur, _ in calls:
                per_op[op] = per_op.get(op, 0) + dur
            value = statistics.median(per_op.values()) * _SCALE[unit]
        else:
            column = 1 if stat == "incl" else 2
            value = statistics.median(c[column] for c in calls) * _SCALE[unit]
        out[metric] = (value, unit)
        out[f"{boundary}.calls"] = (len(calls) / passes, "count")
    batch = rows.get("index.batch", [])
    out["index.batch_ns_per_item"] = (
        sum(c[1] for c in batch) / ledger.batch_items if ledger.batch_items else 0.0,
        "ns/item",
    )
    out["index.batch.calls"] = (len(batch) / passes, "count")
    out["maintenance.bailouts"] = (ledger.bailouts / passes, "count")
    for name, value in counts.items():
        out[name] = (value / passes, "count")
    for name, (value, unit) in ratios.items():
        out[name] = (value, unit)
    for name, unit in metric_names():
        out.setdefault(name, (0, unit))
    return out
