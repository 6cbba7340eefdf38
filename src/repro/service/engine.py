"""The biconnectivity query engine.

A :class:`ServiceEngine` owns a :class:`~repro.service.store.GraphStore`
and serves point queries (:data:`QUERY_OPS`) and batched queries
(:data:`BATCH_OPS`, one vectorized kernel call per batch) against
per-graph :class:`~repro.service.index.BCCIndex` instances.  Indexes are cached in an
LRU keyed by graph *fingerprint*: replacing a graph with a previously seen
edge set (an update that reverts, or a no-op batch) re-hits the cache
without recomputation.

Updates are lazy.  ``add_edges``/``remove_edges`` replace the stored
graph and append the effective delta — classified at write time — to a
per-graph :class:`~repro.service.deltalog.DeltaLog`; the next resolution
(inline or background) asks the maintenance-strategy registry of
:mod:`repro.service.maintenance` how to catch up.  Under the default
``maintenance="auto"`` a qualifying chain is patched incrementally via
the O(m) paths of :mod:`repro.service.updates` whenever that is priced
cheaper than one full rebuild with the configured algorithm (any name
from ``repro.api.ALGORITHMS``; default ``tv-filter``);
``maintenance="full"`` always rebuilds.  Consecutive updates between
queries coalesce into at most one resolution either way.

Index maintenance runs in one of two modes:

``rebuild_mode="sync"`` (default)
    The historical behaviour: the first query after an invalidating
    update resolves the index *inline* — replay or full rebuild on the
    query path.  Simple, always fresh, but the rebuild lands in some
    query's latency (the p99 tail the bench measures).

``rebuild_mode="async"`` (stale-while-revalidate)
    Queries read the last installed
    :class:`~repro.service.snapshot.IndexSnapshot` lock-free and never
    rebuild inline; a :class:`~repro.service.scheduler.RebuildScheduler`
    rebuilds off the query path and atomically swaps the snapshot in.
    ``coalesce_ms`` batches update bursts into one scheduled rebuild;
    ``staleness_budget_ms`` bounds how stale an answer may get before
    the engine falls back to a synchronous rebuild
    (``rebuild.force_sync``); ``max_pending_rebuilds`` bounds the
    scheduler queue.  Queries accept ``freshness="any"`` (default:
    serve the snapshot, possibly stale — emits ``index.stale_hit``)
    or ``freshness="fresh"`` (block for an exact index; bit-identical
    to the synchronous engine).  Async engines must be :meth:`close`-d
    (or used as context managers) so no rebuild thread outlives them;
    ``machine`` simulation is sync-only (the span stack is not
    thread-safe).

All work is optionally charged to a simulated :class:`repro.smp.Machine`
under three regions — ``Service-build``, ``Service-extend``,
``Service-query`` — so a workload's simulated cost decomposes exactly like
the paper's Fig. 4 step breakdowns.

The engine reports through a :class:`repro.obs.Telemetry`: every cache
hit/miss, rebuild, incremental extension, update, query, stale hit, and
snapshot swap is emitted as an instant event, and build/extend/query work
runs inside spans.  The public :attr:`ServiceEngine.stats` view
(:class:`EngineStats`) is assembled on demand from the engine's
:class:`~repro.obs.CounterSink`, plus the measured wall seconds of
finished full rebuilds (``rebuild_wall_s``).

Both modes keep the index current through one catch-up path:
:meth:`ServiceEngine._catch_up` plans against the delta log, patches or
rebuilds, and :meth:`ServiceEngine._publish` inserts the result into the
LRU and installs its snapshot.  An inline call (a query) runs inside
spans and charges the machine; the rebuild worker runs without them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from ..graph import Graph
from ..obs import CounterSink, Telemetry
from ..smp import Machine, NullMachine, Ops
from . import updates as upd
from .deltalog import MAX_PENDING_DELTAS, DeltaEntry, DeltaLog, classify_add, classify_remove
from .index import BCCIndex
from .maintenance import MAINTENANCE_MODES, apply_plan, plan_maintenance
from .scheduler import RebuildScheduler
from .snapshot import IndexSnapshot
from .store import GraphStore

__all__ = [
    "QUERY_OPS",
    "BATCH_OPS",
    "UPDATE_OPS",
    "REBUILD_MODES",
    "FRESHNESS_LEVELS",
    "MAINTENANCE_MODES",
    "MAX_PENDING_DELTAS",
    "EngineStats",
    "ServiceEngine",
]

#: Point-query operations the engine serves, with the per-query cost mix
#: charged to the simulated machine (a handful of dependent loads).
QUERY_OPS = {
    "same_bcc": Ops(random=6, alu=4),
    "is_articulation": Ops(random=1, alu=1),
    "is_bridge": Ops(random=2, alu=4),
    "component_of_edge": Ops(random=2, alu=4),
    "num_components": Ops(alu=1),
}

#: Batched query operations: ``(items parameter, per-item cost)``.  Each
#: resolves the index once per batch and answers via one vectorized
#: kernel of :class:`~repro.service.index.BCCIndex`; the simulated
#: machine is charged the per-item cost times the batch size inside a
#: single ``Service-query`` region entry.
BATCH_OPS = {
    "same_bcc_many": ("pairs", QUERY_OPS["same_bcc"]),
    "is_articulation_many": ("vs", QUERY_OPS["is_articulation"]),
    "is_bridge_many": ("pairs", QUERY_OPS["is_bridge"]),
    "component_of_edge_many": ("pairs", QUERY_OPS["component_of_edge"]),
    "classify_edges": ("pairs", Ops(random=3, alu=6)),
}

#: Batch update operations (``edges`` parameter: list of [u, v] pairs).
UPDATE_OPS = ("add_edges", "remove_edges")

#: Index maintenance modes (see module docstring).
REBUILD_MODES = ("sync", "async")

#: Query freshness levels under async maintenance.
FRESHNESS_LEVELS = ("any", "fresh")


@dataclass
class EngineStats:
    """Counters accumulated by a :class:`ServiceEngine` over its lifetime."""

    queries: int = 0
    updates: int = 0
    noop_updates: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rebuilds: int = 0
    incremental_extensions: int = 0
    evictions: int = 0
    #: async maintenance: queries served from a stale snapshot
    stale_hits: int = 0
    #: async maintenance: staleness budget exceeded -> inline rebuild
    forced_syncs: int = 0
    #: background rebuild jobs enqueued / completed-and-swapped / rejected
    rebuilds_queued: int = 0
    rebuild_swaps: int = 0
    rebuilds_rejected: int = 0
    #: maintenance decisions over a pending delta chain: refreshed by
    #: incremental patching vs by a full rebuild (plain first builds with
    #: no chain on file count in neither)
    rebuilds_incremental: int = 0
    rebuilds_full: int = 0
    #: pending (undrained) delta-log entries across all graphs, right now
    delta_log_depth: int = 0
    #: background rebuilds that raised; the previous snapshot kept serving
    rebuild_errors: int = 0
    last_rebuild_error: str = ""
    #: measured wall seconds spent in full index rebuilds (sync + async)
    rebuild_wall_s: float = 0.0
    #: measured wall seconds per maintenance strategy (only decisions
    #: taken over a pending delta chain; keys are strategy names)
    rebuild_wall_by_strategy: dict = field(default_factory=dict)
    #: worst staleness age observed at a stale hit or swap, in ms
    max_staleness_ms: float = 0.0
    per_op: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "cache_hit_rate": self.cache_hit_rate}


class ServiceEngine:
    """Serve biconnectivity point queries over named, updatable graphs."""

    def __init__(
        self,
        store: GraphStore | None = None,
        algorithm: str = "tv-filter",
        cache_size: int = 8,
        machine: Machine | None = None,
        telemetry: Telemetry | None = None,
        rebuild_mode: str = "sync",
        coalesce_ms: float = 0.0,
        staleness_budget_ms: float | None = 250.0,
        max_pending_rebuilds: int | None = 8,
        maintenance: str = "auto",
        clock=None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if rebuild_mode not in REBUILD_MODES:
            raise ValueError(
                f"unknown rebuild_mode {rebuild_mode!r}; choose from {REBUILD_MODES}"
            )
        if maintenance not in MAINTENANCE_MODES:
            raise ValueError(
                f"unknown maintenance {maintenance!r}; choose from {MAINTENANCE_MODES}"
            )
        if coalesce_ms < 0:
            raise ValueError(f"coalesce_ms must be >= 0, got {coalesce_ms}")
        if staleness_budget_ms is not None and staleness_budget_ms < 0:
            raise ValueError(
                f"staleness_budget_ms must be >= 0 (or None), got {staleness_budget_ms}"
            )
        self.store = store if store is not None else GraphStore()
        self.algorithm = algorithm
        self.cache_size = int(cache_size)
        self.machine = machine
        if telemetry is not None:
            self.telemetry = telemetry
        elif machine is not None and not isinstance(machine, NullMachine):
            # share the machine's span tree so service events and spans
            # interleave with the simulated per-region attribution
            self.telemetry = machine.telemetry
        else:
            self.telemetry = Telemetry()
        self._counters = self.telemetry.add_sink(CounterSink())
        self._cache: OrderedDict[str, BCCIndex] = OrderedDict()
        self._logs: dict[str, DeltaLog] = {}
        self._strategy_wall: dict[str, float] = {}
        self._rebuild_wall_s = 0.0
        self.maintenance = maintenance
        self.rebuild_mode = rebuild_mode
        self.coalesce_ms = float(coalesce_ms)
        self.staleness_budget_ms = staleness_budget_ms
        self._clock = clock if clock is not None else time.monotonic
        # snapshot installs/evictions and wall accounting are serialized
        # against the rebuild worker; snapshot *reads* stay lock-free
        # (GIL-atomic dict load)
        self._swap_lock = threading.Lock()
        self._snapshots: dict[str, IndexSnapshot] = {}
        self._dirty_since: dict[str, float] = {}
        self._max_staleness_ms = 0.0
        self._scheduler: RebuildScheduler | None = None
        if rebuild_mode == "async":
            if machine is not None and not isinstance(machine, NullMachine):
                raise ValueError(
                    "rebuild_mode='async' cannot be combined with a simulated "
                    "machine: background rebuilds run off the (thread-unsafe) "
                    "span stack; use rebuild_mode='sync' for cost-model runs"
                )
            self._scheduler = RebuildScheduler(
                self._background_rebuild,
                telemetry=self.telemetry,
                coalesce_s=self.coalesce_ms / 1000.0,
                max_pending=max_pending_rebuilds,
                clock=self._clock,
            )

    # ------------------------------------------------------------------ #
    # graph management
    # ------------------------------------------------------------------ #

    def put_graph(self, name: str, graph: Graph):
        """Store (or replace) a graph under ``name``."""
        if name in self.store:
            # wholesale replacement has no edge delta: the chain restarts
            self._logs.pop(name, None)
            entry = self.store.replace(name, graph)
            if self._scheduler is not None:
                self._mark_stale(name)
            return entry
        return self.store.put(name, graph)

    def remove_graph(self, name: str) -> None:
        """Drop ``name`` and everything the engine keeps for it.

        The store entry, the delta log, the installed snapshot and the
        staleness mark go, and a queued or running background rebuild is
        cancelled, so a graph later put under the same name starts clean
        (its store versions restart at 1).  Cached indexes stay in the
        LRU: it is keyed by content, not by name.
        """
        if self._scheduler is not None:
            self._scheduler.cancel(name)
        with self._swap_lock:
            # under the lock, so a worker's publish lands wholly before
            # the removal or sees its job cancelled
            self.store.remove(name)
            self._logs.pop(name, None)
            self._snapshots.pop(name, None)
            self._dirty_since.pop(name, None)

    def graph(self, name: str) -> Graph:
        return self.store.get(name)

    # ------------------------------------------------------------------ #
    # index resolution (cache + lazy update replay)
    # ------------------------------------------------------------------ #

    def _region(self, label: str):
        if self.machine is not None:
            return self.machine.region(label)
        return self.telemetry.span(label)

    def index_for(self, name: str, freshness: str = "any") -> BCCIndex:
        """The current index for ``name``: cached, replayed, or rebuilt.

        Sync mode resolves inline (always exact).  Async mode serves the
        installed snapshot — possibly stale under ``freshness="any"`` —
        and only resolves inline for ``freshness="fresh"``, a blown
        staleness budget, or a graph with no snapshot yet.
        """
        if freshness not in FRESHNESS_LEVELS:
            raise ValueError(
                f"unknown freshness {freshness!r}; choose from {FRESHNESS_LEVELS}"
            )
        entry = self.store.entry(name)
        if self._scheduler is None or freshness == "fresh":
            return self._index_sync(name, entry)
        return self._index_async(name, entry)

    def _index_sync(self, name: str, entry) -> BCCIndex:
        """The inline path: cache hit, or catch up on the query path."""
        snap = self._snapshots.get(name)
        if (snap is not None and snap.version == entry.version
                and snap.fingerprint == entry.fingerprint):
            # the installed snapshot answers for exactly this entry (both
            # fields: a removed and re-put name restarts versions at 1),
            # so _publish would change nothing but the LRU order
            try:
                self._cache.move_to_end(snap.fingerprint)
            except KeyError:
                pass  # evicted from the LRU: re-insert through _publish
            else:
                self.telemetry.event("cache.hit")
                return snap.index
        idx = self._cache.get(entry.fingerprint)
        if idx is not None:
            self.telemetry.event("cache.hit")
        else:
            self.telemetry.event("cache.miss")
            idx = self._catch_up(name, entry, inline=True)
        self._publish(name, idx, entry)
        return idx

    def _index_async(self, name: str, entry) -> BCCIndex:
        """Serve the snapshot; schedule revalidation instead of rebuilding."""
        snap = self._snapshots.get(name)
        if snap is not None and snap.fingerprint == entry.fingerprint:
            self.telemetry.event("cache.hit")
            return snap.index
        cached = self._cache.get(entry.fingerprint)
        if cached is not None:
            # content seen before (revert / no-op churn): instant swap
            self.telemetry.event("cache.hit")
            self._publish(name, cached, entry)
            return cached
        if snap is None:
            # first query for this name: nothing to serve stale yet
            return self._index_sync(name, entry)
        age_ms = self._staleness_ms(name)
        if (
            self.staleness_budget_ms is not None
            and age_ms > self.staleness_budget_ms
        ):
            self.telemetry.event("rebuild.force_sync")
            return self._index_sync(name, entry)
        self._max_staleness_ms = max(self._max_staleness_ms, age_ms)
        self.telemetry.event("index.stale_hit")
        # ensure a revalidation is in flight (re-tries after a rejection)
        self._scheduler.schedule(name)
        return snap.index

    def _staleness_ms(self, name: str) -> float:
        since = self._dirty_since.get(name)
        if since is None:
            return 0.0
        return max(self._clock() - since, 0.0) * 1000.0

    def _catch_up(self, name: str, entry, inline: bool) -> BCCIndex:
        """Bring ``name``'s index up to ``entry``: plan against the delta
        log, patch a copy of the base index, or rebuild from scratch.

        Inline calls charge the machine inside ``Service-extend`` /
        ``Service-build`` regions; the rebuild worker (``inline=False``)
        runs without spans, which are not thread-safe.  A rebuild is
        counted only once it has returned.
        """
        log = self._logs.get(name)
        maintained = log is not None and len(log) > 0
        plan = plan_maintenance(
            self.maintenance,
            log,
            entry,
            self._base_index,
            algorithm=self.algorithm,
        )
        machine = self.machine if inline else None
        region = self._region if inline else nullcontext
        if plan.incremental:
            t0 = time.perf_counter()
            with region("Service-extend"):
                idx = apply_plan(plan, machine=machine)
            if idx is not None:
                self._note_strategy(plan, plan.strategy, time.perf_counter() - t0)
                self.telemetry.event("index.incremental", count=len(plan.entries))
                return idx
            # a patch path's consistency guard bailed: one full rebuild
        t0 = time.perf_counter()
        with region("Service-build"):
            idx = BCCIndex.build(
                entry.graph,
                algorithm=self.algorithm,
                machine=machine,
                fingerprint=entry.fingerprint,
            )
        seconds = time.perf_counter() - t0
        with self._swap_lock:
            self._rebuild_wall_s += seconds
        self.telemetry.event("index.rebuild")
        if maintained:
            self._note_strategy(plan, "full", seconds)
        return idx

    def _publish(self, name: str, idx: BCCIndex, entry, job=None) -> None:
        """Insert ``idx`` into the LRU and make it ``name``'s snapshot.

        The snapshot is replaced only when it does not already answer
        for ``entry``, so ``built_at`` stays the swap time.  A background
        publish (``job`` given) is dropped when its job was cancelled or
        a newer snapshot raced in, and emits ``rebuild.swap``; an inline
        one supersedes any queued job.
        """
        now = self._clock()
        log = self._logs.get(name)
        with self._swap_lock:
            if job is not None and job.cancelled:
                return  # superseded inline, or the graph was removed
            prev = self._snapshots.get(name)
            current = prev is not None and prev.fresh_for(entry)
            if (job is not None and prev is not None and not current
                    and prev.version >= entry.version):
                return  # a newer snapshot raced in; ours is obsolete
            self._cache[idx.fingerprint] = idx
            self._cache.move_to_end(idx.fingerprint)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self.telemetry.event("cache.evict")
            if log is not None:
                log.catch_up(entry.fingerprint, entry.version)
            if not current or prev.version != entry.version:
                self._snapshots[name] = IndexSnapshot(
                    index=idx,
                    fingerprint=entry.fingerprint,
                    version=entry.version,
                    built_at=now,
                    source=idx.source,
                    log_version=log.version if log is not None else 0,
                )
            stale_s = now - self._dirty_since.get(name, now)
            if self.store.entry(name).fingerprint == entry.fingerprint:
                # reached the newest content: clean slate
                self._dirty_since.pop(name, None)
            # else: mid-build churn — dirty_since stays (and the log keeps
            # the undrained suffix); the scheduler's re-run mark converges
            # on the newest content
        if job is None:
            if self._scheduler is not None:
                self._scheduler.cancel(name)
            return
        swap_ms = max(now - job.queued_at, 0.0) * 1000.0
        stale_ms = max(stale_s, 0.0) * 1000.0
        self._max_staleness_ms = max(self._max_staleness_ms, stale_ms)
        self.telemetry.event(
            "rebuild.swap",
            swap_latency_ms=round(swap_ms, 3),
            staleness_ms=round(stale_ms, 3),
        )

    def _mark_stale(self, name: str) -> None:
        """After an update: track staleness age and schedule revalidation."""
        entry = self.store.entry(name)
        snap = self._snapshots.get(name)
        if snap is not None and snap.fingerprint == entry.fingerprint:
            # the update reverted to the snapshot's content: fresh again
            log = self._logs.get(name)
            with self._swap_lock:
                if log is not None:
                    log.catch_up(entry.fingerprint, entry.version)
                self._dirty_since.pop(name, None)
            self._scheduler.cancel(name)
            return
        with self._swap_lock:
            self._dirty_since.setdefault(name, self._clock())
        if snap is not None:
            # only revalidate graphs someone is reading; a never-queried
            # name builds inline (and installs) on its first query
            self._scheduler.schedule(name)

    def _background_rebuild(self, name: str, job) -> None:
        """Scheduler runner: catch ``name`` up off the query path and
        swap the result in atomically (on the scheduler's worker thread).
        """
        try:
            entry = self.store.entry(name)
        except KeyError:
            return  # graph removed while queued
        snap = self._snapshots.get(name)
        if snap is not None and snap.fresh_for(entry):
            return  # revalidated meanwhile (revert or inline resolve)
        idx = self._cache.get(entry.fingerprint)
        if idx is None:
            idx = self._catch_up(name, entry, inline=False)
        self._publish(name, idx, entry, job=job)

    def _base_index(self, fingerprint: str) -> BCCIndex | None:
        """A materialized index for ``fingerprint``, if any is on hand."""
        idx = self._cache.get(fingerprint)
        if idx is not None:
            return idx
        for snap in list(self._snapshots.values()):
            if snap.fingerprint == fingerprint:
                return snap.index
        return None

    def _note_strategy(self, plan, strategy: str, seconds: float) -> None:
        """Account one maintenance decision: strategy event + wall bucket."""
        with self._swap_lock:
            self._strategy_wall[strategy] = (
                self._strategy_wall.get(strategy, 0.0) + seconds
            )
        self.telemetry.event(
            "rebuild.strategy",
            op=strategy,
            patch_edges=plan.patch_edges,
            deltas=len(plan.entries),
        )

    # ------------------------------------------------------------------ #
    # updates (lazy: log the delta, catch up on next resolution)
    # ------------------------------------------------------------------ #

    def _log_delta(
        self, name: str, pre_entry, kind: str, graph_after, new_entry, a, b
    ) -> None:
        """Append one effective update to ``name``'s delta log, classified
        against the pre-update index when one is materialized."""
        log = self._logs.get(name)
        if log is None:
            log = DeltaLog(
                name,
                base_fingerprint=pre_entry.fingerprint,
                base_version=pre_entry.version,
            )
            self._logs[name] = log
        base = self._base_index(pre_entry.fingerprint)
        if base is None:
            classification = "unknown"
        elif kind == "add":
            classification = classify_add(base, a, b)
        else:
            classification = classify_remove(base, a)
        log.append(
            DeltaEntry(
                kind=kind,
                graph_after=graph_after,
                fingerprint_after=new_entry.fingerprint,
                version=new_entry.version,
                applies_to=pre_entry.version,
                a=a,
                b=b,
                classification=classification,
            )
        )
        self.telemetry.event("delta.append", op=classification)

    def add_edges(self, name: str, pairs) -> int:
        """Add a batch of edges to ``name``; returns the effective count."""
        entry = self.store.entry(name)
        ng, au, av = upd.apply_add_edges(entry.graph, pairs)
        self.telemetry.event("update")
        if au.size == 0:
            self.telemetry.event("update.noop")
            return 0
        new_entry = self.store.replace(name, ng)
        self._log_delta(name, entry, "add", ng, new_entry, au, av)
        if self._scheduler is not None:
            self._mark_stale(name)
        return int(au.size)

    def remove_edges(self, name: str, pairs) -> int:
        """Remove a batch of edges from ``name``; returns the effective count."""
        entry = self.store.entry(name)
        ng, removed = upd.apply_remove_edges(entry.graph, pairs)
        self.telemetry.event("update")
        if removed.size == 0:
            self.telemetry.event("update.noop")
            return 0
        new_entry = self.store.replace(name, ng)
        self._log_delta(name, entry, "remove", ng, new_entry, removed, None)
        if self._scheduler is not None:
            self._mark_stale(name)
        return int(removed.size)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, name: str, op: str, freshness: str = "any", **params):
        """Answer one point query against the (lazily refreshed) index.

        ``freshness`` only matters under ``rebuild_mode="async"``:
        ``"any"`` serves the installed snapshot (possibly stale, never a
        torn index), ``"fresh"`` blocks for an exact resolve.
        """
        if op not in QUERY_OPS:
            raise ValueError(f"unknown query op {op!r}; choose from {sorted(QUERY_OPS)}")
        idx = self.index_for(name, freshness=freshness)
        with self._region("Service-query"):
            if self.machine is not None:
                self.machine.sequential(1, QUERY_OPS[op])
            answer = getattr(idx, op)(**params)
        self.telemetry.event("query", op=op)
        return answer

    def query_many(self, name: str, op: str, freshness: str = "any", **params):
        """Answer one *batched* query in a single vectorized kernel call.

        The index is resolved (cache / replay / rebuild — or snapshot
        under async maintenance) once for the whole batch, so every item
        answers from the *same* consistent index; the simulated machine
        is charged the per-item cost times the batch size under one
        ``Service-query`` region entry, and the counter sink records the
        item count (so per-item stats survive batching).  Returns the
        kernel's numpy result — element-wise identical to issuing each
        item as a point query.
        """
        if op not in BATCH_OPS:
            raise ValueError(
                f"unknown batch query op {op!r}; choose from {sorted(BATCH_OPS)}"
            )
        items_key, per_item = BATCH_OPS[op]
        count = len(params.get(items_key, ()))
        idx = self.index_for(name, freshness=freshness)
        with self._region("Service-query"):
            if self.machine is not None and count:
                self.machine.sequential(count, per_item)
            answer = getattr(idx, op)(**params)
        self.telemetry.event("query", op=op, count=count)
        return answer

    def apply(self, name: str, op: dict, freshness: str = "any"):
        """Execute one workload-format operation dict against ``name``.

        Query ops return their answer; update ops return the effective
        edge count.  The op dict uses the JSON-lines schema of
        :mod:`repro.service.workload` (``{"op": ..., ...params}`` for
        point ops, ``{"op": ..., "params": {...}}`` for batched ops).
        Cluster routing keys (``graph``/``tenant``/``seq``) are ignored,
        so routed records replay unchanged on a single engine.
        """
        kind = op["op"]
        if kind in QUERY_OPS:
            params = {k: v for k, v in op.items()
                      if k not in ("op", "graph", "tenant", "seq")}
            return self.query(name, kind, freshness=freshness, **params)
        if kind in BATCH_OPS:
            return self.query_many(name, kind, freshness=freshness,
                                   **op.get("params", {}))
        if kind == "add_edges":
            return self.add_edges(name, op["edges"])
        if kind == "remove_edges":
            return self.remove_edges(name, op["edges"])
        raise ValueError(f"unknown workload op {kind!r}")

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def snapshot_for(self, name: str) -> IndexSnapshot | None:
        """The installed snapshot for ``name`` (None before first query)."""
        return self._snapshots.get(name)

    def delta_log_for(self, name: str) -> DeltaLog | None:
        """``name``'s delta log (None before its first effective update)."""
        return self._logs.get(name)

    def staleness_ms(self, name: str) -> float:
        """Wall-clock ms the snapshot has lagged the stored content (0 = fresh)."""
        return self._staleness_ms(name)

    @property
    def stats(self) -> EngineStats:
        """Lifetime counters, assembled from the engine's counter sink."""
        c = self._counters
        return EngineStats(
            queries=c["query"],
            updates=c["update"],
            noop_updates=c["update.noop"],
            cache_hits=c["cache.hit"],
            cache_misses=c["cache.miss"],
            rebuilds=c["index.rebuild"],
            incremental_extensions=c["index.incremental"],
            evictions=c["cache.evict"],
            stale_hits=c["index.stale_hit"],
            forced_syncs=c["rebuild.force_sync"],
            rebuilds_queued=c["rebuild.queued"],
            rebuild_swaps=c["rebuild.swap"],
            rebuilds_rejected=c["rebuild.reject"],
            rebuilds_incremental=(
                c["rebuild.strategy.incremental-extend"]
                + c["rebuild.strategy.incremental-shrink"]
                + c["rebuild.strategy.incremental-mixed"]
            ),
            rebuilds_full=c["rebuild.strategy.full"],
            delta_log_depth=sum(len(log) for log in self._logs.values()),
            rebuild_errors=c["rebuild.error"],
            last_rebuild_error=(
                self._scheduler.last_error if self._scheduler is not None else ""
            ),
            rebuild_wall_s=self._rebuild_wall_s,
            rebuild_wall_by_strategy=dict(self._strategy_wall),
            max_staleness_ms=self._max_staleness_ms,
            per_op=c.prefixed("query"),
        )

    def reset_stats(self) -> None:
        self._counters.reset()
        self._max_staleness_ms = 0.0
        with self._swap_lock:
            self._strategy_wall = {}
            self._rebuild_wall_s = 0.0
        if self._scheduler is not None:
            self._scheduler.reset_stats()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for all scheduled background rebuilds to settle (async mode)."""
        if self._scheduler is None:
            return True
        return self._scheduler.drain(timeout)

    def close(self) -> None:
        """Shut down background maintenance; idempotent, sync engines no-op."""
        if self._scheduler is not None:
            self._scheduler.close()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServiceEngine(graphs={len(self.store)}, algorithm={self.algorithm!r}, "
            f"cached={len(self._cache)}/{self.cache_size}, mode={self.rebuild_mode!r}, "
            f"maintenance={self.maintenance!r})"
        )
