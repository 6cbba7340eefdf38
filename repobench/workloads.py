"""The four workloads: ``build``, ``reads``, ``churn`` and ``routed``.

Each is a closed loop with one client thread and no think time, driven
through the public API of ``repro.service`` and ``repro.cluster``.  A
workload is set up (repeatedly, for ``setup_s``), then prepares its op
stream and the oracle's expected answers (untimed), then replays fixed
*passes*: each pass returns its samples, scaled to reference-host speed
(see ``probe.py``), and ``summarize`` turns the passes into the
end-to-end metrics (see ``stats.py``).  README.md says why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import multiprocessing
import os
import statistics
import time
from multiprocessing import resource_tracker

import numpy as np

from repro.cluster import Rejected, ShardRouter, shard_of
from repro.service import BATCH_OPS, QUERY_OPS, UPDATE_OPS, ServiceEngine
from repro.service.store import make_graph
from repro.service.workload import (
    BATCHABLE,
    DEFAULT_MIX,
    QUERY_OP_NAMES,
    WorkloadSpec,
    generate_workload,
    mix_with_update_fraction,
    op_item_count,
)

from ledger import EventCounter
from oracle import EdgeSet, Oracle, plain
from probe import ARRAY_SENSITIVITY, Windows
from stats import median_of, pooled, tail, tail_rank, weighted_medians

#: Sizes per scale.  ``full`` is the benchmark; ``toy`` keeps the same
#: shape at a size the benchmark's own tests run in seconds.
SCALES = {
    "full": {
        "build": (("connected-gnm", 50_000, 200_000),
                  ("connected-gnm", 50_000, 800_000),
                  ("watts-strogatz", 50_000, 200_000)),
        "reads": {"n": 20_000, "m": 120_000, "points": 1000, "batches": 2,
                  "batch": 256, "writes": 32},
        "churn": {"n": 20_000, "m": 80_000, "ops": 700, "versions": 8},
        "routed": {"n": 10_000, "m": 60_000, "frames": 128, "records": 16,
                   "items": 32, "write_frames": 8},
    },
    "toy": {
        "build": (("connected-gnm", 600, 2_400),
                  ("connected-gnm", 600, 6_000),
                  ("watts-strogatz", 600, 2_400)),
        "reads": {"n": 400, "m": 1_600, "points": 200, "batches": 1,
                  "batch": 32, "writes": 8},
        "churn": {"n": 400, "m": 1_600, "ops": 300, "versions": 4},
        "routed": {"n": 300, "m": 1_200, "frames": 24, "records": 8,
                   "items": 8, "write_frames": 4},
    },
}

#: The churn stream's op-kind sequence is part of the workload definition:
#: it is generated from this fixed seed, so every run replays the same
#: number of catch-ups of each kind, while ``--seed`` picks the graph and
#: with it every vertex and edge the stream touches.
CHURN_STREAM_SEED = 20050404

#: Point-query mix of ``reads``: the query part of the service's default mix.
POINT_MIX = {k: w for k, w in DEFAULT_MIX.items() if k in QUERY_OP_NAMES}

#: Batched kinds, equally weighted (``reads`` batches and ``routed`` records).
BATCH_KINDS = tuple(BATCH_OPS)

#: The mix entry that makes the generator emit a batched kind.
_MIX_KIND = {batch: point for point, batch in BATCHABLE.items()}


def _exact_counts(weights: dict, total: int) -> dict:
    """Integer counts proportional to ``weights`` summing to ``total``."""
    norm = sum(weights.values())
    raw = {k: w / norm * total for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _records(graph, kind: str, count: int, seed: int, items: int = 1) -> list:
    """``count`` records of one query kind from the service's generator."""
    if count == 0:
        return []
    spec = WorkloadSpec(num_ops=count, seed=seed, mix={_MIX_KIND.get(kind, kind): 1.0},
                        query_batch=items)
    return generate_workload(spec, graph).ops


def _noop_writes(graph, oracle: Oracle, rng, count: int, graph_key=None, start=0) -> list:
    """Idempotent update records: re-add present edges, remove absent pairs.

    They run the full write path up to the engine's no-op check, and
    never change the stored content, so read caches stay warm.  Adds and
    removals alternate, beginning with an add when ``start`` is even.
    """
    out = []
    for i in range(start, start + count):
        k = int(rng.integers(1, 5))
        if i % 2 == 0:
            ids = rng.integers(0, graph.m, size=k)
            edges = [[int(graph.u[j]), int(graph.v[j])] for j in ids]
            op = {"op": "add_edges", "edges": edges}
        else:
            edges = []
            while len(edges) < k:
                a, b = (int(x) for x in rng.integers(0, graph.n, size=2))
                if a != b and not oracle.has_edge(a, b):
                    edges.append([a, b])
            op = {"op": "remove_edges", "edges": edges}
        if graph_key is not None:
            op["graph"] = graph_key
        out.append(op)
    return out


class Raised:
    """The answer of an op that raised; it counts as a failed op."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"


def _timed(fn, *args):
    t0 = time.perf_counter_ns()
    try:
        answer = fn(*args)
    except Exception as exc:  # the op failed; the run goes on and counts it
        answer = Raised(exc)
    return answer, (time.perf_counter_ns() - t0) * 1e-9


#: Expected-answer placeholder for ops the oracle does not check.
_UNCHECKED = object()


class _Pass:
    """Per-pass tallies shared by the workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.first_error = ""

    def check(self, answer, expected) -> None:
        self.attempted += 1
        if isinstance(answer, Raised):
            wrong = answer.error
        elif expected is not _UNCHECKED and plain(answer) != expected:
            wrong = f"answer {plain(answer)!r} != expected {expected!r}"
        else:
            return
        self.failed += 1
        self.first_error = self.first_error or wrong[:300]


class Workload:
    """Base: set-up, oracle preparation, passes, and summaries."""

    name = ""
    why = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = int(seed)
        self.size = SCALES[scale][self.name]
        self.rng = np.random.default_rng(self.seed)
        self.counters: list[EventCounter] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> list[str]:
        """Release the current set-up; returns any shutdown problems."""
        return []

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, ledger) -> dict:
        raise NotImplementedError

    def summarize(self, passes: list) -> dict:
        raise NotImplementedError

    def child_pids(self) -> list[int]:
        return []

    def close(self) -> list[str]:
        """Release everything the run holds; returns any shutdown problems."""
        return self.teardown()

    def scaled(self, win: Windows, samples) -> dict:
        """``samples(factors)`` with the pass's host-speed factors, plus the
        same samples unscaled under ``"raw"`` and the pass's median probe."""
        factors = win.factors()
        out = samples(factors)
        out["raw"] = samples([1.0] * len(factors))
        out["probe_us"] = statistics.median(win.probes)
        return out

    def observe(self, engine, ledger) -> None:
        """In a traced pass, count the engine's telemetry events."""
        if ledger is not None:
            self.counters.append(engine.telemetry.add_sink(EventCounter()))

    def layer_ratios(self, traced: list) -> dict:
        hits = sum(p.get("cache_hits", 0) for p in traced)
        misses = sum(p.get("cache_misses", 0) for p in traced)
        events = sum(c.events for c in self.counters)
        records = sum(p.get("query_records", 0) for p in traced)
        return {
            "engine.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "obs.events_per_query": (events / records if records else 0.0, "events/query"),
        }

    def layer_counts(self, traced: list) -> dict:
        keys = ("maintenance.incremental", "maintenance.full", "cluster.rejected")
        return {k: sum(p.get(k, 0) for p in traced) for k in keys}


# --------------------------------------------------------------------- #


class Build(Workload):
    name = "build"
    why = ("cold builds at m=4n, m~n*log2(n) and small-world: the core pipeline, "
           "the index constructor and the fingerprint do all the work")

    def setup(self) -> None:
        self.graphs = [
            (f"{family}-{m}", make_graph(family, n, m, seed=self.seed + i))
            for i, (family, n, m) in enumerate(self.size)
        ]
        for name, graph in self.graphs:  # warm-up builds
            engine = ServiceEngine()
            engine.put_graph(name, graph)
            engine.query(name, "num_components")

    def prepare(self) -> None:
        self.expected = {name: Oracle(g).num_components for name, g in self.graphs}

    def run_pass(self, ledger) -> dict:
        tally, win = _Pass(), Windows(every=1)
        cold, put, stats = [], [], []
        for i, (name, graph) in enumerate(self.graphs):
            engine = ServiceEngine()
            self.observe(engine, ledger)
            if ledger is not None:
                ledger.op = i
            t0 = time.perf_counter_ns()
            engine.put_graph(name, graph)
            t1 = time.perf_counter_ns()
            answer = engine.query(name, "num_components")
            t2 = time.perf_counter_ns()
            win.tick()
            put.append((t1 - t0) * 1e-9)
            cold.append((t2 - t0) * 1e-9)
            tally.check(answer, self.expected[name])
            stats.append(engine.stats)
        names = [name for name, _ in self.graphs]
        edges = sum(g.m for _, g in self.graphs)

        def samples(factors):
            # builds and put_graph move arrays of megabytes: over six seeds
            # the build p50 spread 15% unscaled, 10% fully scaled and 7% at
            # ARRAY_SENSITIVITY, and put_graph 7%, 12% and 6%
            def by_graph(times):
                return dict(zip(names, (t * f ** ARRAY_SENSITIVITY
                                        for t, f in zip(times, factors))))

            scaled_cold = by_graph(cold)
            busy = sum(scaled_cold.values())
            return {"cold": scaled_cold, "put": by_graph(put), "busy_s": busy,
                    "throughput": edges / busy, "slowest": max(scaled_cold.values())}

        out = self.scaled(win, samples)
        tally.busy_s = out["busy_s"]
        out.update({
            "tally": tally,
            "cache_hits": sum(s.cache_hits for s in stats),
            "cache_misses": sum(s.cache_misses for s in stats),
            "query_records": len(self.graphs),
        })
        return out

    def summarize(self, passes: list) -> dict:
        names = [name for name, _ in self.graphs]

        def per_graph(key):
            groups = {n: [p[key][n] for p in passes] for n in names}
            return weighted_medians(groups, dict.fromkeys(names, 1.0))

        return {
            "throughput_per_s": statistics.median(p["throughput"] for p in passes),
            "p50_us": per_graph("cold") * 1e6,
            "tail_us": statistics.median(p["slowest"] for p in passes) * 1e6,
            "update_p50_us": per_graph("put") * 1e6,
        }, {"tail": "slowest cold build of each rotation, median over rotations",
            "builds_per_pass": len(names)}


# --------------------------------------------------------------------- #


class Reads(Workload):
    name = "reads"
    why = ("warm engine, fixed five-kind point mix plus 256-item batches: only the "
           "engine, the index kernels and telemetry run; 0 cache misses")

    def setup(self) -> None:
        s = self.size
        self.graph = make_graph("connected-gnm", s["n"], s["m"], seed=self.seed)
        self.engine = ServiceEngine()
        self.engine.put_graph("g", self.graph)
        self.engine.query("g", "num_components")  # warm-up build

    def prepare(self) -> None:
        s, graph = self.size, self.graph
        oracle = Oracle(graph)
        seeds = iter(self.rng.integers(0, 2**31, size=64).tolist())
        ops = []
        for kind, count in _exact_counts(POINT_MIX, s["points"]).items():
            ops += _records(graph, kind, count, next(seeds))
        for kind in BATCH_KINDS:
            ops += _records(graph, kind, s["batches"], next(seeds), items=s["batch"])
        ops += _noop_writes(graph, oracle, self.rng, s["writes"])
        order = self.rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.expected = [0 if op["op"] in UPDATE_OPS else oracle.answer(op) for op in self.ops]

    def run_pass(self, ledger) -> dict:
        tally, engine, win = _Pass(), self.engine, Windows(every=250)
        before = engine.stats
        self.observe(engine, ledger)
        raw = []
        for i, op in enumerate(self.ops):
            if ledger is not None:
                ledger.op = i
            answer, dt = _timed(engine.apply, "g", op)
            win.tick()
            raw.append(dt)
            tally.check(answer, self.expected[i])
        if ledger is not None:
            engine.telemetry.remove_sink(self.counters[-1])
        after = engine.stats

        def samples(factors):
            points = {k: [] for k in POINT_MIX}
            writes = {k: [] for k in UPDATE_OPS}
            busy, read_s, items = 0.0, 0.0, 0
            for op, dt, f in zip(self.ops, raw, factors):
                kind = op["op"]
                if kind in UPDATE_OPS:
                    # the no-op check looks edges up in arrays of the graph:
                    # fully scaled, these medians spread 14% over ten seeds
                    dt *= f ** ARRAY_SENSITIVITY
                    busy += dt
                    writes[kind].append(dt)
                    continue
                dt *= f
                busy += dt
                read_s += dt
                items += op_item_count(op)
                if kind in QUERY_OPS:
                    points[kind].append(dt)
            return {"busy_s": busy, "throughput": items / read_s, "points": points,
                    "writes": writes}

        out = self.scaled(win, samples)
        tally.busy_s = out["busy_s"]
        out.update({
            "tally": tally,
            "cache_hits": after.cache_hits - before.cache_hits,
            "cache_misses": after.cache_misses - before.cache_misses,
            "query_records": len(self.ops) - self.size["writes"],
        })
        return out

    def summarize(self, passes: list) -> dict:
        points, n = pooled(passes, "points"), self.size["points"]
        return {
            "throughput_per_s": median_of(passes, "throughput"),
            "p50_us": weighted_medians(points, POINT_MIX) * 1e6,
            "tail_us": tail([t for ts in points.values() for t in ts], n) * 1e6,
            "update_p50_us": weighted_medians(
                pooled(passes, "writes"), dict.fromkeys(UPDATE_OPS, 1.0)) * 1e6,
        }, {
            "p50": "per-kind point medians weighted by the fixed mix",
            "tail": f"p{tail_rank(n)[0]} of {n} point queries per pass",
            "update": "add_edges and remove_edges medians, averaged",
        }


# --------------------------------------------------------------------- #


class Churn(Workload):
    name = "churn"
    why = ("20% updates with locality on a small-world graph, sync auto maintenance: "
           "writes, delta-log classification, incremental patches and full rebuilds")

    def setup(self) -> None:
        s = self.size
        self.graph = make_graph("watts-strogatz", s["n"], s["m"], seed=self.seed)
        self._fresh_engine()

    def _fresh_engine(self) -> ServiceEngine:
        engine = ServiceEngine(rebuild_mode="sync")
        engine.put_graph("g", self.graph)
        engine.query("g", "num_components")
        return engine

    def prepare(self) -> None:
        spec = WorkloadSpec(num_ops=self.size["ops"], seed=CHURN_STREAM_SEED,
                            mix=mix_with_update_fraction(0.2), update_locality=1.0,
                            edge_bias=0.5)
        self.ops = generate_workload(spec, self.graph).ops
        # the oracle's own replay: the version every op reads from, and the
        # effective count every update must return
        edges, version, versions, expected = EdgeSet(self.graph), 0, [], []
        for op in self.ops:
            if op["op"] in UPDATE_OPS:
                effective = edges.apply(op)
                version += effective > 0
                expected.append(effective)
            else:
                expected.append(_UNCHECKED)
            versions.append(version)
        sample = set(self.rng.choice(version + 1, size=min(self.size["versions"], version + 1),
                                     replace=False).tolist())
        edges, oracle = EdgeSet(self.graph), None
        for i, op in enumerate(self.ops):
            if op["op"] in UPDATE_OPS:
                edges.apply(op)
                continue
            if versions[i] in sample:
                if oracle is None or oracle_version != versions[i]:
                    oracle, oracle_version = Oracle(edges.graph()), versions[i]
                expected[i] = oracle.answer(op)
        self.expected = expected
        self.checked_versions = sorted(sample)

    def run_pass(self, ledger) -> dict:
        tally, win = _Pass(), Windows(every=20)
        engine = self._fresh_engine()
        self.observe(engine, ledger)
        raw, kinds = [], []
        last = engine.stats
        dirty = False
        for i, op in enumerate(self.ops):
            if ledger is not None:
                ledger.op = i
            answer, dt = _timed(engine.apply, "g", op)
            win.tick()
            raw.append(dt)
            tally.check(answer, self.expected[i])
            if op["op"] in UPDATE_OPS:
                effective = isinstance(answer, int) and answer > 0
                kinds.append((op["op"], effective))
                dirty = dirty or effective
            elif dirty:
                dirty = False
                now = engine.stats
                if now.rebuilds_full > last.rebuilds_full:
                    kinds.append("full")
                elif now.rebuilds_incremental > last.rebuilds_incremental:
                    kinds.append("incremental")
                else:
                    kinds.append("hit")
                last = now
            else:
                kinds.append("query")
        stats = engine.stats

        def samples(factors):
            # updates, patches and rebuilds are array work: over twenty
            # seeds, fully scaled catch-up tails and update medians spread
            # 9%, and 4-6% at ARRAY_SENSITIVITY
            groups = {}
            for kind, dt, f in zip(kinds, raw, factors):
                groups.setdefault(kind, []).append(dt * f ** ARRAY_SENSITIVITY)
            busy = sum(sum(ts) for ts in groups.values())
            updates = {k: groups.pop(k) for k in list(groups) if isinstance(k, tuple)}
            groups.pop("query", None)
            return {"busy_s": busy, "throughput": len(self.ops) / busy, "catchups": groups,
                    "updates": updates}

        out = self.scaled(win, samples)
        tally.busy_s = out["busy_s"]
        out.update({
            "tally": tally,
            "maintenance.incremental": stats.rebuilds_incremental,
            "maintenance.full": stats.rebuilds_full,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "query_records": sum(op["op"] not in UPDATE_OPS for op in self.ops),
        })
        return out

    def summarize(self, passes: list) -> dict:
        catchups, updates = pooled(passes, "catchups"), pooled(passes, "updates")
        n = sum(len(v) for v in passes[0]["catchups"].values())
        count = lambda groups: {k: len(v) for k, v in groups.items()}  # noqa: E731
        return {
            "throughput_per_s": median_of(passes, "throughput"),
            "p50_us": weighted_medians(catchups, count(catchups)) * 1e6,
            "tail_us": tail([t for ts in catchups.values() for t in ts], n) * 1e6,
            "update_p50_us": weighted_medians(updates, count(updates)) * 1e6,
        }, {
            "p50": "catch-up medians per maintenance population, weighted by count",
            "tail": f"p{tail_rank(n)[0]} of {n} catch-ups per pass",
            "update": "update medians per (kind, effective) population, weighted by count",
            "catchups_per_pass": count(passes[0]["catchups"]),
            "checked_versions": self.checked_versions,
        }


# --------------------------------------------------------------------- #


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _private_mb(pid: int) -> float:
    """Memory only ``pid`` holds (``Private_Clean`` + ``Private_Dirty``)."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as f:
        for line in f:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark (Linux ``clear_refs`` 5).

    Free heap pages left over from set-up and the oracle are first handed
    back to the system, so the mark starts from live memory only and does
    not depend on how fragmented set-up left the heap.
    """
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the mark then also covers freed set-up memory
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the mark then also covers set-up


def peak_rss_mb(pids) -> float:
    """This process's peak RSS plus the private memory of its workers now.

    Forked workers share the client's pages copy-on-write, so their RSS
    would count that shared baseline again for each worker; their private
    pages (their own indexes and heaps) are what they add.
    """
    return _peak_rss_mb() + sum(_private_mb(pid) for pid in pids)


class Routed(Workload):
    name = "routed"
    why = ("2-shard processes router, 16-record frames of 32-item batches over four "
           "graphs: cluster split, answer codec and the pipe/shm transport")

    def setup(self) -> None:
        s = self.size
        names, per_shard, i = [], {0: 0, 1: 0}, 0
        while len(names) < 4:
            name = f"g{i}"
            shard = shard_of(name, 2)
            if per_shard[shard] < 2:
                per_shard[shard] += 1
                names.append(name)
            i += 1
        self.graphs = {name: make_graph("connected-gnm", s["n"], s["m"], seed=self.seed + k)
                       for k, name in enumerate(names)}
        self.router = ShardRouter(num_shards=2, backend="processes")
        for name, graph in self.graphs.items():
            self.router.put_graph(name, graph)
        self.router.apply_batch([{"op": "num_components", "graph": name}
                                 for name in self.graphs])  # warm-up builds

    def teardown(self) -> list[str]:
        router = getattr(self, "router", None)
        if router is None:
            return []
        backend = router.backend
        router.close()
        problems = []
        if backend.live_segments != 0:
            problems.append(f"{backend.live_segments} shared-memory segments leaked")
        if not backend.workers_joined():
            problems.append("shard workers still alive after close")
        return problems

    def child_pids(self) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def prepare(self) -> None:
        s = self.size
        names = list(self.graphs)
        oracles = {name: Oracle(g) for name, g in self.graphs.items()}
        seeds = iter(self.rng.integers(0, 2**31, size=64).tolist())
        total = s["frames"] * s["records"]
        pools = {}
        for name, graph in self.graphs.items():
            recs = []
            for kind, count in _exact_counts(dict.fromkeys(BATCH_KINDS, 1.0), total).items():
                recs += _records(graph, kind, count, next(seeds), items=s["items"])
            for op in recs:
                op["graph"] = name
            pools[name] = [recs[i] for i in self.rng.permutation(len(recs))]
        picks = self.rng.integers(0, len(names), size=total)
        cursor = dict.fromkeys(names, 0)
        reads = []
        for f in range(s["frames"]):
            frame = []
            for j in range(s["records"]):
                name = names[int(picks[f * s["records"] + j])]
                frame.append(pools[name][cursor[name]])
                cursor[name] += 1
            reads.append(("read", frame))
        writes = []
        for f in range(s["write_frames"]):
            frame = []
            for j in range(s["records"]):
                name = names[j % len(names)]
                frame += _noop_writes(self.graphs[name], oracles[name], self.rng, 1, name,
                                      start=f + j)
            writes.append(("write", frame))
        stride = len(reads) // len(writes)
        self.frames = []
        for f, read in enumerate(reads):
            self.frames.append(read)
            if f % stride == stride - 1 and writes:
                self.frames.append(writes.pop())
        self.frames += writes
        self.expected = [
            [0 if op["op"] in UPDATE_OPS else oracles[op["graph"]].answer(op) for op in frame]
            for _, frame in self.frames
        ]

    def run_pass(self, ledger) -> dict:
        tally, router, win = _Pass(), self.router, Windows(every=16)
        before = router.stats() if ledger is not None else None
        raw, rejected = [], 0
        for i, (kind, frame) in enumerate(self.frames):
            if ledger is not None:
                ledger.op = i
            answers, dt = _timed(router.apply_batch, frame)
            win.tick()
            raw.append(dt)
            if isinstance(answers, Raised):
                answers = [answers] * len(frame)
            rejected += sum(isinstance(a, Rejected) for a in answers)
            for answer, expected in zip(answers, self.expected[i]):
                tally.check(answer, expected)

        def samples(factors):
            reads, writes, items = [], [], 0
            for (kind, frame), dt, f in zip(self.frames, raw, factors):
                if kind == "write":
                    writes.append(dt * f)
                else:
                    reads.append(dt * f)
                    items += sum(op_item_count(op) for op in frame)
            return {"busy_s": sum(reads) + sum(writes), "throughput": items / sum(reads),
                    "frames": {"read": reads, "write": writes}}

        out = self.scaled(win, samples)
        tally.busy_s = out["busy_s"]
        out.update({"tally": tally, "cluster.rejected": rejected})
        if before is not None:
            ledger.op = -1
            after = router.stats()
            for key in ("cache_hits", "cache_misses"):
                out[key] = sum(r[key] for r in after.per_shard) - sum(
                    r[key] for r in before.per_shard)
        return out

    def summarize(self, passes: list) -> dict:
        frames, n = pooled(passes, "frames"), self.size["frames"]
        return {
            "throughput_per_s": median_of(passes, "throughput"),
            "p50_us": statistics.median(frames["read"]) * 1e6,
            "tail_us": tail(frames["read"], n) * 1e6,
            "update_p50_us": statistics.median(frames["write"]) * 1e6,
        }, {
            "p50": "median read frame",
            "tail": f"p{tail_rank(n)[0]} of {n} read frames per pass",
            "update": "median frame of idempotent update records",
        }

    def close(self) -> list[str]:
        problems = self.teardown()
        # the shared-memory resource tracker is a process this run started
        tracker = resource_tracker._resource_tracker
        tracker._stop()
        if tracker._pid is not None:
            problems.append("shared-memory resource tracker still running")
        return problems


WORKLOADS = {w.name: w for w in (Build, Reads, Churn, Routed)}


def pin_client() -> None:
    """Pin this process, and the shard workers it forks, to one CPU.

    The client thread and the host-speed probe then share one core, the
    scheduler cannot move the client mid-pass, and ``routed`` frames see
    no cross-core wake-ups, whose latency depends on other tenants.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # placement refused: the run still measures, less steadily
