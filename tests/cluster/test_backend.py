"""Shard backends: serial/process parity and shared-memory hygiene.

Process-backend tests are skipped where fork is unavailable; every one
asserts zero leaked shared-memory segments and joined workers on close,
because an abandoned segment outlives the interpreter.
"""

import multiprocessing as mp
import typing

import numpy as np
import pytest

from repro.cluster import ShardRouter, make_backend
from repro.cluster.backend import STAT_FIELDS, InProcessBackend, ProcessBackend
from repro.cluster.frames import split_records, strip_routing
from repro.graph import Graph, generators as gen
from repro.service.engine import EngineStats, ServiceEngine

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

RECORDS = [
    {"op": "num_components", "graph": "g0"},
    {"op": "same_bcc", "u": 0, "v": 1, "graph": "g0"},
    {"op": "classify_edges", "params": {"pairs": [[0, 1], [2, 3], [9, 9]]},
     "graph": "g1"},
    {"op": "add_edges", "edges": [[0, 5], [5, 9]], "graph": "g0"},
    {"op": "num_components", "graph": "g0"},
    {"op": "component_of_edge_many", "params": {"pairs": [[0, 5], [7, 7]]},
     "graph": "g0"},
]


def _graphs():
    return {"g0": gen.random_connected_gnm(20, 40, seed=1),
            "g1": gen.random_gnm(20, 25, seed=2)}


def _reference_answers():
    graphs = _graphs()
    engine = ServiceEngine()
    for name, g in graphs.items():
        engine.put_graph(name, g)
    return [engine.apply(r["graph"], strip_routing(r)) for r in RECORDS]


def _execute(backend):
    graphs = _graphs()
    from repro.cluster.partition import shard_of

    for name, g in graphs.items():
        backend.put_graph(shard_of(name, backend.num_shards), name, g)
    frames, total = split_records(RECORDS, backend.num_shards)
    answers = backend.execute(frames, total)
    return [answers[seq] for seq in range(len(RECORDS))]


def _assert_matches_reference(answers):
    for got, want in zip(answers, _reference_answers()):
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        elif isinstance(want, dict):
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])
        else:
            assert got == want


class TestInProcessBackend:
    def test_matches_single_engine(self):
        with make_backend("serial", 3) as backend:
            _assert_matches_reference(_execute(backend))

    def test_shard_stats_shape(self):
        with make_backend("serial", 2) as backend:
            _execute(backend)
            rows = backend.shard_stats()
            assert len(rows) == 2
            assert all("queries" in r and "cache_hit_rate" in r for r in rows)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown cluster backend"):
            make_backend("gpu", 2)

    def test_reput_after_remove_serves_new_graph(self):
        # removal goes through the engine, so an async shard drops the
        # removed graph's snapshot instead of serving it under the name
        chorded = gen.cycle_graph(8).union_edges(Graph(8, [0], [4]))
        query = [{"op": "num_components", "graph": "g0"}]
        with make_backend("serial", 1, rebuild_mode="async") as backend:
            backend.put_graph(0, "g0", chorded)
            assert backend.execute(*split_records(query, 1))[0] == 1
            backend.remove_graph(0, "g0")
            backend.put_graph(0, "g0", gen.path_graph(8))
            assert backend.execute(*split_records(query, 1))[0] == 7
            assert backend.engines[0].drain(timeout=10)
            assert backend.execute(*split_records(query, 1))[0] == 7


def test_stat_fields_are_numeric_engine_counters():
    # a renamed EngineStats counter must not drop out of the processes
    # backend's int64 stat buffer unnoticed
    types = typing.get_type_hints(EngineStats)
    for name in STAT_FIELDS:
        assert types.get(name) in (int, float), name


@needs_fork
class TestProcessBackend:
    def test_matches_single_engine(self):
        backend = make_backend("processes", 2)
        try:
            _assert_matches_reference(_execute(backend))
        finally:
            backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    def test_stats_cross_process(self):
        backend = make_backend("processes", 2)
        try:
            _execute(backend)
            rows = backend.shard_stats()
            assert len(rows) == 2
            assert sum(r["queries"] for r in rows) > 0
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_remove_graph_cross_process(self):
        from repro.cluster.partition import shard_of

        backend = make_backend("processes", 2)
        try:
            g = gen.random_connected_gnm(10, 15, seed=0)
            shard = shard_of("g0", 2)
            backend.put_graph(shard, "g0", g)
            backend.remove_graph(shard, "g0")
            frames, total = split_records(
                [{"op": "num_components", "graph": "g0"}], 2)
            with pytest.raises(KeyError):
                backend.execute(frames, total)
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_worker_error_propagates_and_backend_survives(self):
        backend = make_backend("processes", 2)
        try:
            g = gen.random_connected_gnm(10, 15, seed=0)
            from repro.cluster.partition import shard_of

            backend.put_graph(shard_of("g0", 2), "g0", g)
            bad = [{"op": "same_bcc", "u": 0, "v": 99, "graph": "g0"}]
            frames, total = split_records(bad, 2)
            with pytest.raises(Exception):
                backend.execute(frames, total)
            # backend still answers after the failed batch
            ok = [{"op": "num_components", "graph": "g0"}]
            frames, total = split_records(ok, 2)
            out = backend.execute(frames, total)
            assert isinstance(out[0], int)
        finally:
            backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    def test_router_on_process_backend(self):
        with ShardRouter(num_shards=2, backend="processes") as router:
            g = gen.random_connected_gnm(20, 40, seed=3)
            router.put_graph("g0", g)
            out = router.apply_batch([
                {"op": "num_components", "graph": "g0"},
                {"op": "is_bridge_many",
                 "params": {"pairs": [[0, 1], [1, 2]]}, "graph": "g0"},
            ])
            assert isinstance(out[0], int)
            assert out[1].dtype == np.bool_
        assert router.backend.live_segments == 0
        assert router.backend.workers_joined()

    def test_backend_protocol_classes(self):
        assert InProcessBackend.name == "serial"
        assert ProcessBackend.name == "processes"
