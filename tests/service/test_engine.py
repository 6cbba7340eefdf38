"""Tests for the ServiceEngine: caching, lazy updates, stats, simulation."""

import sys

import pytest

from repro.core.tarjan import tarjan_bcc
from repro.graph import Graph, generators as gen
from repro.service.driver import oracle_answer
from repro.service.engine import MAX_PENDING_DELTAS, ServiceEngine
from repro.service.index import BCCIndex
from repro.smp import e4500

from .test_scheduler import FakeClock


def fresh_engine(**kw) -> ServiceEngine:
    eng = ServiceEngine(**kw)
    eng.put_graph("g", gen.cycle_graph(8))
    return eng


class TestQueries:
    def test_answers_match_oracle(self):
        eng = ServiceEngine()
        g = gen.random_gnm(40, 70, seed=4)
        eng.put_graph("g", g)
        res = tarjan_bcc(g)
        assert eng.query("g", "num_components") == res.num_components
        for v in range(g.n):
            op = {"op": "is_articulation", "v": v}
            assert eng.query("g", "is_articulation", v=v) == oracle_answer(res, op)
        for u, v in g.edges().tolist()[:20]:
            assert eng.query("g", "is_bridge", u=u, v=v) == oracle_answer(
                res, {"op": "is_bridge", "u": u, "v": v}
            )

    def test_unknown_query_op(self):
        eng = fresh_engine()
        with pytest.raises(ValueError, match="unknown query op"):
            eng.query("g", "shortest_path", u=0, v=1)

    def test_unknown_graph(self):
        eng = ServiceEngine()
        with pytest.raises(KeyError, match="no graph named"):
            eng.query("nope", "num_components")

    def test_bad_cache_size(self):
        with pytest.raises(ValueError, match="cache_size"):
            ServiceEngine(cache_size=0)

    def test_point_query_runs_inside_its_span(self, monkeypatch):
        eng = fresh_engine()
        eng.query("g", "num_components")  # index build outside the probe
        paths = []

        def recording(idx, v):
            paths.append(eng.telemetry.path)
            return False

        monkeypatch.setattr(BCCIndex, "is_articulation", recording)
        eng.query("g", "is_articulation", v=0)
        assert paths == ["Service-query"]


class TestCache:
    def test_repeat_query_hits(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.query("g", "is_articulation", v=0)
        st = eng.stats
        assert st.cache_misses == 1 and st.cache_hits == 1 and st.rebuilds == 1

    def test_noop_update_keeps_cache(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        assert eng.add_edges("g", [(0, 1)]) == 0  # already an edge
        assert eng.remove_edges("g", [(0, 4)]) == 0  # not an edge
        eng.query("g", "num_components")
        st = eng.stats
        assert st.noop_updates == 2
        assert st.rebuilds == 1 and st.cache_hits == 1  # no recompute

    def test_revert_rehits_cache(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        assert eng.add_edges("g", [(0, 3)]) == 1
        assert eng.remove_edges("g", [(0, 3)]) == 1
        # content reverted -> original fingerprint -> cached index reused
        eng.query("g", "num_components")
        st = eng.stats
        assert st.rebuilds == 1 and st.cache_hits == 1
        assert st.incremental_extensions == 0

    def test_eviction(self):
        eng = ServiceEngine(cache_size=1)
        eng.put_graph("a", gen.cycle_graph(5))
        eng.put_graph("b", gen.path_graph(5))
        eng.query("a", "num_components")
        eng.query("b", "num_components")
        eng.query("a", "num_components")  # evicted, rebuilt
        st = eng.stats
        assert st.evictions >= 2 and st.rebuilds == 3 and st.cache_hits == 0

    def test_same_content_two_names_shares_index(self):
        eng = ServiceEngine()
        eng.put_graph("a", gen.cycle_graph(6))
        eng.put_graph("b", gen.cycle_graph(6))
        eng.query("a", "num_components")
        eng.query("b", "num_components")
        assert eng.stats.rebuilds == 1 and eng.stats.cache_hits == 1


class TestLazyUpdates:
    def test_updates_coalesce_into_one_resolution(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.add_edges("g", [(1, 3)])
        assert eng.stats.rebuilds == 1  # nothing recomputed yet (lazy)
        assert eng.query("g", "num_components") == 1
        st = eng.stats
        # both chords lie inside the cycle's single block -> extended, not rebuilt
        assert st.rebuilds == 1 and st.incremental_extensions == 2

    def test_cross_block_add_forces_rebuild(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.path_graph(6))
        assert eng.query("g", "num_components") == 5
        eng.add_edges("g", [(0, 5)])  # joins all blocks into one cycle
        assert eng.query("g", "num_components") == 1
        st = eng.stats
        assert st.rebuilds == 2 and st.incremental_extensions == 0

    def test_bridge_removal_shrinks(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.path_graph(5))
        eng.query("g", "num_components")
        eng.remove_edges("g", [(2, 3)])
        assert eng.query("g", "num_components") == 3
        st = eng.stats
        assert st.rebuilds == 1 and st.incremental_extensions == 1

    def test_non_bridge_removal_rebuilds(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.remove_edges("g", [(0, 1)])  # cycle edge: blocks restructure
        assert eng.query("g", "num_components") == 7  # cycle -> path
        assert eng.stats.rebuilds == 2

    def test_update_before_first_query(self):
        eng = fresh_engine()
        eng.add_edges("g", [(0, 4)])  # no cached base to extend from
        assert eng.query("g", "num_components") == 1
        assert eng.stats.rebuilds == 1

    def test_pending_overflow_forces_rebuild(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.complete_graph(10))
        eng.query("g", "num_components")
        for i in range(MAX_PENDING_DELTAS + 3):
            # alternate removing/adding one clique edge: every op is effective;
            # odd total -> final state differs from the cached original
            if i % 2 == 0:
                eng.remove_edges("g", [(0, 1)])
            else:
                eng.add_edges("g", [(0, 1)])
        assert eng.query("g", "num_components") == 1  # K10 - 1 edge: biconnected
        assert eng.stats.rebuilds == 2  # chain dropped, single rebuild

    def test_put_graph_replace_clears_pending(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.put_graph("g", gen.path_graph(3))
        assert eng.query("g", "num_components") == 2
        assert eng.stats.incremental_extensions == 0

    def test_correct_after_many_mixed_updates(self):
        eng = ServiceEngine(algorithm="tv-filter")
        g = gen.random_connected_gnm(30, 45, seed=9)
        eng.put_graph("g", g)
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(12):
            pairs = rng.integers(0, 30, size=(3, 2)).tolist()
            if rng.random() < 0.5:
                eng.add_edges("g", pairs)
            else:
                eng.remove_edges("g", pairs)
            cur = eng.graph("g")
            res = tarjan_bcc(cur)
            assert eng.query("g", "num_components") == res.num_components
            v = int(rng.integers(0, 30))
            assert eng.query("g", "is_articulation", v=v) == oracle_answer(
                res, {"op": "is_articulation", "v": v}
            )


class TestApplyAndStats:
    def test_apply_dispatch(self):
        eng = fresh_engine()
        assert eng.apply("g", {"op": "num_components"}) == 1
        assert eng.apply("g", {"op": "same_bcc", "u": 0, "v": 1}) is True
        assert eng.apply("g", {"op": "add_edges", "edges": [[0, 2]]}) == 1
        assert eng.apply("g", {"op": "remove_edges", "edges": [[0, 2]]}) == 1
        with pytest.raises(ValueError, match="unknown workload op"):
            eng.apply("g", {"op": "compact"})

    def test_stats_counters_and_reset(self):
        eng = fresh_engine()
        eng.query("g", "num_components")
        eng.query("g", "is_articulation", v=1)
        eng.add_edges("g", [(0, 2)])
        st = eng.stats
        assert st.queries == 2 and st.updates == 1
        assert st.per_op == {"num_components": 1, "is_articulation": 1}
        d = st.as_dict()
        assert d["cache_hit_rate"] == st.cache_hit_rate
        eng.reset_stats()
        assert eng.stats.queries == 0

    def test_hit_rate_empty(self):
        assert ServiceEngine().stats.cache_hit_rate == 0.0


class TestCatchUp:
    def test_failed_build_is_not_counted(self, monkeypatch):
        eng = fresh_engine()
        build = BCCIndex.build

        def broken_build(*args, **kwargs):
            raise RuntimeError("injected build failure")

        monkeypatch.setattr(BCCIndex, "build", broken_build)
        with pytest.raises(RuntimeError, match="injected"):
            eng.query("g", "num_components")
        st = eng.stats
        assert st.rebuilds == 0 and st.rebuild_wall_s == 0.0
        monkeypatch.setattr(BCCIndex, "build", build)
        assert eng.query("g", "num_components") == 1
        assert eng.stats.rebuilds == 1

    def test_cache_hit_keeps_snapshot(self):
        clk = FakeClock()
        eng = fresh_engine(clock=clk)
        eng.query("g", "num_components")
        snap = eng.snapshot_for("g")
        clk.advance(5.0)
        eng.query("g", "is_articulation", v=0)
        assert eng.stats.cache_hits == 1
        assert eng.snapshot_for("g") is snap
        assert snap.built_at == 100.0


class TestSyncCacheHit:
    def test_hit_skips_publish(self, monkeypatch):
        eng = fresh_engine()
        eng.query("g", "num_components")
        calls = []
        publish = eng._publish
        monkeypatch.setattr(eng, "_publish", lambda *a, **k: calls.append(a) or publish(*a, **k))
        for v in range(4):
            eng.query("g", "is_articulation", v=v)
        assert calls == []
        assert eng.stats.cache_hits == 4 and eng.stats.cache_misses == 1

    def test_hit_keeps_lru_order(self):
        eng = ServiceEngine(cache_size=2)
        for name, k in (("a", 5), ("b", 6), ("c", 7)):
            eng.put_graph(name, gen.cycle_graph(k))
        eng.query("a", "num_components")
        eng.query("b", "num_components")
        eng.query("a", "num_components")  # a becomes most recent
        eng.query("c", "num_components")  # evicts b, not a
        misses = eng.stats.cache_misses
        eng.query("a", "num_components")
        assert eng.stats.cache_misses == misses
        eng.query("b", "num_components")
        assert eng.stats.cache_misses == misses + 1

    def test_evicted_snapshot_goes_through_publish(self):
        eng = ServiceEngine(cache_size=1)
        eng.put_graph("a", gen.cycle_graph(5))
        eng.put_graph("b", gen.path_graph(5))
        eng.query("a", "num_components")
        eng.query("b", "num_components")  # evicts a's index; a's snapshot stays
        assert eng.query("a", "num_components") == 1
        assert eng.stats.cache_misses == 3

    def test_hit_checks_fingerprint_not_only_version(self):
        # a store-level remove + put restarts versions at 1: the old
        # snapshot's version matches, its fingerprint does not
        eng = fresh_engine()
        assert eng.query("g", "num_components") == 1
        eng.store.remove("g")
        eng.store.put("g", gen.path_graph(8))
        assert eng.store.entry("g").version == eng.snapshot_for("g").version
        assert eng.query("g", "num_components") == 7

    def test_fresh_hits_race_background_publishes(self):
        # one caller thread (the engine's supported use) against the
        # rebuild worker; cache_size=1 over two graphs keeps evicting, so
        # the lock-free hit sees LRU entries vanish under it
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServiceEngine(rebuild_mode="async", cache_size=1) as eng:
                for name in "ab":
                    eng.put_graph(name, gen.path_graph(8))
                    eng.query(name, "num_components")
                for i in range(120):
                    name = "ab"[i % 2]
                    closing = (i // 2) % 2 == 0  # path(8) <-> cycle(8)
                    (eng.add_edges if closing else eng.remove_edges)(name, [[0, 7]])
                    want = 1 if closing else 7
                    for _ in range(3):
                        got = eng.query(name, "num_components", freshness="fresh")
                        assert got == want, (i, name)
                assert eng.drain(timeout=30)
                assert eng.stats.rebuild_errors == 0
        finally:
            sys.setswitchinterval(old)


class TestRemoveGraph:
    @staticmethod
    def chorded_cycle():
        return gen.cycle_graph(8).union_edges(Graph(8, [0], [4]))

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_reput_name_serves_new_graph(self, mode):
        with ServiceEngine(rebuild_mode=mode) as eng:
            eng.put_graph("g", self.chorded_cycle())
            assert eng.query("g", "num_components") == 1
            eng.remove_graph("g")
            eng.put_graph("g", gen.path_graph(8))
            assert eng.query("g", "num_components") == 7
            assert eng.drain(timeout=10)
            assert eng.query("g", "num_components") == 7
            assert eng.query("g", "num_components", freshness="fresh") == 7

    def test_drops_per_name_state(self):
        clk = FakeClock()
        with ServiceEngine(rebuild_mode="async", clock=clk, coalesce_ms=1e6) as eng:
            eng.put_graph("g", gen.cycle_graph(8))
            eng.query("g", "num_components")
            eng.add_edges("g", [[0, 4]])  # logged, marked dirty, job queued
            clk.advance(1.0)
            assert eng.delta_log_for("g") is not None
            assert eng.staleness_ms("g") > 0.0
            assert eng._scheduler.has_pending("g")
            eng.remove_graph("g")
            assert "g" not in eng.store
            assert eng.snapshot_for("g") is None
            assert eng.delta_log_for("g") is None
            assert eng.staleness_ms("g") == 0.0
            assert not eng._scheduler.has_pending("g")
            with pytest.raises(KeyError, match="no graph named"):
                eng.query("g", "num_components")

    def test_unknown_name(self):
        eng = ServiceEngine()
        with pytest.raises(KeyError, match="no graph named"):
            eng.remove_graph("nope")


class TestSimulatedMachine:
    def test_regions_charged(self):
        eng = ServiceEngine(machine=e4500(4))
        eng.put_graph("g", gen.cycle_graph(64))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 10)])
        eng.query("g", "same_bcc", u=0, v=10)
        regions = eng.machine.report().region_times_s()
        assert regions.get("Service-build", 0) > 0
        assert regions.get("Service-extend", 0) > 0
        assert regions.get("Service-query", 0) > 0
        assert eng.machine.time_s > 0
