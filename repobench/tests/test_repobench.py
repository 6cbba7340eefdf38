"""Tests of the repository benchmark itself (toy sizes, a few seconds each).

Run from the repository root::

    python3 -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import ledger  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.service import BCCIndex  # noqa: E402

WORKLOADS = ("build", "reads", "churn", "routed")


def run(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--scale", "toy", "--root", str(root)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    envelope = json.loads(lines[-2])["envelope"]
    assert {"schema_version", "host", "nproc", "python", "numpy", "git_rev",
            "command", "seed"} <= set(envelope)
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result(workload, 0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first) == {m["name"] for m in spec["per_layer"]}
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    if workload == "reads":
        assert first["engine.cache_hit_ratio"]["value"] == 1.0
        assert first["index.point.calls"]["value"] > 0
    if workload == "churn":
        assert first["maintenance.incremental"]["value"] > 0
        assert first["maintenance.full"]["value"] > 0
    if workload == "routed":
        assert first["cluster.rejected"]["value"] == 0
        assert first["cluster.frame.calls"]["value"] > 0
    if workload == "build":
        assert all(first[f"core.stage.{s}.calls"]["value"] > 0 for s in ledger.STAGES)


def _reads_pass(monkeypatch, attr, replacement):
    workload = workloads.Reads(5, "toy")
    workload.setup()
    workload.prepare()
    monkeypatch.setattr(BCCIndex, attr, replacement)
    return workload, workload.run_pass(None)["tally"]


def test_wrong_answer_is_a_failed_op(monkeypatch):
    original = BCCIndex.is_articulation
    workload, tally = _reads_pass(monkeypatch, "is_articulation",
                                  lambda self, v: not original(self, v))
    wrong = sum(op["op"] == "is_articulation" for op in workload.ops)
    assert wrong > 0
    assert tally.failed == wrong
    assert tally.attempted == len(workload.ops)


def test_exception_is_a_failed_op(monkeypatch):
    def boom(self):
        raise RuntimeError("injected")

    workload, tally = _reads_pass(monkeypatch, "num_components", boom)
    assert tally.failed == sum(op["op"] == "num_components" for op in workload.ops) > 0
    assert "injected" in tally.first_error


def test_fails_without_the_package(tmp_path):
    done = run("reads", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_rank_leaves_ten_samples_above():
    assert stats.tail_rank(1000) == (99, 989)
    for n in (11, 50, 124, 128, 1000, 5003):
        pct, index = stats.tail_rank(n)
        assert n - 1 - index >= stats.TAIL_ABOVE
    with pytest.raises(ValueError):
        stats.tail_rank(10)


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8]
    assert compare.verdict(parent, [x * 1.02 for x in parent], "lower", 0.1)[0] == "ok"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1)[0] == "regressed"
    wide = [80.0, 120.0, 90.0, 110.0, 100.0, 130.0]
    assert compare.verdict(wide, [x * 1.05 for x in wide], "lower", 0.1)[0] == "unresolved"


def test_claim_needs_ten_pairs_nine_wins_and_a_gain_beyond_the_spread():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.6, 100.4, 100.9]
    faster = [x * 0.8 for x in parent]
    result, wins = compare.verdict(parent, faster, "lower", 0.1)
    assert (result, wins) == ("ok", len(parent))
    assert compare.claim_holds(parent, faster, "lower", wins)
    assert not compare.claim_holds(parent, [x * 0.999 for x in parent], "lower", wins)
    assert not compare.claim_holds(parent, faster, "lower", 8)
    # a claim from fewer than ten pairs is not shown, however clear
    few, few_faster = parent[:9], faster[:9]
    assert not compare.claim_holds(few, few_faster, "lower", len(few))
    with pytest.raises(SystemExit):
        compare.main(["--parent", ".", "--change", ".", "--pairs", "9"])
