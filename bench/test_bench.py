"""Tests of the benchmark itself.  Run explicitly — not part of tier-1::

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # Every workload the file names exists, and the reverse.
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.CLOCKS)


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    """One traced ``--tiny`` repeat of every workload (seconds each)."""
    out = tmp_path_factory.mktemp("traces")
    return {
        name: run.run_child(name, 1, True, out / f"trace_{name}.jsonl")
        for name in WORKLOAD_NAMES
    }


def test_tiny_workloads_complete_without_failures(traced_tiny):
    for name, child in traced_tiny.items():
        assert child["error"] is None, (name, child["error"])
        assert child["problems"] == [], (name, child["problems"])
        assert child["attempted"] >= 1 and child["failed"] == 0, name
        assert child["wall_s"] < 30, name


def test_traced_tiles_sum_to_traced_wall(traced_tiny):
    for name, child in traced_tiny.items():
        layers = child["layers"]
        assert layers["bench.tiles_sum_s"] == pytest.approx(child["wall_s"], rel=0.01), name
        assert 0 <= layers["core.runner.unattributed_share"] < 1, name


def test_every_per_layer_metric_is_produced_by_some_workload(traced_tiny):
    produced = set().union(*(child["layers"] for child in traced_tiny.values()))
    produced.add("bench.trace_overhead_ratio")  # computed by run.py
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in produced]
    assert not missing, missing


def _patch_points():
    """Where install() patches, and the originals it found there."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    points = [(owner, attr) for owner, attr, _ in tracer._patches]
    originals = [original for _, _, original in tracer._patches]
    tracer.restore()
    return points, originals


def test_every_wrapped_callable_is_restored():
    points, originals = _patch_points()
    assert len(points) > 30
    for (owner, attr), original in zip(points, originals):
        assert vars(owner)[attr] is original, (owner, attr)
    # A second install/restore cycle finds the same originals: nothing
    # was left wrapped the first time.
    again_points, again_originals = _patch_points()
    assert again_points == points
    assert all(a is b for a, b in zip(again_originals, originals))


def _child(**overrides) -> dict:
    child = {
        "error": None, "problems": [], "digest": "d0", "attempted": 10, "failed": 0,
        "setup_s": 0.5, "wall_s": 1.0, "peak_rss_mb": 50.0,
        "sim_time_s": 100.0, "final_val_acc": 0.7, "wire_mb": 3.0,
    }
    child.update(overrides)
    return child


def test_forced_digest_mismatch_fails_every_operation():
    result = run.aggregate([_child(), _child(digest="d1"), _child()])
    assert result["end_to_end"]["digest_stable"]["median"] == 0
    assert result["failed"] == result["attempted"] == 30
    clean = run.aggregate([_child(), _child(), _child()])
    assert clean["end_to_end"]["digest_stable"]["median"] == 1
    assert clean["failed"] == 0 and clean["attempted"] == 30


def test_forced_accuracy_floor_miss_fails_every_operation():
    class Unreachable(workloads.Fig2P1C3T2):
        acc_floor = 1.1

        def make_config(self, seed, tiny):
            return super().make_config(seed, True)

    workload = Unreachable(1, tiny=False)
    workload.run()
    outcome = workload.outcome()
    assert outcome.failed == 0  # every workunit completed ...
    assert any("below floor" in p for p in outcome.problems)  # ... the floor did not
    result = run.aggregate([_child(problems=outcome.problems)] * 3)
    assert result["failed"] == result["attempted"]


def test_a_run_that_raises_fails_the_workload():
    result = run.aggregate([_child(), _child(error="Traceback\nInvariantViolation: x")])
    assert result["failed"] == result["attempted"] > 0
    assert result["end_to_end"]["digest_stable"]["median"] == 0


def test_compare_verdicts():
    def result(wall, spread=0.0):
        e2e = {
            m["name"]: run.summarize([1.0, 1.0, 1.0]) for m in SPEC["end_to_end"]
        }
        lo, hi = wall * (1 - spread / 2), wall * (1 + spread / 2)
        e2e["wall_s"] = run.summarize([lo, lo, wall, hi, hi])
        return {"workloads": {"fig2_p1c3t2": {"end_to_end": e2e}}}

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")

    def wall_status(a, b):
        rows = compare.compare(SPEC, a, b)
        return next(r for r in rows if r["metric"] == "wall_s")["status"]

    assert wall_status(result(1.0), result(1.0 + bound / 2)) == "ok"
    assert wall_status(result(1.0), result(1.0 + 2 * bound)) == "worse"
    assert wall_status(result(1.0, spread=2 * bound), result(1.0)) == "unresolved"
    # One slow repeat in five does not make a set unresolved.
    outlier = result(1.0)
    outlier["workloads"]["fig2_p1c3t2"]["end_to_end"]["wall_s"] = run.summarize(
        [1.0, 1.0, 1.0, 1.0, 1.0 + 3 * bound]
    )
    assert wall_status(outlier, result(1.0)) == "ok"


def test_driver_mode_prints_the_contract_line():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--tiny",
             "--workload", "cohort8_homog", "--seed", "3",
             "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
