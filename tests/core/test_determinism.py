"""Determinism regression: observability must never move the physics.

For every rule in the family, the same seed must produce a byte-identical
``RunResult`` and an identical telemetry digest whether the run carries
the full observability stack (metrics + auditor + profiler) or none of it.
The observers are pure readers; any drift here means one of them touched
simulation state or randomness.
"""

from __future__ import annotations

import pytest

from repro.core import RULE_NAMES, ConstantAlpha, make_rule
from repro.core.runner import DistributedRunner
from repro.obs import OBSERVABILITY_OFF, ObservabilityConfig, run_digest

from .test_runner import tiny_config


def rule_config(rule_name: str):
    schedule = ConstantAlpha(0.8)
    rule = None if rule_name == "vcasgd" else make_rule(rule_name, schedule)
    return tiny_config(alpha_schedule=schedule, update_rule=rule)


def run_with(rule_name: str, observability: ObservabilityConfig):
    runner = DistributedRunner(rule_config(rule_name), observability=observability)
    runner.run()
    return runner


def fingerprint(runner) -> dict:
    """Everything a RunResult says, bit-for-bit."""
    result = runner.result
    return {
        "counters": dict(result.counters),
        "epochs": [record.to_dict() for record in result.epochs],
        "total_time_s": result.total_time_s,
        "stopped_reason": result.stopped_reason,
        "trace_summary": runner.trace.summary(),
    }


FULL_OBS = ObservabilityConfig(metrics=True, audit=True, profile=True)


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_rule_bit_identical_with_and_without_observability(rule_name):
    bare = run_with(rule_name, OBSERVABILITY_OFF)
    observed = run_with(rule_name, FULL_OBS)
    assert fingerprint(bare) == fingerprint(observed)
    assert bare.telemetry()["digest"] == observed.telemetry()["digest"]
    # The observed run actually observed something — and stayed clean.
    assert observed.obs.report is not None and observed.obs.report.ok
    assert observed.obs.profiler.report()["total_events"] > 0


def test_same_seed_same_digest_across_repeats():
    a = run_with("vcasgd", ObservabilityConfig())
    b = run_with("vcasgd", ObservabilityConfig())
    assert a.telemetry()["digest"] == b.telemetry()["digest"]
    assert fingerprint(a) == fingerprint(b)


def test_different_seed_different_digest():
    runner_a = DistributedRunner(tiny_config(seed=77))
    runner_a.run()
    runner_b = DistributedRunner(tiny_config(seed=78))
    runner_b.run()
    assert runner_a.telemetry()["digest"] != runner_b.telemetry()["digest"]


def test_digest_is_over_the_deterministic_core_only():
    runner = run_with("vcasgd", FULL_OBS)
    payload = runner.telemetry()
    stripped = {
        k: v
        for k, v in payload.items()
        if k not in ("metrics", "audit", "profile", "spans")
    }
    assert run_digest(stripped) == payload["digest"]


def test_spans_on_vs_off_bit_identical():
    """The span layer is offline reconstruction: toggling it must leave
    the physics, the digest, and the raw record stream untouched."""
    with_spans = run_with("vcasgd", ObservabilityConfig(spans=True))
    without = run_with("vcasgd", ObservabilityConfig(spans=False))
    assert fingerprint(with_spans) == fingerprint(without)
    tel_on, tel_off = with_spans.telemetry(), without.telemetry()
    assert tel_on["digest"] == tel_off["digest"]
    # The section itself gates on the config ...
    assert tel_on["spans"] is not None
    assert tel_off["spans"] is None
    # ... and the records both runs produced are bit-identical.
    records_on = [(r.time, r.kind, r.fields) for r in with_spans.trace]
    records_off = [(r.time, r.kind, r.fields) for r in without.trace]
    assert records_on == records_off


def test_indexed_queue_bit_identical_to_legacy(monkeypatch):
    """The fleet-scale indexed ready queue must reproduce the list-and-scan
    reference scheduler's runs bit-for-bit (grant order is proven
    equivalent property-by-property in tests/boinc; this pins the whole
    pipeline — physics, counters, trace, digest)."""
    from repro.boinc import scheduler

    from ..boinc.reference_queue import LegacyListQueue

    indexed = DistributedRunner(tiny_config())
    indexed.run()
    monkeypatch.setattr(scheduler, "IndexedReadyQueue", LegacyListQueue)
    legacy = DistributedRunner(tiny_config())
    assert isinstance(legacy.server.scheduler._ready, LegacyListQueue)
    legacy.run()
    assert fingerprint(indexed) == fingerprint(legacy)
    assert indexed.telemetry()["digest"] == legacy.telemetry()["digest"]


def test_span_reconstruction_is_deterministic():
    from repro.obs import span_summary

    runner = run_with("vcasgd", ObservabilityConfig())
    assert span_summary(runner.trace) == span_summary(runner.trace)
