"""Drift guard: every emitted trace kind must be documented.

Runs a short chaotic, replicated, autoscaled run — the union of the
emitting subsystems — and asserts every kind it produces (and every
causality-key field those records carry) appears in docs/TRACE_KINDS.md.
A new emit site without a catalogue row fails here, which is the point:
the catalogue is the contract the span builder and the trace consumers
rely on.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core import FaultConfig
from repro.core.runner import DistributedRunner
from repro.obs.audit import InvariantAuditor
from repro.obs.collector import MetricsCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanStore

from ..chaos._invariants import seeded_plan
from ..core.test_runner import tiny_config

DOC = Path(__file__).resolve().parents[2] / "docs" / "TRACE_KINDS.md"

# Causality/join keys: when one of these appears on a record, the doc row
# for that kind must mention it (required or italic-optional).
ID_FIELDS = ("wu", "client", "host", "logical", "canonical", "store", "key")


def documented_kinds() -> dict[str, str]:
    """kind -> the raw fields cell from its catalogue row."""
    table_row = re.compile(r"^\|\s*`([a-z_]+\.[a-z_]+)`\s*\|([^|]*)\|")
    kinds: dict[str, str] = {}
    for line in DOC.read_text().splitlines():
        match = table_row.match(line)
        if match:
            kinds[match.group(1)] = match.group(2)
    return kinds


@pytest.fixture(scope="module")
def chaotic_trace():
    config = tiny_config(
        max_epochs=3,
        replicas=2,
        num_clients=4,
        ps_autoscale=True,
        codec="fp16",  # exercises the codec plane's net.encode/net.decode
        faults=FaultConfig(chaos=seeded_plan(2021, 800.0)),
    )
    runner = DistributedRunner(config)
    runner.run()
    return runner.trace


def test_catalogue_parses_nonempty():
    kinds = documented_kinds()
    assert len(kinds) > 30
    assert "sched.created" in kinds
    assert "ps.assimilated" in kinds


def test_observer_dispatch_tables_only_name_catalogued_kinds():
    # The auditor and the collector route records through explicit
    # kind -> handler tables; a key that is not a catalogued kind is a
    # handler nothing can ever reach (or a typo of one that should be).
    kinds = set(documented_kinds())
    auditor_keys = set(InvariantAuditor()._handlers)
    collector_keys = set(MetricsCollector(MetricsRegistry())._handlers)
    assert auditor_keys and auditor_keys <= kinds, sorted(auditor_keys - kinds)
    assert collector_keys and collector_keys <= kinds, sorted(collector_keys - kinds)


def test_every_emitted_kind_is_documented(chaotic_trace):
    kinds = documented_kinds()
    emitted = {record.kind for record in chaotic_trace}
    undocumented = sorted(emitted - set(kinds))
    assert not undocumented, (
        f"emit sites produced kinds missing from docs/TRACE_KINDS.md: "
        f"{undocumented} — add a catalogue row for each"
    )


def test_documented_id_fields_match_emitted(chaotic_trace):
    kinds = documented_kinds()
    missing: list[str] = []
    for record in chaotic_trace:
        row = kinds.get(record.kind, "")
        for field_name in ID_FIELDS:
            if field_name in record.fields and f"`{field_name}`" not in row:
                missing.append(f"{record.kind} carries {field_name!r}")
    assert not missing, (
        "records carry id fields their catalogue rows don't mention: "
        + ", ".join(sorted(set(missing)))
    )


def test_span_builder_handles_every_emitted_kind(chaotic_trace):
    # The builder must at least classify every kind (handler or explicit
    # skip) — unhandled kinds mean the catalogue and builder drifted.
    store = SpanStore.from_trace(chaotic_trace)
    assert store.unhandled_kinds == set()
