"""Bit-exactness guard: the Byzantine fabric is invisible when disabled.

The golden digests (``tests/goldens.py``) were captured on the commit
*preceding* the adversary fabric (same configs, same seed).  A run with
``adversary=None`` — and with every defense at its default — must still
produce byte-identical parameters, counters, epoch records and (for the
unreplicated config) the exact trace-kind census.  Any drift means the
fabric leaked into the honest path: an RNG draw, a counter, an extra
trace record, or a scheduling perturbation.
"""

from __future__ import annotations

from repro.core import FaultConfig
from repro.simulation.adversary import AdversaryPlan

from ..goldens import GOLDENS, run_digest
from .test_runner import tiny_config


def test_unreplicated_run_matches_pre_fabric_golden():
    """Corrupt-client faults but no adversary: params + counters + epochs
    + full trace-kind census, byte-for-byte."""
    golden = GOLDENS["byzantine/plain_corrupt"]
    assert golden.recompute() == golden.hex


def test_replicated_run_matches_pre_fabric_golden():
    """Replicated with quorum credit now deferred: the decision-time median
    of identical honest claims equals the historical at-validation grant,
    so physics and counters stay byte-identical."""
    golden = GOLDENS["byzantine/replicated"]
    assert golden.recompute() == golden.hex


def test_empty_plan_equals_no_plan():
    """FaultConfig(adversary=AdversaryPlan()) (inactive) == adversary=None."""
    with_none = run_digest(tiny_config(faults=FaultConfig(adversary=None)))
    with_empty = run_digest(tiny_config(faults=FaultConfig(adversary=AdversaryPlan())))
    assert with_none == with_empty
