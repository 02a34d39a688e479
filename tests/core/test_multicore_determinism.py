"""Golden combo regression: the execution plane is invisible in the bits.

One P1C3T2 run, five execution configurations — serial baseline, cohort
fusion on, process pool on, both on, and the default (auto) width.  All
must hash to the same golden digest over final parameters, counters,
epoch records and the full trace-kind census.  Any drift means the multi-core plane leaked into the
simulation: an extra RNG draw, a reordered batch permutation, a stray
trace record, or float ops reassociated by the stacked kernels.

The same combos then run composed with the planes that abort,
duplicate or bypass deferred steps — preemption with timeouts, replicated
work with a corrupt client, a Byzantine adversary, ping work fetch — and
each must hash to its own scenario's serial digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter

import pytest

from repro.core import DistributedRunner, FaultConfig
from repro.simulation.adversary import AdversaryBehavior, AdversaryPlan

from .test_runner import tiny_config

# Captured on the serial path when the plane landed (DESIGN.md §8.5).
# This is the *default-path* digest: if it moves, default runs changed.
GOLDEN_P1C3T2 = (
    "7d17db9b18a335a4326d274d051597c804f488c740f1ccb114cf97060a691be4"
)

COMBOS = {
    "serial": dict(step_jobs=1),
    "cohort": dict(cohort_size=4, step_jobs=1),
    "pool": dict(step_jobs=2),
    "cohort+pool": dict(cohort_size=4, step_jobs=2),
    # The default: one step worker per usable CPU (serial on one CPU).
    "auto": dict(),
}


def run_digest(config) -> str:
    runner = DistributedRunner(config)
    result = runner.run()
    h = hashlib.sha256()
    h.update(runner.pool.current_params().tobytes())
    h.update(json.dumps(result.counters, sort_keys=True).encode())
    h.update(
        json.dumps(
            [
                [e.end_time_s, e.val_accuracy_mean, e.test_accuracy]
                for e in result.epochs
            ]
        ).encode()
    )
    kinds = Counter(rec.kind for rec in runner.trace)
    h.update(json.dumps(sorted(kinds.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("combo", sorted(COMBOS))
def test_every_execution_combo_matches_the_golden(combo):
    config = tiny_config(num_clients=3, **COMBOS[combo])
    assert run_digest(config) == GOLDEN_P1C3T2, (
        f"execution combo {combo!r} drifted from the serial golden"
    )


# Each scenario reaches a dispatcher path the plain run never does:
# preemptions and timeouts abort pre-submitted steps (pruned at epoch end
# through ``discard``) after a flush or a step worker may already have
# computed them; the corrupt client and the adversary train inline beside deferred
# honest clients; replicas submit one logical step several times; ping
# changes when clients ask for work and so which steps share a flush.
SCENARIOS = {
    "preemption": dict(
        faults=FaultConfig(preemption_hourly_p=0.6, relaunch_delay_s=30),
        subtask_timeout_s=120,
    ),
    "corrupt+replicas": dict(
        faults=FaultConfig(corrupt_clients=1), replicas=3, quorum=2
    ),
    "adversary": dict(
        faults=FaultConfig(
            adversary=AdversaryPlan(
                behaviors=(
                    AdversaryBehavior(
                        clients=("client-001",), attack="falsify_scale", magnitude=3.0
                    ),
                )
            )
        )
    ),
    "ping": dict(work_fetch="ping"),
}


def _scenario_config(scenario: str, combo: str):
    return tiny_config(num_clients=3, **SCENARIOS[scenario], **COMBOS[combo])


@functools.lru_cache(maxsize=None)
def _serial_digest(scenario: str) -> str:
    return run_digest(_scenario_config(scenario, "serial"))


@pytest.mark.parametrize("combo", sorted(set(COMBOS) - {"serial"}))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_composed_scenario_matches_its_serial_digest(scenario, combo):
    digest = run_digest(_scenario_config(scenario, combo))
    assert digest == _serial_digest(scenario), (
        f"execution combo {combo!r} drifted from the serial run of {scenario!r}"
    )


def test_preemption_scenario_discards_pre_submitted_steps():
    """The preemption scenario really exercises the abort path: some
    pre-submitted steps are never computed, and none stay pinned."""
    runner = DistributedRunner(_scenario_config("preemption", "cohort"))
    result = runner.run()
    assert result.counters["preemptions"] > 0 and result.counters["timeouts"] > 0
    stats = runner._dispatcher.stats
    computed = (
        stats["cohort_members"]
        + stats["singleton_members"]
        + stats["unsupported_members"]
    )
    assert computed < stats["tasks"]
    assert not runner._prepared
