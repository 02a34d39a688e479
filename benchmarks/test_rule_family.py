"""ASGD rule family raced on the full BOINC substrate at P3C3T4.

§II-B argues the prior ASGD family does not fit volunteer computing: the
schemes either assume reliable workers (barrier/BSP styles stall when a
volunteer vanishes) or cluster-calibrated hyperparameters.  The update-rule
fabric lets every member run on the *identical* substrate — same scheduler,
timeouts, preemptions, KV store — so the claim can be tested in vivo
rather than argued from the round-harness abstraction.

Fault profile: aggressive preemption (p = 0.9/h per instance) with a
single-attempt budget, so some subtasks fail permanently — exactly the
volunteer churn of §II-A.  Asserted:

1. every fault-tolerant rule (VC-ASGD, Downpour, DC-ASGD, Rescaled ASGD)
   completes the full epoch budget despite permanent subtask failures;
2. the fault-intolerant rules (EASGD, BSP AllReduce) hit barrier stalls —
   the epoch cannot close until reissued replacements cover every shard;
3. those stalls cost real wall clock: barrier rules finish the same
   workload measurably slower than VC-ASGD on the same faulty fleet.
"""

from __future__ import annotations

import dataclasses

from repro.analysis import render_table
from repro.core import FaultConfig, TrainingJobConfig, VarAlpha, make_rule, run_experiment

from _helpers import emit, run_once

RACE_EPOCHS = 8
RACE_SHARDS = 25
FAULT_PROFILE = FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=90.0)

# (display name, factory kwargs).  Gradient rules use a server step small
# enough for the accumulated-gradient magnitudes of this workload (the
# Downpour default of 0.05 diverges here — itself a §II-B data point, but
# the race should compare the schemes at workable settings).
RULES = (
    ("VC-ASGD(Var)", "vcasgd", {}),
    ("Downpour", "downpour", {"server_lr": 0.005}),
    ("DC-ASGD", "dcasgd", {"server_lr": 0.005}),
    ("RescaledASGD", "rescaled", {"server_lr": 0.005}),
    ("EASGD", "easgd", {}),
    ("SyncAllReduce", "allreduce", {}),
)
FAULT_INTOLERANT = {"EASGD", "SyncAllReduce"}


def _race_config() -> TrainingJobConfig:
    return TrainingJobConfig(
        num_param_servers=3,
        num_clients=3,
        max_concurrent_subtasks=4,
        alpha_schedule=VarAlpha(),
        max_epochs=RACE_EPOCHS,
        num_shards=RACE_SHARDS,
        faults=FAULT_PROFILE,
        max_attempts=1,
        seed=2024,
    )


def test_rule_family_race(benchmark):
    def race() -> dict[str, object]:
        base = _race_config()
        out = {}
        for display, name, kwargs in RULES:
            rule = None if name == "vcasgd" else make_rule(name, **kwargs)
            out[display] = run_experiment(dataclasses.replace(base, update_rule=rule))
        return out

    runs = run_once(benchmark, race)

    rows = []
    for display, _, _ in RULES:
        result = runs[display]
        rows.append(
            [
                display,
                len(result.epochs),
                round(result.final_val_accuracy, 3),
                round(result.total_time_hours, 2),
                result.counters.get("barrier_stalls", "-"),
                result.counters["preemptions"],
                result.counters["assimilations"],
            ]
        )
    table = render_table(
        ["rule", "epochs", "final acc", "hours", "stalls", "preempt", "assim"],
        rows,
        title=(
            "ASGD family at P3C3T4, preemption p=0.9/h, max_attempts=1 "
            f"({RACE_EPOCHS} epochs x {RACE_SHARDS} shards)"
        ),
    )
    emit("rule_family_race", table)

    tolerant = [d for d, _, _ in RULES if d not in FAULT_INTOLERANT]
    # (1) fault-tolerant rules ride out permanent subtask failures.
    for display in tolerant:
        assert len(runs[display].epochs) == RACE_EPOCHS, display
        assert "barrier_stalls" not in runs[display].counters, display
    # (2) barrier rules must reissue work to close their epochs.
    for display in FAULT_INTOLERANT:
        assert runs[display].counters["barrier_stalls"] >= 1, display
    # (3) ... and pay wall clock for it relative to VC-ASGD on the same fleet.
    vcasgd_hours = runs["VC-ASGD(Var)"].total_time_hours
    for display in FAULT_INTOLERANT:
        assert runs[display].total_time_hours > vcasgd_hours * 1.05, display
    # The faulty fleet really was faulty for everyone.
    for display, _, _ in RULES:
        assert runs[display].counters["preemptions"] >= 1, display
