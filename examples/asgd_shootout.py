"""ASGD family shootout under volunteer conditions.

Races VC-ASGD against the prior schemes the paper discusses — Downpour
SGD, EASGD, and delay-compensated DC-ASGD — on the round harness with
per-round client dropouts, showing why barrier-style schemes do not fit
volunteer computing (§II-B, §III-C).

Run:  python examples/asgd_shootout.py
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.core import ConstantAlpha, VarAlpha
from repro.core.baselines import RoundConfig, RoundHarness
from repro.core.rules import (
    DCASGDRule,
    DownpourRule,
    EASGDRule,
    SyncAllReduceRule,
    VCASGDRule,
)


def main() -> None:
    for dropout in (0.0, 0.3):
        config = RoundConfig(
            num_clients=5,
            num_rounds=12,
            dropout_p=dropout,
            local_steps=6,
            seed=17,
        )
        harness = RoundHarness(config)
        rules = [
            VCASGDRule(ConstantAlpha(0.7)),
            VCASGDRule(VarAlpha()),
            DownpourRule(server_lr=0.02),
            DCASGDRule(server_lr=0.02, lam=0.04),
            EASGDRule(moving_rate=0.3),
            SyncAllReduceRule(),
        ]
        rows = []
        for rule in rules:
            result = harness.run(rule)
            rows.append(
                [
                    rule.describe(),
                    "yes" if rule.fault_tolerant else "NO",
                    round(result.final_accuracy, 3),
                    round(result.total_time_s / 60, 1),
                    result.total_stalls,
                ]
            )
        print(
            render_table(
                ["rule", "fault tolerant", "final acc", "minutes", "stalls"],
                rows,
                title=f"\nASGD shootout, client dropout p={dropout:.0%} per round",
            )
        )
    print(
        "\nWith dropouts, EASGD's all-clients barrier stalls rounds and burns "
        "wall clock; the fault-tolerant rules keep moving.  This is the "
        "paper's argument for a new update scheme in VC environments."
    )


if __name__ == "__main__":
    main()
