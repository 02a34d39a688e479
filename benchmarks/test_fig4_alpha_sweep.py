"""Fig. 4 reproduction: effect of the VC-ASGD hyperparameter α at P3C3T4.

The paper's observations, each asserted below on our substrate:

1. small α (0.7) learns fastest in early epochs — the server weight on
   client updates is (1−α);
2. in later epochs the trend reverses: α = 0.95 overtakes α = 0.7, because
   heavy weight on shard-trained client copies degrades generalization
   ("unlearning" across shard exposures);
3. α = 0.999 (the EASGD-analogue moving rate 0.001) trains far slower —
   existing cluster-calibrated ASGD settings do not transfer to VC;
4. the per-epoch accuracy spread (error bars) grows as α shrinks, and
   α = 0.999 has the smallest spread;
5. the Var schedule α_e = e/(e+1) learns fast early *and* ends at least as
   high as any constant α, with a small late spread.
"""

from __future__ import annotations

from repro.analysis import ascii_chart, crossover_time, render_table

from _helpers import emit, run_once


def test_fig4_alpha_sweep(benchmark, fig4_runs):
    def build() -> str:
        chart = ascii_chart(
            {
                name: (result.times_hours(), result.val_accuracy())
                for name, result in fig4_runs.items()
            },
            width=72,
            height=18,
            title="Fig. 4 (ASCII): accuracy vs hours for each alpha at P3C3T4",
            x_label="hours",
            y_label="accuracy",
        )
        rows = []
        for name, result in fig4_runs.items():
            a = result.val_accuracy()
            rows.append(
                [
                    name,
                    round(float(a[2]), 3),
                    round(float(a[9]), 3),
                    round(float(a[24]), 3),
                    round(float(a[-1]), 3),
                    round(result.mean_spread(last_k=10), 4),
                ]
            )
        table = render_table(
            ["alpha", "acc@e3", "acc@e10", "acc@e25", "acc@e50", "late spread"],
            rows,
            title="Fig. 4: VC-ASGD alpha sweep at P3C3T4",
        )
        return table + "\n\n" + chart

    table = run_once(benchmark, build)
    emit("fig4_alpha_sweep", table)

    acc = {name: r.val_accuracy() for name, r in fig4_runs.items()}
    spread = {name: r.mean_spread(last_k=10) for name, r in fig4_runs.items()}

    # (1) early epochs: 0.7 above 0.95.
    assert acc["0.7"][2] > acc["0.95"][2]
    assert acc["0.7"][6] > acc["0.95"][6]

    # (2) late epochs: 0.95 catches/overtakes 0.7; a crossover exists.
    assert acc["0.95"][-1] >= acc["0.7"][-1] - 0.005
    t95 = fig4_runs["0.95"].times_hours()
    t07 = fig4_runs["0.7"].times_hours()
    assert crossover_time(t07, acc["0.7"], t95, acc["0.95"]) is not None

    # (3) alpha=0.999 is drastically slower throughout.
    assert acc["0.999"][-1] < 0.5 * acc["0.95"][-1]

    # (4) spread ordering: 0.7 > 0.95 > 0.999.
    assert spread["0.7"] > spread["0.95"] > spread["0.999"]

    # (5) Var: fast early (comparable to 0.7), top-tier late, small spread.
    assert acc["Var"][2] > acc["0.95"][2]
    assert acc["Var"][-1] >= max(acc["0.7"][-1], acc["0.95"][-1]) - 0.01
    assert spread["Var"] <= spread["0.7"]
