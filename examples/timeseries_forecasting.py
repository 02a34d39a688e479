"""Time-series forecasting on the VC substrate (paper §V).

The paper's limitations section contrasts image classification (big data,
horizontal scaling) with time-series forecasting (small data, vertical
scaling).  This example exercises that workload with the library:

1. generate a synthetic trend + seasonality + AR(1) series;
2. window it into a supervised forecasting task;
3. train an MLP forecaster serially, and with a small VC-ASGD ensemble of
   "clients" that each see a chronological slice, merged with Eq. 1 —
   showing why tiny datasets favour fewer, bigger subtasks (the §V claim).

Run:  python examples/timeseries_forecasting.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import render_table
from repro.core.vcasgd import vcasgd_merge
from repro.data import (
    TimeSeriesConfig,
    generate_series,
    train_val_split_series,
    windowed_dataset,
)
from repro.nn import Adam, Tensor, make_mlp, mse_loss
from repro.nn.serialization import StateLayout

WINDOW = 24


def make_forecaster(seed: int):
    return make_mlp(
        np.random.default_rng(seed), in_features=WINDOW, hidden=[32], num_classes=1
    )


def train_on(model, x, y, passes: int, seed: int) -> None:
    opt = Adam(model.parameters(), lr=0.005)
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        order = rng.permutation(len(x))
        for start in range(0, len(x), 32):
            idx = order[start : start + 32]
            model.zero_grad()
            pred = model(Tensor(x[idx])).reshape(-1)
            mse_loss(pred, y[idx]).backward()
            opt.step()


def val_mse(model, x, y) -> float:
    pred = model(Tensor(x)).reshape(-1)
    return float(((pred.data - y) ** 2).mean())


def main() -> None:
    cfg = TimeSeriesConfig(length=1500, seasonal_period=48)
    series = generate_series(cfg, np.random.default_rng(0))
    x, y = windowed_dataset(series, window=WINDOW)
    x_tr, y_tr, x_va, y_va = train_val_split_series(x, y, val_fraction=0.2)
    print(f"Series of {cfg.length} points -> {len(x_tr)} train / {len(x_va)} val windows")

    # Serial baseline.
    serial = make_forecaster(1)
    train_on(serial, x_tr, y_tr, passes=6, seed=2)
    baseline = val_mse(serial, x_va, y_va)

    rows = [["serial (1 worker)", round(baseline, 4), "-"]]
    # VC-ASGD with k chronological shards: more shards = less context each.
    for k in (2, 5, 10):
        template_model = make_forecaster(1)
        template = template_model.state_dict()
        layout = StateLayout.for_state(template)
        server = layout.pack(template)
        shards = np.array_split(np.arange(len(x_tr)), k)
        for merge_round in range(3):
            client_vecs = []
            for ci, idx in enumerate(shards):
                worker = make_forecaster(1)
                worker.load_state_dict(layout.views(server))
                train_on(worker, x_tr[idx], y_tr[idx], passes=2, seed=10 + ci)
                client_vecs.append(layout.pack(worker.state_dict()))
            for vec in client_vecs:
                server = vcasgd_merge(server, vec, alpha=0.7)
        merged = make_forecaster(1)
        merged.load_state_dict(layout.views(server))
        rows.append(
            [f"VC-ASGD, {k} shards", round(val_mse(merged, x_va, y_va), 4), "0.7"]
        )

    print(
        render_table(
            ["configuration", "val MSE (lower=better)", "alpha"],
            rows,
            title="\nForecasting: serial vs sharded VC-ASGD training",
        )
    )
    print(
        "\nWith a small dataset, aggressive sharding starves each client of "
        "temporal context and degrades the merged model — the paper's §V "
        "argument that forecasting workloads favour vertical scaling."
    )


if __name__ == "__main__":
    main()
