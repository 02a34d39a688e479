"""Capacity-planner benches: the paper's analytic scaling arguments.

Reproduces in planner form:

* §IV-B's parameter-server sizing — a single PS saturates as Cn × Tn grows
  and the minimum stable Pn rises;
* §IV-D's ImageNet extrapolation — ~1.6 M updates and ~187 h of
  strong-consistency overhead;
* the planner-vs-simulator cross-check (the estimate must track the DES).
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.cloud import cifar10_workload, imagenet_workload, plan_capacity
from repro.core import ConstantAlpha, TrainingJobConfig, run_experiment
from repro.kvstore import mysql_like_latency

from _helpers import emit, run_once


def test_ps_sizing_table(benchmark):
    def build() -> str:
        rows = []
        for clients, concurrency in [(3, 2), (3, 8), (5, 2), (5, 8), (10, 8)]:
            est = plan_capacity(
                cifar10_workload(),
                num_clients=clients,
                concurrency=concurrency,
                num_param_servers=1,
            )
            rows.append(
                [
                    f"C{clients}T{concurrency}",
                    round(est.ps_utilization, 2),
                    est.bottleneck,
                    est.min_param_servers,
                    round(est.job_hours, 2),
                ]
            )
        return render_table(
            ["fleet", "rho at P1", "bottleneck", "min Pn", "hours at P1"],
            rows,
            title="SecIV-B: parameter-server sizing (analytic)",
        )

    table = run_once(benchmark, build)
    emit("capacity_ps_sizing", table)

    low = plan_capacity(cifar10_workload(), num_clients=3, concurrency=2,
                        num_param_servers=1)
    high = plan_capacity(cifar10_workload(), num_clients=10, concurrency=8,
                         num_param_servers=1)
    assert low.bottleneck == "clients"
    assert high.bottleneck == "parameter-servers"
    assert high.min_param_servers > low.min_param_servers


def test_imagenet_extrapolation(benchmark):
    def build() -> str:
        rows = []
        for wl in (cifar10_workload(), imagenet_workload()):
            est = plan_capacity(
                wl, num_clients=5, concurrency=2, num_param_servers=5,
                store=mysql_like_latency(),
            )
            rows.append(
                [
                    wl.name,
                    f"{wl.total_subtasks:,}",
                    round(est.store_overhead_hours, 1),
                    round(est.job_hours, 1),
                ]
            )
        return render_table(
            ["workload", "updates", "strong-store overhead (h)", "job (h)"],
            rows,
            title="SecIV-D extrapolation: CIFAR10 -> ImageNet (800x data)",
        )

    table = run_once(benchmark, build)
    emit("capacity_imagenet", table)

    imagenet = plan_capacity(
        imagenet_workload(), num_clients=5, concurrency=2, num_param_servers=5,
        store=mysql_like_latency(),
    )
    # The paper's headline numbers.
    assert imagenet_workload().total_subtasks == 1_600_000
    assert 180 < imagenet.store_overhead_hours < 195


def test_planner_vs_simulator(benchmark):
    """The analytic epoch estimate tracks the event simulation closely on a
    client-bound configuration."""

    def run() -> tuple[float, float]:
        cfg = TrainingJobConfig(
            num_param_servers=3,
            num_clients=3,
            max_concurrent_subtasks=2,
            max_epochs=3,
            alpha_schedule=ConstantAlpha(0.95),
        )
        sim_epoch = run_experiment(cfg).total_time_s / 3
        est = plan_capacity(
            cifar10_workload(), num_clients=3, concurrency=2, num_param_servers=3
        )
        plan_epoch = est.job_hours * 3600 / cifar10_workload().epochs
        return plan_epoch, sim_epoch

    plan_epoch, sim_epoch = run_once(benchmark, run)
    error = abs(plan_epoch - sim_epoch) / sim_epoch
    emit(
        "capacity_crosscheck",
        f"planner epoch={plan_epoch:.1f}s vs simulator epoch={sim_epoch:.1f}s "
        f"(error {100 * error:.1f}%)",
    )
    assert error < 0.15
