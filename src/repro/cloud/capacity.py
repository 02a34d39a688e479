"""Analytic capacity planning for VC training jobs.

The paper reasons about scaling in closed form: ImageNet is "800 times the
total training data size of CIFAR10", pushing the update count to ~1.6 M
and the strong-consistency overhead to ~187 h (§IV-D); the PS count has to
grow with Cn × Tn (§IV-B); fleet cost scales with instance hours (§IV-E).
This module packages those calculations as a planner so a user can answer
"what happens if I run *this* workload on *that* fleet" without running
the simulator.

All estimates are steady-state queueing arithmetic, deliberately simple
and cross-checked against the event simulation in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..kvstore.latency import StoreLatency, redis_like_latency
from ..simulation.resources import (
    SUBTASK_WORK_UNITS,
    TABLE1_CLIENTS,
    TABLE1_SERVER,
    VALIDATION_WORK_UNITS,
    InstanceSpec,
)
from .pricing import PriceBook, PricingClass, default_price_book

__all__ = [
    "WorkloadSpec",
    "cifar10_workload",
    "imagenet_workload",
    "CapacityEstimate",
    "plan_capacity",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of a training job for planning purposes."""

    name: str
    num_shards: int
    epochs: int
    work_units_per_subtask: float  # the paper's subtask: SUBTASK_WORK_UNITS
    param_bytes: int  # wire size of one parameter file
    shard_bytes: int  # wire size of one data shard

    def __post_init__(self) -> None:
        if self.num_shards <= 0 or self.epochs <= 0:
            raise ConfigurationError("shards and epochs must be positive")
        if self.work_units_per_subtask <= 0:
            raise ConfigurationError("work per subtask must be positive")
        if self.param_bytes <= 0 or self.shard_bytes <= 0:
            raise ConfigurationError("byte sizes must be positive")

    @property
    def total_subtasks(self) -> int:
        """n_s: total updates over the whole job (the paper's ~2 000 / ~1.6 M)."""
        return self.num_shards * self.epochs


def cifar10_workload() -> WorkloadSpec:
    """The paper's benchmark job: 50 shards × 40 epochs, 21.2 MB params,
    3.9 MB shards."""
    return WorkloadSpec(
        name="cifar10",
        num_shards=50,
        epochs=40,
        work_units_per_subtask=SUBTASK_WORK_UNITS,
        param_bytes=int(21.2 * 1024 * 1024),
        shard_bytes=int(3.9 * 1024 * 1024),
    )


def imagenet_workload() -> WorkloadSpec:
    """The §IV-D extrapolation: 800× CIFAR10's data → 40 000 shards/epoch,
    ~1.6 M updates over 40 epochs."""
    base = cifar10_workload()
    return WorkloadSpec(
        name="imagenet",
        num_shards=base.num_shards * 800,
        epochs=base.epochs,
        work_units_per_subtask=base.work_units_per_subtask,
        param_bytes=base.param_bytes,
        shard_bytes=base.shard_bytes,
    )


@dataclass(frozen=True)
class CapacityEstimate:
    """Planner output for one (workload, fleet, Pn, Tn) combination."""

    workload: str
    num_clients: int
    concurrency: int
    num_param_servers: int
    subtask_seconds: float  # t_e on the mean client core
    epoch_waves: float
    client_epoch_seconds: float
    assimilation_service_seconds: float
    ps_utilization: float  # arrival rate / pool capacity (rho)
    bottleneck: str  # "clients" | "parameter-servers"
    min_param_servers: int  # smallest Pn with rho < 1
    job_hours: float
    store_overhead_hours: float  # extra vs the Redis-calibrated baseline
    fleet_cost: float

    def summary_row(self) -> list[object]:
        """Row for tabular rendering of several estimates."""
        return [
            self.workload,
            f"C{self.num_clients}T{self.concurrency}P{self.num_param_servers}",
            round(self.subtask_seconds / 60, 2),
            round(self.ps_utilization, 2),
            self.bottleneck,
            self.min_param_servers,
            round(self.job_hours, 1),
            round(self.fleet_cost, 2),
        ]


def plan_capacity(
    workload: WorkloadSpec,
    client_specs: tuple[InstanceSpec, ...] = TABLE1_CLIENTS,
    num_clients: int = 5,
    concurrency: int = 2,
    num_param_servers: int = 1,
    server_spec: InstanceSpec = TABLE1_SERVER,
    store: StoreLatency | None = None,
    price_book: PriceBook | None = None,
    pricing: PricingClass = PricingClass.PREEMPTIBLE,
) -> CapacityEstimate:
    """Steady-state estimate of epoch time, bottleneck and cost.

    Model: clients run ``concurrency`` subtasks each at one core's speed;
    an epoch is ``ceil(shards / (clients × concurrency))`` waves; the PS
    pool is an M/D/c-ish server whose per-result service is the store
    update latency plus the validation pass.  When the pool's utilization
    ρ ≥ 1, epoch time is drain-limited and the bottleneck flips to the
    servers (the Fig. 3 regime).
    """
    if num_clients <= 0 or concurrency <= 0 or num_param_servers <= 0:
        raise ConfigurationError("fleet parameters must be positive")
    store = store if store is not None else redis_like_latency()
    price_book = price_book if price_book is not None else default_price_book()

    fleet = [client_specs[i % len(client_specs)] for i in range(num_clients)]
    mean_core_rate = sum(spec.per_core_rate for spec in fleet) / num_clients
    subtask_seconds = workload.work_units_per_subtask / mean_core_rate

    slots = num_clients * concurrency
    waves = math.ceil(workload.num_shards / slots)
    client_epoch_seconds = waves * subtask_seconds

    service = (
        store.update(workload.param_bytes)
        + VALIDATION_WORK_UNITS / server_spec.per_core_rate
    )
    arrival_rate = slots / subtask_seconds  # results/second while running
    capacity = num_param_servers / service
    rho = arrival_rate / capacity

    # Minimum Pn for stability (ρ < 1), the §IV-B sizing question.
    min_ps = max(1, math.ceil(arrival_rate * service * (1 + 1e-9)))

    if rho < 1.0:
        # Clients dominate; the PS pool adds only the tail drain.
        epoch_seconds = client_epoch_seconds + (slots / num_param_servers) * service
        bottleneck = "clients"
    else:
        # Drain-limited: after the first wave of results lands, the pool is
        # the pipeline; every result passes through it serially.
        epoch_seconds = (
            subtask_seconds + workload.num_shards * service / num_param_servers
        )
        bottleneck = "parameter-servers"

    job_hours = workload.epochs * epoch_seconds / 3600.0

    baseline_service = (
        redis_like_latency().update(workload.param_bytes)
        + VALIDATION_WORK_UNITS / server_spec.per_core_rate
    )
    overhead_hours = (
        workload.total_subtasks * max(0.0, service - baseline_service) / 3600.0
    )

    hourly = sum(price_book.hourly(spec, pricing) for spec in fleet)
    return CapacityEstimate(
        workload=workload.name,
        num_clients=num_clients,
        concurrency=concurrency,
        num_param_servers=num_param_servers,
        subtask_seconds=subtask_seconds,
        epoch_waves=waves,
        client_epoch_seconds=client_epoch_seconds,
        assimilation_service_seconds=service,
        ps_utilization=rho,
        bottleneck=bottleneck,
        min_param_servers=min_ps,
        job_hours=job_hours,
        store_overhead_hours=overhead_hours,
        fleet_cost=hourly * job_hours,
    )
