"""Compute devices: heterogeneous specs and a processor-sharing model.

Two pieces live here:

* :class:`InstanceSpec` — the static description of a machine (Table I of
  the paper: vCPUs, clock, RAM, network bandwidth) and the derived
  compute rate;
* :class:`ComputeResource` — a processor-sharing queue bound to a
  :class:`~repro.simulation.engine.Simulator`.  It is what makes the
  "simultaneous subtasks per client" (Tn) dimension physical: while the
  number of running tasks is at most the core count each task runs at
  one core's speed, beyond that the machine is time-sliced and a mild
  contention penalty kicks in — reproducing the paper's observation that
  client throughput stops improving past T8 on 8-vCPU instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, SimulationError
from .engine import Simulator
from .events import EventHandle
from .network import NetworkLink, lan_link, wan_link

__all__ = ["InstanceSpec", "TABLE1_SERVER", "TABLE1_CLIENTS", "ComputeResource", "ComputeTask"]

# The work unit's calibration anchors (§IV-E): one training subtask is 144
# units, t_e ≈ 2.4 min on a reference core; the parameter server's
# accuracy pass over each merged update is 8.
SUBTASK_WORK_UNITS = 144.0
VALIDATION_WORK_UNITS = 8.0


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of a compute instance (paper Table I row).

    ``compute_rate`` is expressed in abstract *work units per second*; one
    work unit is calibrated so that the paper's reference subtask (one
    local training pass over a 1 000-image CIFAR10 shard) is
    ``SUBTASK_WORK_UNITS`` (144) work units, making t_e ≈ 2.4 min on a
    reference core (§IV-E).
    """

    name: str
    vcpus: int
    clock_ghz: float
    ram_gb: float
    network_gbps: float
    core_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.vcpus <= 0 or self.clock_ghz <= 0 or self.ram_gb <= 0:
            raise ConfigurationError(f"invalid instance spec {self}")

    @property
    def per_core_rate(self) -> float:
        """Work units per second delivered by one core.

        Normalized so a 2.4 GHz core with efficiency 1.0 delivers exactly
        1.0 unit/s; heterogeneity enters through the clock ratio.
        """
        return self.core_efficiency * self.clock_ghz / 2.4

    @property
    def total_rate(self) -> float:
        """Work units per second with all cores busy."""
        return self.vcpus * self.per_core_rate

    def default_link(self, is_server: bool = False) -> NetworkLink:
        """A network link consistent with the spec's bandwidth column."""
        if is_server:
            return lan_link(bandwidth_gbps=self.network_gbps)
        return wan_link(bandwidth_gbps=self.network_gbps, latency_ms=20.0)


# Paper Table I: the server and the four client instance types.
TABLE1_SERVER = InstanceSpec("server", vcpus=8, clock_ghz=2.3, ram_gb=61, network_gbps=10)
TABLE1_CLIENTS = (
    InstanceSpec("client-a", vcpus=8, clock_ghz=2.2, ram_gb=32, network_gbps=5),
    InstanceSpec("client-b", vcpus=8, clock_ghz=2.5, ram_gb=32, network_gbps=5),
    InstanceSpec("client-c", vcpus=8, clock_ghz=2.8, ram_gb=15, network_gbps=2),
    InstanceSpec("client-d", vcpus=16, clock_ghz=2.8, ram_gb=30, network_gbps=2),
)


@dataclass
class ComputeTask:
    """A unit of work admitted to a :class:`ComputeResource`."""

    work_remaining: float
    on_complete: object  # Callable[[], None]; dataclass keeps repr simple
    label: str = ""
    on_cancel: object = None  # Callable[[], None] | None, fired on cancel/terminate
    done: bool = False
    cancelled: bool = False
    _order: int = field(default=0, repr=False)


class ComputeResource:
    """Processor-sharing compute model over a simulator clock.

    With ``k`` active tasks on a machine of ``cores`` cores:

    * ``k <= cores``: each task progresses at ``per_core_rate``;
    * ``k > cores``: the full machine rate is divided evenly, degraded by a
      contention factor ``1 / (1 + contention * (k - cores))``.

    All active tasks therefore always share one common rate, so completion
    order equals remaining-work order and a single pending completion event
    suffices.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: InstanceSpec,
        contention: float = 0.05,
        name: str = "",
    ) -> None:
        if contention < 0:
            raise ConfigurationError("contention must be non-negative")
        self.sim = sim
        self.spec = spec
        self.contention = contention
        self.name = name or spec.name
        self._active: list[ComputeTask] = []
        self._last_update = sim.now
        self._completion_event: EventHandle | None = None
        self._order_counter = 0
        self.alive = True
        self.completed_count = 0
        self.busy_time = 0.0  # integral of (active tasks > 0) over sim time

    # -- rate law ---------------------------------------------------------
    def per_task_rate(self, k: int | None = None) -> float:
        """Work units/second each active task receives with ``k`` active."""
        if k is None:
            k = len(self._active)
        if k == 0:
            return 0.0
        cores = self.spec.vcpus
        if k <= cores:
            return self.spec.per_core_rate
        degraded_total = self.spec.total_rate / (1.0 + self.contention * (k - cores))
        return degraded_total / k

    def throughput(self, k: int) -> float:
        """Aggregate work units/second with ``k`` active tasks."""
        return k * self.per_task_rate(k)

    # -- public API -------------------------------------------------------
    def submit(self, work: float, on_complete, label: str = "") -> ComputeTask:
        """Admit a task needing ``work`` units; ``on_complete()`` fires when done."""
        if not self.alive:
            raise SimulationError(f"submit() on terminated resource {self.name!r}")
        if work <= 0:
            raise ConfigurationError(f"task work must be positive, got {work}")
        self._advance()
        task = ComputeTask(work, on_complete, label=label, _order=self._order_counter)
        self._order_counter += 1
        self._active.append(task)
        self._reschedule()
        return task

    def cancel(self, task: ComputeTask) -> None:
        """Remove a task before completion (e.g. its workunit was aborted);
        its ``on_cancel`` fires once."""
        if task.done or task.cancelled:
            return
        self._advance()
        task.cancelled = True
        self._active.remove(task)
        self._reschedule()
        if task.on_cancel is not None:
            task.on_cancel()

    def terminate(self) -> list[ComputeTask]:
        """Kill the machine (preemption): all in-flight tasks are lost.

        Each dropped task's ``on_cancel`` fires.  Returns the dropped tasks
        so the caller (client daemon) can report or simply let the
        scheduler's timeout machinery recover them.
        """
        self._advance()
        dropped = list(self._active)
        for task in dropped:
            task.cancelled = True
        self._active.clear()
        self.alive = False
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        for task in dropped:
            if task.on_cancel is not None:
                task.on_cancel()
        return dropped

    def seconds_to_finish(self, task: ComputeTask) -> float:
        """Simulated seconds until ``task`` completes if the rate holds.

        A pure read: :meth:`_advance` would split the float interval since
        the last state change and so move every later completion time.
        """
        rate = self.per_task_rate()
        return (task.work_remaining - rate * (self.sim.now - self._last_update)) / rate

    @property
    def active_count(self) -> int:
        """Tasks currently sharing the machine."""
        return len(self._active)

    def utilization(self) -> float:
        """Fraction of elapsed sim time this resource had work (busy time)."""
        self._advance_busy_only()
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / self.sim.now

    # -- internals ----------------------------------------------------------
    def _advance_busy_only(self) -> None:
        if self._active and self.sim.now > self._last_update:
            self.busy_time += self.sim.now - self._last_update

    def _advance(self) -> None:
        """Account for work done since the last state change."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._active:
            self.busy_time += elapsed
            rate = self.per_task_rate()
            decrement = rate * elapsed
            for task in self._active:
                task.work_remaining -= decrement
                # Clamp tiny float residue from event-time round-trips.
                if task.work_remaining < 1e-9:
                    task.work_remaining = 0.0
        self._last_update = self.sim.now

    def _reschedule(self) -> None:
        """Re-point the single completion event at the next finisher."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._active:
            return
        rate = self.per_task_rate()
        nxt = min(self._active, key=lambda t: (t.work_remaining, t._order))
        delay = nxt.work_remaining / rate
        self._completion_event = self.sim.schedule(
            delay, lambda: self._complete(nxt), label=f"{self.name}:complete"
        )

    def _complete(self, task: ComputeTask) -> None:
        self._completion_event = None
        self._advance()
        if task.cancelled:  # raced with termination/cancel
            self._reschedule()
            return
        task.done = True
        task.work_remaining = 0.0
        self._active.remove(task)
        self.completed_count += 1
        self._reschedule()
        task.on_complete()
