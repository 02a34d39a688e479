"""Layered chaos fault plan: declarative failure injection for every tier.

The paper's central robustness claim (§II-A, §III) is that VC-ASGD keeps
training on an *unreliable substrate*.  The seed reproduction only injected
faults at the client fleet (preemption, corruption, churn); this module
extends the fault model to the remaining layers, deterministically:

* **transfers** — per-transfer failure/stall probabilities, the faults
  BOINC answers with persistent transfers and exponential backoff
  (Anderson 2018, §"file transfers");
* **network partitions** — timed windows during which chosen clients (or
  the whole fleet) cannot reach the server at all;
* **parameter servers** — timed crash/restart schedules; surviving servers
  adopt the dead server's in-flight assimilation through the shared store,
  and a crashed *sole* server restarts from the latest epoch checkpoint;
* **KV store** — hard outage windows (operations block until the window
  lifts) and degraded-latency windows (every operation slowed by a factor).

A :class:`ChaosPlan` is pure data: the same plan plus the same seed must
reproduce a bit-identical run, so plans never hold RNGs — all stochastic
draws happen inside the simulation from named streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "TransferFaultPlan",
    "PartitionWindow",
    "PartitionSchedule",
    "StoreFaultWindow",
    "ServerCrash",
    "ChaosPlan",
]


@dataclass(frozen=True)
class TransferFaultPlan:
    """Per-transfer failure model for the web-server file channel.

    ``failure_p`` — probability a transfer aborts partway through (the
    client learns after a fraction of the nominal transfer time);
    ``stall_p`` — probability a transfer hangs: the client waits
    ``stall_timeout_s`` before detecting the stall and retrying.
    Both are evaluated per transfer from the client's network RNG stream,
    so runs stay deterministic for a fixed seed.  Each field's ``metadata``
    declares its command-line flag (see :mod:`repro.core.job`).
    """

    failure_p: float = field(
        default=0.0,
        metadata={
            "flags": ("--xfer-fail-p",),
            "metavar": "P",
            "help": "per-transfer abort probability (persistent-transfer retries kick in)",
        },
    )
    stall_p: float = field(
        default=0.0,
        metadata={
            "flags": ("--xfer-stall-p",),
            "metavar": "P",
            "help": "per-transfer stall probability",
        },
    )
    stall_timeout_s: float = field(
        default=120.0,
        metadata={
            "flags": ("--xfer-stall-timeout",),
            "metavar": "SECONDS",
            "help": "time a client waits before detecting a stalled transfer",
        },
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_p <= 1.0 or not 0.0 <= self.stall_p <= 1.0:
            raise ConfigurationError("transfer fault probabilities must be in [0, 1]")
        if self.failure_p + self.stall_p > 1.0:
            raise ConfigurationError("failure_p + stall_p cannot exceed 1")
        if not self.stall_timeout_s > 0:
            raise ConfigurationError("stall_timeout_s must be positive")

    @property
    def active(self) -> bool:
        return self.failure_p > 0.0 or self.stall_p > 0.0


@dataclass(frozen=True)
class PartitionWindow:
    """A timed network partition.

    During [start_s, start_s + duration_s) the listed clients (all clients
    when the tuple is empty) cannot reach the server: every transfer fails
    fast with a connection error.
    """

    start_s: float
    duration_s: float
    clients: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ConfigurationError("partition window needs start >= 0, duration > 0")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def blocks(self, client_id: str, now: float) -> bool:
        """Whether ``client_id`` is cut off from the server at ``now``."""
        if not self.start_s <= now < self.end_s:
            return False
        return not self.clients or client_id in self.clients


class PartitionSchedule:
    """Queryable view over a set of partition windows."""

    def __init__(self, windows: tuple[PartitionWindow, ...] = ()) -> None:
        self.windows = tuple(windows)

    def blocking(self, client_id: str, now: float) -> PartitionWindow | None:
        """The window currently cutting ``client_id`` off, or None."""
        for window in self.windows:
            if window.blocks(client_id, now):
                return window
        return None

    def __bool__(self) -> bool:
        return bool(self.windows)


@dataclass(frozen=True)
class StoreFaultWindow:
    """A KV-store outage or degraded-latency window.

    ``latency_factor`` None means a hard outage: operations issued inside
    the window complete only after it lifts (plus their normal latency).
    A finite factor > 1 multiplies every operation's latency instead.
    """

    start_s: float
    duration_s: float
    latency_factor: float | None = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ConfigurationError("store fault window needs start >= 0, duration > 0")
        if self.latency_factor is not None and self.latency_factor < 1.0:
            raise ConfigurationError("latency_factor must be >= 1 (or None for outage)")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def covers(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class ServerCrash:
    """One scheduled parameter-server crash.

    ``restart_delay_s`` None means the worker never comes back (permanent
    capacity loss); otherwise a replacement starts after the delay.
    """

    at_s: float
    restart_delay_s: float | None = 120.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError("crash time must be non-negative")
        if self.restart_delay_s is not None and self.restart_delay_s <= 0:
            raise ConfigurationError("restart_delay_s must be positive or None")


@dataclass(frozen=True)
class ChaosPlan:
    """The full layered fault plan for one run.

    ``restore_from_checkpoint`` controls sole-server recovery: when the
    last live parameter server crashes and later restarts, the runner
    restores the server parameter copy from its latest epoch checkpoint
    (modeling a server whose durable state is the checkpoint database).
    """

    transfer: TransferFaultPlan = field(default_factory=TransferFaultPlan)
    partitions: tuple[PartitionWindow, ...] = ()
    ps_crashes: tuple[ServerCrash, ...] = ()
    kv_windows: tuple[StoreFaultWindow, ...] = ()
    restore_from_checkpoint: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.transfer, TransferFaultPlan):
            raise ConfigurationError("ChaosPlan.transfer must be a TransferFaultPlan")
        for window in self.partitions:
            if not isinstance(window, PartitionWindow):
                raise ConfigurationError("ChaosPlan.partitions must hold PartitionWindows")
        for crash in self.ps_crashes:
            if not isinstance(crash, ServerCrash):
                raise ConfigurationError("ChaosPlan.ps_crashes must hold ServerCrashes")
        for window in self.kv_windows:
            if not isinstance(window, StoreFaultWindow):
                raise ConfigurationError("ChaosPlan.kv_windows must hold StoreFaultWindows")

    @property
    def active(self) -> bool:
        """Whether the plan injects any fault at all."""
        return bool(
            self.transfer.active
            or self.partitions
            or self.ps_crashes
            or self.kv_windows
        )
