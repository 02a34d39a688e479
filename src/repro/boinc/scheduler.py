"""BOINC-like scheduler: workunit assignment, timeouts, reliability (§III-B).

The scheduler is pull-based: clients request work when they have free
execution slots.  Three policies from the paper are implemented, always
on, as BOINC runs them (their tuning is module constants):

* **timeout + reissue** — every issued workunit carries a deadline; when
  the deadline passes without a result the workunit returns to the unsent
  queue (fault tolerance against preempted/dead clients);
* **sticky-file affinity** — among unsent workunits, prefer ones whose
  data shard the requesting client already caches (avoids re-downloads);
* **reliability tracking** — per-client EWMA of attempt outcomes; clients
  below a reliability floor are put on probation (one workunit at a time)
  so chronically flaky nodes can't hoard work.

BOINC's replication rule holds too: a host computes at most one replica
of any logical workunit.

Fleet-scale design: per-event cost must not depend on fleet size.  The
ready queue is indexed (see :mod:`repro.boinc.ready_queue`), in-progress
and terminal counts are maintained incrementally off workunit state
transitions, and the **ping + server-suggested-sleep** protocol
(:meth:`Scheduler.ping`) lets an idle fleet of any size park itself: a
ping that grants nothing returns a sleep hint derived from the client's
failure backoff, the queue depth, and assimilation backpressure, and the
client registers a wake callback so new work rouses exactly as many idle
hosts as there are new units — never the whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import SchedulerError
from ..simulation.engine import Simulator
from ..simulation.events import EventHandle
from ..simulation.tracing import Trace
from .ready_queue import IndexedReadyQueue
from .replication import logical_id
from .workunit import Workunit, WorkunitState

__all__ = ["SchedulerConfig", "ClientRecord", "Scheduler", "WORK_FETCH_MODES"]

# Work-fetch protocols: "poke" is the legacy broadcast (server poll of
# every client on publish), "ping" is the fleet-scale pull protocol.
WORK_FETCH_MODES = ("poke", "ping")
# Reliability EWMA weight on history.  A host below PROBATION_THRESHOLD
# is on probation: from a clean record, from its 6th failure in a row
# (0.8**5 ≈ 0.33, 0.8**6 ≈ 0.26).
RELIABILITY_DECAY = 0.8
PROBATION_THRESHOLD = 0.3
# Work-fetch backoff after a failure (BOINC clients back off after
# errors): BACKOFF_BASE_S doubling per consecutive failure, capped.
BACKOFF_BASE_S = 60.0
BACKOFF_MAX_S = 3600.0
# A computing client's trickle heartbeat interval, when heartbeats are on.
HEARTBEAT_INTERVAL_S = 60.0
# Ping-mode sleep hints: a host that found a non-empty queue but was
# granted nothing (ineligible / probation) retries after PING_BUSY_S; a
# host that found an empty queue sleeps PING_IDLE_BASE_S, doubling per
# consecutive empty ping up to PING_IDLE_MAX_S.
PING_BUSY_S = 5.0
PING_IDLE_BASE_S = 30.0
PING_IDLE_MAX_S = 1800.0


@dataclass(frozen=True)
class SchedulerConfig:
    """What a run chooses of the scheduler's policy (paper defaults:
    t_o = 5 min, 5 attempts); the rest of BOINC's policy is the module's
    constants."""

    timeout_s: float = 300.0
    max_attempts: int = 5
    # Trickle-style progress heartbeats: a client computing a long subtask
    # periodically reports progress, and each report slides the deadline
    # forward (dead clients stop reporting and still time out).  Guards
    # slow-but-alive heterogeneous nodes against spurious reissues.
    heartbeats_enabled: bool = False
    # Work-fetch protocol (consumed by BoincServer/ClientDaemon): "poke"
    # keeps the legacy broadcast wake-up, "ping" switches the fleet to the
    # ping + server-suggested-sleep contract.
    work_fetch: str = "poke"
    # Quarantine loop (Byzantine defense): a host whose results are
    # invalidated (validator reject or quorum loss) this many times is
    # barred from further assignment.  0 disables the loop entirely — the
    # historical behaviour, where invalid results never fed back into
    # scheduling.
    quarantine_after: int = 0

    def __post_init__(self) -> None:
        if self.quarantine_after < 0:
            raise SchedulerError("quarantine_after must be non-negative")
        if self.work_fetch not in WORK_FETCH_MODES:
            raise SchedulerError(
                f"unknown work_fetch {self.work_fetch!r}; use one of {WORK_FETCH_MODES}"
            )


@dataclass
class ClientRecord:
    """Scheduler-side view of one client."""

    client_id: str
    reliability: float = 1.0  # optimistic prior, decays on failures
    assigned: set[str] = field(default_factory=set)  # wu_ids in flight
    completed: int = 0
    failed: int = 0
    consecutive_failures: int = 0
    backoff_until: float = 0.0  # no work granted before this sim time
    # Logical workunit ids this host has ever been sent a replica of.
    seen_logical: set[str] = field(default_factory=set)
    # Consecutive pings that found an empty queue (drives idle-hint growth).
    empty_pings: int = 0
    # Byzantine-defense bookkeeping: results invalidated (validator reject
    # or quorum loss) and whether the host crossed the quarantine bar.
    invalid_results: int = 0
    quarantined: bool = False


class Scheduler:
    """Assigns workunits to clients and polices deadlines."""

    def __init__(
        self,
        sim: Simulator,
        config: SchedulerConfig | None = None,
        trace: Trace | None = None,
    ) -> None:
        self.sim = sim
        self.config = config or SchedulerConfig()
        self.trace = trace
        self._workunits: dict[str, Workunit] = {}
        self._ready = IndexedReadyQueue()
        self._clients: dict[str, ClientRecord] = {}
        self._timeout_handles: dict[tuple[str, int], EventHandle] = {}
        # Incremental state counters, fed by the workunit transition
        # observer — all_terminal()/in_progress_count() are O(1).
        self._num_in_progress = 0
        self._num_terminal = 0
        # Idle waiters (ping mode): client_id -> wake callback, FIFO.  New
        # work wakes min(new units, waiters) hosts, never the whole fleet.
        self._waiters: dict[str, Callable[[], None]] = {}
        # Hook the server/client layer sets to learn about timeouts so the
        # executing client can abort the stale task.
        self.on_timeout = None  # Callable[[str wu_id, str client_id], None]
        # Optional assimilation-backpressure probe (seconds of extra sleep
        # to suggest when the server-side merge pipeline is saturated);
        # wired by the runner to the parameter-server pool.
        self.backpressure_fn: Callable[[], float] | None = None
        self.timeouts = 0
        self.reissues = 0
        self.heartbeats = 0
        self.cancellations = 0
        self.pings = 0
        self.stale_heartbeats = 0
        self.hosts_quarantined = 0

    # -- registration -----------------------------------------------------
    def register_client(self, client_id: str) -> ClientRecord:
        """Fetch-or-create the scheduler-side record for a client."""
        record = self._clients.get(client_id)
        if record is None:
            record = ClientRecord(client_id=client_id)
            self._clients[client_id] = record
        return record

    def client(self, client_id: str) -> ClientRecord:
        """Record of a known client; raises SchedulerError otherwise."""
        try:
            return self._clients[client_id]
        except KeyError:
            raise SchedulerError(f"unknown client {client_id!r}") from None

    def add_workunits(self, workunits: list[Workunit]) -> None:
        """Publish new workunits (one epoch's subtasks)."""
        for wu in workunits:
            if wu.wu_id in self._workunits:
                raise SchedulerError(f"duplicate workunit id {wu.wu_id!r}")
            wu.created_at = self.sim.now
            wu._observer = self._on_wu_transition
            self._workunits[wu.wu_id] = wu
            self._ready.push(wu.wu_id, wu.shard_file())
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "sched.created",
                    wu=wu.wu_id,
                    epoch=wu.epoch,
                    shard=wu.shard_index,
                )
        self._wake_waiters(len(workunits))

    def get_workunit(self, wu_id: str) -> Workunit:
        """Look up a workunit by id; raises SchedulerError if unknown."""
        try:
            return self._workunits[wu_id]
        except KeyError:
            raise SchedulerError(f"unknown workunit {wu_id!r}") from None

    def _on_wu_transition(
        self, wu: Workunit, old: WorkunitState, new: WorkunitState
    ) -> None:
        if old is WorkunitState.IN_PROGRESS:
            self._num_in_progress -= 1
        if new is WorkunitState.IN_PROGRESS:
            self._num_in_progress += 1
        terminal = (WorkunitState.DONE, WorkunitState.ERROR, WorkunitState.CANCELLED)
        if new in terminal and old not in terminal:
            self._num_terminal += 1

    # -- assignment ---------------------------------------------------------
    def request_work(
        self, client_id: str, sticky_names: set[str], max_units: int
    ) -> list[Workunit]:
        """Hand out up to ``max_units`` workunits to ``client_id``."""
        record = self.register_client(client_id)
        if max_units <= 0:
            return []
        if record.quarantined:
            return []
        if self.sim.now < record.backoff_until:
            return []
        if record.reliability < PROBATION_THRESHOLD:
            # Probation: flaky client gets at most one unit at a time.
            max_units = min(max_units, 1) if not record.assigned else 0
        granted: list[Workunit] = []
        while len(granted) < max_units and len(self._ready) > 0:
            wu_id = self._pick_unsent(sticky_names, record)
            if wu_id is None:
                break  # nothing this host is eligible for
            wu = self._workunits[wu_id]
            attempt = wu.mark_sent(client_id, self.sim.now)
            record.assigned.add(wu_id)
            record.seen_logical.add(logical_id(wu_id))
            idx = wu.num_attempts - 1
            handle = self.sim.schedule(
                self.config.timeout_s,
                lambda w=wu, i=idx, c=client_id: self._handle_timeout(w, i, c),
                label=f"timeout:{wu_id}",
            )
            self._timeout_handles[(wu_id, idx)] = handle
            granted.append(wu)
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "sched.assign",
                    wu=wu.wu_id,
                    client=client_id,
                    attempt=idx,
                )
        return granted

    def _pick_unsent(
        self, sticky_names: set[str], record: ClientRecord
    ) -> str | None:
        """Choose the next workunit the host is eligible for.

        Honours sticky-file affinity first, then FIFO.  A host is skipped
        for replicas of logical units it has already been sent (a timed-out
        host retrying its own unit is still allowed — it holds the only
        replica).  Eligibility is evaluated lazily inside the ready queue's
        pick.
        """
        return self._ready.pick(
            sticky_names,
            lambda wu_id: self._workunits[wu_id].shard_file(),
            lambda wu_id: self._eligible(wu_id, record),
        )

    def _eligible(self, wu_id: str, record: ClientRecord) -> bool:
        logical = logical_id(wu_id)
        if logical not in record.seen_logical:
            return True
        # Retrying the exact same physical unit (after its own timeout) is
        # allowed; computing a *sibling* replica is not.
        wu = self._workunits[wu_id]
        return any(a.client_id == record.client_id for a in wu.attempts)

    # -- ping + server-suggested-sleep protocol ------------------------------
    def ping(
        self,
        client_id: str,
        sticky_names: set[str],
        max_units: int,
        wake: Callable[[], None] | None = None,
    ) -> tuple[list[Workunit], float]:
        """One work-fetch ping: grant work, or suggest how long to sleep.

        Returns ``(granted, sleep_hint_s)``.  When nothing is granted the
        hint tells the client when to ping again; if ``wake`` is given the
        client is also parked as an idle waiter and is roused early (FIFO)
        when new work arrives — the hint is then only a liveness fallback.
        """
        record = self.register_client(client_id)
        self.pings += 1
        # A pinging client is by definition awake; drop any stale parking.
        self._waiters.pop(client_id, None)
        granted = self.request_work(client_id, sticky_names, max_units)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "sched.ping", client=client_id, granted=len(granted)
            )
        if granted:
            record.empty_pings = 0
            return granted, 0.0
        hint, reason = self._sleep_hint(record)
        if wake is not None:
            self._waiters[client_id] = wake
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "sched.sleep_hint",
                client=client_id,
                hint_s=hint,
                reason=reason,
            )
        return [], hint

    def _sleep_hint(self, record: ClientRecord) -> tuple[float, str]:
        """Backoff-, queue-depth- and probation-derived sleep suggestion."""
        if record.quarantined:
            # No amount of waiting makes a quarantined host eligible again;
            # park it for the maximum idle interval.
            return PING_IDLE_MAX_S, "quarantined"
        if self.sim.now < record.backoff_until:
            # Failure backoff dominates: no grant can happen before expiry.
            return record.backoff_until - self.sim.now + 1e-6, "backoff"
        if len(self._ready) > 0:
            # Work exists but this host can't take it right now (probation
            # hold or one-result-per-host ineligibility): short retry.
            if record.reliability < PROBATION_THRESHOLD and record.assigned:
                return PING_BUSY_S, "probation"
            return PING_BUSY_S, "ineligible"
        # Empty queue: idle hint doubles per consecutive empty ping, plus
        # any assimilation backpressure the server reports.
        record.empty_pings += 1
        exponent = min(record.empty_pings - 1, 20)
        hint = min(PING_IDLE_BASE_S * 2.0**exponent, PING_IDLE_MAX_S)
        if self.backpressure_fn is not None:
            hint += max(0.0, float(self.backpressure_fn()))
        return hint, "idle"

    def cancel_waiter(self, client_id: str) -> None:
        """Forget a parked idle waiter (client terminating)."""
        self._waiters.pop(client_id, None)

    def _wake_waiters(self, new_units: int) -> None:
        """Rouse up to ``new_units`` parked clients, FIFO — O(new work),
        never O(fleet)."""
        count = min(new_units, len(self._waiters))
        for _ in range(count):
            client_id = next(iter(self._waiters))
            wake = self._waiters.pop(client_id)
            self.sim.schedule(0.0, wake, label=f"sched:wake:{client_id}")

    # -- result / failure reporting ------------------------------------------
    def report_result(self, wu_id: str, client_id: str) -> bool:
        """A result file arrived.  Returns False if it is stale (the attempt
        already timed out and the unit was reissued) — stale results are
        discarded, as BOINC does once a workunit has been handed elsewhere."""
        wu = self.get_workunit(wu_id)
        record = self.register_client(client_id)
        record.assigned.discard(wu_id)
        if wu.state is not WorkunitState.IN_PROGRESS or wu.current_attempt.client_id != client_id:
            self._bump_reliability(record, success=False)
            if self.trace is not None:
                self.trace.emit(self.sim.now, "sched.stale_result", wu=wu_id, client=client_id)
            return False
        idx = wu.num_attempts - 1
        handle = self._timeout_handles.pop((wu_id, idx), None)
        if handle is not None:
            handle.cancel()
        wu.mark_result_received(self.sim.now)
        record.completed += 1
        self._bump_reliability(record, success=True)
        return True

    def report_heartbeat(self, wu_id: str, client_id: str) -> bool:
        """Progress report from a client still computing ``wu_id``.

        Slides the attempt's deadline to ``now + timeout_s``.  Returns False
        (and changes nothing) when the report is stale — the unit already
        timed out, completed, or belongs to another client now.
        """
        if not self.config.heartbeats_enabled:
            return False
        wu = self.get_workunit(wu_id)
        if (
            wu.state is not WorkunitState.IN_PROGRESS
            or wu.current_attempt.client_id != client_id
        ):
            self.stale_heartbeats += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "sched.stale_heartbeat", wu=wu_id, client=client_id
                )
            return False
        idx = wu.num_attempts - 1
        handle = self._timeout_handles.pop((wu_id, idx), None)
        if handle is not None:
            handle.cancel()
        wu.current_attempt.deadline = self.sim.now + self.config.timeout_s
        self._timeout_handles[(wu_id, idx)] = self.sim.schedule(
            self.config.timeout_s,
            lambda w=wu, i=idx, c=client_id: self._handle_timeout(w, i, c),
            label=f"timeout:{wu_id}",
        )
        self.heartbeats += 1
        if self.trace is not None:
            self.trace.emit(self.sim.now, "sched.heartbeat", wu=wu_id, client=client_id)
        return True

    def report_client_failure(self, client_id: str) -> list[Workunit]:
        """Client died (preemption/crash): fail all its in-flight workunits.

        Returns the workunits that were requeued so the caller can observe
        them; exhausted ones land in ERROR.
        """
        record = self.register_client(client_id)
        requeued: list[Workunit] = []
        for wu_id in sorted(record.assigned):
            wu = self._workunits[wu_id]
            if wu.state is not WorkunitState.IN_PROGRESS:
                continue
            idx = wu.num_attempts - 1
            handle = self._timeout_handles.pop((wu_id, idx), None)
            if handle is not None:
                handle.cancel()
            if wu.mark_client_error(self.sim.now):
                self._ready.push(wu_id, wu.shard_file())
                self.reissues += 1
                requeued.append(wu)
            elif self.trace is not None:
                self.trace.emit(
                    self.sim.now, "sched.exhausted", wu=wu_id, via="client_error"
                )
            record.failed += 1
            self._bump_reliability(record, success=False)
            if self.trace is not None:
                self.trace.emit(self.sim.now, "sched.client_error", wu=wu_id, client=client_id)
        record.assigned.clear()
        self._wake_waiters(len(requeued))
        return requeued

    def cancel_workunit(self, wu_id: str) -> str | None:
        """Server-side abort of a pending/running workunit.

        Returns the client id that was computing it (so the server can tell
        that client to stop), or None if it was unsent or already terminal.
        """
        wu = self.get_workunit(wu_id)
        if wu.is_terminal or wu.state is WorkunitState.VALIDATING:
            return None
        computing_client: str | None = None
        if wu.state is WorkunitState.IN_PROGRESS:
            computing_client = wu.current_attempt.client_id
            idx = wu.num_attempts - 1
            handle = self._timeout_handles.pop((wu_id, idx), None)
            if handle is not None:
                handle.cancel()
            self.register_client(computing_client).assigned.discard(wu_id)
        else:  # UNSENT: pull it out of the queue
            if not self._ready.remove(wu_id):
                # An UNSENT workunit absent from the ready queue means the
                # scheduler's books are inconsistent — never swallow it.
                raise SchedulerError(
                    f"workunit {wu_id!r} is UNSENT but missing from the "
                    "ready queue; scheduler state is inconsistent"
                )
        wu.mark_cancelled(self.sim.now)
        self.cancellations += 1
        if self.trace is not None:
            self.trace.emit(self.sim.now, "sched.cancelled", wu=wu_id)
        return computing_client

    def record_invalid_result(self, client_id: str) -> bool:
        """Charge one invalidated result (validator reject or quorum loss)
        against the host's record.

        Only called when the Byzantine defenses are enabled (quarantine or
        collusion guard) — the historical path never fed invalid results
        back into scheduling, and default runs stay bit-identical.  The
        penalty rides the existing reliability EWMA, so a repeatedly
        invalidated host first falls into the ping-protocol probation path
        and, once ``quarantine_after`` invalidations accumulate, is barred
        from assignment outright.  Returns True when this call newly
        quarantined the host.
        """
        record = self.register_client(client_id)
        record.invalid_results += 1
        self._bump_reliability(record, success=False)
        if (
            self.config.quarantine_after > 0
            and record.invalid_results >= self.config.quarantine_after
            and not record.quarantined
        ):
            record.quarantined = True
            self.hosts_quarantined += 1
            return True
        return False

    def requeue_after_invalid(self, wu_id: str) -> bool:
        """Validator rejected the result; retry if budget remains."""
        wu = self.get_workunit(wu_id)
        retry = wu.mark_invalid(self.sim.now)
        if retry:
            self._ready.push(wu_id, wu.shard_file())
            self.reissues += 1
            self._wake_waiters(1)
        elif self.trace is not None:
            self.trace.emit(self.sim.now, "sched.exhausted", wu=wu_id, via="invalid")
        return retry

    # -- timeouts ---------------------------------------------------------
    def _handle_timeout(self, wu: Workunit, attempt_idx: int, client_id: str) -> None:
        self._timeout_handles.pop((wu.wu_id, attempt_idx), None)
        if wu.state is not WorkunitState.IN_PROGRESS or wu.num_attempts - 1 != attempt_idx:
            return  # result arrived and was processed first
        record = self.register_client(client_id)
        record.assigned.discard(wu.wu_id)
        record.failed += 1
        self._bump_reliability(record, success=False)
        self.timeouts += 1
        if wu.mark_timeout(self.sim.now):
            self._ready.push(wu.wu_id, wu.shard_file())
            self.reissues += 1
            self._wake_waiters(1)
        elif self.trace is not None:
            self.trace.emit(self.sim.now, "sched.exhausted", wu=wu.wu_id, via="timeout")
        if self.trace is not None:
            self.trace.emit(self.sim.now, "sched.timeout", wu=wu.wu_id, client=client_id)
        if self.on_timeout is not None:
            self.on_timeout(wu.wu_id, client_id)

    def _bump_reliability(self, record: ClientRecord, success: bool) -> None:
        d = RELIABILITY_DECAY
        record.reliability = d * record.reliability + (1.0 - d) * (1.0 if success else 0.0)
        if success:
            record.consecutive_failures = 0
            record.backoff_until = 0.0
        else:
            delay = min(BACKOFF_BASE_S * 2.0**record.consecutive_failures, BACKOFF_MAX_S)
            record.consecutive_failures += 1
            record.backoff_until = self.sim.now + delay

    # -- stats ----------------------------------------------------------------
    def unsent_count(self) -> int:
        """Workunits currently queued for assignment."""
        return len(self._ready)

    def unsent_ids(self) -> list[str]:
        """Queued workunit ids in FIFO order (introspection/tests)."""
        return self._ready.snapshot()

    def in_progress_count(self) -> int:
        """Workunits currently executing on some client (O(1))."""
        return self._num_in_progress

    def terminal_count(self) -> int:
        """Workunits in a terminal state (done/error/cancelled) (O(1))."""
        return self._num_terminal

    def all_terminal(self) -> bool:
        """True when every published workunit reached a terminal state."""
        return self._num_terminal == len(self._workunits)
