"""Client daemon: the volunteer node's side of the protocol (§II-C, §III).

Each client owns a processor-sharing compute resource, a WAN link, and a
sticky-file cache.  Its life is a loop:

1. when execution slots are free, request work from the scheduler;
2. for each granted workunit, download the input files (model spec,
   current server parameters, data shard) from the web server;
3. execute the training subtask on the compute resource (real NumPy
   training, simulated duration);
4. upload the resulting parameter file;
5. go to 1.

Preemption (:meth:`ClientDaemon.terminate`) kills the machine mid-flight;
recovery is entirely the scheduler's timeout/reissue machinery — the
client does not (and on a reclaimed cloud instance, cannot) clean up.

**Persistent transfers** (BOINC middleware behaviour, Anderson 2018): a
failed or stalled download/upload is retried with capped exponential
backoff plus deterministic jitter, up to a retry budget.  The scheduler's
deadline machinery is *not* suspended during retries, so a permanently
partitioned client times out honestly and its workunit is reissued
elsewhere; the client's own retry loop notices the abort and stops.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import SimulationError
from ..simulation.engine import Simulator
from ..simulation.network import NetworkLink
from ..simulation.resources import ComputeResource, ComputeTask, InstanceSpec
from ..simulation.tracing import Trace
from .files import StickyCache, WebServer
from .scheduler import HEARTBEAT_INTERVAL_S, Scheduler
from .workunit import Workunit

__all__ = ["TaskExecutor", "ClientDaemon"]

# The application hook: given the workunit and its downloaded input
# payloads, run the actual training and return (result_payload, nbytes).
TaskExecutor = Callable[[Workunit, dict[str, object]], tuple[object, int]]

# Persistent-transfer policy (BOINC's project backoff is minutes-scale;
# ours is compressed to match the 5-minute subtask deadline so a transient
# fault retries several times before the scheduler reclaims the unit).
TRANSFER_RETRY_BASE_S = 5.0
TRANSFER_RETRY_CAP_S = 300.0
MAX_TRANSFER_RETRIES = 10


class ClientDaemon:
    """One volunteer/preemptible client instance."""

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        spec: InstanceSpec,
        scheduler: Scheduler,
        web: WebServer,
        executor: TaskExecutor,
        max_concurrent: int,
        link: NetworkLink | None = None,
        rng: np.random.Generator | None = None,
        cache_capacity_bytes: float = 8e9,
        trace: Trace | None = None,
    ) -> None:
        if max_concurrent <= 0:
            raise SimulationError("max_concurrent (Tn) must be positive")
        self.client_id = client_id
        self.sim = sim
        self.spec = spec
        self.scheduler = scheduler
        self.web = web
        self.executor = executor
        self.max_concurrent = max_concurrent
        self.link = link if link is not None else spec.default_link()
        self.rng = rng
        self.cache = StickyCache(cache_capacity_bytes)
        self.trace = trace
        self.resource = ComputeResource(sim, spec, name=f"cpu:{client_id}")
        self.alive = True
        self._in_flight: dict[str, ComputeTask | None] = {}  # wu_id -> compute task
        self._backoff_retry = None  # pending retry event during backoff
        self._ping_timer = None  # pending self-scheduled ping (ping mode)
        self._heartbeats: dict[str, object] = {}  # wu_id -> pending heartbeat event
        self.subtasks_completed = 0
        self.subtasks_aborted = 0
        self.transfer_retries = 0
        self.transfers_abandoned = 0
        scheduler.register_client(client_id)

    # -- work acquisition ---------------------------------------------------
    @property
    def free_slots(self) -> int:
        """Execution slots not currently holding a subtask (Tn − in flight)."""
        return self.max_concurrent - len(self._in_flight)

    def poll_for_work(self) -> None:
        """Ask the scheduler for work up to the free slot count.

        In "poke" mode this is the legacy request path (the server
        broadcasts pokes); in "ping" mode it is one ping of the ping +
        server-suggested-sleep protocol: an empty-handed ping parks the
        client until the hint expires or the scheduler wakes it early.
        """
        if not self.alive or self.free_slots <= 0:
            return
        if self.scheduler.config.work_fetch == "ping":
            self._ping()
            return
        granted = self.scheduler.request_work(
            self.client_id, self.cache.cached_names(), self.free_slots
        )
        if not granted:
            self._schedule_backoff_retry()
        for wu in granted:
            self._in_flight[wu.wu_id] = None  # slot reserved; no compute yet
            self._start_download(wu)

    def _ping(self) -> None:
        self._cancel_ping_timer()
        if not self.alive or self.free_slots <= 0:
            return
        granted, hint = self.scheduler.ping(
            self.client_id,
            self.cache.cached_names(),
            self.free_slots,
            wake=self._on_wake,
        )
        for wu in granted:
            self._in_flight[wu.wu_id] = None  # slot reserved; no compute yet
            self._start_download(wu)
        if not granted and hint > 0:
            self._ping_timer = self.sim.schedule(
                hint, self._ping, label=f"{self.client_id}:ping"
            )

    def _on_wake(self) -> None:
        """Scheduler roused us: new work arrived while we were parked."""
        if not self.alive or self.free_slots <= 0:
            return
        self._ping()

    def _cancel_ping_timer(self) -> None:
        if self._ping_timer is not None:
            self._ping_timer.cancel()
            self._ping_timer = None

    def _schedule_backoff_retry(self) -> None:
        """If work exists but we are in failure backoff, retry at expiry.

        Without this, a fleet where every client is backing off would never
        wake up again (no future event would trigger a poll).
        """
        if self.scheduler.unsent_count() == 0:
            return
        record = self.scheduler.client(self.client_id)
        if record.backoff_until <= self.sim.now:
            return
        if self._backoff_retry is not None and not self._backoff_retry.cancelled:
            return
        delay = record.backoff_until - self.sim.now + 1e-6
        self._backoff_retry = self.sim.schedule(
            delay, self._retry_after_backoff, label=f"{self.client_id}:backoff-retry"
        )

    def _retry_after_backoff(self) -> None:
        self._backoff_retry = None
        self.poll_for_work()

    # -- persistent transfers (download side) -------------------------------
    def _transfer_backoff(self, retry: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        delay = min(TRANSFER_RETRY_BASE_S * 2.0**retry, TRANSFER_RETRY_CAP_S)
        if self.rng is not None:
            delay *= 1.0 + 0.25 * float(self.rng.random())
        return delay

    def _start_download(
        self, wu: Workunit, retry: int = 0, attempt: int | None = None
    ) -> None:
        if attempt is None:
            attempt = wu.num_attempts

        def on_downloaded(payloads: dict[str, object]) -> None:
            if not self._holds(wu, attempt):
                return  # preempted or aborted while downloading
            self._start_compute(wu, payloads)

        def on_error(error) -> None:
            if not self._holds(wu, attempt):
                return  # deadline fired (or preemption) during the transfer
            if retry >= MAX_TRANSFER_RETRIES:
                # Give up: free the slot; the scheduler deadline reclaims
                # and reissues the unit — the client never fakes a result.
                self.transfers_abandoned += 1
                self._in_flight.pop(wu.wu_id, None)
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now,
                        "net.gave_up",
                        client=self.client_id,
                        wu=wu.wu_id,
                        phase="download",
                    )
                return
            delay = self._transfer_backoff(retry)
            self.transfer_retries += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "net.retry",
                    client=self.client_id,
                    wu=wu.wu_id,
                    phase="download",
                    attempt=retry + 1,
                    reason=error.reason,
                    backoff_s=delay,
                )
            self.sim.schedule(
                delay,
                lambda: self._start_download(wu, retry + 1, attempt),
                label=f"{self.client_id}:dl-retry",
            )

        self.web.download(
            list(wu.input_files),
            self.link,
            self.cache,
            on_downloaded,
            self.rng,
            on_error=on_error,
            client_id=self.client_id,
            wu_id=wu.wu_id,
        )

    def _holds(self, wu: Workunit, attempt: int) -> bool:
        """Whether this client is alive and still holds ``attempt`` of
        ``wu``.  A transfer belongs to one attempt and dies with it: one
        left over from an attempt that timed out must not start a compute
        of the attempt that replaced it here."""
        return (
            self.alive and wu.wu_id in self._in_flight and wu.num_attempts == attempt
        )

    def _start_compute(self, wu: Workunit, payloads: dict[str, object]) -> None:
        def on_computed() -> None:
            self._in_flight.pop(wu.wu_id, None)
            self._stop_heartbeat(wu.wu_id)
            if not self.alive:
                return
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "client.train_done", wu=wu.wu_id, client=self.client_id
                )
            result, nbytes = self.executor(wu, payloads)
            self._start_upload(wu, result, nbytes)

        task = self.resource.submit(wu.work_units, on_computed, label=wu.wu_id)
        self._in_flight[wu.wu_id] = task
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "client.train_start", wu=wu.wu_id, client=self.client_id
            )
        if self.on_train_start is not None:
            # The runner submits the step here (core.steps): it pre-draws
            # the step's RNG and queues the compute so it can fuse with
            # every other subtask training concurrently over this
            # simulated interval, or train ahead of its compute end.
            self.on_train_start(wu, payloads, task)
        if self.scheduler.config.heartbeats_enabled:
            self._schedule_heartbeat(wu.wu_id)

    # -- trickle heartbeats (§II-C-style progress reports) -------------------
    def _schedule_heartbeat(self, wu_id: str) -> None:
        self._heartbeats[wu_id] = self.sim.schedule(
            HEARTBEAT_INTERVAL_S, lambda: self._send_heartbeat(wu_id), label=f"hb:{wu_id}"
        )

    def _send_heartbeat(self, wu_id: str) -> None:
        self._heartbeats.pop(wu_id, None)
        if not self.alive or wu_id not in self._in_flight:
            return
        still_valid = self.scheduler.report_heartbeat(wu_id, self.client_id)
        if still_valid:
            self._schedule_heartbeat(wu_id)

    def _stop_heartbeat(self, wu_id: str) -> None:
        handle = self._heartbeats.pop(wu_id, None)
        if handle is not None:
            handle.cancel()

    def _start_upload(
        self, wu: Workunit, result: object, nbytes: int, retry: int = 0
    ) -> None:
        def on_uploaded() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "client.uploaded", wu=wu.wu_id, client=self.client_id
                )
            self.subtasks_completed += 1
            accepted = self.scheduler.report_result(wu.wu_id, self.client_id)
            if accepted:
                if self.trace is not None:
                    # Subtask turnaround (Fig. 2's unit of work): assignment
                    # to accepted result, including transfers and queueing.
                    self.trace.emit(
                        self.sim.now,
                        "client.turnaround",
                        wu=wu.wu_id,
                        client=self.client_id,
                        seconds=self.sim.now - wu.current_attempt.sent_at,
                    )
                self._on_result_accepted(wu, result)
            self.poll_for_work()

        def on_error(error) -> None:
            # The compute slot is already free (result computed); the client
            # keeps the result file and retries the upload — a late success
            # is discarded server-side if the unit was reissued meanwhile.
            if not self.alive:
                return
            if retry >= MAX_TRANSFER_RETRIES:
                self.transfers_abandoned += 1
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now,
                        "net.gave_up",
                        client=self.client_id,
                        wu=wu.wu_id,
                        phase="upload",
                    )
                self.poll_for_work()
                return
            delay = self._transfer_backoff(retry)
            self.transfer_retries += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "net.retry",
                    client=self.client_id,
                    wu=wu.wu_id,
                    phase="upload",
                    attempt=retry + 1,
                    reason=error.reason,
                    backoff_s=delay,
                )
            self.sim.schedule(
                delay,
                lambda: self._start_upload(wu, result, nbytes, retry + 1),
                label=f"{self.client_id}:ul-retry",
            )

        self.web.upload(
            nbytes,
            self.link,
            on_uploaded,
            self.rng,
            on_error=on_error,
            client_id=self.client_id,
            wu_id=wu.wu_id,
        )

    # Server wiring: BoincServer overrides this to route into validation.
    _on_result_accepted: Callable[[Workunit, object], None] = lambda self, wu, r: None

    # Optional hook fired when a subtask's compute begins (see
    # _start_compute), with the compute task; the runner uses it to
    # submit the step to its dispatcher.  None fires nothing.
    on_train_start: (
        "Callable[[Workunit, dict[str, object], ComputeTask], None] | None"
    ) = None

    # -- abort / preemption ----------------------------------------------------
    def abort_workunit(self, wu_id: str) -> None:
        """Scheduler timed the unit out elsewhere — stop wasting cycles."""
        task = self._in_flight.pop(wu_id, None)
        self._stop_heartbeat(wu_id)
        if isinstance(task, ComputeTask):
            self.resource.cancel(task)
        self.subtasks_aborted += 1
        if self.alive and self.scheduler.config.work_fetch == "ping":
            # The freed slot must re-enter the ping loop itself: there is
            # no poke broadcast to rescue an idle slot in ping mode.
            self.poll_for_work()

    def terminate(self) -> None:
        """Instance reclaimed (preemption) or crashed: drop everything."""
        if not self.alive:
            return
        self.alive = False
        self.resource.terminate()
        self._in_flight.clear()
        for wu_id in list(self._heartbeats):
            self._stop_heartbeat(wu_id)
        self._cancel_ping_timer()
        # Leave the idle-waiter list before the failure report requeues our
        # units — a dead client must not swallow a wake-up.
        self.scheduler.cancel_waiter(self.client_id)
        self.scheduler.report_client_failure(self.client_id)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "client.terminated", client=self.client_id)
