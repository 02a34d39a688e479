"""Parameter-server pool (§III-A, §III-D).

``Pn`` parameter servers share one *server parameter copy* held in a
key-value store (Redis-like eventual or MySQL-like strong consistency).
BOINC "evenly distributes the load": exactly one server processes each
result, so the pool is a P-worker FIFO queue.  Processing one result:

1. read-modify-write the store: apply the job's :class:`UpdateRule` to
   merge the client's update into the server copy (store semantics decide
   whether concurrent merges can be lost).  The default rule is the
   paper's Eq. 1 (:class:`~repro.core.rules.VCASGDRule`); any member of
   the ASGD family can be plugged in instead;
2. compute the validation accuracy of the merged copy (real forward pass;
   its *duration* is simulated work on the shared server CPU);
3. republish the parameter file so subsequent workunit downloads see the
   new copy.

The queue is the mechanism behind Fig. 3: when clients produce results
faster than ``Pn`` workers drain them, epoch time inflates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..boinc.workunit import Workunit
from ..errors import ConfigurationError, TrainingError
from ..kvstore.base import TXN_ABORT, KVStore
from ..simulation.engine import Simulator
from ..simulation.resources import VALIDATION_WORK_UNITS, ComputeResource
from ..simulation.tracing import Trace
from .rules import ClientUpdate, UpdateRule

__all__ = ["AssimilationStats", "ParameterServerPool", "PARAM_KEY"]

PARAM_KEY = "server-params"


class _Inflight:
    """One result mid-assimilation: the unit of crash/failover bookkeeping.

    ``committed`` flips when the store merge durably applied; ``cancelled``
    stops the remaining pipeline callbacks; ``merged_vec`` holds the
    committed vector so a restarting sole server can resume validation.
    """

    __slots__ = (
        "wu",
        "update",
        "on_done",
        "enqueued_at",
        "started_at",
        "committed",
        "cancelled",
        "adopted",
        "merged_vec",
    )

    def __init__(self, wu, update, on_done, enqueued_at: float) -> None:
        self.wu = wu
        self.update = update
        self.on_done = on_done
        self.enqueued_at = enqueued_at
        self.started_at = 0.0
        self.committed = False
        self.cancelled = False
        self.adopted = False
        self.merged_vec = None


@dataclass
class AssimilationStats:
    """Aggregate counters for the pool."""

    processed: int = 0
    total_queue_wait: float = 0.0
    total_service_time: float = 0.0
    max_queue_depth: int = 0

    def mean_wait(self) -> float:
        """Mean queueing delay per assimilated result (seconds)."""
        return self.total_queue_wait / self.processed if self.processed else 0.0

    def mean_service(self) -> float:
        """Mean service time per assimilated result (seconds)."""
        return self.total_service_time / self.processed if self.processed else 0.0


class ParameterServerPool:
    """P-worker assimilation pipeline applying a pluggable update rule.

    Implements the :class:`repro.boinc.assimilator.Assimilator` protocol.
    ``rule`` is the server-side merge.  ``republish_fn(vec, wu_id)`` is
    called with each merged copy and the unit whose result it merged.
    """

    def __init__(
        self,
        sim: Simulator,
        num_servers: int,
        store: KVStore,
        server_cpu: ComputeResource,
        evaluate_fn: Callable[[np.ndarray], tuple[float, float]],
        rule: UpdateRule,
        republish_fn: Callable[[np.ndarray, str], None] | None = None,
        param_nbytes: int | None = None,
        trace: Trace | None = None,
    ) -> None:
        if num_servers <= 0:
            raise ConfigurationError(f"num_servers (Pn) must be positive, got {num_servers}")
        self.sim = sim
        self.num_servers = num_servers
        self.store = store
        self.rule = rule
        self.server_cpu = server_cpu
        self.evaluate_fn = evaluate_fn
        self.republish_fn = republish_fn
        self.param_nbytes = param_nbytes
        self.trace = trace
        self._queue: deque[_Inflight] = deque()
        self._busy_workers = 0
        self._inflight: list[_Inflight] = []
        # Committed-but-unvalidated items stranded by a total-pool outage,
        # resumed when a server restarts (see crash_server / restart_server).
        self._stranded: list[_Inflight] = []
        self.crashes = 0
        self.recoveries = 0
        self.adoptions = 0
        # Invoked (with the pool) after a restart returns the pool from
        # zero live servers; the runner uses it to restore the server
        # parameter copy from the latest epoch checkpoint.
        self.on_total_outage_restart: Callable[[], None] | None = None
        self.stats = AssimilationStats()
        # epoch -> list of per-assimilation validation accuracies
        self.epoch_accuracies: dict[int, list[float]] = {}

    # -- Assimilator protocol ------------------------------------------------
    def assimilate(
        self, workunit: Workunit, payload: object, on_done: Callable[[], None]
    ) -> None:
        """Queue one validated client result for processing.

        ``payload`` is a :class:`ClientUpdate`.
        """
        if not isinstance(payload, ClientUpdate):
            raise TrainingError(
                f"assimilator expected a ClientUpdate, got {type(payload).__name__}"
            )
        self._queue.append(_Inflight(workunit, payload, on_done, self.sim.now))
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        self._dispatch()

    def queue_depth(self) -> int:
        """Results waiting for a free parameter-server worker."""
        return len(self._queue)

    def backpressure_s(self) -> float:
        """Extra work-fetch sleep (seconds) the assimilation queue suggests.

        Fig. 3's bottleneck is the merge pipeline: when results queue up
        faster than the Pn workers drain them, handing out more work only
        deepens the backlog.  The estimate is the current backlog divided
        by worker count, scaled by the mean observed service time (0 until
        the pipeline has history, so healthy fleets are never slowed).
        The scheduler adds this to idle sleep hints in ping mode.
        """
        if not self._queue or self.num_servers <= 0:
            return 0.0
        per_worker = len(self._queue) / self.num_servers
        return per_worker * self.stats.mean_service()

    @property
    def busy_workers(self) -> int:
        """Workers currently processing a result."""
        return self._busy_workers

    # -- worker pipeline --------------------------------------------------------
    def _dispatch(self) -> None:
        while self._busy_workers < self.num_servers and self._queue:
            item = self._queue.popleft()
            self._busy_workers += 1
            self._inflight.append(item)
            self._process(item)

    def _process(self, item: _Inflight) -> None:
        item.started_at = self.sim.now
        self.stats.total_queue_wait += item.started_at - item.enqueued_at
        wu, update = item.wu, item.update

        def merge(old_vec: np.ndarray):
            if item.cancelled:
                # The worker crashed before the commit fired: abort the
                # transaction so the update is applied exactly once, by
                # whichever server re-runs the requeued item.
                return TXN_ABORT
            # ``apply`` (not ``apply_into``) on purpose: the returned
            # vector must be freshly allocated because the store commits
            # it by reference — an eventual-store snapshot, the published
            # catalog payload and DC-ASGD backups may all still alias
            # ``old_vec``.  Built-in rules make this exactly one
            # allocation with zero temporaries (per-rule scratch buffers
            # absorb the intermediates).  Paper epochs are 1-based.
            item.committed = True
            return self.rule.apply(old_vec, update, wu.epoch + 1)

        def after_store(new_vec: np.ndarray) -> None:
            item.merged_vec = new_vec
            if item.cancelled:
                return  # stranded by a total outage; restart resumes it
            self._start_validation(item)

        self.store.read_modify_write(
            PARAM_KEY, merge, on_done=after_store, nbytes=self.param_nbytes
        )

    def _start_validation(self, item: _Inflight) -> None:
        # Validation pass: the real accuracy is computed now; the time
        # it takes is charged to the shared server CPU.
        self.server_cpu.submit(
            VALIDATION_WORK_UNITS,
            lambda: self._finish(item),
            label=f"validate:{item.wu.wu_id}",
        )

    def _finish(self, item: _Inflight) -> None:
        if item.cancelled:
            return  # stranded mid-validation by a total outage
        wu = item.wu
        _, accuracy = self.evaluate_fn(item.merged_vec)
        self.epoch_accuracies.setdefault(wu.epoch, []).append(accuracy)
        if self.republish_fn is not None:
            self.republish_fn(item.merged_vec, wu.wu_id)
        self.stats.processed += 1
        self.stats.total_service_time += self.sim.now - item.started_at
        if self.trace is not None:
            fields = dict(
                wu=wu.wu_id,
                epoch=wu.epoch,
                rule=self.rule.describe(),
                accuracy=accuracy,
                queue_wait=item.started_at - item.enqueued_at,
                service=self.sim.now - item.started_at,
                client=item.update.client_id,
                base_version=item.update.base_version,
            )
            alpha = self.rule.merge_weight(wu.epoch + 1)
            if alpha is not None:
                fields["alpha"] = alpha
            self.trace.emit(self.sim.now, "ps.assimilated", **fields)
        if item in self._inflight:
            self._inflight.remove(item)
        self._busy_workers -= 1
        item.on_done()
        self._dispatch()

    # -- crash / failover (chaos fabric) ---------------------------------------
    def crash_server(self) -> None:
        """One parameter server dies right now.

        The crashed worker's in-flight result is never lost and never
        double-assimilated:

        * merge **not yet committed** — the store transaction aborts and the
          item requeues at the head, so a surviving (or restarted) server
          re-runs it from scratch;
        * merge **committed, survivors exist** — a surviving server adopts
          the rest of the pipeline (validation/republish) via the shared
          store (§III-D: servers are replaceable because state lives in the
          store);
        * merge **committed, no survivors** — the item is stranded; a
          restarting server resumes its validation (unless the runner
          restores from a checkpoint first, which supersedes it).
        """
        if self.num_servers <= 0:
            return
        self.num_servers -= 1
        self.crashes += 1
        victim: _Inflight | None = None
        for candidate in self._inflight:
            if not candidate.adopted and not candidate.cancelled:
                victim = candidate
                break
        if victim is None:
            # An idle worker died: capacity loss only.
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "ps.crash", servers_left=self.num_servers, lost="idle"
                )
            return
        if not victim.committed:
            victim.cancelled = True
            self._inflight.remove(victim)
            self._busy_workers -= 1
            requeued = _Inflight(
                victim.wu, victim.update, victim.on_done, victim.enqueued_at
            )
            self._queue.appendleft(requeued)
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "ps.crash",
                    servers_left=self.num_servers,
                    lost="uncommitted",
                    wu=victim.wu.wu_id,
                )
            self._dispatch()
            return
        if self.num_servers >= 1:
            victim.adopted = True
            self.adoptions += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now,
                    "ps.crash",
                    servers_left=self.num_servers,
                    lost="adopted",
                    wu=victim.wu.wu_id,
                )
            return
        # Sole server died after the commit: the merge is durable in the
        # store but validation/accounting never ran.  Strand the item until
        # a restart (its pending validation callback will no-op).
        victim.cancelled = True
        self._stranded.append(victim)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "ps.crash",
                servers_left=0,
                lost="stranded",
                wu=victim.wu.wu_id,
            )

    def restart_server(self) -> None:
        """A replacement parameter server comes up.

        Returning from a total outage first lets the runner restore the
        server copy from its latest epoch checkpoint
        (``on_total_outage_restart``), then resumes any stranded
        committed-but-unvalidated items and drains the queue.
        """
        from_total_outage = self.num_servers == 0
        self.num_servers += 1
        self.recoveries += 1
        if from_total_outage and self.on_total_outage_restart is not None:
            self.on_total_outage_restart()
        resumed = 0
        for item in self._stranded:
            item.cancelled = False
            if item.merged_vec is not None:
                # Re-validate against the *current* store copy: a checkpoint
                # restore may have rolled the merge back, in which case the
                # accounting below reflects the restored state.
                item.merged_vec = self.store.get_now(PARAM_KEY)
                self._start_validation(item)
                resumed += 1
        self._stranded.clear()
        if self.trace is not None:
            self.trace.emit(
                self.sim.now,
                "ps.recover",
                servers=self.num_servers,
                resumed=resumed,
                total_outage=from_total_outage,
            )
        self._dispatch()

    # -- epoch-level views ----------------------------------------------------------
    def epoch_accuracy_summary(self, epoch: int) -> tuple[float, float, float]:
        """(mean, min, max) validation accuracy over the epoch's assimilations.

        The mean is the paper's "average validation accuracy over all the
        subtasks"; min/max are the Fig. 4 error bars.
        """
        accs = self.epoch_accuracies.get(epoch)
        if not accs:
            raise TrainingError(f"no assimilations recorded for epoch {epoch}")
        arr = np.asarray(accs)
        return float(arr.mean()), float(arr.min()), float(arr.max())

    def current_params(self) -> np.ndarray:
        """Latest committed server parameter copy."""
        return self.store.get_now(PARAM_KEY)
