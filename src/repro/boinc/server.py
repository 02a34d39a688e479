"""BOINC server composition: scheduler + web server + validator + assimilator.

Mirrors Fig. 1 of the paper: one server instance hosts the scheduler, the
web/file services, and the assimilation pipeline; clients only ever talk to
the server (no peer-to-peer, as §II-A notes is impractical for VC).
"""

from __future__ import annotations

from typing import Callable

from ..simulation.chaos import PartitionSchedule, TransferFaultPlan
from ..simulation.engine import Simulator
from ..simulation.tracing import Trace
from .assimilator import Assimilator
from .client import ClientDaemon
from .credit import CreditClaim, CreditLedger
from .files import FileCatalog, WebServer
from .replication import QuorumAssimilator
from .scheduler import Scheduler, SchedulerConfig
from .validator import ParameterValidator
from .workunit import Workunit

__all__ = ["BoincServer"]


class BoincServer:
    """The server side of the volunteer-computing system."""

    def __init__(
        self,
        sim: Simulator,
        assimilator: Assimilator,
        validator: ParameterValidator,
        scheduler_config: SchedulerConfig | None = None,
        compression_enabled: bool = True,
        credit_ledger: CreditLedger | None = None,
        trace: Trace | None = None,
        transfer_faults: TransferFaultPlan | None = None,
        partitions: PartitionSchedule | None = None,
    ) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.catalog = FileCatalog()
        self.web = WebServer(
            sim,
            self.catalog,
            compression_enabled,
            trace=self.trace,
            faults=transfer_faults,
            partitions=partitions,
        )
        self.scheduler = Scheduler(sim, scheduler_config, trace=self.trace)
        self.validator = validator
        self.assimilator = assimilator
        self.credit = credit_ledger if credit_ledger is not None else CreditLedger()
        self.clients: dict[str, ClientDaemon] = {}
        self.scheduler.on_timeout = self._notify_timeout
        # Invoked with the unit and its merged payload after every
        # assimilation completes; the job runner uses it to detect epoch
        # boundaries and to read each merge's staleness.
        self.on_assimilated: Callable[[Workunit, object], None] | None = None
        # Byzantine defenses.  ``invalid_feedback`` routes every invalidated
        # result (validator reject or quorum loss) into the scheduler's
        # reliability EWMA and quarantine counter — off by default, so
        # historical runs never see scheduling perturbed by rejects.
        self.invalid_feedback = False
        # Quorum-deferred credit: claims of valid replicas are stashed here
        # (physical wu_id -> claim) until the replica group decides, then
        # the winning clique is granted the *median* claim and losers are
        # denied — BOINC's claim-inflation defense.
        self._quorum_credit = False
        self._quorum_claims: dict[str, CreditClaim] = {}
        self._quorum_grants: dict[str, float] = {}

    def enable_quorum_credit(self, quorum: QuorumAssimilator) -> None:
        """Defer credit decisions to the replica-quorum outcome."""
        self._quorum_credit = True
        quorum.on_quorum = self._on_quorum_decided
        quorum.on_late = self._on_late_replica
        quorum.on_failed = self._on_quorum_failed

    @property
    def work_fetch(self) -> str:
        """The fleet's work-fetch protocol ("poke" | "ping")."""
        return self.scheduler.config.work_fetch

    # -- client management -------------------------------------------------
    def attach_client(self, client: ClientDaemon) -> None:
        """Register a client daemon and wire its result path through us."""
        self.clients[client.client_id] = client
        client._on_result_accepted = self._handle_accepted_result
        if self.work_fetch == "ping":
            # Boot ping: the client introduces itself once, then lives off
            # sleep hints and scheduler wake-ups — the server never
            # broadcasts to the fleet again.
            self.sim.schedule(
                0.0, client.poll_for_work, label=f"ping-boot:{client.client_id}"
            )

    def poke_clients(self) -> None:
        """Tell all live clients new work may be available.

        Ping mode: a no-op — the scheduler wakes exactly as many parked
        idle waiters as there are new units (O(work), not O(fleet)), so an
        idle 100k-client fleet sees no broadcast storm.
        """
        if self.work_fetch == "ping":
            return
        for client in self.clients.values():
            if client.alive:
                client.poll_for_work()

    def publish_workunits(self, workunits: list[Workunit]) -> None:
        """Add workunits to the scheduler and wake the fleet."""
        self.scheduler.add_workunits(workunits)
        self.poke_clients()

    # -- result path -----------------------------------------------------------
    def _handle_accepted_result(self, wu: Workunit, payload: object) -> None:
        host = wu.current_attempt.client_id
        if self.web.codec_plane is not None:
            # A lossy upload is decoded on receipt, before any server
            # component reads inside it.
            self.web.codec_plane.on_accepted(payload, wu.wu_id)
        verdict = self.validator.validate(payload, now=self.sim.now, wu_id=wu.wu_id)
        if not verdict.ok:
            self.trace.emit(
                self.sim.now,
                "server.result_invalid",
                wu=wu.wu_id,
                reason=verdict.reason,
                code=verdict.code,
            )
            self.credit.deny(host, now=self.sim.now)
            self.trace.emit(
                self.sim.now, "credit.deny", wu=wu.wu_id, host=host, reason="invalid"
            )
            self._record_invalid(host)
            retried = self.scheduler.requeue_after_invalid(wu.wu_id)
            if retried:
                self.poke_clients()
            return
        self.trace.emit(self.sim.now, "server.result_valid", wu=wu.wu_id, host=host)
        claimed = getattr(payload, "claimed_credit", None)
        claim = CreditClaim(
            host_id=host,
            wu_id=wu.wu_id,
            claimed=wu.work_units if claimed is None else float(claimed),
        )
        if self._quorum_credit:
            # Credit waits for the replica group's verdict: winners share
            # the median claim, losers are denied (see enable_quorum_credit).
            self._quorum_claims[wu.wu_id] = claim
        else:
            self.credit.grant_single(claim, now=self.sim.now)
            self.trace.emit(
                self.sim.now,
                "credit.grant",
                wu=wu.wu_id,
                host=host,
                amount=claim.claimed,
            )
        wu.mark_valid(self.sim.now, result=None)  # payload flows to assimilator

        def assimilation_done() -> None:
            self.trace.emit(self.sim.now, "server.assimilated", wu=wu.wu_id, epoch=wu.epoch)
            if self.on_assimilated is not None:
                self.on_assimilated(wu, payload)

        self.assimilator.assimilate(wu, payload, assimilation_done)

    # -- quorum-deferred credit ------------------------------------------------
    def _on_quorum_decided(
        self, key: str, winners: list[Workunit], losers: list[Workunit]
    ) -> None:
        claims = [
            self._quorum_claims.pop(wu.wu_id)
            for wu in winners
            if wu.wu_id in self._quorum_claims
        ]
        if claims:
            grant = self.credit.grant_quorum(claims, now=self.sim.now)
            self._quorum_grants[key] = grant
            for claim in claims:
                self.trace.emit(
                    self.sim.now,
                    "credit.grant",
                    wu=claim.wu_id,
                    host=claim.host_id,
                    amount=grant,
                )
        for wu in losers:
            claim = self._quorum_claims.pop(wu.wu_id, None)
            loser_host = (
                claim.host_id if claim is not None else wu.current_attempt.client_id
            )
            self.credit.deny(loser_host, now=self.sim.now)
            self.trace.emit(
                self.sim.now,
                "credit.deny",
                wu=wu.wu_id,
                host=loser_host,
                reason="quorum_loss",
            )
            self._record_invalid(loser_host)

    def _on_late_replica(self, key: str, wu: Workunit, agrees: bool) -> None:
        claim = self._quorum_claims.pop(wu.wu_id, None)
        if claim is None:
            return
        grant = self._quorum_grants.get(key)
        if agrees and grant is not None:
            # BOINC grants a straggler that matches the canonical result
            # the already-decided quorum amount, not its own claim.
            self.credit.grant_single(
                CreditClaim(host_id=claim.host_id, wu_id=claim.wu_id, claimed=grant),
                now=self.sim.now,
            )
            self.trace.emit(
                self.sim.now,
                "credit.grant",
                wu=claim.wu_id,
                host=claim.host_id,
                amount=grant,
            )
            return
        self.credit.deny(claim.host_id, now=self.sim.now)
        self.trace.emit(
            self.sim.now,
            "credit.deny",
            wu=claim.wu_id,
            host=claim.host_id,
            reason="quorum_loss",
        )
        self._record_invalid(claim.host_id)

    def _on_quorum_failed(self, key: str, workunits: list[Workunit]) -> None:
        for wu in workunits:
            claim = self._quorum_claims.pop(wu.wu_id, None)
            if claim is None:
                continue
            self.credit.deny(claim.host_id, now=self.sim.now)
            self.trace.emit(
                self.sim.now,
                "credit.deny",
                wu=claim.wu_id,
                host=claim.host_id,
                reason="quorum_failed",
            )
            self._record_invalid(claim.host_id)

    def _record_invalid(self, host: str) -> None:
        """Feed one invalidated result into the reliability/quarantine loop."""
        if not self.invalid_feedback:
            return
        if self.scheduler.record_invalid_result(host):
            record = self.scheduler.client(host)
            self.trace.emit(
                self.sim.now,
                "credit.quarantine",
                host=host,
                invalids=record.invalid_results,
            )

    def _notify_timeout(self, wu_id: str, client_id: str) -> None:
        client = self.clients.get(client_id)
        if client is not None and client.alive:
            client.abort_workunit(wu_id)
        # The reissued unit should be picked up promptly by someone else.
        self.poke_clients()
