"""Always-on invariant auditor: conservation laws checked from the trace.

The auditor observes the live trace stream (or replays a finished trace)
and maintains just enough state to assert the system's conservation laws:

* **Lifecycle** — a workunit is created exactly once, is only assigned
  while live, and every created unit reaches exactly one terminal fate
  (validated-DONE, exhausted-ERROR, or cancelled).
* **One compute per assignment** — a client starts computing a unit only
  after the scheduler assigned it that unit, and at most once per
  assignment: a transfer left over from an attempt that timed out never
  starts a compute of the one that replaced it.
* **Exactly-once assimilation** — each validated result is granted credit
  once and assimilated once, even across parameter-server crashes,
  adoptions and restarts; pool merges never exceed server assimilations.
* **Credit conservation** — the ledger's granted total equals the sum of
  per-result grants seen in the trace, and only validated results earn.
* **Version monotonicity** — published parameter versions strictly
  increase (a regression here would resurrect the stale-tag bugs the
  ``VersionedParams`` payload design eliminated).
* **Epoch bracketing** — ``epoch.start``/``epoch.end`` nest like a
  well-formed sequence of non-overlapping spans.

The auditor is a *pure reader*: it never touches simulation state or
randomness, so an audited run is bit-identical to a bare one (pinned by
tests/core/test_determinism.py).  Violations are collected and raised as
:class:`~repro.errors.InvariantViolation` at :meth:`verify` — or
immediately, in ``strict`` mode.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..boinc.replication import logical_id
from ..errors import InvariantViolation
from ..simulation.tracing import Trace, TraceRecord

__all__ = ["AuditReport", "InvariantAuditor"]

# The per-workunit flags word: which lifecycle records a unit has seen.
_VALID = 1  # server.result_valid
_ASSIMILATED = 2  # server.assimilated
_POOL_MERGED = 4  # ps.assimilated
_EXHAUSTED = 8  # sched.exhausted (-> ERROR)
_CANCELLED = 16  # sched.cancelled
_TERMINAL = _VALID | _EXHAUSTED | _CANCELLED


@dataclass
class AuditReport:
    """Outcome of a verification pass: what was checked, what failed."""

    checks: int = 0
    records_seen: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": self.checks,
            "records_seen": self.records_seen,
            "violations": list(self.violations),
        }


class InvariantAuditor:
    """Online conservation-law checker over the trace event stream."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: list[str] = []
        self.checks = 0
        # Record counts are the trace's: while attached, the auditor
        # reads them off its trace (relative to the counts at attach);
        # ``_counted`` holds what replay counted and what earlier
        # attachments saw.
        self._trace: Trace | None = None
        self._base: Counter[str] = Counter()
        self._counted: Counter[str] = Counter()
        # Lifecycle state, keyed by workunit id.
        self._created: dict[str, tuple[int, int]] = {}  # wu -> (epoch, shard)
        self._assigned: dict[str, str] = {}  # wu -> client, compute not started
        self._flags: dict[str, int] = {}  # wu -> _VALID | _ASSIMILATED | ...
        self._granted: dict[str, float] = {}  # wu -> credit amount
        self._denials = 0
        # Quorum-deferred credit bookkeeping: valid replicas denied by
        # their quorum (loser/failed), and logical units whose quorum
        # reached a verdict (reached or failed) — replicas of undecided
        # units may legitimately end the run unpaid.
        self._quorum_denied: set[str] = set()
        self._decided_logicals: set[str] = set()
        self._quarantined_hosts: set[str] = set()
        self._last_version: int | None = None
        self._open_epoch: int | None = None
        self._epochs_ended = 0
        # kind -> bound handler, spelled out: a kind reaches exactly the
        # handler listed here and nothing else on the instance.  It is
        # also the subscription: the trace routes only these kinds here.
        # Every key is catalogued in docs/TRACE_KINDS.md (pinned by the
        # drift-guard test).
        self._handlers: dict[str, Callable[[float, dict[str, Any]], None]] = {
            "sched.created": self._audit_sched_created,
            "sched.assign": self._audit_sched_assign,
            "client.train_start": self._audit_client_train_start,
            "sched.exhausted": self._audit_sched_exhausted,
            "sched.cancelled": self._audit_sched_cancelled,
            "server.result_valid": self._audit_server_result_valid,
            "server.assimilated": self._audit_server_assimilated,
            "credit.grant": self._audit_credit_grant,
            "credit.deny": self._audit_credit_deny,
            "credit.quarantine": self._audit_credit_quarantine,
            "quorum.reached": self._audit_quorum_decided,
            "quorum.failed": self._audit_quorum_decided,
            "ps.assimilated": self._audit_ps_assimilated,
            "params.publish": self._audit_params_publish,
            "epoch.start": self._audit_epoch_start,
            "epoch.end": self._audit_epoch_end,
        }

    # -- Trace observer protocol ---------------------------------------
    def on_record(self, time: float, kind: str, fields: dict[str, Any]) -> None:
        """Audit one record of a kind in ``_handlers`` (the trace routes
        no other kind here)."""
        self._handlers[kind](time, fields)

    def on_attach(self, trace: Trace) -> None:
        """Start reading record counts off ``trace`` (from this point on)."""
        self._unbind()
        self._trace = trace
        self._base = self._trace_counts()

    def on_detach(self, trace: Trace) -> None:
        """Keep the counts seen so far; later records are not counted."""
        if trace is self._trace:
            self._unbind()

    def _unbind(self) -> None:
        if self._trace is not None:
            self._counted.update(self._since_attach())
            self._trace = None

    def _trace_counts(self) -> Counter[str]:
        counts = self._trace.counters
        del counts["trace.dropped"]  # a count of records, not a kind
        return counts

    def _since_attach(self) -> Counter[str]:
        counts = self._trace_counts()
        counts.subtract(self._base)
        return +counts

    @property
    def kind_counts(self) -> Counter[str]:
        """Records seen per kind: replayed, or emitted while attached."""
        counts = Counter(self._counted)
        if self._trace is not None:
            counts.update(self._since_attach())
        return counts

    @property
    def records_seen(self) -> int:
        return sum(self.kind_counts.values())

    def replay(self, records: Iterable[TraceRecord]) -> None:
        """Feed an already-recorded trace (or any records) through the
        online checks, counting each record."""
        counted, handlers = self._counted, self._handlers
        for record in records:
            kind = record.kind
            counted[kind] += 1
            handler = handlers.get(kind)
            if handler is not None:
                handler(record.time, record.fields)

    # -- online checks --------------------------------------------------
    def _violation(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def _check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self._violation(message)

    # The handlers of the kinds emitted once or more per workunit spell
    # ``_check`` out (count, test, report): a fleet pays them hundreds of
    # thousands of times, and the message is only worth formatting for a
    # violation.
    def _audit_sched_created(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        self.checks += 1
        if wu in self._created:
            self._violation(f"workunit {wu} created twice")
        self._created[wu] = (fields["epoch"], fields["shard"])

    def _audit_sched_assign(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        self.checks += 1
        if wu not in self._created:
            self._violation(f"assignment of unknown workunit {wu}")
        self.checks += 1
        if self._flags.get(wu, 0) & _TERMINAL:
            self._violation(f"workunit {wu} assigned after reaching a terminal state")
        client = fields.get("client")
        self.checks += 1
        if client in self._quarantined_hosts:
            self._violation(f"workunit {wu} assigned to quarantined host {client}")
        # A unit has one live assignment at a time: a reissue replaces it.
        self._assigned[wu] = client

    def _audit_client_train_start(self, time: float, fields: dict[str, Any]) -> None:
        wu, client = fields["wu"], fields["client"]
        self.checks += 1
        if self._assigned.get(wu) == client:
            del self._assigned[wu]
        else:
            self._violation(
                f"workunit {wu} started computing on {client} without an "
                "assignment of its own"
            )

    def _audit_sched_exhausted(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        flags = self._flags.get(wu, 0)
        self._check(
            not flags & _VALID, f"workunit {wu} exhausted after validation"
        )
        self._flags[wu] = flags | _EXHAUSTED

    def _audit_sched_cancelled(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        flags = self._flags.get(wu, 0)
        self._check(
            not flags & _VALID, f"workunit {wu} cancelled after validation"
        )
        self._flags[wu] = flags | _CANCELLED

    def _audit_server_result_valid(
        self, time: float, fields: dict[str, Any]
    ) -> None:
        wu = fields["wu"]
        flags = self._flags.get(wu, 0)
        self.checks += 1
        if wu not in self._created:
            self._violation(f"validated result for unknown workunit {wu}")
        self.checks += 1
        if flags & _VALID:
            self._violation(f"workunit {wu} validated twice")
        self.checks += 1
        if flags & (_EXHAUSTED | _CANCELLED):
            self._violation(f"terminal workunit {wu} validated")
        self._flags[wu] = flags | _VALID

    def _audit_credit_grant(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        self.checks += 1
        if not self._flags.get(wu, 0) & _VALID:
            self._violation(f"credit granted for unvalidated workunit {wu}")
        self.checks += 1
        if wu in self._granted:
            self._violation(f"credit granted twice for workunit {wu}")
        self._granted[wu] = float(fields["amount"])

    def _audit_credit_deny(self, time: float, fields: dict[str, Any]) -> None:
        self._denials += 1
        wu = fields.get("wu")
        if self._flags.get(wu, 0) & _VALID:
            # Denial of an already-valid result can only come from the
            # quorum (loser clique or failed unit) — partition it out of
            # the must-be-paid set checked at verify().
            self._quorum_denied.add(wu)

    def _audit_quorum_decided(self, time: float, fields: dict[str, Any]) -> None:
        self._decided_logicals.add(fields["logical"])

    def _audit_credit_quarantine(self, time: float, fields: dict[str, Any]) -> None:
        host = fields["host"]
        self._check(
            host not in self._quarantined_hosts, f"host {host} quarantined twice"
        )
        self._quarantined_hosts.add(host)

    def _audit_server_assimilated(
        self, time: float, fields: dict[str, Any]
    ) -> None:
        wu = fields["wu"]
        flags = self._flags.get(wu, 0)
        self.checks += 1
        if not flags & _VALID:
            self._violation(f"unvalidated workunit {wu} assimilated")
        self.checks += 1
        if flags & _ASSIMILATED:
            self._violation(f"workunit {wu} assimilated twice")
        self._flags[wu] = flags | _ASSIMILATED

    def _audit_ps_assimilated(self, time: float, fields: dict[str, Any]) -> None:
        wu = fields["wu"]
        flags = self._flags.get(wu, 0)
        self.checks += 1
        if flags & _POOL_MERGED:
            self._violation(f"pool merged workunit {wu} twice")
        self._flags[wu] = flags | _POOL_MERGED

    def _audit_params_publish(self, time: float, fields: dict[str, Any]) -> None:
        version = fields["version"]
        self._check(
            self._last_version is None or version > self._last_version,
            f"publish version not monotone: {self._last_version} -> {version}",
        )
        self._last_version = version

    def _audit_epoch_start(self, time: float, fields: dict[str, Any]) -> None:
        self._check(
            self._open_epoch is None,
            f"epoch {fields['epoch']} started while epoch {self._open_epoch} is open",
        )
        self._open_epoch = fields["epoch"]

    def _audit_epoch_end(self, time: float, fields: dict[str, Any]) -> None:
        self._check(
            self._open_epoch == fields["epoch"],
            f"epoch {fields['epoch']} ended but open epoch is {self._open_epoch}",
        )
        self._open_epoch = None
        self._epochs_ended += 1

    # -- final verification ---------------------------------------------
    def verify(
        self, runner: Any = None, *, require_full_coverage: bool = False
    ) -> AuditReport:
        """End-of-run conservation pass; raises on any violation.

        ``runner`` (a ``DistributedRunner``) enables the cross-checks
        against ground truth the trace alone cannot see: scheduler state,
        the credit ledger, and ``RunResult`` counters.
        ``require_full_coverage`` additionally demands a DONE result for
        every (epoch, shard) — true for the chaos soaks, but *not* an
        invariant of fault-tolerant rules in general, which may finish an
        epoch with permanently failed shards.
        """
        # One pass over the flags words collects each law's offenders.
        flags_of, granted = self._flags, self._granted
        quorum_denied, decided = self._quorum_denied, self._decided_logicals
        unassimilated: list[str] = []
        phantom: list[str] = []
        unpaid: list[str] = []
        unmerged: list[str] = []
        two_fates: list[str] = []
        for wu, flags in flags_of.items():
            if flags & _VALID:
                if not flags & _ASSIMILATED:
                    unassimilated.append(wu)
                if flags & (_EXHAUSTED | _CANCELLED):
                    two_fates.append(wu)
                if wu not in granted and wu not in quorum_denied:
                    # Replicas of logical units the quorum never decided
                    # (still pending at shutdown, or permanently
                    # disagreeing without a collusion guard) are excused.
                    logical = logical_id(wu)
                    if logical == wu or logical in decided:
                        unpaid.append(wu)
            elif flags & _ASSIMILATED:
                phantom.append(wu)
            if flags & _POOL_MERGED and not flags & _ASSIMILATED:
                unmerged.append(wu)
        # Every validated result assimilated exactly once, and vice versa.
        self._check(
            not unassimilated and not phantom,
            "validated/assimilated mismatch: "
            f"unassimilated={sorted(unassimilated)} phantom={sorted(phantom)}",
        )
        # Credit: every validated result is either granted once or denied
        # by its quorum verdict.
        overpaid = [wu for wu in granted if not flags_of.get(wu, 0) & _VALID]
        self._check(
            not overpaid,
            f"credit/validation mismatch: overpaid={sorted(overpaid)}",
        )
        paid_and_denied = [wu for wu in quorum_denied if wu in granted]
        self._check(
            not paid_and_denied,
            "workunits both granted and quorum-denied: "
            f"{sorted(paid_and_denied)}",
        )
        self._check(
            not unpaid, f"credit/validation mismatch: unpaid={sorted(unpaid)}"
        )
        # Pool merges are a subset of assimilations (equal without
        # replication; with a quorum only the canonical replica merges).
        self._check(
            not unmerged,
            f"pool merged workunits never assimilated: {sorted(unmerged)}",
        )
        # Every created workunit reached exactly one terminal fate.
        nonterminal = [
            wu for wu in self._created if not flags_of.get(wu, 0) & _TERMINAL
        ]
        self._check(
            not nonterminal, f"non-terminal workunits: {sorted(nonterminal)}"
        )
        self._check(
            not two_fates,
            f"workunits with two terminal fates: {sorted(two_fates)}",
        )
        # Epoch spans all closed.
        self._check(
            self._open_epoch is None,
            f"epoch {self._open_epoch} never ended",
        )
        if runner is not None:
            self._verify_against_runner(runner, require_full_coverage)
        report = AuditReport(
            checks=self.checks,
            records_seen=self.records_seen,
            violations=list(self.violations),
        )
        if self.violations:
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s): "
                + "; ".join(self.violations[:5])
            )
        return report

    def _verify_against_runner(self, runner: Any, require_full_coverage: bool) -> None:
        from ..boinc.workunit import WorkunitState

        # Trace-derived fates agree with the scheduler's ground truth.
        fate = {
            WorkunitState.DONE: _VALID,
            WorkunitState.ERROR: _EXHAUSTED,
            WorkunitState.CANCELLED: _CANCELLED,
        }
        for wu_id, wu in sorted(runner.server.scheduler._workunits.items()):
            expected = fate.get(wu.state)
            self._check(
                expected is not None,
                f"workunit {wu_id} left non-terminal ({wu.state.name})",
            )
            if expected is not None:
                self._check(
                    self._flags.get(wu_id, 0) & expected,
                    f"workunit {wu_id} is {wu.state.name} in the scheduler "
                    "but the trace disagrees",
                )
        # Credit ledger conserves the per-grant stream.
        ledger_total = runner.server.credit.granted_total
        trace_total = sum(self._granted.values())
        self._check(
            abs(ledger_total - trace_total) < 1e-9,
            f"credit ledger total {ledger_total} != trace grants {trace_total}",
        )
        # RunResult counters agree with the trace record-for-record.
        counters = runner.result.counters
        if counters:
            merges = sum(1 for flags in self._flags.values() if flags & _POOL_MERGED)
            kinds = self.kind_counts
            self._check(
                counters["assimilations"] == merges,
                f"counters[assimilations]={counters['assimilations']} != "
                f"{merges} pool merges in trace",
            )
            self._check(
                counters["timeouts"] == kinds["sched.timeout"],
                f"counters[timeouts]={counters['timeouts']} != "
                f"{kinds['sched.timeout']} in trace",
            )
            for counter, kind in (
                ("transfer_failures", "web.xfer_fail"),
                ("transfer_retries", "net.retry"),
                ("net_partition_blocks", "net.partition"),
                ("ps_crashes", "ps.crash"),
                ("ps_recoveries", "ps.recover"),
                ("kv_outage_blocks", "kv.outage"),
                ("kv_degraded_ops", "kv.degraded"),
                ("adv_tampered_uploads", "adv.tamper"),
                ("adv_inflated_claims", "adv.claim_inflate"),
                ("hosts_quarantined", "credit.quarantine"),
                ("quorums_failed", "quorum.failed"),
            ):
                if counter in counters:
                    self._check(
                        counters[counter] == kinds[kind],
                        f"counters[{counter}]={counters[counter]} != "
                        f"{kinds[kind]} {kind} records in trace",
                    )
            if "transfer_retries" in counters:
                # Every retried or abandoned transfer started as a failure.
                self._check(
                    counters["transfer_failures"] >= counters["transfer_retries"],
                    "more transfer retries than failures",
                )
        if require_full_coverage:
            done_by_epoch: dict[int, set[int]] = {}
            for wu_id, flags in self._flags.items():
                if flags & _VALID:
                    epoch, shard = self._created[wu_id]
                    done_by_epoch.setdefault(epoch, set()).add(shard)
            shards = set(range(runner.config.num_shards))
            for epoch, got in sorted(done_by_epoch.items()):
                self._check(
                    got == shards,
                    f"epoch {epoch} lost shards {sorted(shards - got)}",
                )
            self._check(
                len(done_by_epoch) == self._epochs_ended,
                f"{len(done_by_epoch)} epochs with DONE work but "
                f"{self._epochs_ended} epoch.end records",
            )
