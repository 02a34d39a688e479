"""Causal span tracing: workunit lineage reconstructed from the trace.

The simulation's hot path emits flat :class:`~repro.simulation.tracing.TraceRecord`
events.  This module rebuilds, entirely *offline* (zero hot-path cost —
nothing here attaches to the trace), the parent/child span tree of every
workunit replica:

    wu.generate -> sched.dispatch -> net.download -> client.train
        -> net.upload -> server.validate -> [quorum.wait]
        -> ps.queue -> ps.service -> params.publish

Causality keys are the ``wu=`` / ``client=`` ids already present on
trace records (PR 5 added them to every lifecycle emit site).  On top of
the span store:

* **lineages** — every physical workunit's attempts and terminal fate
  (``merged``/``assimilated``/``exhausted:*``/``cancelled``), with
  :meth:`SpanStore.lineage_problems` proving the reconstruction is
  orphan-free;
* **critical path** — per epoch, the gating lineage's hops tile the
  window from ``epoch.start`` to ``epoch.end`` exactly (gaps become
  labelled ``wait`` hops), so the hop durations sum to the run's
  wall-clock-to-target within float tolerance;
* **straggler & staleness attribution** — per-client hop-duration
  percentiles, and per-merge publish-version lag joined to the update
  rule's merge weight (alpha).

Reconstruction is a pure function of the recorded stream, so it works
identically on a live ``Trace`` and on a ``--trace-out`` JSONL replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..simulation.tracing import Trace, TraceRecord

__all__ = [
    "Span",
    "Attempt",
    "Lineage",
    "Hop",
    "CriticalPath",
    "SpanStore",
    "span_summary",
]

# Fates that mean the lineage finished its pipeline (result absorbed).
COMPLETE_FATES = ("merged", "assimilated")
# Hop names whose durations participate in straggler attribution.
CLIENT_HOPS = ("net.download", "client.train", "net.upload", "net.backoff")
# Tolerance for "these spans tile the window exactly".
_EPS = 1e-9


@dataclass
class Span:
    """One node of a lineage tree (or a non-lineage activity span)."""

    span_id: int
    name: str
    start: float
    end: float
    track: str
    wu: str | None = None
    client: str | None = None
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Attempt:
    """One scheduling attempt of a workunit on one client."""

    index: int
    client: str
    assigned_at: float
    span_id: int
    closed_at: float | None = None
    outcome: str | None = None  # success|timeout|client_error|invalid|cancelled|truncated
    uploaded_at: float | None = None
    train_started_at: float | None = None


@dataclass
class Lineage:
    """The full causal history of one physical workunit replica."""

    wu: str
    epoch: int
    shard: int
    created_at: float
    root: int  # span id of the wu.lifetime root span
    fate: str | None = None
    end: float | None = None
    attempts: list[Attempt] = field(default_factory=list)
    span_ids: list[int] = field(default_factory=list)
    merge: dict[str, Any] | None = None
    seq: int = 0  # index of the last record that touched this lineage

    @property
    def complete(self) -> bool:
        return self.fate in COMPLETE_FATES

    @property
    def terminated(self) -> bool:
        return self.fate is not None and not self.complete


@dataclass(frozen=True)
class Hop:
    """One segment of the critical path."""

    name: str
    start: float
    end: float
    wu: str | None = None
    client: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """Gating chain of hops from run start to the last epoch boundary."""

    hops: list[Hop]
    start_s: float
    end_s: float

    @property
    def total_s(self) -> float:
        return sum(h.duration for h in self.hops)

    def per_hop_totals(self) -> dict[str, float]:
        """Total seconds on the path attributed to each hop name."""
        totals: dict[str, float] = {}
        for hop in self.hops:
            totals[hop.name] = totals.get(hop.name, 0.0) + hop.duration
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


class SpanStore:
    """Span tree + lineage index reconstructed from a record stream."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.lineages: dict[str, Lineage] = {}
        self.dropped = 0  # trace.dropped at build time: history is partial
        self.unhandled_kinds: set[str] = set()
        self.last_time = 0.0
        self._epoch_spans: dict[int, int] = {}  # epoch -> span id

    # -- construction -----------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "SpanStore":
        return cls.from_records(trace, dropped=trace.dropped)

    @classmethod
    def from_records(
        cls, records: Iterable[TraceRecord], dropped: int = 0
    ) -> "SpanStore":
        store = cls()
        store.dropped = dropped
        builder = _Builder(store)
        for seq, record in enumerate(records):
            builder.handle(seq, record)
        builder.finalize()
        return store

    # -- span helpers -----------------------------------------------------
    def span(self, span_id: int) -> Span:
        return self.spans[span_id]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def lineage(self, wu_id: str) -> Lineage:
        return self.lineages[wu_id]

    def lineage_spans(self, wu_id: str) -> list[Span]:
        lineage = self.lineages[wu_id]
        return sorted(
            (self.spans[i] for i in lineage.span_ids),
            key=lambda s: (s.start, s.end, s.span_id),
        )

    def tracks(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        return list(seen)

    # -- lineage integrity -------------------------------------------------
    def lineage_problems(self) -> list[str]:
        """Violations of the orphan-free reconstruction contract.

        Empty for any *complete* trace of a finished run.  A bounded trace
        (``dropped > 0``) legitimately loses history, so integrity is only
        asserted over unbounded traces.
        """
        if self.dropped:
            return []
        problems: list[str] = []
        for wu, lineage in self.lineages.items():
            if lineage.fate is None:
                problems.append(f"{wu}: no terminal fate (orphan lineage)")
            for attempt in lineage.attempts:
                if attempt.outcome is None:
                    problems.append(
                        f"{wu}: attempt #{attempt.index} on {attempt.client} "
                        "never closed"
                    )
            if lineage.complete and not any(
                a.outcome == "success" for a in lineage.attempts
            ):
                problems.append(f"{wu}: fate {lineage.fate} without a successful attempt")
            for span_id in lineage.span_ids:
                span = self.spans[span_id]
                if span_id != lineage.root and span.parent is None:
                    problems.append(f"{wu}: span {span.name} detached from tree")
        return problems

    def lineage_counts(self) -> dict[str, Any]:
        fates: dict[str, int] = {}
        for lineage in self.lineages.values():
            fates[lineage.fate or "open"] = fates.get(lineage.fate or "open", 0) + 1
        return {
            "total": len(self.lineages),
            "complete": sum(1 for v in self.lineages.values() if v.complete),
            "terminated": sum(1 for v in self.lineages.values() if v.terminated),
            "fates": dict(sorted(fates.items())),
        }

    # -- aggregation -------------------------------------------------------
    def hop_summary(self) -> dict[str, dict[str, float]]:
        """Per-hop-name duration statistics over every span in the store."""
        groups: dict[str, list[float]] = {}
        for span in self.spans:
            groups.setdefault(span.name, []).append(span.duration)
        summary: dict[str, dict[str, float]] = {}
        for name in sorted(groups):
            durations = np.asarray(groups[name])
            summary[name] = {
                "count": int(durations.size),
                "total_s": float(durations.sum()),
                "mean_s": float(durations.mean()),
                "p95_s": float(np.percentile(durations, 95)),
                "max_s": float(durations.max()),
            }
        return summary

    def client_percentiles(self) -> dict[str, dict[str, dict[str, float]]]:
        """Straggler attribution: per-client duration percentiles per hop."""
        groups: dict[str, dict[str, list[float]]] = {}
        for span in self.spans:
            if span.client is None or span.name not in CLIENT_HOPS:
                continue
            groups.setdefault(span.client, {}).setdefault(span.name, []).append(
                span.duration
            )
        out: dict[str, dict[str, dict[str, float]]] = {}
        for client in sorted(groups):
            out[client] = {}
            for hop in sorted(groups[client]):
                durations = np.asarray(groups[client][hop])
                out[client][hop] = {
                    "count": int(durations.size),
                    "p50_s": float(np.percentile(durations, 50)),
                    "p95_s": float(np.percentile(durations, 95)),
                    "max_s": float(durations.max()),
                }
        return out

    def merges(self) -> list[dict[str, Any]]:
        """Per-merge staleness attribution, in assimilation order."""
        rows = [
            lineage.merge
            for lineage in sorted(self.lineages.values(), key=lambda v: v.seq)
            if lineage.merge is not None
        ]
        return rows

    def staleness_summary(self) -> dict[str, Any]:
        """Publish-version lag per merge, joined to the rule's alpha."""
        rows = self.merges()
        lags = [r["staleness"] for r in rows if r.get("staleness") is not None]
        by_client: dict[str, list[int]] = {}
        for row in rows:
            if row.get("staleness") is not None and row.get("client"):
                by_client.setdefault(row["client"], []).append(row["staleness"])
        return {
            "merges": len(rows),
            "mean": float(np.mean(lags)) if lags else 0.0,
            "max": int(max(lags)) if lags else 0,
            "by_client": {
                client: {
                    "merges": len(vals),
                    "mean": float(np.mean(vals)),
                    "max": int(max(vals)),
                }
                for client, vals in sorted(by_client.items())
            },
        }

    # -- critical path ------------------------------------------------------
    def critical_path(self) -> CriticalPath:
        """The chain of spans bounding the run's wall clock.

        Each epoch window ``[epoch.start, epoch.end]`` is gated by the
        lineage whose last event closed the epoch; its spans tile the
        window (uncovered stretches become ``wait`` hops, a gating
        lineage minted mid-epoch contributes an ``epoch.other_work``
        prefix).  Windows are contiguous by construction — the next
        ``epoch.start`` fires at the previous ``epoch.end``'s timestamp —
        so the hop durations sum to ``end_s - start_s`` exactly.
        """
        hops: list[Hop] = []
        epoch_spans = sorted(
            (self.spans[i] for i in self._epoch_spans.values()),
            key=lambda s: s.start,
        )
        warm = next((s for s in self.spans if s.name == "warmstart"), None)
        if warm is not None:
            hops.append(Hop("warmstart", warm.start, warm.end))
        for epoch_span in epoch_spans:
            hops.extend(self._epoch_hops(epoch_span))
        if not hops:
            return CriticalPath([], 0.0, 0.0)
        return CriticalPath(hops, hops[0].start, hops[-1].end)

    def _epoch_hops(self, epoch_span: Span) -> list[Hop]:
        window_start, window_end = epoch_span.start, epoch_span.end
        epoch = epoch_span.attrs.get("epoch")
        candidates = [
            v
            for v in self.lineages.values()
            if v.epoch == epoch and v.end is not None and v.end <= window_end + _EPS
        ]
        if not candidates:
            return [Hop("wait", window_start, window_end)]
        gating = max(candidates, key=lambda v: (v.end, v.seq))
        hops: list[Hop] = []
        cursor = window_start
        if gating.created_at > window_start + _EPS:
            # The gating workunit was minted mid-epoch (barrier reissue):
            # until then the epoch was bounded by its other subtasks.
            hops.append(Hop("epoch.other_work", window_start, gating.created_at))
            cursor = gating.created_at
        for span in self.lineage_spans(gating.wu):
            if span.span_id == gating.root or span.name == "wu.attempt":
                continue  # container spans; their children tile the window
            start = max(span.start, cursor)
            end = min(span.end, window_end)
            if end < cursor - _EPS or start >= window_end - _EPS and span.end > window_end:
                continue
            if start > cursor + _EPS:
                hops.append(
                    Hop("wait", cursor, start, wu=gating.wu, client=span.client)
                )
                cursor = start
            if end > cursor + _EPS or (
                end >= cursor - _EPS and span.duration == 0.0
            ):
                hops.append(
                    Hop(span.name, cursor, max(end, cursor), wu=gating.wu, client=span.client)
                )
                cursor = max(end, cursor)
        if cursor < window_end - _EPS:
            hops.append(Hop("wait", cursor, window_end, wu=gating.wu))
        return hops

    # -- drill-down ---------------------------------------------------------
    def describe_lineage(self, wu_id: str) -> list[str]:
        """Human-readable span tree for one workunit (CLI ``--wu``)."""
        lineage = self.lineages[wu_id]
        lines = [
            f"workunit {wu_id}  epoch={lineage.epoch + 1} shard={lineage.shard} "
            f"fate={lineage.fate or 'open'}",
            f"  created {lineage.created_at:.3f}s  ended "
            f"{lineage.end if lineage.end is not None else float('nan'):.3f}s  "
            f"attempts={len(lineage.attempts)}",
        ]
        for span in self.lineage_spans(wu_id):
            if span.span_id == lineage.root:
                continue
            depth = 0
            parent = span.parent
            while parent is not None and parent != lineage.root:
                depth += 1
                parent = self.spans[parent].parent
            extras = " ".join(
                f"{k}={v}" for k, v in span.attrs.items() if k not in ("index",)
            )
            lines.append(
                f"  {'  ' * depth}{span.name:<18} "
                f"[{span.start:>10.3f} .. {span.end:>10.3f}] "
                f"{span.duration:>9.3f}s  {span.track}"
                + (f"  {extras}" if extras else "")
            )
        return lines


# ---------------------------------------------------------------------------
# Builder: one pass over the record stream
# ---------------------------------------------------------------------------


class _Builder:
    def __init__(self, store: SpanStore) -> None:
        self.store = store
        # (wu, client) -> (time, direction, reason) of an in-flight failed
        # transfer; closed by the matching net.retry / net.gave_up.
        self._pending_fault: dict[tuple[str, str], tuple[float, str, str]] = {}
        # wu -> publish version its merge produced (params.publish precedes
        # ps.assimilated within the same _finish call).
        self._publish_version: dict[str, int] = {}
        self._warmstart_span: int | None = None

    # -- span plumbing -----------------------------------------------------
    def _add(
        self,
        name: str,
        start: float,
        end: float,
        track: str,
        wu: str | None = None,
        client: str | None = None,
        parent: int | None = None,
        **attrs: Any,
    ) -> Span:
        span = Span(
            span_id=len(self.store.spans),
            name=name,
            start=start,
            end=end,
            track=track,
            wu=wu,
            client=client,
            parent=parent,
            attrs=attrs,
        )
        self.store.spans.append(span)
        if wu is not None and wu in self.store.lineages:
            self.store.lineages[wu].span_ids.append(span.span_id)
        return span

    def _lineage(self, rec: TraceRecord) -> Lineage | None:
        wu = rec.get("wu") or rec.get("canonical")
        if not wu:
            return None
        return self.store.lineages.get(wu)

    @staticmethod
    def _attempt_for(lineage: Lineage, client: str | None) -> Attempt | None:
        for attempt in reversed(lineage.attempts):
            if client is None or attempt.client == client:
                return attempt
        return None

    def _close_attempt(
        self, lineage: Lineage, client: str | None, at: float, outcome: str
    ) -> Attempt | None:
        attempt = self._attempt_for(lineage, client)
        if attempt is None or attempt.outcome is not None:
            return attempt
        attempt.closed_at = at
        attempt.outcome = outcome
        span = self.store.spans[attempt.span_id]
        span.end = at
        span.attrs["outcome"] = outcome
        return attempt

    # -- dispatch ----------------------------------------------------------
    def handle(self, seq: int, rec: TraceRecord) -> None:
        self.store.last_time = max(self.store.last_time, rec.time)
        lineage = self._lineage(rec)
        if lineage is not None:
            lineage.seq = seq
        handler = getattr(self, "_on_" + rec.kind.replace(".", "_"), None)
        if handler is None:
            self.store.unhandled_kinds.add(rec.kind)
            return
        handler(rec, lineage)

    def finalize(self) -> None:
        for lineage in self.store.lineages.values():
            end = lineage.end if lineage.end is not None else self.store.last_time
            for attempt in lineage.attempts:
                if attempt.outcome is None and self.store.dropped == 0 and (
                    lineage.fate is None
                ):
                    # Run truncated mid-attempt (partial trace of a live
                    # run): close honestly rather than leave spans open.
                    attempt.outcome = "truncated"
                    attempt.closed_at = end
                    span = self.store.spans[attempt.span_id]
                    span.end = end
                    span.attrs["outcome"] = "truncated"
            root = self.store.spans[lineage.root]
            root.end = end
            root.attrs["fate"] = lineage.fate or "open"
        for span_id in self.store._epoch_spans.values():
            span = self.store.spans[span_id]
            if span.end < span.start:
                span.end = self.store.last_time

    # -- lineage lifecycle handlers -----------------------------------------
    def _on_sched_created(self, rec: TraceRecord, _: Lineage | None) -> None:
        wu = rec["wu"]
        root = self._add(
            "wu.lifetime", rec.time, rec.time - 1.0, "server", wu=wu
        )  # end patched in finalize (or by the fate handlers)
        lineage = Lineage(
            wu=wu,
            epoch=rec.get("epoch", 0),
            shard=rec.get("shard", -1),
            created_at=rec.time,
            root=root.span_id,
        )
        self.store.lineages[wu] = lineage
        lineage.span_ids.append(root.span_id)
        self._add(
            "wu.generate", rec.time, rec.time, "server", wu=wu, parent=root.span_id
        )
        lineage.ready_since = rec.time  # type: ignore[attr-defined]

    def _on_sched_assign(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        ready = getattr(lineage, "ready_since", lineage.created_at)
        self._add(
            "sched.dispatch",
            ready,
            rec.time,
            "server",
            wu=lineage.wu,
            parent=lineage.root,
        )
        client = rec.get("client", "")
        span = self._add(
            "wu.attempt",
            rec.time,
            rec.time,  # end patched when the attempt closes
            client or "server",
            wu=lineage.wu,
            client=client,
            parent=lineage.root,
            index=rec.get("attempt", len(lineage.attempts)),
        )
        lineage.attempts.append(
            Attempt(
                index=rec.get("attempt", len(lineage.attempts)),
                client=client,
                assigned_at=rec.time,
                span_id=span.span_id,
            )
        )

    def _attempt_child(
        self,
        rec: TraceRecord,
        lineage: Lineage,
        name: str,
        start: float,
        end: float,
        **attrs: Any,
    ) -> Span | None:
        client = rec.get("client")
        attempt = self._attempt_for(lineage, client)
        parent = attempt.span_id if attempt is not None else lineage.root
        if attempt is not None and attempt.outcome is not None:
            attrs.setdefault("stale", True)
        return self._add(
            name,
            start,
            end,
            client or "server",
            wu=lineage.wu,
            client=client,
            parent=parent,
            **attrs,
        )

    def _on_web_download(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return  # setup transfers carry no workunit
        self._attempt_child(
            rec, lineage, "net.download", rec.time, rec.time + rec.get("seconds", 0.0)
        )

    def _on_web_upload(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._attempt_child(
            rec,
            lineage,
            "net.upload",
            rec.time,
            rec.time + rec.get("seconds", 0.0),
            nbytes=rec.get("nbytes"),
        )

    def _on_web_xfer_fail(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        wu, client = rec.get("wu", ""), rec.get("client", "")
        if wu:
            self._pending_fault[(wu, client)] = (
                rec.time,
                rec.get("direction", ""),
                rec.get("reason", ""),
            )

    def _close_fault(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        """A failed transfer's detection delay ends at this retry/gave-up."""
        wu, client = rec.get("wu", ""), rec.get("client", "")
        pending = self._pending_fault.pop((wu, client), None)
        if pending is None or lineage is None:
            return
        failed_at, direction, reason = pending
        self._attempt_child(
            rec,
            lineage,
            "net.fault",
            failed_at,
            rec.time,
            direction=direction,
            reason=reason,
        )

    def _on_net_retry(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        self._close_fault(rec, lineage)
        if lineage is None:
            return
        self._attempt_child(
            rec,
            lineage,
            "net.backoff",
            rec.time,
            rec.time + rec.get("backoff_s", 0.0),
            phase=rec.get("phase"),
            reason=rec.get("reason"),
        )

    def _on_net_gave_up(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        self._close_fault(rec, lineage)
        if lineage is None:
            return
        self._attempt_child(
            rec, lineage, "net.gave_up", rec.time, rec.time, phase=rec.get("phase")
        )

    def _on_net_partition(self, rec: TraceRecord, _: Lineage | None) -> None:
        client = rec.get("client", "")
        self._add(
            "net.partition",
            rec.time,
            rec.time,
            client or "server",
            client=client,
            until=rec.get("until"),
        )

    def _on_client_train_start(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        attempt = self._attempt_for(lineage, rec.get("client"))
        if attempt is not None:
            attempt.train_started_at = rec.time

    def _on_client_train_done(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        attempt = self._attempt_for(lineage, rec.get("client"))
        start = (
            attempt.train_started_at
            if attempt is not None and attempt.train_started_at is not None
            else rec.time
        )
        self._attempt_child(rec, lineage, "client.train", start, rec.time)

    def _on_client_uploaded(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        attempt = self._attempt_for(lineage, rec.get("client"))
        if attempt is not None:
            attempt.uploaded_at = rec.time

    def _on_client_turnaround(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        attempt = self._attempt_for(lineage, rec.get("client"))
        if attempt is not None:
            span = self.store.spans[attempt.span_id]
            span.attrs["turnaround_s"] = rec.get("seconds")

    def _on_client_terminated(self, rec: TraceRecord, _: Lineage | None) -> None:
        client = rec.get("client", "")
        self._add("client.terminated", rec.time, rec.time, client or "server", client=client)

    def _on_sched_stale_result(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._attempt_child(rec, lineage, "sched.stale_result", rec.time, rec.time)

    def _on_sched_heartbeat(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        attempt = self._attempt_for(lineage, rec.get("client"))
        if attempt is not None:
            span = self.store.spans[attempt.span_id]
            span.attrs["heartbeats"] = span.attrs.get("heartbeats", 0) + 1

    def _on_server_result_valid(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        client = rec.get("host")
        attempt = self._attempt_for(lineage, client)
        if attempt is not None and attempt.outcome is None:
            attempt.closed_at = rec.time
            attempt.outcome = "success"
            span = self.store.spans[attempt.span_id]
            span.end = rec.time
            span.attrs["outcome"] = "success"
        start = (
            attempt.uploaded_at
            if attempt is not None and attempt.uploaded_at is not None
            else rec.time
        )
        self._add(
            "server.validate",
            start,
            rec.time,
            "server",
            wu=lineage.wu,
            client=client,
            parent=lineage.root,
        )

    def _on_server_result_invalid(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._close_attempt(lineage, None, rec.time, "invalid")
        self._add(
            "server.validate",
            rec.time,
            rec.time,
            "server",
            wu=lineage.wu,
            parent=lineage.root,
            ok=False,
            reason=rec.get("reason"),
            code=rec.get("code"),
        )
        lineage.ready_since = rec.time  # type: ignore[attr-defined]

    def _on_sched_timeout(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._close_attempt(lineage, rec.get("client"), rec.time, "timeout")
        lineage.ready_since = rec.time  # type: ignore[attr-defined]

    def _on_sched_client_error(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._close_attempt(lineage, rec.get("client"), rec.time, "client_error")
        lineage.ready_since = rec.time  # type: ignore[attr-defined]

    def _on_sched_cancelled(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        self._close_attempt(lineage, None, rec.time, "cancelled")
        if lineage.fate is None:
            lineage.fate = "cancelled"
            lineage.end = rec.time
            self.store.spans[lineage.root].end = rec.time

    def _on_sched_exhausted(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        lineage.fate = f"exhausted:{rec.get('via', 'unknown')}"
        lineage.end = rec.time
        self.store.spans[lineage.root].end = rec.time

    def _on_quorum_reached(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        # ``lineage`` resolves via the canonical replica id.
        if lineage is None:
            self._add(
                "quorum.reached", rec.time, rec.time, "server",
                logical=rec.get("logical"),
            )
            return
        success = next(
            (a for a in lineage.attempts if a.outcome == "success"), None
        )
        if success is not None and success.closed_at is not None and rec.time > success.closed_at:
            self._add(
                "quorum.wait",
                success.closed_at,
                rec.time,
                "server",
                wu=lineage.wu,
                parent=lineage.root,
                replicas_seen=rec.get("replicas_seen"),
            )
        self._add(
            "quorum.reached",
            rec.time,
            rec.time,
            "server",
            wu=lineage.wu,
            parent=lineage.root,
            logical=rec.get("logical"),
        )

    def _on_ps_assimilated(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        queue_wait = rec.get("queue_wait", 0.0)
        service = rec.get("service", 0.0)
        enqueued = rec.time - service - queue_wait
        started = rec.time - service
        wu = rec.get("wu")
        parent = lineage.root if lineage is not None else None
        self._add(
            "ps.queue", enqueued, started, "ps", wu=wu, parent=parent,
            client=rec.get("client"),
        )
        self._add(
            "ps.service", started, rec.time, "ps", wu=wu, parent=parent,
            client=rec.get("client"), accuracy=rec.get("accuracy"),
        )
        if lineage is None:
            return
        version = self._publish_version.get(wu)
        base = rec.get("base_version")
        lineage.merge = {
            "wu": wu,
            "client": rec.get("client"),
            "epoch": rec.get("epoch"),
            "rule": rec.get("rule"),
            "alpha": rec.get("alpha"),
            "base_version": base,
            "version": version,
            "staleness": (
                version - base if version is not None and base is not None else None
            ),
            "queue_wait_s": queue_wait,
            "service_s": service,
            "accuracy": rec.get("accuracy"),
        }
        lineage.fate = "merged"
        lineage.end = max(lineage.end or rec.time, rec.time)
        self.store.spans[lineage.root].end = lineage.end

    def _on_server_assimilated(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        if lineage is None:
            return
        if lineage.fate is None or lineage.fate == "assimilated":
            lineage.fate = lineage.fate or "assimilated"
        lineage.end = max(lineage.end or rec.time, rec.time)
        self.store.spans[lineage.root].end = lineage.end

    def _on_params_publish(self, rec: TraceRecord, lineage: Lineage | None) -> None:
        wu = rec.get("wu")
        if wu:
            self._publish_version[wu] = rec.get("version")
        self._add(
            "params.publish",
            rec.time,
            rec.time,
            "server",
            wu=wu,
            parent=lineage.root if lineage is not None else None,
            version=rec.get("version"),
        )

    # -- non-lineage activity ------------------------------------------------
    def _on_epoch_start(self, rec: TraceRecord, _: Lineage | None) -> None:
        span = self._add(
            "epoch", rec.time, rec.time - 1.0, "run", epoch=rec.get("epoch")
        )  # end patched by epoch.end (or finalize)
        self.store._epoch_spans[rec.get("epoch")] = span.span_id

    def _on_epoch_end(self, rec: TraceRecord, _: Lineage | None) -> None:
        span_id = self.store._epoch_spans.get(rec.get("epoch"))
        if span_id is not None:
            span = self.store.spans[span_id]
            span.end = rec.time
            span.attrs["accuracy"] = rec.get("accuracy")

    def _on_epoch_barrier_stall(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add(
            "epoch.barrier_stall",
            rec.time,
            rec.time,
            "run",
            epoch=rec.get("epoch"),
            missing=rec.get("missing"),
        )

    def _on_warmstart_done(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add("warmstart", 0.0, rec.time, "run", passes=rec.get("passes"))

    def _kv_span(self, rec: TraceRecord, name: str, start: float, end: float) -> None:
        self._add(
            name,
            start,
            end,
            f"kv:{rec.get('store', '?')}",
            key=rec.get("key"),
        )

    def _on_kv_read(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._kv_span(rec, "kv.read", rec.time, rec.time + rec.get("latency", 0.0))

    def _on_kv_write(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._kv_span(rec, "kv.write", rec.time, rec.time + rec.get("latency", 0.0))

    def _on_kv_update(self, rec: TraceRecord, _: Lineage | None) -> None:
        # Emitted at commit time; latency covers the read-modify-write.
        self._kv_span(rec, "kv.update", rec.time - rec.get("latency", 0.0), rec.time)

    def _on_kv_outage(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add(
            "kv.outage",
            rec.time,
            rec.time + rec.get("blocked_s", 0.0),
            f"kv:{rec.get('store', '?')}",
            op=rec.get("op"),
        )

    def _on_kv_degraded(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add(
            "kv.degraded",
            rec.time,
            rec.time,
            f"kv:{rec.get('store', '?')}",
            op=rec.get("op"),
            factor=rec.get("factor"),
        )

    def _on_kv_txn_abort(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._kv_span(rec, "kv.txn_abort", rec.time, rec.time)

    def _on_kv_lost_update(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._kv_span(rec, "kv.lost_update", rec.time, rec.time)

    def _ps_marker(self, rec: TraceRecord, name: str) -> None:
        wu = rec.get("wu")
        lineage = self.store.lineages.get(wu) if wu else None
        self._add(
            name,
            rec.time,
            rec.time,
            "ps",
            wu=wu,
            parent=lineage.root if lineage is not None else None,
            **{k: v for k, v in rec.fields.items() if k != "wu"},
        )

    def _on_ps_crash(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._ps_marker(rec, "ps.crash")

    def _on_ps_recover(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._ps_marker(rec, "ps.recover")

    def _on_ps_restore(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._ps_marker(rec, "ps.restore")

    def _on_ps_scale_up(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._ps_marker(rec, "ps.scale_up")

    def _on_ps_scale_down(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._ps_marker(rec, "ps.scale_down")

    def _on_fleet_preemption(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add(
            "fleet.preemption", rec.time, rec.time, "run", client=rec.get("client")
        )

    def _on_fleet_volunteer_joined(self, rec: TraceRecord, _: Lineage | None) -> None:
        self._add(
            "fleet.volunteer_joined", rec.time, rec.time, "run",
            client=rec.get("client"),
        )

    def _on_fault_corrupt_upload(self, rec: TraceRecord, _: Lineage | None) -> None:
        client = rec.get("client", "")
        self._add(
            "fault.corrupt_upload", rec.time, rec.time, client or "run", client=client
        )

    # Kinds consumed elsewhere in the pipeline (no span of their own).
    def _skip(self, rec: TraceRecord, _: Lineage | None) -> None:
        return

    _on_validator_checked = _skip
    _on_credit_grant = _skip
    _on_credit_deny = _skip
    # Fleet-scale work-fetch chatter: high-volume records with no
    # per-workunit span of their own.
    _on_sched_ping = _skip
    _on_sched_sleep_hint = _skip
    _on_sched_stale_heartbeat = _skip
    # Byzantine fabric: per-upload tampering and the defense verdicts ride
    # on the attempt/quorum spans that already exist.
    _on_adv_tamper = _skip
    _on_adv_claim_inflate = _skip
    _on_adv_sybil_joined = _skip
    _on_credit_quarantine = _skip
    _on_quorum_failed = _skip
    # Codec plane: per-transfer pricing records; the bytes they explain
    # already ride on the web.download / web.upload transfer spans.
    _on_net_encode = _skip
    _on_net_decode = _skip


# ---------------------------------------------------------------------------
# Telemetry section
# ---------------------------------------------------------------------------


def _round_floats(value: Any, digits: int = 6) -> Any:
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v, digits) for v in value]
    return value


def span_summary(trace: Trace | Iterable[TraceRecord]) -> dict[str, Any]:
    """The ``spans`` telemetry section: lineage + hop + path + attribution.

    Pure read of the recorded stream — safe to call after any run, and
    excluded from the telemetry digest (observability sections never
    affect determinism fingerprints).
    """
    store = (
        SpanStore.from_trace(trace)
        if isinstance(trace, Trace)
        else SpanStore.from_records(trace)
    )
    path = store.critical_path()
    payload = {
        "lineages": store.lineage_counts(),
        "lineage_problems": store.lineage_problems(),
        "hops": store.hop_summary(),
        "critical_path": {
            "start_s": path.start_s,
            "end_s": path.end_s,
            "total_s": path.total_s,
            "hop_count": len(path.hops),
            "per_hop_totals": path.per_hop_totals(),
        },
        "stragglers": store.client_percentiles(),
        "staleness": store.staleness_summary(),
        "dropped_records": store.dropped,
    }
    return _round_floats(payload)
