"""Trace-to-metrics bridge: turns trace records into registry instruments.

The collector is a :class:`~repro.simulation.tracing.Trace` observer; it
maps the substrate's existing event stream onto named metrics so nothing
in the scheduler/client/store hot paths needs to know the registry
exists.  It is a pure reader — it never touches simulation state or
randomness, which is what keeps instrumented runs bit-identical to bare
ones.

Metric names are part of the telemetry schema; the full table lives in
DESIGN.md §"Observability".
"""

from __future__ import annotations

from typing import Any, Callable

from .metrics import MetricsRegistry

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Maps trace events to counters/gauges/histograms in a registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._epoch_started: dict[int, float] = {}
        # kind -> handler; also the subscription: the trace routes only
        # these kinds here.
        self._handlers: dict[str, Callable[[float, dict[str, Any]], None]] = {
            "web.download": self._on_download,
            "web.upload": self._on_upload,
            "web.xfer_fail": self._count("transfer.failures"),
            "net.retry": self._count("transfer.retries"),
            "net.gave_up": self._count("transfer.abandoned"),
            "client.turnaround": self._on_turnaround,
            "ps.assimilated": self._on_ps_assimilated,
            "ps.crash": self._count("ps.crashes"),
            "ps.recover": self._count("ps.recoveries"),
            "kv.read": self._on_kv_read,
            "kv.write": self._on_kv_write,
            "kv.update": self._on_kv_update,
            "kv.lost_update": self._count("kv.lost_updates"),
            "sched.created": self._count("sched.workunits_created"),
            "sched.assign": self._count("sched.assignments"),
            "sched.timeout": self._count("sched.timeouts"),
            "sched.exhausted": self._count("sched.exhausted"),
            "sched.stale_result": self._count("sched.stale_results"),
            "epoch.start": self._on_epoch_start,
            "epoch.end": self._on_epoch_end,
            "params.publish": self._on_publish,
            "credit.grant": self._on_credit_grant,
            "adv.tamper": self._count("adv.tampered_uploads"),
            "adv.claim_inflate": self._count("adv.claim_inflates"),
            "credit.quarantine": self._count("credit.quarantines"),
            "quorum.failed": self._count("quorum.failures"),
        }

    # -- Trace observer protocol ---------------------------------------
    def on_record(self, time: float, kind: str, fields: dict[str, Any]) -> None:
        """Map one record of a kind in ``_handlers`` (the trace routes no
        other kind here)."""
        self._handlers[kind](time, fields)

    # -- handlers -------------------------------------------------------
    def _count(self, name: str) -> Callable[[float, dict[str, Any]], None]:
        counter = self.registry.counter(name)
        return lambda time, fields: counter.incr()

    def _on_download(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.histogram("transfer.download_s").observe(fields["seconds"])

    def _on_upload(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.histogram("transfer.upload_s").observe(fields["seconds"])

    def _on_turnaround(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.histogram("client.turnaround_s").observe(fields["seconds"])

    def _on_ps_assimilated(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.counter("ps.assimilations").incr()
        self.registry.histogram("ps.queue_wait_s").observe(fields["queue_wait"])
        service = fields.get("service")
        if service is not None:
            self.registry.histogram("ps.service_s").observe(service)

    def _on_kv_read(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.counter("kv.reads").incr()
        self.registry.histogram("kv.read_latency_s").observe(fields["latency"])

    def _on_kv_write(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.counter("kv.writes").incr()
        self.registry.histogram("kv.write_latency_s").observe(fields["latency"])

    def _on_kv_update(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.counter("kv.updates").incr()
        self.registry.histogram("kv.update_latency_s").observe(fields["latency"])

    def _on_epoch_start(self, time: float, fields: dict[str, Any]) -> None:
        self._epoch_started[fields["epoch"]] = time

    def _on_epoch_end(self, time: float, fields: dict[str, Any]) -> None:
        started = self._epoch_started.pop(fields["epoch"], None)
        if started is not None:
            self.registry.histogram("epoch.duration_s").observe(time - started)
        self.registry.gauge("epoch.accuracy").set(fields["accuracy"])

    def _on_publish(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.gauge("params.version").set(fields["version"])

    def _on_credit_grant(self, time: float, fields: dict[str, Any]) -> None:
        self.registry.counter("credit.grants").incr()
        gauge = self.registry.gauge("credit.granted_total")
        gauge.set((gauge.value or 0.0) + fields["amount"])
