"""Structured event tracing for experiment analysis.

Components emit typed records into a shared :class:`Trace`; the analysis
layer and the benchmark harness read them back as filtered sequences or
NumPy time series.  This replaces ad-hoc printf instrumentation and gives
tests a stable surface to assert scheduling behaviour against.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Iterator

import numpy as np

__all__ = ["TraceRecord", "Trace"]


class TraceRecord:
    """One timestamped event, as read back: a kind tag plus free-form fields.

    The read-side view of a trace entry.  ``Trace`` stores each event as a
    bare ``(time, kind, fields)`` tuple and observers receive those three
    values as arguments; a record object is built only where one is read
    — iterating a trace, :meth:`Trace.of_kind`, :meth:`Trace.last` and
    the JSONL loader.  The ``fields`` dict is the one the event was
    emitted with, shared with the trace: treat it as read-only.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(
        self, time: float, kind: str, fields: dict[str, Any] | None = None
    ) -> None:
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field value with a default, like ``dict.get``."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return (self.time, self.kind, self.fields) == (
            other.time,
            other.kind,
            other.fields,
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
            f"fields={self.fields!r})"
        )


class Trace:
    """Append-only event log with query helpers and kind-routed observers.

    :meth:`emit` appends a ``(time, kind, fields)`` tuple, bumps the
    kind's count and calls ``on_record(time, kind, fields)`` on each
    observer that handles the kind.  An observer's ``_handlers`` table
    (kind -> handler) is its subscription: a kind outside it never
    reaches it.  An observer without such a table sees every record.
    Observers that define ``on_attach(trace)`` / ``on_detach(trace)``
    are told when they start and stop listening.  With nobody listening
    an emit is one tuple, one count and one dict lookup.
    Observers must be pure readers; mutating the fields, simulation
    state or drawing randomness from inside one would break bit-exact
    reproducibility.

    The trace owns the counts: :attr:`counters` holds every emitted
    kind's count, whether or not its records are still buffered.
    ``max_records`` bounds the in-memory record window: once full, each
    new record evicts the oldest (ring/drop policy), and the
    ``trace.dropped`` counter reports how many were shed (emitted minus
    retained).  Observers still see every event, so metrics/audit stay
    exact; only the replayable record window shrinks.  The default
    (None) keeps the historical unbounded behaviour.
    """

    def __init__(self, max_records: int | None = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None for unbounded)")
        self.max_records = max_records
        self._records: deque[tuple[float, str, dict[str, Any]]] = deque(
            maxlen=max_records
        )
        self._counts: dict[str, int] = {}
        self._observers: list[Any] = []
        # kind -> the observers it reaches, in attach order; a kind not
        # listed reaches only the observers without a handler table.
        self._routes: dict[str, tuple[Any, ...]] = {}
        self._unrouted: tuple[Any, ...] = ()

    def attach(self, observer: Any) -> None:
        """Subscribe ``observer`` to the kinds its ``_handlers`` table names.

        Its ``on_record(time, kind, fields)`` is called for each later
        record of those kinds (of every kind, without a table).
        """
        if observer not in self._observers:
            self._observers.append(observer)
            self._route()
            on_attach = getattr(observer, "on_attach", None)
            if on_attach is not None:
                on_attach(self)

    def detach(self, observer: Any) -> None:
        """Unsubscribe a previously attached observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)
            self._route()
            on_detach = getattr(observer, "on_detach", None)
            if on_detach is not None:
                on_detach(self)

    def _route(self) -> None:
        tables = [getattr(o, "_handlers", None) for o in self._observers]
        kinds = {kind for table in tables if table is not None for kind in table}
        self._routes = {
            kind: tuple(
                o
                for o, table in zip(self._observers, tables)
                if table is None or kind in table
            )
            for kind in kinds
        }
        self._unrouted = tuple(
            o for o, table in zip(self._observers, tables) if table is None
        )

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record an event at simulated ``time``."""
        self._records.append((time, kind, fields))
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        for observer in self._routes.get(kind, self._unrouted):
            observer.on_record(time, kind, fields)

    @property
    def dropped(self) -> int:
        """Records the bounded buffer has shed: emitted minus retained."""
        return sum(self._counts.values()) - len(self._records)

    @property
    def counters(self) -> Counter[str]:
        """Snapshot of every count: kind -> records emitted, in first-emit
        order, then ``trace.dropped`` once the buffer has shed any."""
        counters = Counter(self._counts)
        dropped = self.dropped
        if dropped:
            counters["trace.dropped"] = dropped
        return counters

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        for entry in self._records:
            yield TraceRecord(*entry)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All records with the given kind, in emission order."""
        return [TraceRecord(*e) for e in self._records if e[1] == kind]

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` (or records dropped, for
        ``trace.dropped``)."""
        if kind == "trace.dropped":
            return self.dropped
        return self._counts.get(kind, 0)

    def series(self, kind: str, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (times, values) arrays for one field of one record kind."""
        entries = [e for e in self._records if e[1] == kind]
        times = np.asarray([e[0] for e in entries])
        values = np.asarray([e[2][field_name] for e in entries])
        return times, values

    def last(self, kind: str) -> TraceRecord | None:
        """Most recent record of ``kind`` or None."""
        for entry in reversed(self._records):
            if entry[1] == kind:
                return TraceRecord(*entry)
        return None

    def summary(
        self, prefix: str | tuple[str, ...] | None = None
    ) -> dict[str, int]:
        """Counter snapshot (kind -> count), sorted by kind.

        ``prefix`` restricts the snapshot to one subsystem's kinds, e.g.
        ``summary("ps.")`` or ``summary("net.")`` for the chaos layers; a
        tuple selects several subsystems at once.  The filter covers
        *every* counter, ``trace.dropped`` included.
        """
        items = sorted(self.counters.items())
        if prefix is not None:
            items = [(k, v) for k, v in items if k.startswith(prefix)]
        return dict(items)
