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
    """One timestamped event: a kind tag plus free-form fields.

    A plain ``__slots__`` class — one is built per emitted event, so
    construction is three attribute stores.  Records are shared between
    the trace buffer and every observer: treat them as read-only.
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
    """Append-only event log with query helpers.

    Observers attached via :meth:`attach` see every record as it happens —
    the hook behind ``repro.obs``'s metrics collector and invariant
    auditor.  The hot path stays allocation-free when nobody is
    listening: a single truthiness check on an empty list.
    Observers must be pure readers; mutating a record, simulation state
    or drawing randomness from inside one would break bit-exact
    reproducibility.

    ``max_records`` bounds the in-memory record list: once full, each new
    record evicts the oldest (ring/drop policy) and bumps the
    ``trace.dropped`` counter.  Counters and observers still see every
    event, so metrics/audit stay exact; only the replayable record window
    shrinks.  The default (None) keeps the historical unbounded behaviour.
    """

    def __init__(self, max_records: int | None = None) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None for unbounded)")
        self.max_records = max_records
        self._records: deque[TraceRecord] = deque(maxlen=max_records)
        self.counters: Counter[str] = Counter()
        self._observers: list[Any] = []
        # Appends left before the bounded buffer starts evicting (records
        # are never removed, so a countdown replaces a len() test per
        # emit); None while unbounded.
        self._room: int | None = max_records

    def attach(self, observer: Any) -> None:
        """Subscribe ``observer`` (its ``on_record(rec)`` sees every record)."""
        if observer not in self._observers:
            self._observers.append(observer)

    def detach(self, observer: Any) -> None:
        """Unsubscribe a previously attached observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record an event at simulated ``time``."""
        record = TraceRecord(time, kind, fields)
        counters = self.counters
        room = self._room
        if room is not None:
            if room:
                self._room = room - 1
            else:
                # deque(maxlen=...) silently evicts; account for it
                # explicitly so bounded runs can report how much history
                # they lost.
                counters["trace.dropped"] = counters.get("trace.dropped", 0) + 1
        self._records.append(record)
        counters[kind] = counters.get(kind, 0) + 1
        for observer in self._observers:
            observer.on_record(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All records with the given kind, in emission order."""
        return [r for r in self._records if r.kind == kind]

    def count(self, kind: str) -> int:
        """Number of events (or counter bumps) of ``kind``."""
        return self.counters.get(kind, 0)

    def series(self, kind: str, field_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return (times, values) arrays for one field of one record kind."""
        recs = self.of_kind(kind)
        times = np.asarray([r.time for r in recs])
        values = np.asarray([r[field_name] for r in recs])
        return times, values

    def last(self, kind: str) -> TraceRecord | None:
        """Most recent record of ``kind`` or None."""
        for record in reversed(self._records):
            if record.kind == kind:
                return record
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
