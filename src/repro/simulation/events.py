"""Event queue primitives for the discrete-event simulator.

A classic calendar queue on a binary heap: events are ordered by
``(time, sequence)`` so simultaneous events fire in scheduling order
(deterministic FIFO tie-break — essential for reproducibility).  Heap
entries are ``(time, seq, handle)`` tuples: ``seq`` is unique, so the
comparison is decided in C on the first two items and never reaches the
handle (which defines no ordering).  The sequence number lives only in
the entry; the handle keeps what callers read (``time``, ``label``,
``callback``, ``cancelled``).

Cancellation is lazy: a cancelled handle stays in the heap and is skipped
when popped, which keeps cancel O(1).  When more than half the heap is
cancelled entries the queue compacts (filter + re-heapify), so dead
events — e.g. the per-assignment timeout of every completed workunit in
a large fleet — cannot grow the heap, and thus the per-event ``log``
factor, without bound.  Compaction preserves ``(time, seq)`` order, so
replay determinism is unaffected.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError

__all__ = ["EventHandle", "EventQueue"]


class EventHandle:
    """Opaque handle to a scheduled event; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "label", "_queue")

    def __init__(self, time: float, callback: Callable[[], None], label: str) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label
        self._queue: "EventQueue | None" = None  # set by EventQueue.push

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if not self.cancelled and self._queue is not None:
            self._queue._cancelled_count += 1
        self.cancelled = True
        self.callback = _noop  # drop closure references promptly

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"EventHandle(t={self.time:.6g}, {self.label!r}{state})"


def _noop() -> None:
    return None


class EventQueue:
    """Min-heap of ``(time, seq, handle)`` entries ordered by (time, seq)."""

    # Below this size compaction isn't worth the heapify; above it, a
    # majority-cancelled heap is rebuilt (amortized O(1) per cancel).
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._counter = itertools.count()
        self._cancelled_count = 0  # cancelled entries still in the heap

    def __len__(self) -> int:
        # Includes lazily-cancelled entries; use live_count() for liveness.
        return len(self._heap)

    def live_count(self) -> int:
        """Number of live (non-cancelled) events still queued, in O(1)."""
        return len(self._heap) - self._cancelled_count

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute ``time``; returns its handle."""
        if time != time:  # NaN guard
            raise SimulationError("cannot schedule an event at NaN time")
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and self._cancelled_count * 2 > len(heap):
            # Compact: (time, seq) is a total order, so the pop sequence
            # does not depend on the layout heapify happens to produce.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled_count = 0
        handle = EventHandle(time, callback, label)
        handle._queue = self
        heapq.heappush(heap, (time, next(self._counter), handle))
        return handle

    def pop_due(self, until: float | None = None) -> EventHandle | None:
        """Pop the earliest live event, unless it lies beyond ``until``.

        Returns None when no live event remains, or when the earliest one
        is later than ``until`` (it then stays queued).
        """
        time = self.peek_time()
        if time is None or (until is not None and time > until):
            return None
        handle = heapq.heappop(self._heap)[2]
        # Detach so a later cancel() of this (already fired) handle
        # doesn't count against a heap it has left.
        handle._queue = None
        return handle

    def pop(self) -> EventHandle:
        """Pop the earliest live event; raises if the queue is drained."""
        handle = self.pop_due()
        if handle is None:
            raise SimulationError("pop() from an empty event queue")
        return handle

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if none remain."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_count -= 1
        return heap[0][0] if heap else None

    def is_empty(self) -> bool:
        """True when no live (non-cancelled) events remain."""
        return self._cancelled_count == len(self._heap)
