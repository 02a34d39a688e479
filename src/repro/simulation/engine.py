"""Discrete-event simulation engine.

The engine advances a virtual clock from event to event; all components of
the volunteer-computing system (clients, scheduler, parameter servers,
network transfers, preemptions, timeouts) are callbacks scheduled on one
shared :class:`Simulator`.

Real computation (NumPy training steps) happens *inside* callbacks; only
the passage of time is virtual.  This is the "real learning, simulated
time" architecture from DESIGN.md §5.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError
from .events import EventHandle, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Single-threaded discrete-event simulator with a float seconds clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0
        self._running = False
        # Optional observability hook (see ``repro.obs.profiler``): when
        # set, every event dispatch is routed through it so wall-clock can
        # be attributed to event labels.  ``None`` keeps the dispatch path
        # identical to the un-instrumented engine.
        self.profiler = None

    # -- scheduling -----------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self._queue.push(time, callback, label)

    # -- execution ------------------------------------------------------
    def _dispatch_next(self, until: float | None) -> bool:
        """Pop the earliest event due by ``until`` and run it; the one
        dispatch path shared by :meth:`run` and :meth:`step`."""
        handle = self._queue.pop_due(until)
        if handle is None:
            return False
        self.now = handle.time
        if self.profiler is None:
            handle.callback()
        else:
            self.profiler.run_event(handle.label, handle.callback)
        self.events_processed += 1
        return True

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> None:
        """Process events in time order.

        Stops when the queue drains, when the next event lies beyond
        ``until`` (the clock is then advanced exactly to ``until``; it
        never moves backwards), or after ``max_events`` (guarding against
        runaway self-rescheduling loops).
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event callback")
        self._running = True
        try:
            processed = 0
            while processed < max_events and self._dispatch_next(until):
                processed += 1
            if processed >= max_events:
                next_time = self._queue.peek_time()
                if next_time is not None and (until is None or next_time <= until):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a self-rescheduling loop"
                    )
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one event; returns False if none remained."""
        return self._dispatch_next(None)

    def pending(self) -> int:
        """Number of live events still queued."""
        return self._queue.live_count()
