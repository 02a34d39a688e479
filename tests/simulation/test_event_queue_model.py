"""Model check of :class:`EventQueue` against a sorted-list oracle.

Random push / cancel / pop / peek sequences, long enough to cross the
compaction threshold, are replayed on the real queue and on a plain list
of live ``(time, seq)`` pairs.  The queue must pop in exactly
``(time, seq)`` order (FIFO among ties), refuse NaN, and keep its
cancelled-entry accounting exact through cancel-after-fire, double
cancel and compaction.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import EventQueue

# Few distinct times, so ties (and therefore the seq tie-break) are common.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.5, 7.0, math.inf])

_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES),
    st.tuples(st.just("push"), _TIMES),  # weight pushes: heaps must grow
    st.tuples(st.just("push_nan"), st.none()),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("pop_due"), _TIMES),
    st.tuples(st.just("peek"), st.none()),
)


def _check_accounting(queue: EventQueue, live: dict[int, float]) -> None:
    in_heap_cancelled = sum(1 for entry in queue._heap if entry[2].cancelled)
    assert queue._cancelled_count == in_heap_cancelled
    assert queue.live_count() == len(live)
    assert len(queue) == len(live) + in_heap_cancelled
    assert queue.is_empty() == (not live)


@settings(max_examples=150, deadline=None)
@given(
    preload=st.integers(0, 3 * EventQueue._COMPACT_MIN),
    cancel_stride=st.integers(1, 4),
    ops=st.lists(_OPS, max_size=120),
)
def test_event_queue_matches_sorted_list_oracle(preload, cancel_stride, ops):
    queue = EventQueue()
    handles = []  # every handle ever pushed; index == seq
    live: dict[int, float] = {}  # seq -> time of the live events

    def push(time: float) -> None:
        handle = queue.push(time, lambda: None, label=str(len(handles)))
        assert handle.time == time and not handle.cancelled
        live[len(handles)] = time
        handles.append(handle)

    def cancel(seq: int) -> None:
        handles[seq].cancel()  # fired, cancelled or live: all allowed
        assert handles[seq].cancelled
        live.pop(seq, None)

    def expect_pop(handle, until=None) -> None:
        due = sorted((time, seq) for seq, time in live.items())
        if not due or (until is not None and due[0][0] > until):
            assert handle is None
            return
        time, seq = due[0]
        assert handle is handles[seq]
        assert handle.time == time
        del live[seq]

    # A majority-cancelled heap above _COMPACT_MIN: the next push compacts.
    for i in range(preload):
        push(float(i % 5))
    for seq in range(0, preload, cancel_stride):
        cancel(seq)
    _check_accounting(queue, live)

    for op, arg in ops:
        if op == "push":
            push(arg)
        elif op == "push_nan":
            with pytest.raises(SimulationError):
                queue.push(math.nan, lambda: None)
        elif op == "cancel":
            if handles:
                cancel(arg % len(handles))
        elif op == "pop":
            if live:
                expect_pop(queue.pop())
            else:
                with pytest.raises(SimulationError):
                    queue.pop()
        elif op == "pop_due":
            expect_pop(queue.pop_due(arg), until=arg)
        else:
            expected = min(live.values()) if live else None
            assert queue.peek_time() == expected
        _check_accounting(queue, live)

    # Drain: what is left comes out in (time, seq) order, FIFO among ties.
    order = []
    while not queue.is_empty():
        order.append(int(queue.pop().label))
    assert order == [seq for _, seq in sorted((t, s) for s, t in live.items())]
    assert queue.pop_due() is None and queue.peek_time() is None
    _check_accounting(queue, {})
