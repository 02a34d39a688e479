"""The scheduler's ready queue of unsent workunits.

A Python list plus a full scan per request is O(n) per grant and O(n) per
mid-queue removal, which caps the fleet size the simulation can carry.
:class:`IndexedReadyQueue` is the fleet-scale structure: a monotonic
sequence number per enqueue, a live-membership dict (O(1) contains /
remove), an append-only FIFO deque, and a per-shard-file affinity index so
sticky matching is a dict lookup instead of a scan.  Stale deque entries
(removed or re-enqueued ids) are discarded lazily when they surface at a
deque head, so amortized cost per enqueue/pick is O(1) plus the length of
the *ineligible* prefix actually inspected.

The pick contract: among *eligible* entries (eligibility is evaluated
lazily at pick time against the requesting host), prefer the
earliest-enqueued one whose shard file the host already caches; otherwise
the earliest-enqueued eligible entry; None when no entry is eligible.  The
list-and-scan reference model this contract is checked against lives in
``tests/boinc/reference_queue.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

__all__ = ["IndexedReadyQueue"]


class IndexedReadyQueue:
    """Seq-stamped FIFO + per-shard affinity buckets, lazy stale cleanup.

    Every enqueue stamps the id with a fresh sequence number and appends
    ``(seq, wu_id)`` to both the global FIFO deque and the id's shard
    bucket.  ``self._live`` maps each queued id to its *current* seq, so
    membership/removal are dict ops and any deque entry whose seq no
    longer matches is stale garbage, dropped when it reaches a deque
    head.  FIFO order is "by latest enqueue": a requeued id moves to the
    tail.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._live: dict[str, int] = {}  # wu_id -> current seq
        self._fifo: deque[tuple[int, str]] = deque()
        self._buckets: dict[str, deque[tuple[int, str]]] = {}

    def push(self, wu_id: str, shard_file: str) -> None:
        self._seq += 1
        self._live[wu_id] = self._seq
        entry = (self._seq, wu_id)
        self._fifo.append(entry)
        self._buckets.setdefault(shard_file, deque()).append(entry)

    def remove(self, wu_id: str) -> bool:
        """Drop ``wu_id`` from the queue; True if it was present."""
        # Deque entries for the id become stale and are purged lazily.
        return self._live.pop(wu_id, None) is not None

    def _trim(self, dq: deque) -> None:
        """Drop stale entries sitting at the head of a deque."""
        live = self._live
        while dq and live.get(dq[0][1]) != dq[0][0]:
            dq.popleft()

    def _first_eligible(
        self, dq: deque, eligible: Callable[[str], bool], stop_seq: int | None
    ) -> tuple[int, str] | None:
        """Earliest live+eligible entry in ``dq`` with seq < stop_seq.

        Only head stales are physically removed; mid-deque stales are
        skipped (they will be removed once everything before them is
        gone).
        """
        self._trim(dq)
        live = self._live
        for seq, wu_id in dq:
            if stop_seq is not None and seq >= stop_seq:
                return None  # entries are seq-ascending: nothing better deeper
            if live.get(wu_id) != seq:
                continue  # stale mid-deque entry
            if eligible(wu_id):
                return (seq, wu_id)
        return None

    def pick(
        self,
        sticky_names: Iterable[str],
        shard_of: Callable[[str], str],
        eligible: Callable[[str], bool],
    ) -> str | None:
        """Pop and return the next workunit for a host, or None.

        ``sticky_names`` is the host's cached-file set (empty disables
        affinity); ``eligible`` is the host's lazy eligibility predicate.
        """
        best: tuple[int, str] | None = None
        if sticky_names:
            for name in sticky_names:
                bucket = self._buckets.get(name)
                if not bucket:
                    continue
                stop = best[0] if best is not None else None
                found = self._first_eligible(bucket, eligible, stop)
                if found is not None and (best is None or found[0] < best[0]):
                    best = found
        if best is None:
            best = self._first_eligible(self._fifo, eligible, None)
        if best is None:
            return None
        del self._live[best[1]]
        return best[1]

    def snapshot(self) -> list[str]:
        """Queued ids in FIFO order (introspection/tests only)."""
        live = self._live
        return [wu_id for seq, wu_id in self._fifo if live.get(wu_id) == seq]

    def __contains__(self, wu_id: str) -> bool:
        return wu_id in self._live

    def __len__(self) -> int:
        return len(self._live)
