"""Reference model of the scheduler's ready queue: a list and a full scan.

This is the scheduler's original ``_unsent`` list — O(n) per grant and per
mid-queue removal, and obviously right.  ``IndexedReadyQueue`` is held to
it at three levels: a random op stream (``test_ready_queue.py``), whole
schedulers under Hypothesis action sequences
(``test_scheduler_equivalence.py``) and a whole runner's digest
(``tests/core/test_determinism.py``).
"""

from __future__ import annotations


class LegacyListQueue:
    def __init__(self) -> None:
        self._unsent: list[str] = []

    def push(self, wu_id: str, shard_file: str) -> None:
        self._unsent.append(wu_id)

    def remove(self, wu_id: str) -> bool:
        try:
            self._unsent.remove(wu_id)
        except ValueError:
            return False
        return True

    def pick(self, sticky_names, shard_of, eligible):
        eligible_positions = [
            pos for pos, wu_id in enumerate(self._unsent) if eligible(wu_id)
        ]
        if not eligible_positions:
            return None
        if sticky_names:
            for pos in eligible_positions:
                wu_id = self._unsent[pos]
                if shard_of(wu_id) in sticky_names:
                    return self._unsent.pop(pos)
        return self._unsent.pop(eligible_positions[0])

    def snapshot(self) -> list[str]:
        return list(self._unsent)

    def __contains__(self, wu_id: str) -> bool:
        return wu_id in self._unsent

    def __len__(self) -> int:
        return len(self._unsent)
