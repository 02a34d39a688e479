"""Unit tests for the scheduler's ready queue.

The indexed queue and the test-local list-and-scan reference must honour
the same pick contract (earliest eligible sticky match, else earliest
eligible, else None); the indexed queue additionally has lazy stale-entry
machinery worth exercising directly.  Equivalence at the full-scheduler
level lives in test_scheduler_equivalence.py.
"""

from __future__ import annotations

import random

import pytest

from repro.boinc import IndexedReadyQueue

from .reference_queue import LegacyListQueue

IMPLS = (IndexedReadyQueue, LegacyListQueue)


def shard_of_factory(mapping):
    return lambda wu_id: mapping[wu_id]


def always(_wu_id: str) -> bool:
    return True


@pytest.mark.parametrize("impl", IMPLS)
class TestContract:
    def test_fifo_without_sticky(self, impl):
        q = impl()
        shards = {}
        for i in range(4):
            shards[f"w{i}"] = f"s{i}"
            q.push(f"w{i}", f"s{i}")
        order = [q.pick((), shard_of_factory(shards), always) for _ in range(4)]
        assert order == ["w0", "w1", "w2", "w3"]
        assert q.pick((), shard_of_factory(shards), always) is None

    def test_sticky_match_wins_over_fifo(self, impl):
        q = impl()
        shards = {"w0": "s0", "w1": "s1", "w2": "s2"}
        for wu_id, shard in shards.items():
            q.push(wu_id, shard)
        assert q.pick({"s2"}, shard_of_factory(shards), always) == "w2"
        # The sticky unit is gone; FIFO resumes from the head.
        assert q.pick({"s2"}, shard_of_factory(shards), always) == "w0"

    def test_earliest_sticky_match_among_several(self, impl):
        q = impl()
        shards = {"w0": "sA", "w1": "sB", "w2": "sA", "w3": "sB"}
        for wu_id, shard in shards.items():
            q.push(wu_id, shard)
        # Both sA and sB are cached: earliest enqueue (w0) must win
        # regardless of sticky-set iteration order.
        assert q.pick({"sB", "sA"}, shard_of_factory(shards), always) == "w0"
        assert q.pick({"sB", "sA"}, shard_of_factory(shards), always) == "w1"

    def test_ineligible_entries_are_skipped_but_stay(self, impl):
        q = impl()
        shards = {"w0": "s0", "w1": "s1"}
        for wu_id, shard in shards.items():
            q.push(wu_id, shard)
        picked = q.pick((), shard_of_factory(shards), lambda w: w != "w0")
        assert picked == "w1"
        assert "w0" in q and len(q) == 1
        # w0 becomes eligible later (e.g. the host's replica bar clears).
        assert q.pick((), shard_of_factory(shards), always) == "w0"

    def test_nothing_eligible_returns_none(self, impl):
        q = impl()
        q.push("w0", "s0")
        assert q.pick((), lambda w: "s0", lambda w: False) is None
        assert len(q) == 1

    def test_remove(self, impl):
        q = impl()
        q.push("w0", "s0")
        q.push("w1", "s1")
        assert q.remove("w0") is True
        assert q.remove("w0") is False  # already gone
        assert "w0" not in q
        assert q.snapshot() == ["w1"]

    def test_requeue_moves_to_tail(self, impl):
        q = impl()
        shards = {"w0": "s0", "w1": "s1"}
        q.push("w0", "s0")
        q.push("w1", "s1")
        # Reissue path: the unit leaves (granted) and comes back later.
        assert q.pick((), shard_of_factory(shards), always) == "w0"
        q.push("w0", "s0")
        assert q.snapshot() == ["w1", "w0"]
        assert q.pick((), shard_of_factory(shards), always) == "w1"
        assert q.pick((), shard_of_factory(shards), always) == "w0"


class TestIndexedInternals:
    def test_stale_entries_trimmed_lazily(self):
        q = IndexedReadyQueue()
        for i in range(6):
            q.push(f"w{i}", "sA")  # one shared bucket
        for i in range(5):
            q.remove(f"w{i}")
        assert len(q) == 1
        # The five stale entries still sit in the deques until a pick
        # walks over them.
        assert len(q._fifo) == 6
        assert q.pick({"sA"}, lambda w: "sA", always) == "w5"
        assert len(q) == 0
        assert q.pick({"sA"}, lambda w: "sA", always) is None

    def test_remove_then_repush_invalidates_old_entry(self):
        q = IndexedReadyQueue()
        q.push("w0", "sA")
        q.push("w1", "sA")
        q.remove("w0")
        q.push("w0", "sA")  # new seq: must now sit behind w1
        assert q.snapshot() == ["w1", "w0"]
        assert q.pick((), lambda w: "sA", always) == "w1"
        assert q.pick((), lambda w: "sA", always) == "w0"

    def test_sticky_seq_prune_is_order_independent(self):
        # min-seq across buckets must win even when the iteration order
        # of the sticky set would visit the younger bucket first.
        q = IndexedReadyQueue()
        q.push("old", "sA")
        q.push("young", "sB")
        for sticky in ({"sA", "sB"}, {"sB", "sA"}, ["sB", "sA"], ["sA", "sB"]):
            got = q.pick(sticky, lambda w: "sA" if w == "old" else "sB", always)
            assert got == "old"
            # Rebuild the old-before-young ordering for the next round.
            q.remove("young")
            q.push("old", "sA")
            q.push("young", "sB")


def test_randomized_equivalence_against_legacy():
    """Drive both queues through the same random op stream; every pick
    and every snapshot must agree (the legacy queue is the oracle)."""
    rng = random.Random(0xFEE7)
    indexed, legacy = IndexedReadyQueue(), LegacyListQueue()
    shards: dict[str, str] = {}
    next_id = 0
    for _ in range(2000):
        op = rng.random()
        if op < 0.45 or not shards:
            wu_id = f"w{next_id}"
            next_id += 1
            shard = f"s{rng.randrange(8)}"
            shards[wu_id] = shard
            indexed.push(wu_id, shard)
            legacy.push(wu_id, shard)
        elif op < 0.6:
            victim = rng.choice(sorted(shards))
            assert indexed.remove(victim) == legacy.remove(victim)
        else:
            sticky = {f"s{rng.randrange(8)}" for _ in range(rng.randrange(3))}
            blocked = {w for w in shards if rng.random() < 0.2}
            eligible = lambda w, b=blocked: w not in b
            shard_of = shard_of_factory(shards)
            assert indexed.pick(sticky, shard_of, eligible) == legacy.pick(
                sticky, shard_of, eligible
            )
        assert len(indexed) == len(legacy)
        assert indexed.snapshot() == legacy.snapshot()
