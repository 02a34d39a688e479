"""Randomized scheduler stress: invariants under arbitrary event orders.

Hypothesis drives a random interleaving of client requests, result
reports, client failures and time advances, then checks the scheduler's
conservation laws:

* a workunit is IN_PROGRESS on at most one client at a time;
* no workunit ever exceeds its attempt budget;
* every workunit is always in exactly one of: unsent queue, some client's
  assigned set, VALIDATING, or a terminal state;
* counters are consistent (reissues ≤ total failed attempts).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc import Scheduler, SchedulerConfig, Workunit, WorkunitState
from repro.simulation import Simulator

MAX_ATTEMPTS = 4
NUM_WUS = 6
CLIENTS = ["c0", "c1", "c2"]


def make_wus() -> list[Workunit]:
    return [
        Workunit(
            wu_id=f"wu{i}",
            job_id="j",
            epoch=0,
            shard_index=i,
            input_files=("m", "p", f"s{i}"),
            work_units=1.0,
            timeout_s=50.0,
            max_attempts=MAX_ATTEMPTS,
        )
        for i in range(NUM_WUS)
    ]


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.sampled_from(CLIENTS), st.integers(1, 3)),
        st.tuples(st.just("report"), st.sampled_from(CLIENTS), st.integers(0, NUM_WUS - 1)),
        st.tuples(st.just("fail"), st.sampled_from(CLIENTS), st.just(0)),
        st.tuples(st.just("advance"), st.just(""), st.integers(1, 80)),
    ),
    min_size=1,
    max_size=40,
)


def check_invariants(sched: Scheduler, wus: list[Workunit]) -> None:
    assigned_owners: dict[str, list[str]] = {}
    for client_id in CLIENTS:
        record = sched.register_client(client_id)
        for wu_id in record.assigned:
            assigned_owners.setdefault(wu_id, []).append(client_id)

    for wu in wus:
        # Attempt budget respected.
        assert wu.num_attempts <= MAX_ATTEMPTS
        owners = assigned_owners.get(wu.wu_id, [])
        if wu.state is WorkunitState.IN_PROGRESS:
            # Exactly one owner, matching the current attempt.
            assert owners == [wu.current_attempt.client_id]
        else:
            assert owners == []
        if wu.state is WorkunitState.ERROR:
            assert wu.num_attempts == MAX_ATTEMPTS

    # The unsent queue holds only UNSENT workunits, each at most once.
    queue = sched.unsent_ids()
    assert len(queue) == len(set(queue))
    assert len(queue) == sched.unsent_count()
    for wu_id in queue:
        assert sched.get_workunit(wu_id).state is WorkunitState.UNSENT

    # Incremental counters agree with a full rescan.
    assert sched.in_progress_count() == sum(
        1 for wu in wus if wu.state is WorkunitState.IN_PROGRESS
    )
    assert sched.terminal_count() == sum(1 for wu in wus if wu.is_terminal)
    assert sched.all_terminal() == all(wu.is_terminal for wu in wus)


@settings(max_examples=60, deadline=None)
@given(actions=ACTIONS)
def test_property_scheduler_invariants_hold(actions):
    sim = Simulator()
    sched = Scheduler(
        sim,
        SchedulerConfig(timeout_s=50.0, max_attempts=MAX_ATTEMPTS),
    )
    wus = make_wus()
    sched.add_workunits(wus)

    for kind, client, arg in actions:
        if kind == "request":
            sched.request_work(client, set(), arg)
        elif kind == "report":
            sched.report_result(f"wu{arg}", client)  # may be stale; must not crash
        elif kind == "fail":
            sched.report_client_failure(client)
        elif kind == "advance":
            sim.run(until=sim.now + arg)
        check_invariants(sched, wus)

    # Drain all pending timeouts and re-check.
    sim.run()
    check_invariants(sched, wus)
    assert sched.reissues <= sched.timeouts + sum(
        sched.register_client(c).failed for c in CLIENTS
    )
