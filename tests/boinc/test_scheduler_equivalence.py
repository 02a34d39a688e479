"""Property test: the scheduler behaves identically on the reference queue.

Satellite of the fleet-scale scheduling core: Hypothesis drives random
action sequences — work requests with random sticky sets, time advances
past deadlines, client failures, validator rejections, server-side
cancellations — through two *complete* ``Scheduler`` instances (each
with its own ``Simulator``), one as built and one whose ready queue is
swapped for the list-and-scan reference model.  After every action and at
the end, the two must agree on the grant order, the reissue/timeout
counters, the queue snapshot, and each workunit's terminal state.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boinc import Scheduler, SchedulerConfig, Workunit, WorkunitState
from repro.simulation import Simulator

from .reference_queue import LegacyListQueue

NUM_WUS = 12
NUM_CLIENTS = 4
SHARD_FILES = 4
TIMEOUT_S = 50.0


def build(reference_queue: bool) -> Scheduler:
    sim = Simulator()
    sched = Scheduler(
        sim,
        SchedulerConfig(timeout_s=TIMEOUT_S, max_attempts=3),
    )
    if reference_queue:
        sched._ready = LegacyListQueue()  # still empty: nothing enqueued yet
    sched.add_workunits(
        [
            Workunit(
                wu_id=f"job:e0:s{i}",
                job_id="job",
                epoch=0,
                shard_index=i,
                input_files=("model", "params", f"shard-{i % SHARD_FILES}"),
                work_units=10.0,
                timeout_s=TIMEOUT_S,
                max_attempts=3,
            )
            for i in range(NUM_WUS)
        ]
    )
    return sched


# One action = (kind, client index, sticky-shard mask / payload bits).
actions = st.lists(
    st.tuples(
        st.sampled_from(
            ["request", "request", "request", "report", "invalid", "advance",
             "fail_client", "cancel"]
        ),
        st.integers(min_value=0, max_value=NUM_CLIENTS - 1),
        st.integers(min_value=0, max_value=2**SHARD_FILES - 1),
    ),
    min_size=1,
    max_size=60,
)


def apply_action(sched: Scheduler, action, in_flight: dict) -> list:
    """Run one action against one scheduler; returns the observable log."""
    kind, client_idx, bits = action
    client_id = f"c{client_idx}"
    log: list = []
    if kind == "request":
        sticky = {
            f"shard-{s}" for s in range(SHARD_FILES) if bits & (1 << s)
        }
        granted = sched.request_work(client_id, sticky, max_units=(bits % 3) + 1)
        for wu in granted:
            in_flight.setdefault(client_id, []).append(wu.wu_id)
        log.append(("granted", client_id, [wu.wu_id for wu in granted]))
    elif kind == "report":
        queue = in_flight.get(client_id, [])
        if queue:
            wu_id = queue.pop(bits % len(queue))
            accepted = sched.report_result(wu_id, client_id)
            log.append(("reported", wu_id, accepted))
            if accepted:
                wu = sched.get_workunit(wu_id)
                wu.mark_valid(sched.sim.now, result=None)
    elif kind == "invalid":
        queue = in_flight.get(client_id, [])
        if queue:
            wu_id = queue.pop(bits % len(queue))
            if sched.report_result(wu_id, client_id):
                log.append(("invalid", wu_id, sched.requeue_after_invalid(wu_id)))
    elif kind == "advance":
        # Advance far enough to fire any outstanding deadline.
        sched.sim.run(until=sched.sim.now + (TIMEOUT_S * ((bits % 2) + 1)))
        for queue in in_flight.values():
            queue.clear()  # timed-out units are no longer this client's
        log.append(("advanced", round(sched.sim.now, 6)))
    elif kind == "fail_client":
        requeued = sched.report_client_failure(client_id)
        in_flight.pop(client_id, None)
        log.append(("failed", client_id, [wu.wu_id for wu in requeued]))
    elif kind == "cancel":
        wu_id = f"job:e0:s{bits % NUM_WUS}"
        wu = sched.get_workunit(wu_id)
        if not wu.is_terminal and wu.state is not WorkunitState.VALIDATING:
            victim = sched.cancel_workunit(wu_id)
            for queue in in_flight.values():
                if wu_id in queue:
                    queue.remove(wu_id)
            log.append(("cancelled", wu_id, victim))
    return log


def observables(sched: Scheduler) -> dict:
    return {
        "queue": sched.unsent_ids(),
        "in_progress": sched.in_progress_count(),
        "terminal": sched.terminal_count(),
        "timeouts": sched.timeouts,
        "reissues": sched.reissues,
        "cancellations": sched.cancellations,
        "states": {
            wu_id: wu.state.value for wu_id, wu in sched._workunits.items()
        },
        "attempts": {
            wu_id: [(a.client_id, a.outcome) for a in wu.attempts]
            for wu_id, wu in sched._workunits.items()
        },
        "now": sched.sim.now,
    }


@settings(max_examples=200, deadline=None)
@given(actions=actions)
def test_indexed_scheduler_equivalent_to_legacy(actions):
    legacy = build(reference_queue=True)
    indexed = build(reference_queue=False)
    flight_legacy: dict = {}
    flight_indexed: dict = {}
    for action in actions:
        log_legacy = apply_action(legacy, action, flight_legacy)
        log_indexed = apply_action(indexed, action, flight_indexed)
        assert log_legacy == log_indexed, f"diverged on {action}"
        assert observables(legacy) == observables(indexed), (
            f"state diverged after {action}"
        )
