"""Fleet-scale scheduler benchmark: events/sec at 1k / 10k (/ 100k) clients.

Measures the paths the fleet-scale scheduling core optimizes: the
indexed ready queue (O(1) amortized push/pop/remove) and the ping +
server-suggested-sleep work-fetch protocol (no poke broadcasts, wake-ups
O(new work) not O(fleet)).

Each fleet size runs a real discrete-event simulation — ``Simulator`` +
``BoincServer`` + ``Scheduler`` + one ``ClientDaemon`` per client in
ping mode — with a lightweight stub executor (no NumPy training), so the
measured cost is the middleware per event, not the model math.  The
workload scales with the fleet (``2 x clients`` workunits), which makes
**events/sec the O(1)-per-event check**: if any per-event cost were
O(fleet), events/sec would collapse going from 1k to 10k clients
instead of staying flat.  The invariant auditor rides along as a trace
observer and the run only counts if every conservation law held.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_fleet.py \
        [--quick] [--full] [--out FILE] \
        [--baseline FILE] [--max-regression 2.0]
    PYTHONPATH=src python benchmarks/perf/bench_fleet.py \
        --watcher LABEL [--quick] [--out FILE] [--max-watcher-share X]

``--quick`` runs the 1k fleet only (the CI fleet-smoke job);
``--full`` adds a 100k fleet on top of the default 1k + 10k.
``--baseline`` compares events/sec against a committed report and exits
non-zero if any shared fleet size got slower than ``--max-regression``×
(note the inversion vs a timing gate: *lower* events/sec is the
regression).

``--watcher LABEL`` prices the watcher instead (ROADMAP 5b): the 1k and
10k fleets (the 1k fleet alone with ``--quick``) are timed three ways —
auditor attached, auditor detached (records still buffered and counted),
``Trace.emit`` stubbed out — and the split is stored under
``watcher[LABEL]``; with ``--out`` it is merged into the existing report,
so a before/after pair lives in one file.  ``--max-watcher-share X``
exits non-zero if any timed fleet's watcher share exceeds ``X`` (a ratio
of same-machine runs, so the gate holds across hardware).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

SCHEMA = "repro.bench.fleet.v1"

# Fleet sizes eligible for the regression gate (quick covers the first).
GATED_SIZES = (1_000, 10_000)
FULL_SIZES = (1_000, 10_000, 100_000)

# Watcher modes, most to least instrumented (see --watcher).
WATCHER_MODES = ("attached", "detached", "stubbed")

# Stub-workload shape: enough to exercise sticky affinity and the
# validator, small enough that 100k clients is middleware-bound.
VEC_SIZE = 64
SHARD_FILES = 256
SLOTS_PER_CLIENT = 2  # Tn; workunits = SLOTS_PER_CLIENT * clients
WORK_UNITS = 120.0  # ~2 min of simulated compute per subtask
RESULT_BYTES = 4096


def size_label(num_clients: int) -> str:
    return f"{num_clients // 1000}k"


def run_fleet(num_clients: int, watcher: str = "attached") -> dict:
    """Simulate one fleet to completion; returns its metrics dict.

    ``watcher`` picks how much of the observation path runs: "attached"
    (the default: every record buffered, counted and audited), "detached"
    (no observer) or "stubbed" (``Trace.emit`` does nothing at all).  Only
    the attached run can vouch for the conservation laws.
    """
    from repro.boinc import (
        BoincServer,
        CallbackAssimilator,
        ClientDaemon,
        ParameterValidator,
        SchedulerConfig,
        ServerFile,
        Workunit,
    )
    from repro.obs.audit import InvariantAuditor
    from repro.simulation.engine import Simulator
    from repro.simulation.resources import InstanceSpec
    from repro.simulation.tracing import Trace

    sim = Simulator()
    # Bounded record buffer (100k clients would hold millions of records);
    # the auditor is an observer, so it still sees every record.
    trace = Trace(max_records=10_000)
    auditor = InvariantAuditor()
    if watcher == "attached":
        trace.attach(auditor)

    config = SchedulerConfig(
        timeout_s=1e8,  # effectively disabled: the bench measures the
        max_attempts=1,  # steady path, not the reissue machinery
        work_fetch="ping",
    )
    server = BoincServer(
        sim,
        assimilator=CallbackAssimilator(lambda wu, payload: None),
        validator=ParameterValidator(expected_size=VEC_SIZE),
        scheduler_config=config,
        trace=trace,
    )

    server.catalog.publish(
        ServerFile("model.spec", b"spec", raw_size=2048, sticky=True)
    )
    server.catalog.publish(
        ServerFile("params:v0", np.zeros(VEC_SIZE), raw_size=VEC_SIZE * 8)
    )
    num_shard_files = min(SHARD_FILES, num_clients)
    for s in range(num_shard_files):
        server.catalog.publish(
            ServerFile(f"shard{s:05d}.npy", b"x", raw_size=4096, sticky=True)
        )

    num_workunits = SLOTS_PER_CLIENT * num_clients
    workunits = [
        Workunit(
            wu_id=f"bench:e0:s{i}",
            job_id="bench",
            epoch=0,
            shard_index=i,
            input_files=(
                "model.spec",
                "params:v0",
                f"shard{i % num_shard_files:05d}.npy",
            ),
            work_units=WORK_UNITS,
            timeout_s=config.timeout_s,
            max_attempts=config.max_attempts,
        )
        for i in range(num_workunits)
    ]
    # Publish before any client attaches: nobody to wake, no pokes — the
    # boot pings discover the queue themselves.
    server.publish_workunits(workunits)

    spec = InstanceSpec(
        name="bench-core",
        vcpus=SLOTS_PER_CLIENT,
        clock_ghz=2.4,
        ram_gb=4.0,
        network_gbps=1.0,
    )
    payload = np.zeros(VEC_SIZE)

    def executor(wu, payloads):
        return payload, RESULT_BYTES

    for i in range(num_clients):
        client = ClientDaemon(
            client_id=f"c{i:06d}",
            sim=sim,
            spec=spec,
            scheduler=server.scheduler,
            web=server.web,
            executor=executor,
            max_concurrent=SLOTS_PER_CLIENT,
            trace=trace,
        )
        server.attach_client(client)

    scheduler = server.scheduler
    real_emit = Trace.emit
    if watcher == "stubbed":
        Trace.emit = lambda self, time, kind, **fields: None
    # The measured loop runs with the cyclic GC paused: collection pauses
    # scale with the heap (i.e. the fleet), which would masquerade as
    # per-event scheduler cost.  The object graph here is effectively
    # acyclic, so nothing accumulates while it's off.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        while not scheduler.all_terminal():
            if not sim.step():
                raise RuntimeError(
                    f"fleet simulation stalled: terminal="
                    f"{scheduler.terminal_count()}/{num_workunits}"
                )
        wall_s = time.perf_counter() - t0
    finally:
        gc.enable()
        Trace.emit = real_emit

    completed = sum(c.subtasks_completed for c in server.clients.values())
    if completed < num_workunits:
        raise RuntimeError(
            f"fleet finished with {completed}/{num_workunits} subtasks"
        )
    if watcher == "attached":
        auditor.verify()  # raises InvariantViolation on any broken law

    return {
        "clients": num_clients,
        "workunits": num_workunits,
        "completed": completed,
        "watcher": watcher,
        "wall_s": round(wall_s, 4),
        "sim_events": sim.events_processed,
        "events_per_sec": round(sim.events_processed / wall_s, 1),
        "sim_time_s": round(sim.now, 3),
        "pings": scheduler.pings,
        "sleep_hints": int(auditor.kind_counts.get("sched.sleep_hint", 0)),
        "audit_checks": auditor.checks,
        "audit_records": auditor.records_seen,
    }


def run_benchmarks(sizes: tuple[int, ...]) -> dict:
    out: dict = {
        "schema": SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "fleets": {},
    }
    for num_clients in sizes:
        label = size_label(num_clients)
        print(f"fleet {label}: simulating...", file=sys.stderr)
        # Best of two runs (one for the 100k fleet — it is long enough to
        # average out scheduler noise by itself): on a shared box the
        # minimum wall time is the estimator least polluted by contention.
        repeats = 1 if num_clients >= 100_000 else 2
        fleet = max(
            (run_fleet(num_clients) for _ in range(repeats)),
            key=lambda f: f["events_per_sec"],
        )
        out["fleets"][label] = fleet
        out[f"events_per_sec_{label}"] = fleet["events_per_sec"]
        print(
            f"fleet {label}: {fleet['sim_events']} events in "
            f"{fleet['wall_s']:.2f}s = {fleet['events_per_sec']:.0f} ev/s, "
            f"{fleet['pings']} pings, audit ok",
            file=sys.stderr,
        )
    # O(1)-per-event check: events/sec flat (±20%) from 1k to 10k.
    eps_1k = out.get("events_per_sec_1k")
    eps_10k = out.get("events_per_sec_10k")
    if eps_1k and eps_10k:
        out["flatness_1k_10k"] = round(eps_10k / eps_1k, 3)
    return out


def run_watcher_split(sizes: tuple[int, ...], rounds: int = 3) -> dict:
    """Time each fleet attached / detached / stubbed; price the watcher.

    The three modes run round-robin (so drift hits all of them alike) and
    each keeps its minimum wall time.  ``auditor_share`` and
    ``trace_share`` are fractions of the attached run: what detaching the
    auditor saves, and what stubbing ``emit`` saves on top of that.
    """
    out: dict = {"cpu_count": os.cpu_count() or 1, "rounds": rounds, "fleets": {}}
    for num_clients in sizes:
        label = size_label(num_clients)
        best: dict[str, dict] = {}
        for _ in range(rounds):
            for mode in WATCHER_MODES:
                fleet = run_fleet(num_clients, watcher=mode)
                if mode not in best or fleet["wall_s"] < best[mode]["wall_s"]:
                    best[mode] = fleet
        events = {fleet["sim_events"] for fleet in best.values()}
        if len(events) != 1:
            raise RuntimeError(f"watcher modes disagree on event count: {events}")
        attached, detached, stubbed = (best[m]["wall_s"] for m in WATCHER_MODES)
        out["fleets"][label] = {
            "sim_events": events.pop(),
            "audit_checks": best["attached"]["audit_checks"],
            "audit_records": best["attached"]["audit_records"],
            "attached_s": attached,
            "detached_s": detached,
            "stubbed_s": stubbed,
            "auditor_share": round((attached - detached) / attached, 3),
            "trace_share": round((detached - stubbed) / attached, 3),
            "watcher_share": round((attached - stubbed) / attached, 3),
        }
        print(
            f"fleet {label}: attached {attached:.2f}s, detached {detached:.2f}s, "
            f"emit stubbed {stubbed:.2f}s -> watcher "
            f"{100 * out['fleets'][label]['watcher_share']:.0f}% of the run",
            file=sys.stderr,
        )
    return out


def check_regression(report: dict, baseline: dict, max_ratio: float) -> list[str]:
    """Compare events/sec against a committed report; inverted gate —
    a *drop* in throughput beyond ``max_ratio``× is the regression."""
    failures = []
    for num_clients in GATED_SIZES:
        key = f"events_per_sec_{size_label(num_clients)}"
        ref = baseline.get(key)
        now = report.get(key)
        if not ref or not now:
            continue
        ratio = ref / now
        if ratio > max_ratio:
            failures.append(
                f"{key}: {now:.0f} ev/s vs baseline {ref:.0f} ev/s "
                f"({ratio:.2f}x slower > {max_ratio:.2f}x allowed)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="1k fleet only (CI fleet-smoke; also with --watcher)"
    )
    parser.add_argument(
        "--full", action="store_true", help="add the 100k fleet"
    )
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="committed report to regression-check events/sec against",
    )
    parser.add_argument("--max-regression", type=float, default=2.0, metavar="X")
    parser.add_argument(
        "--watcher", default=None, metavar="LABEL",
        help="time 1k + 10k (1k with --quick) attached/detached/emit-stubbed; "
        "store the split under watcher[LABEL] (merged into --out if it exists)",
    )
    parser.add_argument(
        "--max-watcher-share", type=float, default=None, metavar="X",
        help="with --watcher: fail if a fleet's watcher share exceeds X",
    )
    args = parser.parse_args(argv)
    if args.max_watcher_share is not None and not args.watcher:
        parser.error("--max-watcher-share needs --watcher")

    if args.watcher:
        split = run_watcher_split(GATED_SIZES[:1] if args.quick else GATED_SIZES)
        report = {"schema": SCHEMA}
        if args.out and os.path.exists(args.out):
            with open(args.out) as fh:
                report = json.load(fh)
        report.setdefault("watcher", {})[args.watcher] = split
        print(json.dumps({"watcher": {args.watcher: split}}, indent=1))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
            print(f"watcher split merged into {args.out}", file=sys.stderr)
        if args.max_watcher_share is not None:
            over = [
                f"{label}: watcher share {fleet['watcher_share']:.3f} > "
                f"{args.max_watcher_share:.3f}"
                for label, fleet in split["fleets"].items()
                if fleet["watcher_share"] > args.max_watcher_share
            ]
            if over:
                print("WATCHER TOO DEAR:", file=sys.stderr)
                for line in over:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print(
                "watcher gate: share within "
                f"{args.max_watcher_share:.2f} of the run",
                file=sys.stderr,
            )
        return 0

    if args.quick:
        sizes: tuple[int, ...] = (GATED_SIZES[0],)
    elif args.full:
        sizes = FULL_SIZES
    else:
        sizes = GATED_SIZES
    report = run_benchmarks(sizes)
    print(json.dumps(report, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if args.baseline:
        with open(args.baseline) as fh:
            failures = check_regression(report, json.load(fh), args.max_regression)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            "fleet gate: no throughput regression beyond "
            f"{args.max_regression:.1f}x",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
