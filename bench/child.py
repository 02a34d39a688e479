"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this file once per repeat, one at a time.  A fresh
process per repeat is part of the protocol, not a convenience:
``repro.nn.serialization.compressed_size`` keeps a process-wide memo, so a
second same-seed run in one process is served from it and measures a cost
no user pays (see README, "cold versus warm").

Prints exactly one JSON object on the last line of standard output.
"""

from time import perf_counter

_T_ENTRY = perf_counter()  # set-up time counts from here: imports included

import os

# One BLAS thread, pinned before NumPy loads its BLAS: the benchmark is
# one process on one core; the multi-core curve needs >= 4 real cores and
# is deliberately not a workload here.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import pathlib
import resource
import statistics
import sys
import traceback

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
ROOT_SPAN = "core.runner.run"


def _percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def layer_metrics(tracer, setup_totals, run_totals, wall_s, events) -> dict:
    """Per-layer span metrics: ``<span>_s`` is self time summed over the
    timed region's calls, ``<span>_calls`` their count."""
    self_s, calls = run_totals
    metrics: dict[str, float] = {}
    for name, seconds in self_s.items():
        if name != ROOT_SPAN:
            metrics[f"{name}_s"] = seconds
            metrics[f"{name}_calls"] = calls[name]
    unattributed = self_s.get(ROOT_SPAN, 0.0)
    metrics["core.runner.unattributed_s"] = unattributed
    metrics["core.runner.unattributed_share"] = unattributed / wall_s
    metrics["bench.tiles_sum_s"] = sum(self_s.values())
    metrics["data.build_s"] = setup_totals[0].get("data.build", 0.0)

    steps_ms = [1e3 * d for d in tracer.durations("core.steps.local_step")]
    metrics["core.steps.local_step_ms_p50"] = _percentile(steps_ms, 50)
    metrics["core.steps.local_step_ms_p95"] = _percentile(steps_ms, 95)

    encode_s = self_s.get("nn.codecs.encode", 0.0)
    raw = tracer.tallies.get("codec_raw_bytes", 0.0)
    wire = tracer.tallies.get("codec_wire_bytes", 0.0)
    metrics["nn.codecs.encode_mb_per_s"] = raw / 1e6 / encode_s if encode_s else 0.0
    metrics["nn.codecs.wire_ratio"] = raw / wire if wire else 0.0

    requests = calls.get("boinc.scheduler.request", 0)
    metrics["boinc.scheduler.us_per_request"] = (
        1e6 * self_s.get("boinc.scheduler.request", 0.0) / requests if requests else 0.0
    )
    metrics["simulation.engine.us_per_event"] = (
        1e6 * self_s.get("simulation.engine.dispatch_self", 0.0) / events
        if events
        else 0.0
    )
    return metrics


def blas_name(np) -> str:
    """BLAS NumPy was built against, for the machine-facts block."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older NumPy: no dict mode
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None, help="traced run: span file")
    parser.add_argument(
        "--setup-only", action="store_true", help="time the set-up, skip the run"
    )
    args = parser.parse_args()

    if not (SRC_DIR / "repro").is_dir():
        print(f"no repro sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    import numpy as np

    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.tiny)
        print(json.dumps({"setup_s": perf_counter() - _T_ENTRY}))
        return 0

    traced = args.trace_out is not None
    tracer = None
    setup_totals = run_totals = None
    error = None
    workload = None
    try:
        if traced:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            with tracer.root("bench.setup"):
                workload = WORKLOADS[args.workload](args.seed, args.tiny)
            setup_totals = tracer.take_totals()
        else:
            workload = WORKLOADS[args.workload](args.seed, args.tiny)

        t0 = perf_counter()
        try:
            if traced:
                with tracer.root(ROOT_SPAN):
                    workload.run()
            else:
                workload.run()
        except Exception:  # boundary: a failed run is a reported failure
            error = traceback.format_exc()
        wall_s = perf_counter() - t0
        if traced:
            run_totals = tracer.take_totals()
    finally:
        if tracer is not None:
            tracer.restore()

    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "setup_s": t0 - _T_ENTRY,
        "wall_s": wall_s,
        "error": error,
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": int(BLAS_THREADS),
    }
    if error is None:
        outcome = workload.outcome()
        report.update(
            sim_time_s=outcome.sim_time_s,
            final_val_acc=outcome.final_val_acc,
            wire_mb=outcome.wire_mb,
            attempted=outcome.attempted,
            failed=outcome.failed,
            digest=outcome.digest,
            problems=outcome.problems,
        )
        if traced:
            layers = layer_metrics(
                tracer,
                setup_totals,
                run_totals,
                wall_s,
                outcome.layer_counts.get("simulation.engine.events", 0),
            )
            layers.update(outcome.layer_counts)
            t1 = perf_counter()
            layers["core.checkpoint.bytes"] = workload.checkpoint_roundtrip()
            layers["core.checkpoint.roundtrip_s"] = perf_counter() - t1
            report["layers"] = layers
            tracer.write_jsonl(args.trace_out)
            report["spans"] = len(tracer.spans)
    # ru_maxrss is KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
