"""Multi-core execution plane benchmark: cohort fusion, process pool, sweep.

The benchmark's ``cohort8_homog`` workload (``bench/workloads.py``, seed
1234) timed serial, with cohort fusion, with the step pool at each
``--jobs`` count, and with both — plus a tiny grid swept through
``run_configs`` serially and with each worker count.  Schema
``repro.bench.multicore.v2``; ``cpu_count`` is recorded, since on a
single-CPU box the parallel paths can only demonstrate equality.

Every mode runs once per round, in the same order, for ``ROUNDS``
rounds, so each mode's time has a serial time taken beside it.  A mode's
``speedup`` is the median over rounds of ``serial / mode`` within the
round; ``speedup_range`` is the min and max of those ratios, and
``wall_s`` is the median wall time.  The sweep alternates ``jobs=1`` with
each worker count the same way.

``--gate`` enforces ``0.7 × min(jobs, cpu_count)`` on the median speedup
of every pool mode and of the sweep.  Each is measured against *this
invocation's* serial time: host speed drifts between invocations and
machines, so only same-run ratios mean anything.  On a single-CPU box
the floor is 0.7× (the pool may not collapse under IPC overhead); real
scaling is only demanded where real cores exist.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_multicore.py \
        [--out FILE] [--jobs 2,4] [--gate]
"""

from __future__ import annotations

import os

# One BLAS thread per process, pinned before NumPy loads its BLAS: with a
# multi-threaded BLAS in every worker the cores are oversubscribed and
# fan-out measures nothing (see ``repro.core.parallel.run_configs``).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import statistics
import sys
import time

SCHEMA = "repro.bench.multicore.v2"
SEED = 1234
ROUNDS = 5
FLOOR_FACTOR = 0.7
# The benchmark's workload definitions (repo root/bench), imported as-is.
BENCH_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "bench"
)


def _summarise(walls: dict[str, list[float]]) -> dict[str, dict]:
    """Median wall time and paired speedups against ``walls["serial"]``."""
    serial = walls["serial"]
    summary = {}
    for name, times in walls.items():
        ratios = [s / t for s, t in zip(serial, times)]
        summary[name] = {
            "wall_s": round(statistics.median(times), 4),
            "speedup": round(statistics.median(ratios), 3),
            "speedup_range": [round(min(ratios), 3), round(max(ratios), 3)],
        }
    return summary


def bench_sweep_scaling(out: dict, job_counts: tuple[int, ...]) -> None:
    from repro.core import TrainingJobConfig
    from repro.core.parallel import run_configs

    base = TrainingJobConfig(max_epochs=1, num_shards=8)
    configs = [
        base.with_pct(p, c, 2) for p in (1, 2) for c in (2, 3)
    ]
    walls: dict[str, list[float]] = {
        "serial" if jobs == 1 else f"jobs{jobs}": [] for jobs in job_counts
    }
    for _ in range(ROUNDS):
        for jobs, times in zip(job_counts, walls.values()):
            t0 = time.perf_counter()
            run_configs(configs, jobs=jobs)
            times.append(time.perf_counter() - t0)
    out["sweep_scaling"] = _summarise(walls)
    out["sweep_points"] = len(configs)


def _workload_config():
    """``cohort8_homog`` at ``SEED``, full-size inputs."""
    sys.path.insert(0, BENCH_DIR)
    from workloads import Cohort8Homog

    return Cohort8Homog(SEED, False).config


def _time_run(config) -> tuple[float, int]:
    """Wall time of one fresh run + its client-step count."""
    from repro.core import DistributedRunner

    runner = DistributedRunner(config)
    t0 = time.perf_counter()
    result = runner.run()
    return time.perf_counter() - t0, result.counters["assimilations"]


def run_multicore_benchmarks(job_counts: tuple[int, ...]) -> dict:
    """Single-run step throughput across execution-plane modes + sweep."""
    out: dict = {
        "schema": SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "job_counts": list(job_counts),
        "rounds": ROUNDS,
        "workload": f"cohort8_homog seed={SEED}",
    }
    base = _workload_config()
    modes_config = {"serial": {}, "cohort8": {"cohort_size": 8}}
    for jobs in job_counts:
        modes_config[f"jobs{jobs}"] = {"step_jobs": jobs}
        modes_config[f"cohort8_jobs{jobs}"] = {"cohort_size": 8, "step_jobs": jobs}
    configs = {
        name: dataclasses.replace(
            base, **{"cohort_size": 1, "step_jobs": 1, **overrides}
        )
        for name, overrides in modes_config.items()
    }
    walls: dict[str, list[float]] = {name: [] for name in configs}
    for _ in range(ROUNDS):
        for name, config in configs.items():
            wall_s, steps = _time_run(config)
            walls[name].append(wall_s)
    out["steps_per_run"] = steps
    modes = _summarise(walls)
    for mode in modes.values():
        mode["steps_per_s"] = round(steps / mode["wall_s"], 1)
    out["single_run"] = modes
    bench_sweep_scaling(out, (1, *job_counts))
    return out


def check_multicore_gate(
    report: dict, floor_factor: float = FLOOR_FACTOR
) -> list[str]:
    """Cores-aware scaling floor: ``floor_factor * min(jobs, cores)``.

    Every pool mode's ``speedup`` and the sweep's speedup are medians of
    ratios to the serial times measured in the same ``report``.
    ``jobs=J`` on a box with fewer than J cores cannot physically speed
    up; the floor degrades to "don't collapse" there.
    """
    cores = report.get("cpu_count") or 1
    failures = []
    modes = report.get("single_run", {})
    sweep = report.get("sweep_scaling", {})
    for jobs in report.get("job_counts", []):
        required = floor_factor * min(jobs, cores)
        measured = {
            name: modes.get(name, {}).get("speedup")
            for name in (f"jobs{jobs}", f"cohort8_jobs{jobs}")
        }
        measured[f"sweep jobs={jobs}"] = sweep.get(f"jobs{jobs}", {}).get("speedup")
        for name, speedup in measured.items():
            if speedup is not None and speedup < required:
                failures.append(
                    f"{name}: {speedup:.2f}x serial < required {required:.2f}x "
                    f"({floor_factor} x min({jobs} jobs, {cores} cores))"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument(
        "--jobs", default="2", metavar="N[,N...]",
        help="worker counts to measure (default: 2)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help=f"fail if a pool mode's or the sweep's median speedup misses "
        f"{FLOOR_FACTOR} x min(jobs, cores) of this run's serial time",
    )
    args = parser.parse_args(argv)

    job_counts = tuple(int(j) for j in args.jobs.split(","))
    report = run_multicore_benchmarks(job_counts)
    print(json.dumps(report, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if args.gate:
        failures = check_multicore_gate(report)
        if failures:
            print("MULTICORE SCALING GATE FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"multicore gate: scaling >= {FLOOR_FACTOR} x min(jobs, cores)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
