"""Hot-path microbenchmarks: pack/unpack, rule apply, train step, sweep scaling.

Measures the paths the zero-copy parameter plane and the workspace arena
optimize, on a paper-sized workload (~5M scalars, the Fig. 2 model scale):

* ``pack`` / ``unpack`` / ``roundtrip`` — the StateLayout codec moving a
  full parameter copy between dict-of-arrays and the flat vector the
  parameter server assimilates;
* ``apply_<rule>`` — one server-side update (Eq. 1 and the rest of the
  ASGD family) on a 5M-scalar vector;
* ``grad_accumulate`` — folding one batch's named gradients into the
  flat accumulator;
* ``fig2_p1c3t2`` — an end-to-end P1C3T2 training job (epochs recorded);
* ``sweep_scaling`` — the same tiny grid swept serially and with
  ``jobs=2`` / ``jobs=4`` worker processes (``cpu_count`` is recorded:
  on a single-CPU box the parallel path can only demonstrate equality,
  not speedup).

``--multicore`` switches to the execution-plane benchmark instead
(schema ``repro.bench.multicore.v1``): one homogeneous-fleet run timed
serial, with cohort fusion, with the shared-plane process pool at each
``--jobs`` count, and with both — plus the ``run_configs`` sweep sweep.
``--gate`` then enforces the **cores-aware** scaling floor
``0.8 × min(jobs, cpu_count)``: the sweep speedup must reach it, and every
pool mode's ``steps_per_s`` must reach that multiple of the *committed*
serial rate (``BENCH_multicore.json``, or ``--baseline FILE``) — an
absolute yardstick, because a faster serial step would otherwise raise
the bar for the pool by being the denominator.  On a single-CPU box the
floor is 0.8× (the pool may not collapse under IPC overhead); real
scaling is only demanded where real cores exist.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_hotpath.py \
        [--quick] [--out FILE] [--before FILE] \
        [--baseline FILE] [--max-regression 2.0] \
        [--multicore] [--jobs 2,4] [--gate]

``--before`` merges a previously measured timing file (same keys) into
the report and computes speedups.  ``--baseline`` compares this run
against a committed report and exits non-zero if any shared timing
regressed more than ``--max-regression``× (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

SCHEMA = "repro.bench.hotpath.v1"
MULTICORE_SCHEMA = "repro.bench.multicore.v1"
# The committed multi-core report whose serial rate the --gate measures
# pool throughput against (repo root, two levels above this file).
MULTICORE_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCH_multicore.json"
)

# Timing keys eligible for the regression gate (per-epoch for the
# end-to-end run so quick and full reports stay comparable).
GATED_KEYS = (
    "pack_s",
    "unpack_s",
    "roundtrip_s",
    "apply_vcasgd_s",
    "apply_downpour_s",
    "apply_easgd_s",
    "apply_dcasgd_s",
    "apply_rescaled_s",
    "pack_into_s",
    "unpack_into_s",
    "apply_into_vcasgd_s",
    "apply_into_dcasgd_s",
    "adam_step_s",
    "grad_accumulate_s",
    "fig2_per_epoch_s",
)


def med(fn, iters: int) -> float:
    """Best wall time of ``iters`` calls (first call warms caches).

    Minimum, not mean/median: on a shared box the distribution is the
    true cost plus a long contention tail, and the minimum is the
    estimator least polluted by that tail.
    """
    fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def paper_sized_template(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A ~5M-scalar, many-key state dict (the Fig. 2 model scale)."""
    template: dict[str, np.ndarray] = {}
    total = 0
    i = 0
    while total < 4_900_000:
        shape = (64, 64, 12) if i % 3 == 0 else (256, 97)
        template[f"layer{i:03d}.weight"] = rng.normal(size=shape)
        total += int(np.prod(shape))
        i += 1
    return template


def bench_codec(out: dict, iters: int) -> dict[str, np.ndarray]:
    from repro.nn.serialization import StateLayout, state_to_vector, vector_to_state

    rng = np.random.default_rng(0)
    template = paper_sized_template(rng)
    layout = StateLayout.for_state(template)
    out["state_keys"] = len(template)
    out["state_scalars"] = layout.total_size
    vec = state_to_vector(template)
    out["pack_s"] = med(lambda: state_to_vector(template), iters)
    out["unpack_s"] = med(lambda: vector_to_state(vec, template), iters)
    out["roundtrip_s"] = med(
        lambda: state_to_vector(vector_to_state(vec, template)), iters
    )
    # The in-place fast path the runner actually uses (unpack_into reuses
    # the model's live arrays; pack reuses a preallocated vector).
    dest = {key: np.empty_like(value) for key, value in template.items()}
    buf = layout.empty()
    out["pack_into_s"] = med(lambda: layout.pack(template, out=buf), iters)
    out["unpack_into_s"] = med(lambda: layout.unpack_into(vec, dest), iters)
    return template


def bench_rules(out: dict, iters: int, total: int) -> None:
    from repro.core.rules import ClientUpdate, make_rule
    from repro.core.vcasgd import ConstantAlpha

    rng = np.random.default_rng(1)
    server = rng.normal(size=total)
    client = rng.normal(size=total)
    grad = rng.normal(size=total)
    update = ClientUpdate(client_id=0, params=client, gradient=grad, base_version=1)
    buf = np.empty_like(server)
    for name in ("vcasgd", "downpour", "easgd", "dcasgd", "rescaled"):
        rule = make_rule(name, ConstantAlpha(0.9))
        rule.snapshot_sent(1, server)
        out[f"apply_{name}_s"] = med(lambda r=rule: r.apply(server, update, 2), iters)
        # The allocation-free kernel (apply = apply_into + one output alloc).
        out[f"apply_into_{name}_s"] = med(
            lambda r=rule: r.apply_into(server, update, 2, out=buf), iters
        )


def bench_accumulator(out: dict, iters: int, template: dict) -> None:
    from repro.nn.serialization import GradientAccumulator

    rng = np.random.default_rng(2)
    acc = GradientAccumulator(template)
    grads = {key: rng.normal(size=value.shape) for key, value in template.items()}
    out["grad_accumulate_s"] = med(lambda: acc.add(grads), iters)


def bench_references(out: dict, iters: int, template: dict) -> None:
    """Historical allocating implementations, timed in the same process.

    Cross-run comparisons on a shared box drown in scheduler noise; these
    reference kernels reproduce the pre-optimization formulas exactly, so
    ``ref_*`` vs the optimized timings is an apples-to-apples measurement
    of what the zero-copy/in-place rewrite bought.
    """
    rng = np.random.default_rng(4)
    keys = sorted(template)
    total = sum(int(v.size) for v in template.values())
    vec = rng.normal(size=total)

    def ref_pack() -> np.ndarray:
        return np.concatenate(
            [np.asarray(template[k], dtype=np.float64).ravel() for k in keys]
        )

    def ref_unpack() -> dict:
        state = {}
        offset = 0
        for k in keys:
            size = template[k].size
            state[k] = vec[offset : offset + size].reshape(template[k].shape).copy()
            offset += size
        return state

    out["ref_pack_s"] = med(ref_pack, iters)
    out["ref_unpack_s"] = med(ref_unpack, iters)

    server = rng.normal(size=total)
    client = rng.normal(size=total)
    grad = rng.normal(size=total)
    backup = rng.normal(size=total)
    alpha, lr, lam = 0.9, 0.05, 0.04
    out["ref_apply_vcasgd_s"] = med(
        lambda: alpha * server + (1.0 - alpha) * client, iters
    )
    out["ref_apply_dcasgd_s"] = med(
        lambda: server - lr * (grad + lam * grad * grad * (server - backup)), iters
    )

    grads = {k: rng.normal(size=v.shape) for k, v in template.items()}

    def ref_accumulate(totals=np.zeros(total)) -> None:
        parts = []
        for k in keys:
            parts.append(np.asarray(grads[k], dtype=np.float64).ravel())
        totals += np.concatenate(parts)

    out["ref_grad_accumulate_s"] = med(ref_accumulate, iters)


_ADAM_SHAPES = ((784, 256), (256,), (256, 128), (128,), (128, 10), (10,))


def bench_optimizer(out: dict, iters: int) -> None:
    from repro.nn import Tensor
    from repro.nn.optim import Adam

    rng = np.random.default_rng(3)
    params = [
        Tensor(rng.normal(size=shape), requires_grad=True) for shape in _ADAM_SHAPES
    ]
    grads = [rng.normal(size=p.shape) for p in params]
    opt = Adam(params)

    def step() -> None:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()

    out["adam_step_s"] = med(step, iters * 4)

    # Reference: the historical allocating Adam formula on the same shapes.
    datas = [rng.normal(size=shape) for shape in _ADAM_SHAPES]
    ms = [np.zeros_like(d) for d in datas]
    vs = [np.zeros_like(d) for d in datas]
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.001
    tick = [0]

    def ref_step() -> None:
        tick[0] += 1
        t = tick[0]
        for d, g, m, v in zip(datas, grads, ms, vs):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            d -= lr * m_hat / (np.sqrt(v_hat) + eps)

    out["ref_adam_step_s"] = med(ref_step, iters * 4)


def bench_end_to_end(out: dict, epochs: int, repeats: int) -> None:
    from repro.core import ConstantAlpha, TrainingJobConfig, run_experiment

    config = (
        TrainingJobConfig(max_epochs=epochs, seed=1234)
        .with_pct(1, 3, 2)
        .with_alpha(ConstantAlpha(0.95))
    )
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_experiment(config)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    out["fig2_p1c3t2_s"] = best
    out["fig2_epochs"] = len(result.epochs)
    out["fig2_per_epoch_s"] = best / max(1, len(result.epochs))


def bench_sweep_scaling(out: dict, job_counts: tuple[int, ...]) -> None:
    from repro.core import TrainingJobConfig
    from repro.core.parallel import run_configs

    base = TrainingJobConfig(max_epochs=1, num_shards=8)
    configs = [
        base.with_pct(p, c, 2) for p in (1, 2) for c in (2, 3)
    ]
    scaling: dict[str, float] = {}
    serial_s = None
    for jobs in job_counts:
        t0 = time.perf_counter()
        run_configs(configs, jobs=jobs)
        elapsed = time.perf_counter() - t0
        scaling[f"jobs{jobs}_s"] = elapsed
        if jobs == 1:
            serial_s = elapsed
        elif serial_s is not None:
            scaling[f"jobs{jobs}_speedup"] = serial_s / elapsed
    out["sweep_scaling"] = scaling
    out["sweep_points"] = len(configs)


# ---------------------------------------------------------------------------
# Multi-core execution plane (DESIGN.md §8.5)
# ---------------------------------------------------------------------------

def _multicore_config(**overrides):
    """A homogeneous-fleet run heavy enough to amortize pool IPC.

    48 client steps (24 shards × 2 epochs) on one instance type, so every
    step is cohort-fusable and the pool ships chunky work items.
    """
    from repro.core import ConstantAlpha, LocalTrainingConfig, TrainingJobConfig
    from repro.data import SyntheticImageConfig
    from repro.nn.models import ModelSpec
    from repro.simulation.resources import TABLE1_CLIENTS

    defaults = dict(
        num_param_servers=1,
        num_clients=8,
        max_concurrent_subtasks=2,
        model=ModelSpec(
            "mlp", {"in_features": 48, "hidden": [128, 64], "num_classes": 4}
        ),
        data=SyntheticImageConfig(image_size=4, num_classes=4, noise_std=1.5),
        num_train=1920,
        num_val=40,
        num_test=40,
        num_shards=24,
        max_epochs=2,
        local_training=LocalTrainingConfig(local_epochs=8, learning_rate=0.01),
        alpha_schedule=ConstantAlpha(0.8),
        seed=77,
        client_specs=(TABLE1_CLIENTS[0],),
    )
    defaults.update(overrides)
    return TrainingJobConfig(**defaults)


def _time_run(overrides: dict, repeats: int) -> tuple[float, int]:
    """Best wall time of a fresh run + its client-step count."""
    from repro.core import DistributedRunner

    best = None
    steps = 0
    for _ in range(repeats):
        runner = DistributedRunner(_multicore_config(**overrides))
        t0 = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
        steps = result.counters["assimilations"]
    return best, steps


def run_multicore_benchmarks(job_counts: tuple[int, ...], quick: bool) -> dict:
    """Single-run step throughput across execution-plane modes + sweep."""
    repeats = 2 if quick else 3
    out: dict = {
        "schema": MULTICORE_SCHEMA,
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "job_counts": list(job_counts),
    }
    serial_s, steps = _time_run({}, repeats)
    out["steps_per_run"] = steps
    modes: dict[str, dict] = {
        "serial": {"wall_s": serial_s, "speedup": 1.0},
    }
    cohort_s, _ = _time_run({"cohort_size": 8}, repeats)
    modes["cohort8"] = {"wall_s": cohort_s, "speedup": serial_s / cohort_s}
    for jobs in job_counts:
        pool_s, _ = _time_run({"step_jobs": jobs}, repeats)
        modes[f"jobs{jobs}"] = {"wall_s": pool_s, "speedup": serial_s / pool_s}
        both_s, _ = _time_run({"cohort_size": 8, "step_jobs": jobs}, repeats)
        modes[f"cohort8_jobs{jobs}"] = {
            "wall_s": both_s,
            "speedup": serial_s / both_s,
        }
    for mode in modes.values():
        mode["steps_per_s"] = steps / mode["wall_s"]
        mode["wall_s"] = round(mode["wall_s"], 4)
        mode["speedup"] = round(mode["speedup"], 3)
        mode["steps_per_s"] = round(mode["steps_per_s"], 1)
    out["single_run"] = modes
    bench_sweep_scaling(out, (1, *job_counts))
    return out


def check_multicore_gate(
    report: dict, baseline: dict, floor_factor: float = 0.8
) -> list[str]:
    """Cores-aware scaling floor: floor_factor * min(jobs, cores).

    ``jobs=J`` on a box with fewer than J cores cannot physically speed
    up; the floor degrades to "don't collapse" (0.8×) there.  The pool
    modes must reach that multiple of the serial ``steps_per_s`` in the
    committed ``baseline`` report, not of this run's own serial time: the
    serial step and the pool worker run the same step program, so speeding
    it up shrinks the measured ratio (IPC cost stays) without the pool
    having got any worse.  The cohort modes are gated at the same per-jobs
    floor — vectorization headroom only ever helps them.
    """
    cores = report.get("cpu_count") or 1
    failures = []
    modes = report.get("single_run", {})
    serial_rate = baseline["single_run"]["serial"]["steps_per_s"]
    for jobs in report.get("job_counts", []):
        required = floor_factor * min(jobs, cores)
        for name in (f"jobs{jobs}", f"cohort8_jobs{jobs}"):
            rate = modes.get(name, {}).get("steps_per_s")
            if rate is not None and rate < required * serial_rate:
                failures.append(
                    f"{name}: {rate:.1f} steps/s < required "
                    f"{required * serial_rate:.1f} ({required:.2f} x the committed "
                    f"serial {serial_rate:.1f} steps/s; 0.8 x min({jobs} jobs, "
                    f"{cores} cores))"
                )
        sweep = report.get("sweep_scaling", {}).get(f"jobs{jobs}_speedup")
        if sweep is not None and sweep < required:
            failures.append(
                f"sweep jobs={jobs}: speedup {sweep:.2f}x < required "
                f"{required:.2f}x (0.8 x min({jobs} jobs, {cores} cores))"
            )
    return failures


def run_benchmarks(quick: bool) -> dict:
    out: dict = {
        "schema": SCHEMA,
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
    }
    iters = 5 if quick else 9
    template = bench_codec(out, iters)
    bench_rules(out, iters, out["state_scalars"])
    bench_accumulator(out, iters, template)
    bench_references(out, iters, template)
    bench_optimizer(out, iters)
    bench_end_to_end(out, epochs=1 if quick else 3, repeats=1 if quick else 3)
    bench_sweep_scaling(out, (1, 2) if quick else (1, 2, 4))
    out["in_process_speedup"] = {
        shipped: round(out[ref] / out[shipped], 2)
        for ref, shipped in (
            ("ref_pack_s", "pack_into_s"),
            ("ref_unpack_s", "unpack_into_s"),
            ("ref_apply_vcasgd_s", "apply_into_vcasgd_s"),
            ("ref_apply_dcasgd_s", "apply_into_dcasgd_s"),
            ("ref_grad_accumulate_s", "grad_accumulate_s"),
            ("ref_adam_step_s", "adam_step_s"),
        )
        if out.get(ref) and out.get(shipped)
    }
    return out


def merge_before(report: dict, before: dict) -> dict:
    """Attach previously measured timings and per-key speedups."""
    merged = {"schema": SCHEMA, "after": report, "before": before, "speedup": {}}
    for key in GATED_KEYS:
        before_val = before.get(key)
        if before_val is None and key == "fig2_per_epoch_s":
            # Older timing files stored total + epoch count only.
            if "fig2_p1c3t2_3epoch_s" in before:
                before_val = before["fig2_p1c3t2_3epoch_s"] / max(
                    1, before.get("fig2_epochs", 1)
                )
        after_val = report.get(key)
        if before_val and after_val:
            merged["speedup"][key] = round(before_val / after_val, 2)
    return merged


def check_regression(report: dict, baseline: dict, max_ratio: float) -> list[str]:
    """Compare against a committed report; list keys slower than allowed."""
    reference = baseline.get("after", baseline)
    failures = []
    for key in GATED_KEYS:
        ref = reference.get(key)
        now = report.get(key)
        if not ref or not now:
            continue
        ratio = now / ref
        if ratio > max_ratio:
            failures.append(f"{key}: {now * 1e3:.2f} ms vs {ref * 1e3:.2f} ms "
                            f"({ratio:.2f}x > {max_ratio:.2f}x allowed)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument(
        "--before", default=None, metavar="FILE",
        help="earlier timing file to merge and compute speedups against",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="committed report to regression-check against (with --multicore "
        "--gate: the report holding the serial rate; default BENCH_multicore.json)",
    )
    parser.add_argument("--max-regression", type=float, default=2.0, metavar="X")
    parser.add_argument(
        "--multicore", action="store_true",
        help="benchmark the multi-core execution plane instead",
    )
    parser.add_argument(
        "--jobs", default="2", metavar="N[,N...]",
        help="worker counts for the --multicore sweep (default: 2)",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="fail if --multicore scaling misses 0.8 x min(jobs, cores) "
        "(pool modes: of the committed serial steps/s)",
    )
    args = parser.parse_args(argv)

    if args.multicore:
        job_counts = tuple(int(j) for j in args.jobs.split(","))
        report = run_multicore_benchmarks(job_counts, quick=args.quick)
        print(json.dumps(report, indent=1))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
            print(f"report written to {args.out}", file=sys.stderr)
        if args.gate:
            with open(args.baseline or MULTICORE_BASELINE) as fh:
                failures = check_multicore_gate(report, json.load(fh))
            if failures:
                print("MULTICORE SCALING GATE FAILED:", file=sys.stderr)
                for line in failures:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print("multicore gate: scaling >= 0.8 x min(jobs, cores)",
                  file=sys.stderr)
        return 0

    report = run_benchmarks(quick=args.quick)
    payload: dict = report
    if args.before:
        with open(args.before) as fh:
            payload = merge_before(report, json.load(fh))
    print(json.dumps(payload, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
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
        print("perf gate: no regression beyond "
              f"{args.max_regression:.1f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
