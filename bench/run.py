"""The repo's one benchmark: five workloads, end-to-end + per-layer metrics.

Report mode (what a person runs; ``PYTHONPATH`` is not needed, the
children find ``src/`` themselves)::

    python bench/run.py [--seed N] [--repeats N] [--workload NAME] [--out FILE]
    python bench/run.py --check      # two sets back to back, A/A-compared

runs every workload (``--repeats`` untraced repeats plus one traced run
each, every repeat a fresh interpreter, one at a time), checks outputs,
prints every metric by name with its unit and clock, and writes one
result file with a machine-facts block.

Driver mode (the ``BENCHMARK.json`` contract)::

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for at least ``S`` seconds of timed region (never
fewer than 3 repeats) and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SCHEMA = "repro.bench.v1"
DEFAULT_SEED = 1234
DEFAULT_REPEATS = 5
MIN_REPEATS = 3
MAX_REPEATS = 8
SETUP_SAMPLES = 5  # set-up is timed at least this often per measurement
CHILD_TIMEOUT_S = 150

# Which clock each end-to-end number uses: "host" is what the person
# running repro waits for, "sim" what the modelled VC-ASGD deployment
# would take (deterministic for a seed, so it repeats exactly).
CLOCKS = {
    "setup_s": "host",
    "wall_s": "host",
    "peak_rss_mb": "host",
    "sim_time_s": "sim",
    "final_val_acc": "sim",
    "wire_mb": "sim",
    "digest_stable": "-",
}
HOST_METRICS = tuple(name for name, clock in CLOCKS.items() if clock == "host")
SIM_METRICS = tuple(name for name, clock in CLOCKS.items() if clock == "sim")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_child(
    workload: str, seed: int, tiny: bool, trace_out=None, setup_only=False
) -> dict:
    """One repeat in a fresh interpreter; returns the child's report."""
    command = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if tiny:
        command.append("--tiny")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"child for {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    # Inclusive quartiles: the repeats are the whole set being described,
    # and with five of them one slow outlier must not set the spread.
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def aggregate(children: list[dict]) -> dict:
    """Fold one workload's untraced repeats into its end-to-end result.

    Attempted operations are the workunits the job must complete, summed
    over repeats.  Failed ones are those not assimilated — and the whole
    workload if a run raised (auditor violations raise), a correctness
    floor was missed, or two repeats of the same seed disagree.
    """
    good = [c for c in children if c["error"] is None]
    problems = [f"run raised: {c['error'].strip().splitlines()[-1]}"
                for c in children if c["error"] is not None]
    for child in good:
        problems.extend(p for p in child["problems"] if p not in problems)
    digests = sorted({c["digest"] for c in good})
    digest_stable = int(len(digests) == 1 and len(good) == len(children))
    if len(digests) > 1:
        problems.append(f"{len(digests)} different digests across repeats")
    attempted = sum(c["attempted"] for c in good) or 1
    failed = sum(c["failed"] for c in good)
    if problems:
        failed = attempted
    end_to_end = {name: summarize([c[name] for c in children]) for name in HOST_METRICS}
    for name in SIM_METRICS:
        end_to_end[name] = summarize([c[name] for c in good] or [0.0])
    end_to_end["digest_stable"] = summarize([digest_stable])
    return {
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[0] if digests else None,
    }


def measure(
    workload: str, seed: int, tiny: bool, *, repeats=None, seconds=None, traced=True
) -> dict:
    """One workload, start to verdict.

    Untraced repeats first — a fixed count, or until ``seconds`` of timed
    region have been measured (at least MIN_REPEATS then) — and, when
    ``traced``, one traced repeat for the per-layer metrics.  The traced
    repeat must reproduce the untraced digest: tracing wraps from outside
    and may not change what is simulated.
    """
    children: list[dict] = []
    measured = 0.0
    while True:
        child = run_child(workload, seed, tiny)
        children.append(child)
        measured += child["wall_s"]
        if repeats is not None:
            if len(children) >= repeats:
                break
        elif len(children) >= MAX_REPEATS or (
            len(children) >= MIN_REPEATS and measured >= seconds
        ):
            break
    result = aggregate(children)
    if seconds is not None:
        # Set-up is half a second of imports and construction, and one slow
        # process start in three moves its median: time it a few more times
        # without paying for the run.
        setups = [c["setup_s"] for c in children]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(workload, seed, tiny, setup_only=True)["setup_s"])
        result["end_to_end"]["setup_s"] = summarize(setups)
    result["child_facts"] = {k: children[0][k] for k in ("numpy", "blas", "blas_threads")}
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        child = run_child(workload, seed, tiny, OUT_DIR / f"trace_{workload}.jsonl")
        result["traced_wall_s"] = child["wall_s"]
        result["per_layer"] = {}
        if child["error"] is not None:
            result["problems"].append(
                f"traced run raised: {child['error'].strip().splitlines()[-1]}"
            )
        else:
            if child["digest"] != result["digest"]:
                result["problems"].append(
                    "traced run's digest differs from the untraced repeats"
                )
            result["problems"] += [
                p for p in child["problems"] if p not in result["problems"]
            ]
            result["per_layer"] = child["layers"]
            result["per_layer"]["bench.trace_overhead_ratio"] = (
                child["wall_s"] / result["end_to_end"]["wall_s"]["median"]
            )
    if result["problems"]:
        result["failed"] = result["attempted"]
    return result


def machine_facts(child_facts: dict, seed: int, repeats: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **child_facts,
        "git_commit": commit,
        "seed": seed,
        "repeats": repeats,
    }


# -- printing ---------------------------------------------------------------
def print_end_to_end(spec: dict, workload: str, result: dict) -> None:
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = result["end_to_end"][name]
        print(
            f"{workload:18s} {name:14s} {s['median']:14.6f} {metric['unit']:9s} "
            f"[{CLOCKS[name]:4s}] min {s['min']:.6f} max {s['max']:.6f} n={s['n']}"
        )


def print_per_layer(spec: dict, workload: str, layers: dict) -> None:
    for metric in spec["per_layer"]:
        name = metric["name"]
        print(f"{workload:18s} {name:40s} {layers.get(name, 0.0):16.6f} {metric['unit']}")


def fig2_diagnosis(layers: dict, wall_s: float) -> str:
    """ROADMAP item 1's first deliverable, as one table: where the Fig. 2
    second goes — NN kernels versus the pack/unpack/apply plane."""
    rows = [
        ("nn forward + backward + optimizer",
         ("nn.forward_s", "nn.backward_s", "nn.optim_step_s")),
        ("local step glue (loss, batching)", ("core.steps.local_step_s",)),
        ("PS-side evaluation", ("nn.eval_s",)),
        ("pack + unpack + rule apply",
         ("nn.serialization.pack_s", "nn.serialization.unpack_s", "core.rules.apply_s")),
        ("event engine dispatch", ("simulation.engine.dispatch_self_s",)),
        ("trace emit + observers",
         ("simulation.tracing.emit_s", "obs.audit.on_record_s",
          "obs.collector.on_record_s")),
        ("unattributed", ("core.runner.unattributed_s",)),
    ]
    out = ["fig2_p1c3t2: share of traced wall_s"]
    for label, names in rows:
        seconds = sum(layers.get(n, 0.0) for n in names)
        out.append(f"  {label:36s} {seconds:8.3f} s  {100 * seconds / wall_s:5.1f} %")
    return "\n".join(out)


# -- modes --------------------------------------------------------------------
def driver_mode(spec: dict, args) -> int:
    if args.trace:
        # One untraced repeat is enough here: it is the baseline for the
        # tracing overhead and the digest the traced repeat must match.
        result = measure(args.workload, args.seed, args.tiny, repeats=1)
        print_per_layer(spec, args.workload, result["per_layer"])
        values, listed = result["per_layer"], spec["per_layer"]
    else:
        result = measure(
            args.workload, args.seed, args.tiny, seconds=args.seconds, traced=False
        )
        print_end_to_end(spec, args.workload, result)
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
        listed = spec["end_to_end"]
    for problem in result["problems"]:
        print(f"PROBLEM {args.workload}: {problem}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_set(spec: dict, workloads: list[str], args, out: pathlib.Path) -> dict:
    """Every named workload, printed as it finishes and written to ``out``."""
    report: dict = {"schema": SCHEMA, "workloads": {}}
    for workload in workloads:
        result = measure(workload, args.seed, args.tiny, repeats=args.repeats)
        facts = result.pop("child_facts")
        if "machine" not in report:
            report["machine"] = machine_facts(facts, args.seed, args.repeats)
        report["workloads"][workload] = result
        print_end_to_end(spec, workload, result)
        print_per_layer(spec, workload, result["per_layer"])
        for problem in result["problems"]:
            print(f"PROBLEM {workload}: {problem}")
        print(
            f"{workload:18s} operations attempted {result['attempted']} "
            f"failed {result['failed']}"
        )
        if workload == "fig2_p1c3t2" and result["per_layer"]:
            print(fig2_diagnosis(result["per_layer"], result["traced_wall_s"]))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    return report


def report_mode(spec: dict, args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    OUT_DIR.mkdir(exist_ok=True)
    out = pathlib.Path(args.out) if args.out else OUT_DIR / "result.json"
    sets = [run_set(spec, workloads, args, out)]
    bad_rows = []
    if args.check:
        # A/A gate: a second complete set of the same commit must agree
        # with the first within the benchmark's own bounds, and exactly on
        # everything the simulation determines.
        import compare

        sets.append(run_set(spec, workloads, args, out.with_name(out.stem + "_b.json")))
        rows = compare.compare(spec, *sets, exact=(*SIM_METRICS, "digest_stable"))
        print(compare.render(rows))
        bad_rows = [r for r in rows if r["status"] != "ok"]
    failed = sum(w["failed"] for report in sets for w in report["workloads"].values())
    return 1 if bad_rows or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="seconds-sized smoke inputs")
    parser.add_argument("--seconds", type=float, default=None, help="driver mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 end-to-end metrics, 1 per-layer")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no repro sources to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (choices: {', '.join(names)})")
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}")
    if args.trace is not None:
        if args.workload is None or args.seconds is None:
            parser.error("driver mode needs --workload, --seconds and --trace")
        return driver_mode(spec, args)
    return report_mode(spec, args)


if __name__ == "__main__":
    sys.exit(main())
