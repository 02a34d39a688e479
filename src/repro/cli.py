"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute a distributed training job (the full VC pipeline) and print
    per-epoch progress.  Supports preemption injection, replication,
    autoscaling, warm start and checkpointing.
``single``
    Run the serial single-instance baseline on the same workload.
``cost``
    Print the §IV-E fleet cost table (standard vs preemptible).
``preempt-model``
    Print the §IV-E expected-delay table for a job shape.
``alpha-study``
    Quick α sweep at a chosen P/C/T.
``dashboard``
    Render an exported telemetry JSON (``--metrics-out``) as ASCII panels.
``trace``
    Analyze a raw trace dump (``--trace-out``): workunit lineage summary,
    hop-by-hop critical path, per-workunit drill-down, Perfetto export.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from typing import Sequence

from .analysis import (
    format_hours,
    render_table,
    sweep_dashboard,
    telemetry_dashboard,
)
from .cloud import PricingClass, paper_p5c5t2_fleet
from .core import (
    RULE_NAMES,
    ConstantAlpha,
    FaultConfig,
    RunResult,
    TrainingJobConfig,
    VarAlpha,
    make_rule,
    run_experiment,
)
from .core.baselines import run_single_instance
from .errors import ConfigurationError
from .core.checkpoint import load_checkpoint, save_checkpoint
from .core.runner import DistributedRunner
from .obs import (
    ObservabilityConfig,
    SpanStore,
    build_sweep_telemetry,
    read_telemetry,
    read_trace_jsonl,
    write_perfetto_trace,
    write_telemetry,
    write_trace_jsonl,
)
from .simulation import BernoulliSubtaskModel
from .simulation.adversary import (
    ATTACK_KINDS,
    AdversaryBehavior,
    AdversaryPlan,
    SybilFleet,
)
from .simulation.chaos import (
    ChaosPlan,
    PartitionWindow,
    ServerCrash,
    StoreFaultWindow,
    TransferFaultPlan,
)

__all__ = ["main", "build_parser"]


# The config fields each job command exposes as flags (None: every field
# of TrainingJobConfig that declares one), and the command's own defaults.
_PCT = ("num_param_servers", "num_clients", "max_concurrent_subtasks")
_JOB_COMMANDS = {
    "run": (None, {"num_param_servers": 3, "max_epochs": 10}),
    "sweep": (("max_epochs", "num_shards", "seed"), {"max_epochs": 5, "num_shards": 25}),
    "single": (("max_epochs", "seed", "target_accuracy"), {"max_epochs": 10}),
    "alpha-study": (
        (*_PCT, "max_epochs"),
        {"num_param_servers": 3, "max_concurrent_subtasks": 4, "max_epochs": 12},
    ),
}
# Sweep axes and their defaults: each flag takes a comma list of values.
_SWEEP_AXES = {
    "num_param_servers": "1,3",
    "num_clients": "3",
    "max_concurrent_subtasks": "2,4",
    "codec": None,
}


def _flag_fields(cls, names=None) -> list[dataclasses.Field]:
    """The fields of ``cls`` that declare a command-line flag, in field order."""
    return [
        f
        for f in dataclasses.fields(cls)
        if "flags" in f.metadata and (names is None or f.name in names)
    ]


def _dest(f: dataclasses.Field) -> str:
    """The argparse dest of a field's flag (from its first, long, name)."""
    return f.metadata["flags"][0].lstrip("-").replace("-", "_")


def _value_type(cls, f: dataclasses.Field) -> type:
    """The scalar type of a field, without its ``| None``."""
    hint = typing.get_type_hints(cls)[f.name]
    (kind,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
    return kind


def _add_field_flags(parser, cls, names=None, defaults=None) -> None:
    """One flag per field of ``cls`` that declares one, typed by the field."""
    groups = {None: parser}
    for f in _flag_fields(cls, names):
        options = dict(f.metadata)
        flags, title = options.pop("flags"), options.pop("group", None)
        if title not in groups:
            groups[title] = parser.add_argument_group(title)
        kind = _value_type(cls, f)
        if kind is bool:
            options["action"] = "store_true"
        else:
            options["type"] = None if kind is str else kind
            options["default"] = (defaults or {}).get(f.name, f.default)
        groups[title].add_argument(*flags, **options)


def _from_args(cls, args: argparse.Namespace, names=None, **values):
    """``cls`` built from the flags :func:`_add_field_flags` added, plus ``values``."""
    for f in _flag_fields(cls, names):
        values.setdefault(f.name, getattr(args, _dest(f)))
    return cls(**values)


def _job_config(args: argparse.Namespace, **values) -> TrainingJobConfig:
    """The command's job config: its flags, plus the values it computed."""
    names, _ = _JOB_COMMANDS[args.command]
    return _from_args(TrainingJobConfig, args, names, **values)


def _add_axis_flags(parser: argparse.ArgumentParser) -> None:
    """Sweep axes: the field's flag, taking a comma list of its values."""
    for f in _flag_fields(TrainingJobConfig, _SWEEP_AXES):
        choices = f.metadata.get("choices")
        note = ""
        if choices:
            none = ("none",) if f.default is None else ()
            note = f" (choices: {', '.join(none + tuple(choices))})"
        parser.add_argument(
            *f.metadata["flags"],
            default=_SWEEP_AXES[f.name],
            help=f"{f.metadata['help']}; a comma list sweeps it{note}",
        )


def _axis_values(args: argparse.Namespace, name: str) -> list:
    """A sweep axis flag's comma list, parsed as values of field ``name``."""
    (f,) = _flag_fields(TrainingJobConfig, (name,))
    kind = _value_type(TrainingJobConfig, f)
    tokens = [t.strip().lower() for t in (getattr(args, _dest(f)) or "").split(",")]
    return [
        None if f.default is None and t == "none" else kind(t) for t in tokens if t
    ]


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Fault-model flags shared by ``run`` and ``sweep``."""
    _add_field_flags(parser.add_argument_group("fleet faults"), FaultConfig)
    chaos = parser.add_argument_group("chaos plan (layered fault injection)")
    _add_field_flags(chaos, TransferFaultPlan)
    chaos.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="START:DUR[:CLIENTS]",
        help="network partition window (seconds; CLIENTS is a comma list of "
        "client ids, omitted = whole fleet); repeatable",
    )
    chaos.add_argument(
        "--ps-crash",
        action="append",
        default=[],
        metavar="TIME[:RESTART_DELAY]",
        help="parameter-server crash at TIME s, replacement after "
        "RESTART_DELAY s ('never' = permanent loss); repeatable",
    )
    chaos.add_argument(
        "--kv-outage",
        action="append",
        default=[],
        metavar="START:DUR",
        help="KV-store hard outage window (ops block until it lifts); repeatable",
    )
    chaos.add_argument(
        "--kv-degrade",
        action="append",
        default=[],
        metavar="START:DUR:FACTOR",
        help="KV-store degraded-latency window (ops slowed by FACTOR); repeatable",
    )
    chaos.add_argument(
        "--no-chaos-restore",
        action="store_true",
        help="do not restore from the epoch checkpoint after a total "
        "parameter-server outage",
    )
    adv = parser.add_argument_group("byzantine adversaries")
    adv.add_argument(
        "--adversary",
        action="append",
        default=[],
        metavar="CLIENTS:ATTACK[:MAGNITUDE[:CLAIM_FACTOR]]",
        help="compromise clients (comma list of ids) with ATTACK "
        f"(one of {', '.join(ATTACK_KINDS)}); repeatable",
    )
    adv.add_argument(
        "--sybils",
        action="append",
        default=[],
        metavar="IDENTITY:COUNT:ATTACK[:MAGNITUDE]",
        help="add COUNT sybil clients under one adversary identity; repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed DL on a volunteer-computing-like paradigm "
        "(paper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a distributed training job")
    _add_field_flags(run_p, TrainingJobConfig, *_JOB_COMMANDS["run"])
    run_p.add_argument(
        "--alpha",
        default="var",
        help="constant alpha in (0,1] or 'var' for alpha_e = e/(e+1)",
    )
    run_p.add_argument(
        "--rule",
        choices=RULE_NAMES,
        default="vcasgd",
        help="server-side update rule (vcasgd honours --alpha; the rest "
        "run the ASGD family on the same substrate)",
    )
    run_p.add_argument(
        "--server-lr",
        type=float,
        default=None,
        help="server step size for gradient rules (downpour/dcasgd/rescaled); "
        "ignored by averaging rules",
    )
    run_p.add_argument("--quorum", type=int, default=None)
    _add_fault_args(run_p)
    run_p.add_argument("--checkpoint-out", default=None, metavar="FILE")
    run_p.add_argument("--resume", default=None, metavar="FILE")
    obs_g = run_p.add_argument_group("observability")
    obs_g.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write schema-versioned run telemetry (metrics, audit report, "
        "profile) as JSON",
    )
    obs_g.add_argument(
        "--no-audit",
        action="store_true",
        help="detach the invariant auditor (it is on by default)",
    )
    obs_g.add_argument(
        "--profile",
        action="store_true",
        help="attach the wall-clock profiler (per event-label attribution)",
    )
    obs_g.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="dump the raw trace-record stream as schema-versioned JSONL "
        "(readable by 'repro trace')",
    )
    obs_g.add_argument(
        "--trace-max-records",
        type=int,
        default=None,
        metavar="N",
        help="bound the in-memory trace to the newest N records "
        "(ring/drop policy; drops are counted in trace.dropped)",
    )

    single_p = sub.add_parser("single", help="serial single-instance baseline")
    _add_field_flags(single_p, TrainingJobConfig, *_JOB_COMMANDS["single"])

    cost_p = sub.add_parser("cost", help="fleet cost table (SecIV-E)")
    cost_p.add_argument("--hours", type=float, default=8.0)

    model_p = sub.add_parser("preempt-model", help="expected-delay table (SecIV-E)")
    model_p.add_argument("--subtasks", type=int, default=2000)
    model_p.add_argument("--clients", type=int, default=5)
    model_p.add_argument("--concurrency", type=int, default=2)
    model_p.add_argument("--exec-min", type=float, default=2.4)
    model_p.add_argument("--timeout-min", type=float, default=5.0)

    sweep_p = sub.add_parser(
        "sweep", help="grid sweep over Pn/Cn/Tn (comma-separated values)"
    )
    _add_axis_flags(sweep_p)
    _add_field_flags(sweep_p, TrainingJobConfig, *_JOB_COMMANDS["sweep"])
    sweep_p.add_argument("--alpha", default="0.95")
    sweep_p.add_argument(
        "--rule",
        default="vcasgd",
        help="comma-separated update rules; more than one adds a sweep axis "
        f"(choices: {', '.join(RULE_NAMES)})",
    )
    sweep_p.add_argument(
        "--server-lr",
        type=float,
        default=None,
        help="server step size for gradient rules (downpour/dcasgd/rescaled)",
    )
    sweep_p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points in N worker processes (runs are independent "
        "and deterministic, so results are identical to a serial sweep)",
    )
    sweep_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write one telemetry document per sweep point as a single "
        "sweep-schema JSON",
    )
    _add_fault_args(sweep_p)

    alpha_p = sub.add_parser("alpha-study", help="quick alpha sweep")
    _add_field_flags(alpha_p, TrainingJobConfig, *_JOB_COMMANDS["alpha-study"])
    alpha_p.add_argument(
        "--alphas", default="0.7,0.95,var", help="comma-separated values / 'var'"
    )

    dash_p = sub.add_parser(
        "dashboard", help="render exported telemetry JSON as ASCII panels"
    )
    dash_p.add_argument("file", metavar="FILE", help="telemetry JSON to render")

    trace_p = sub.add_parser(
        "trace",
        help="analyze a trace dump ('repro run --trace-out'): lineage "
        "summary, critical path, Perfetto export",
    )
    trace_p.add_argument("file", metavar="FILE", help="trace JSONL to analyze")
    trace_p.add_argument(
        "--critical-path",
        action="store_true",
        help="print the hop-by-hop critical path (sums to wall clock)",
    )
    trace_p.add_argument(
        "--wu",
        default=None,
        metavar="ID",
        help="drill into one workunit's span tree",
    )
    trace_p.add_argument(
        "--perfetto",
        default=None,
        metavar="FILE",
        help="export Chrome/Perfetto trace-event JSON "
        "(load at ui.perfetto.dev)",
    )
    return parser


def _parse_alpha(text: str):
    if text.lower() == "var":
        return VarAlpha()
    return ConstantAlpha(float(text))


def _split_fields(text: str, spec: str, min_fields: int, max_fields: int) -> list[str]:
    fields = text.split(":")
    if not min_fields <= len(fields) <= max_fields:
        raise SystemExit(f"expected {spec}, got {text!r}")
    return fields


def _parse_partition(text: str) -> PartitionWindow:
    fields = _split_fields(text, "START:DUR[:CLIENTS]", 2, 3)
    clients: tuple[str, ...] = ()
    if len(fields) == 3 and fields[2]:
        clients = tuple(c.strip() for c in fields[2].split(",") if c.strip())
    return PartitionWindow(float(fields[0]), float(fields[1]), clients)


def _parse_ps_crash(text: str) -> ServerCrash:
    fields = _split_fields(text, "TIME[:RESTART_DELAY]", 1, 2)
    delay: float | None = 120.0
    if len(fields) == 2:
        delay = None if fields[1].lower() == "never" else float(fields[1])
    return ServerCrash(float(fields[0]), delay)


def _parse_kv_outage(text: str) -> StoreFaultWindow:
    fields = _split_fields(text, "START:DUR", 2, 2)
    return StoreFaultWindow(float(fields[0]), float(fields[1]))


def _parse_kv_degrade(text: str) -> StoreFaultWindow:
    fields = _split_fields(text, "START:DUR:FACTOR", 3, 3)
    return StoreFaultWindow(float(fields[0]), float(fields[1]), float(fields[2]))


def _parse_adversary_behavior(text: str) -> AdversaryBehavior:
    fields = _split_fields(text, "CLIENTS:ATTACK[:MAGNITUDE[:CLAIM_FACTOR]]", 2, 4)
    clients = tuple(c.strip() for c in fields[0].split(",") if c.strip())
    try:
        return AdversaryBehavior(
            clients=clients,
            attack=fields[1],
            magnitude=float(fields[2]) if len(fields) > 2 else 1.0,
            claim_factor=float(fields[3]) if len(fields) > 3 else 1.0,
        )
    except ConfigurationError as err:
        raise SystemExit(f"--adversary {text!r}: {err}") from err


def _parse_sybils(text: str) -> SybilFleet:
    fields = _split_fields(text, "IDENTITY:COUNT:ATTACK[:MAGNITUDE]", 3, 4)
    try:
        return SybilFleet(
            identity=fields[0],
            count=int(fields[1]),
            attack=fields[2],
            magnitude=float(fields[3]) if len(fields) > 3 else 1.0,
        )
    except ConfigurationError as err:
        raise SystemExit(f"--sybils {text!r}: {err}") from err


def _parse_faults(args: argparse.Namespace) -> FaultConfig:
    """Build the FaultConfig (including any chaos plan) from CLI flags."""
    adversary = AdversaryPlan(
        behaviors=tuple(_parse_adversary_behavior(b) for b in args.adversary),
        sybils=tuple(_parse_sybils(s) for s in args.sybils),
    )
    plan = ChaosPlan(
        transfer=_from_args(TransferFaultPlan, args),
        partitions=tuple(_parse_partition(p) for p in args.partition),
        ps_crashes=tuple(_parse_ps_crash(c) for c in args.ps_crash),
        kv_windows=tuple(_parse_kv_outage(w) for w in args.kv_outage)
        + tuple(_parse_kv_degrade(w) for w in args.kv_degrade),
        restore_from_checkpoint=not args.no_chaos_restore,
    )
    return _from_args(
        FaultConfig,
        args,
        chaos=plan if plan.active else None,
        adversary=adversary if adversary.active else None,
    )


_GRADIENT_RULES = {"downpour", "dcasgd", "rescaled"}


def _rule_kwargs(name: str, server_lr) -> dict:
    if server_lr is not None and name.strip().lower() in _GRADIENT_RULES:
        return {"server_lr": server_lr}
    return {}


def _parse_rule(name: str, schedule, server_lr=None):
    """CLI rule name -> config value; None keeps the default VC-ASGD path."""
    if name.strip().lower() == "vcasgd":
        return None
    return make_rule(name, alpha_schedule=schedule, **_rule_kwargs(name, server_lr))


def _print_run(result: RunResult) -> None:
    rows = [
        [
            rec.epoch,
            format_hours(rec.end_time_s),
            round(rec.val_accuracy_mean, 3),
            round(rec.test_accuracy, 3),
        ]
        for rec in result.epochs
    ]
    print(render_table(["epoch", "time", "val acc", "test acc"], rows))
    print(f"stopped: {result.stopped_reason}; counters: {result.counters}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _job_config(
        args,
        alpha_schedule=_parse_alpha(args.alpha),
        update_rule=_parse_rule(args.rule, _parse_alpha(args.alpha), args.server_lr),
        # Asking for replicas asks for verification, so the CLI's quorum
        # defaults to two agreeing results (capped by the replica count);
        # the config's own default of 1 accepts the first result.
        quorum=args.quorum if args.quorum is not None else min(2, args.replicas),
        faults=_parse_faults(args),
    )
    resume = load_checkpoint(args.resume) if args.resume else None
    obs_config = ObservabilityConfig(
        audit=not args.no_audit,
        profile=args.profile,
        trace_max_records=args.trace_max_records,
    )
    runner = DistributedRunner(config, resume_from=resume, observability=obs_config)
    result = runner.run()
    _print_run(result)
    if args.metrics_out:
        telemetry = runner.telemetry()
        write_telemetry(args.metrics_out, telemetry)
        print(f"telemetry written to {args.metrics_out} (digest {telemetry['digest']})")
    if args.trace_out:
        count = write_trace_jsonl(
            runner.trace, args.trace_out, meta={"label": result.label, "seed": args.seed}
        )
        print(f"trace written to {args.trace_out} ({count} records)")
    if args.checkpoint_out:
        save_checkpoint(args.checkpoint_out, runner.checkpoint())
        print(f"checkpoint written to {args.checkpoint_out}")
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    _print_run(run_single_instance(_job_config(args)))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    standard = paper_p5c5t2_fleet(PricingClass.STANDARD)
    preempt = paper_p5c5t2_fleet(PricingClass.PREEMPTIBLE)
    rows = [
        ["standard", round(standard.hourly_cost(), 3), round(standard.job_cost(args.hours), 2)],
        ["preemptible", round(preempt.hourly_cost(), 3), round(preempt.job_cost(args.hours), 2)],
        ["saving", f"{100 * preempt.savings_fraction():.0f}%", ""],
    ]
    print(
        render_table(
            ["pricing", "$/hour", f"$ for {args.hours:g} h"],
            rows,
            title="P5C5T2 fleet (paper Table I clients)",
        )
    )
    return 0


def _cmd_preempt_model(args: argparse.Namespace) -> int:
    model = BernoulliSubtaskModel(
        n_s=args.subtasks,
        n_c=args.clients,
        n_tc=args.concurrency,
        t_e=args.exec_min * 60,
        t_o=args.timeout_min * 60,
    )
    rows = [
        [f"{p:.2f}", round(model.expected_delay(p) / 60, 1),
         round(model.expected_training_time(p) / 3600, 2)]
        for p in (0.0, 0.05, 0.10, 0.20)
    ]
    print(
        render_table(
            ["p", "E[delay] min", "E[total] h"],
            rows,
            title=f"Binomial delay model (n={model.n:g} waves)",
        )
    )
    return 0


def _cmd_alpha_study(args: argparse.Namespace) -> int:
    base = _job_config(args)
    rows = []
    for token in args.alphas.split(","):
        schedule = _parse_alpha(token.strip())
        result = run_experiment(dataclasses.replace(base, alpha_schedule=schedule))
        acc = result.val_accuracy()
        rows.append(
            [
                schedule.describe(),
                round(float(acc[min(2, len(acc) - 1)]), 3),
                round(float(acc[-1]), 3),
                round(result.mean_spread(last_k=3), 4),
            ]
        )
    print(
        render_table(
            ["schedule", "early acc", "final acc", "late spread"],
            rows,
            title=f"alpha study at {base.label}",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core import Sweep, SweepPoint
    from .core.parallel import run_configs

    schedule = _parse_alpha(args.alpha)
    rule_tokens = [token.strip() for token in args.rule.split(",") if token.strip()]
    codecs = _axis_values(args, "codec")
    jobs = max(1, args.jobs)
    base = _job_config(
        args,
        alpha_schedule=schedule,
        update_rule=(
            _parse_rule(rule_tokens[0], schedule, args.server_lr)
            if len(rule_tokens) == 1
            else None
        ),
        codec=codecs[0] if len(codecs) == 1 else None,
        faults=_parse_faults(args),
    )
    # Axis order is the grid order: P, C, T, then rule, then codec.
    sweep = Sweep(base)
    for name in _PCT:
        sweep.axis(name, _axis_values(args, name))
    if len(rule_tokens) > 1:
        # Rule-comparison sweeps carry explicit rule objects (vcasgd
        # included) so each point's label names the rule it ran.
        sweep.axis(
            "update_rule",
            [
                make_rule(token, schedule, **_rule_kwargs(token, args.server_lr))
                for token in rule_tokens
            ],
        )
    if len(codecs) > 1:
        sweep.axis("codec", codecs)
    pairs = sweep.configs()
    print(f"running {sweep.size} configurations ...")
    # One path at any -j: run_configs runs serially at jobs=1 and carries
    # each run's telemetry back for --metrics-out either way.
    outcomes = run_configs(
        [config for _, config in pairs],
        jobs=jobs,
        collect_telemetry=bool(args.metrics_out),
    )
    telemetry_runs = [telemetry for _, telemetry in outcomes if telemetry is not None]
    for (overrides, config), (result, _) in zip(pairs, outcomes):
        sweep.points.append(SweepPoint(overrides=overrides, config=config, result=result))
        print(f"  done: {sweep.points[-1].label()}")
    print(render_table(sweep.headers(), sweep.table_rows(), title="sweep results"))
    fastest = sweep.best("total_time_hours", maximize=False)
    best_acc = sweep.best("final_val_accuracy")
    print(f"fastest: {fastest.label()} ({fastest.result.total_time_hours:.2f} h)")
    print(f"highest accuracy: {best_acc.label()} ({best_acc.result.final_val_accuracy:.3f})")
    if args.metrics_out:
        write_telemetry(args.metrics_out, build_sweep_telemetry(telemetry_runs))
        print(f"telemetry written to {args.metrics_out} ({len(telemetry_runs)} runs)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    header, records = read_trace_jsonl(args.file)
    dropped = (header.get("counters") or {}).get("trace.dropped", 0)
    store = SpanStore.from_records(records, dropped=dropped)

    if args.wu:
        if args.wu not in store.lineages:
            known = ", ".join(sorted(store.lineages)[:8])
            raise SystemExit(f"unknown workunit {args.wu!r} (known: {known}, ...)")
        print("\n".join(store.describe_lineage(args.wu)))
        return 0

    counts = store.lineage_counts()
    fates = ", ".join(f"{k}={v}" for k, v in counts["fates"].items())
    print(
        f"{len(records)} records -> {len(store.spans)} spans, "
        f"{counts['total']} workunit lineages "
        f"({counts['complete']} complete, {counts['terminated']} terminated"
        + (f"; {fates}" if fates else "")
        + ")"
    )
    if dropped:
        print(f"warning: bounded trace dropped {dropped} records; history is partial")
    problems = store.lineage_problems()
    if problems:
        print(f"{len(problems)} lineage problem(s):")
        for problem in problems[:10]:
            print(f"  - {problem}")
    rows = [
        [name, stats["count"], round(stats["total_s"], 3),
         round(stats["mean_s"], 3), round(stats["p95_s"], 3)]
        for name, stats in store.hop_summary().items()
    ]
    print(render_table(["span", "n", "total s", "mean s", "p95 s"], rows,
                       title="span durations"))
    staleness = store.staleness_summary()
    if staleness["merges"]:
        print(
            f"staleness: {staleness['merges']} merges, mean lag "
            f"{staleness['mean']:.2f} versions, max {staleness['max']}"
        )

    if args.critical_path:
        path = store.critical_path()
        rows = [
            [
                i,
                hop.name,
                round(hop.start, 3),
                round(hop.end, 3),
                round(hop.duration, 3),
                hop.wu or "",
                hop.client or "",
            ]
            for i, hop in enumerate(path.hops)
        ]
        print(
            render_table(
                ["#", "hop", "start s", "end s", "dur s", "wu", "client"],
                rows,
                title=f"critical path ({format_hours(path.total_s)} total)",
            )
        )
        totals = [
            [name, round(seconds, 3), f"{100 * seconds / path.total_s:.1f}%"]
            for name, seconds in path.per_hop_totals().items()
        ] if path.total_s else []
        if totals:
            print(render_table(["hop", "total s", "share"], totals,
                               title="critical-path time by hop"))
        print(
            f"critical path: {len(path.hops)} hops, "
            f"{path.total_s:.3f}s total = wall clock to last epoch "
            f"({path.end_s:.3f}s)"
        )

    if args.perfetto:
        count = write_perfetto_trace(store, args.perfetto)
        print(f"perfetto trace written to {args.perfetto} ({count} events); "
              "load it at ui.perfetto.dev")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    payload = read_telemetry(args.file)
    if payload["schema"].endswith(".sweep"):
        print(sweep_dashboard(payload))
    else:
        print(telemetry_dashboard(payload))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "single": _cmd_single,
    "cost": _cmd_cost,
    "preempt-model": _cmd_preempt_model,
    "alpha-study": _cmd_alpha_study,
    "dashboard": _cmd_dashboard,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 for a bad flag or config)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as err:
        parser.error(str(err))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
