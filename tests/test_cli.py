"""CLI tests: parsing and end-to-end command execution."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _flag_fields, _value_type, build_parser, main
from repro.core import FaultConfig, TrainingJobConfig, make_rule
from repro.errors import ConfigurationError
from repro.simulation.chaos import TransferFaultPlan


def float_flags() -> list[tuple[str, str]]:
    """``(command, flag)`` for every float-typed flag of every command."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type is float
    ]


def float_fields() -> list[tuple[type, str, str]]:
    """``(config class, field, flag)`` for every float field that declares a flag."""
    return [
        (cls, f.name, f.metadata["flags"][0])
        for cls in (TrainingJobConfig, FaultConfig, TransferFaultPlan)
        for f in _flag_fields(cls)
        if _value_type(cls, f) is float
    ]


# A small job, so that a flag the config fails to reject runs in seconds.
TINY_JOB = {
    "run": ["-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4"],
    "sweep": ["-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4"],
    "single": ["--epochs", "1"],
}


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.servers == 3 and args.clients == 3 and args.concurrency == 2
        assert args.alpha == "var"

    def test_run_short_flags(self):
        args = build_parser().parse_args(["run", "-p", "5", "-c", "5", "-t", "8"])
        assert (args.servers, args.clients, args.concurrency) == (5, 5, 8)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_store_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--store", "dynamo"])

    def test_rule_default_and_choices(self):
        args = build_parser().parse_args(["run"])
        assert args.rule == "vcasgd"
        args = build_parser().parse_args(["run", "--rule", "dcasgd"])
        assert args.rule == "dcasgd"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--rule", "hogwild"])

    def test_sweep_rule_flag(self):
        args = build_parser().parse_args(["sweep", "--rule", "vcasgd,easgd"])
        assert args.rule == "vcasgd,easgd"

    def test_server_lr_flag(self):
        args = build_parser().parse_args(["run", "--rule", "dcasgd", "--server-lr", "0.005"])
        assert args.server_lr == 0.005
        assert build_parser().parse_args(["run"]).server_lr is None

    def test_server_lr_reaches_gradient_rules_only(self):
        from repro.cli import _parse_rule
        from repro.core import VarAlpha

        rule = _parse_rule("dcasgd", VarAlpha(), 0.005)
        assert rule.server_lr == 0.005
        assert _parse_rule("vcasgd", VarAlpha(), 0.005) is None
        assert _parse_rule("easgd", VarAlpha(), 0.005) is not None  # lr ignored


class TestCommands:
    def test_cost_command(self, capsys):
        assert main(["cost", "--hours", "8"]) == 0
        out = capsys.readouterr().out
        assert "standard" in out and "preemptible" in out
        assert "13.36" in out and "4.01" in out

    def test_preempt_model_command(self, capsys):
        assert main(["preempt-model"]) == 0
        out = capsys.readouterr().out
        assert "n=200" in out
        assert "50" in out and "200" in out  # the paper's delay minutes

    def test_run_command_tiny(self, capsys):
        code = main(
            [
                "run",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "1",
                "--shards", "6",
                "--alpha", "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val acc" in out and "stopped: max_epochs" in out

    def test_run_with_checkpoint_roundtrip(self, tmp_path, capsys):
        ckpt = tmp_path / "job.npz"
        assert main(
            [
                "run",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "1",
                "--shards", "6",
                "--alpha", "0.9",
                "--checkpoint-out", str(ckpt),
            ]
        ) == 0
        assert ckpt.exists()
        assert main(
            [
                "run",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "2",
                "--shards", "6",
                "--alpha", "0.9",
                "--resume", str(ckpt),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2" in out

    def test_run_command_with_rule(self, capsys):
        code = main(
            [
                "run",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "1",
                "--shards", "6",
                "--rule", "rescaled",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "val acc" in out and "stopped: max_epochs" in out

    def test_sweep_command_with_rule_axis(self, capsys):
        code = main(
            [
                "sweep",
                "-p", "1",
                "-c", "2",
                "-t", "2",
                "--epochs", "1",
                "--shards", "4",
                "--rule", "vcasgd,downpour",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "update_rule" in out
        assert "VC-ASGD" in out and "Downpour" in out

    def test_single_command(self, capsys):
        assert main(["single", "--epochs", "1"]) == 0
        assert "val acc" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "-p", "1",
                "-c", "2",
                "-t", "1,2",
                "--epochs", "1",
                "--shards", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep results" in out
        assert "fastest:" in out and "highest accuracy:" in out

    def test_alpha_study_command(self, capsys):
        code = main(
            [
                "alpha-study",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "2",
                "--alphas", "0.8,var",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha=0.8" in out and "e/(e+1)" in out


class TestConfigErrors:
    """An invalid config exits like a bad flag, with the config's message."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["run", "--codec", "int8", "--cohort-size", "2"],
             dict(codec="int8", cohort_size=2)),
            (["run", "--replicas", "5"], dict(replicas=5, quorum=2)),
            (["sweep", "--codec", "bogus"], dict(codec="bogus")),
        ],
    )
    def test_exits_2_with_the_config_message(self, argv, config, capsys):
        from repro.core import TrainingJobConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as direct:
            TrainingJobConfig(**config)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {direct.value}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", float_flags())
    def test_every_float_flag_rejects_nan(self, command, flag, capsys):
        # --server-lr reaches only the gradient rules.
        rule = ["--rule", "downpour"] if flag == "--server-lr" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *TINY_JOB.get(command, []), *rule, flag, "nan"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cls, name, flag", float_fields(), ids=lambda v: getattr(v, "__name__", v)
    )
    def test_a_nan_flag_exits_with_the_config_message(self, cls, name, flag, capsys):
        with pytest.raises(ConfigurationError) as direct:
            cls(**{name: float("nan")})
        with pytest.raises(SystemExit) as exc:
            main(["run", *TINY_JOB["run"], flag, "nan"])
        assert exc.value.code == 2
        assert f"repro: error: {direct.value}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", ["downpour", "dcasgd", "rescaled"])
    def test_a_nan_server_lr_exits_with_the_rule_message(self, rule, capsys):
        with pytest.raises(ConfigurationError) as direct:
            make_rule(rule, server_lr=float("nan"))
        with pytest.raises(SystemExit) as exc:
            main(["run", *TINY_JOB["run"], "--rule", rule, "--server-lr", "nan"])
        assert exc.value.code == 2
        assert f"repro: error: {direct.value}\n" in capsys.readouterr().err


class TestFaultFlags:
    def test_fleet_fault_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "--preempt-p", "0.1",
                "--corrupt-clients", "2",
                "--corruption-scale", "5.0",
                "--churn-per-hour", "3.0",
                "--max-volunteers", "9",
            ]
        )
        assert args.preempt_p == 0.1
        assert args.corrupt_clients == 2
        assert args.corruption_scale == 5.0
        assert args.churn_per_hour == 3.0
        assert args.max_volunteers == 9

    def test_fleet_flags_reach_fault_config(self):
        from repro.cli import _parse_faults

        args = build_parser().parse_args(
            ["run", "--corrupt-clients", "1", "--churn-per-hour", "2.0",
             "--max-volunteers", "4"]
        )
        faults = _parse_faults(args)
        assert faults.corrupt_clients == 1
        assert faults.volunteer_arrivals_per_hour == 2.0
        assert faults.max_volunteers == 4
        assert faults.chaos is None  # no chaos flags -> no plan

    def test_chaos_flags_build_plan(self):
        from repro.cli import _parse_faults

        args = build_parser().parse_args(
            [
                "run",
                "--xfer-fail-p", "0.05",
                "--xfer-stall-p", "0.01",
                "--xfer-stall-timeout", "45",
                "--partition", "100:50",
                "--partition", "300:20:c1,c2",
                "--ps-crash", "400:60",
                "--ps-crash", "900:never",
                "--kv-outage", "200:30",
                "--kv-degrade", "500:100:4.0",
                "--no-chaos-restore",
            ]
        )
        plan = _parse_faults(args).chaos
        assert plan is not None and plan.active
        assert plan.transfer.failure_p == 0.05
        assert plan.transfer.stall_p == 0.01
        assert plan.transfer.stall_timeout_s == 45.0
        assert plan.partitions[0].clients == ()  # whole fleet
        assert plan.partitions[1].clients == ("c1", "c2")
        assert plan.ps_crashes[0].at_s == 400.0
        assert plan.ps_crashes[0].restart_delay_s == 60.0
        assert plan.ps_crashes[1].restart_delay_s is None  # never restarts
        outage, degraded = plan.kv_windows
        assert outage.latency_factor is None  # hard outage
        assert degraded.latency_factor == 4.0
        assert plan.restore_from_checkpoint is False

    def test_ps_crash_default_restart_delay(self):
        from repro.cli import _parse_ps_crash

        crash = _parse_ps_crash("250")
        assert crash.at_s == 250.0 and crash.restart_delay_s == 120.0

    def test_malformed_windows_rejected(self):
        from repro.cli import _parse_kv_degrade, _parse_partition

        with pytest.raises(SystemExit):
            _parse_partition("100")  # missing duration
        with pytest.raises(SystemExit):
            _parse_kv_degrade("100:50")  # missing factor

    def test_sweep_accepts_chaos_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--xfer-fail-p", "0.1", "--ps-crash", "500",
             "--max-volunteers", "4"]
        )
        assert args.xfer_fail_p == 0.1
        assert args.ps_crash == ["500"]
        assert args.max_volunteers == 4

    def test_run_command_tiny_with_chaos(self, capsys):
        code = main(
            [
                "run",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "1",
                "--shards", "6",
                "--alpha", "0.9",
                "--xfer-fail-p", "0.2",
                "--kv-outage", "10:20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stopped: max_epochs" in out
        assert "transfer_failures" in out  # chaos counters reported


class TestTraceCommand:
    _RUN = [
        "run",
        "-p", "1", "-c", "2", "-t", "2",
        "--epochs", "2",
        "--shards", "4",
        "--alpha", "0.9",
        "--seed", "7",
    ]

    @pytest.fixture()
    def dump(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(self._RUN + ["--trace-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_run_writes_trace_dump(self, dump):
        first = dump.read_text().splitlines()[0]
        assert '"schema": "repro.trace"' in first

    def test_trace_summary(self, dump, capsys):
        assert main(["trace", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "workunit lineages" in out
        assert "span durations" in out
        assert "staleness" in out
        assert "lineage problem" not in out

    def test_trace_critical_path_sums_to_wall_clock(self, dump, capsys):
        assert main(["trace", str(dump), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "= wall clock to last epoch" in out

    def test_trace_wu_drilldown(self, dump, capsys):
        assert main(["trace", str(dump), "--wu", "job:e000:s000"]) == 0
        out = capsys.readouterr().out
        assert "workunit job:e000:s000" in out
        assert "client.train" in out

    def test_trace_unknown_wu_exits_loudly(self, dump):
        with pytest.raises(SystemExit, match="unknown workunit"):
            main(["trace", str(dump), "--wu", "nope"])

    def test_trace_perfetto_export(self, dump, tmp_path, capsys):
        out_path = tmp_path / "perfetto.json"
        assert main(["trace", str(dump), "--perfetto", str(out_path)]) == 0
        import json as _json

        from repro.obs import validate_perfetto

        doc = _json.loads(out_path.read_text())
        assert validate_perfetto(doc) == []

    def test_trace_max_records_bounds_dump(self, tmp_path, capsys):
        path = tmp_path / "bounded.jsonl"
        assert main(
            self._RUN + ["--trace-out", str(path), "--trace-max-records", "20"]
        ) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert len(lines) == 21  # header + ring of 20
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "history is partial" in out
