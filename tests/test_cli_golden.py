"""Golden tests for the CLI surface.

``test_cli_golden.json`` was captured from the hand-written parser of
commit e80a928, before the job commands were generated from the config's
field metadata.  It pins, per command, every option's strings, dest,
default, type, choices and action, and, for an argv corpus, the exact
``TrainingJobConfig`` / ``ObservabilityConfig`` / sweep grid each argv
builds.  The file is expected data: it is never regenerated from the code
under test.

The corpus is every argv in ``tests/test_cli.py``, the README and the
verify recipe (``...`` filled in with its tiny run), one that leaves
``--quorum`` to its computed default, and one argv per job command that
sets every flag that command has.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.core import Sweep, TrainingJobConfig, parallel, runner
from repro.data import synthetic
from repro.simulation import TABLE1_SERVER, resources

GOLDEN = Path(__file__).with_suffix(".json")

TINY = ["-p", "1", "-c", "2", "-t", "2", "--epochs", "2", "--shards", "6"]
TINY_SWEEP = ["-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4"]
FAULTS = [
    "--preempt-p", "0.1",
    "--corrupt-clients", "1",
    "--corruption-scale", "2.5",
    "--churn-per-hour", "1.5",
    "--max-volunteers", "2",
    "--xfer-fail-p", "0.05",
    "--xfer-stall-p", "0.02",
    "--xfer-stall-timeout", "60",
    "--partition", "100:50:c1",
    "--partition", "300:20",
    "--ps-crash", "400:never",
    "--kv-outage", "200:30",
    "--kv-degrade", "500:100:4",
    "--no-chaos-restore",
    "--adversary", "c0:falsify_scale:2.0",
    "--sybils", "evil:2:collude",
]

CORPUS = [
    # tests/test_cli.py
    ["run"],
    ["run", "-p", "5", "-c", "5", "-t", "8"],
    ["run", "--store", "dynamo"],
    ["run", "--rule", "dcasgd"],
    ["run", "--rule", "hogwild"],
    ["sweep", "--rule", "vcasgd,easgd"],
    ["run", "--rule", "dcasgd", "--server-lr", "0.005"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "6",
     "--alpha", "0.9"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "6",
     "--alpha", "0.9", "--checkpoint-out", "job.npz"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "2", "--shards", "6",
     "--alpha", "0.9", "--resume", "job.npz"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "6",
     "--rule", "rescaled"],
    ["sweep", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4",
     "--rule", "vcasgd,downpour"],
    ["single", "--epochs", "1"],
    ["sweep", "-p", "1", "-c", "2", "-t", "1,2", "--epochs", "1", "--shards", "6"],
    ["alpha-study", "-p", "1", "-c", "2", "-t", "2", "--epochs", "2",
     "--alphas", "0.8,var"],
    ["run", "--preempt-p", "0.1", "--corrupt-clients", "2", "--corruption-scale",
     "5.0", "--churn-per-hour", "3.0", "--max-volunteers", "9"],
    ["run", "--corrupt-clients", "1", "--churn-per-hour", "2.0",
     "--max-volunteers", "4"],
    ["run", "--xfer-fail-p", "0.05", "--xfer-stall-p", "0.01",
     "--xfer-stall-timeout", "45", "--partition", "100:50", "--partition",
     "300:20:c1,c2", "--ps-crash", "400:60", "--ps-crash", "900:never",
     "--kv-outage", "200:30", "--kv-degrade", "500:100:4.0", "--no-chaos-restore"],
    ["sweep", "--xfer-fail-p", "0.1", "--ps-crash", "500", "--max-volunteers", "4"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "6",
     "--alpha", "0.9", "--xfer-fail-p", "0.2", "--kv-outage", "10:20"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "2", "--shards", "4",
     "--alpha", "0.9", "--seed", "7", "--trace-out", "trace.jsonl"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "2", "--shards", "4",
     "--alpha", "0.9", "--seed", "7", "--trace-out", "bounded.jsonl",
     "--trace-max-records", "20"],
    # tests/obs/test_telemetry.py
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4",
     "--alpha", "0.9", "--metrics-out", "tele.json", "--profile"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4",
     "--alpha", "0.9", "--metrics-out", "tele.json", "--no-audit"],
    ["sweep", "-p", "1", "-c", "2", "-t", "1,2", "--epochs", "1", "--shards", "4",
     "-j", "2", "--metrics-out", "sweep-j2.json"],
    # README
    ["run", "-p", "3", "-c", "5", "-t", "2", "--alpha", "var", "--epochs", "10",
     "--preempt-p", "0.1"],
    ["run", "--replicas", "3", "--quorum", "2", "--autoscale",
     "--checkpoint-out", "job.npz"],
    ["run", "--rule", "downpour"],
    ["sweep", "--rule", "vcasgd,downpour,easgd", "-t", "4", "--epochs", "10"],
    ["single", "--epochs", "10"],
    ["alpha-study", "--alphas", "0.7,0.95,var"],
    ["sweep", "-p", "1,3,5", "-t", "2,4,8"],
    # the verify recipe
    ["run", *TINY],
    ["run", *TINY, "--rule", "dcasgd", "--server-lr", "0.005"],
    ["run", *TINY, "--checkpoint-out", "j.npz"],
    ["run", "-p", "1", "-c", "2", "-t", "2", "--epochs", "4", "--shards", "6",
     "--resume", "j.npz"],
    ["sweep", *TINY_SWEEP, "--rule", "vcasgd,downpour"],
    ["run", *TINY, "--preempt-p", "0.5"],
    ["run", *TINY, "--codec", "int8"],
    ["sweep", *TINY_SWEEP, "--codec", "none,zlib,int8"],
    ["run", *TINY, "--cohort-size", "4", "--step-jobs", "2"],
    ["sweep", "-p", "1", "-c", "2", "-t", "2", "--epochs", "1", "--shards", "4",
     "--rule", "vcasgd,easgd", "--codec", "none,int8"],
    ["sweep", "--codec", "INT8"],
    # the computed --quorum default
    ["run", "--replicas", "3"],
    # every flag of every job command
    ["run", "--servers", "2", "--clients", "4", "--concurrency", "3",
     "--epochs", "3", "--shards", "8", "--alpha", "0.85", "--rule", "dcasgd",
     "--server-lr", "0.005", "--target", "0.9", "--store", "strong",
     "--codec", "topk", "--topk", "0.05", "--quant", "int8", *FAULTS,
     "--replicas", "3", "--quorum", "3", "--collusion-guard",
     "--quarantine-after", "2", "--max-param-norm", "50", "--autoscale",
     "--work-fetch", "ping", "--server-planes", "2", "--cohort-size", "1",
     "--step-jobs", "1", "--warm-start", "1", "--seed", "9",
     "--checkpoint-out", "out.npz", "--resume", "in.npz",
     "--metrics-out", "m.json", "--no-audit", "--profile",
     "--trace-out", "t.jsonl", "--trace-max-records", "100"],
    ["sweep", "--servers", "1,2", "--clients", "4", "--concurrency", "2,3",
     "--epochs", "2", "--shards", "6", "--alpha", "var",
     "--rule", "vcasgd,dcasgd", "--server-lr", "0.01",
     "--codec", "none,INT8", "--seed", "5", "--jobs", "2",
     "--metrics-out", "s.json", *FAULTS],
    ["single", "--epochs", "3", "--seed", "8", "--target", "0.7"],
    ["alpha-study", "--servers", "2", "--clients", "4", "--concurrency", "3",
     "--epochs", "5", "--alphas", "0.6,var"],
]

# Fields that left TrainingJobConfig (dotted: a config it holds), and what
# now stands in for each at run time.
REMOVED_FIELDS = {
    "affinity_enabled": lambda config: True,
    "reliability_enabled": lambda config: True,
    "val_eval_subsample": lambda config: runner.VAL_EVAL_SUBSAMPLE,
    "flat_features": lambda config: config.flat_features,
    "server_planes": lambda config: 1,
    "congestion": lambda config: None,
    "server_spec": lambda config: describe(TABLE1_SERVER),
    "ps_effective_cores": lambda config: runner.PS_EFFECTIVE_CORES,
    "data.prototypes_per_class": lambda config: synthetic.PROTOTYPES_PER_CLASS,
    "data.pattern_frequencies": lambda config: synthetic.PATTERN_FREQUENCIES,
    "work_units_per_subtask": lambda config: resources.SUBTASK_WORK_UNITS,
    "validation_work_units": lambda config: resources.VALIDATION_WORK_UNITS,
}
# Options deleted with their field, per command: option -> the field it
# set.  Each takes one value.
REMOVED_OPTIONS = {"run": {"--server-planes": "server_planes"}}


def without_removed_options(argv: list[str]) -> tuple[list[str], set[str]]:
    """``argv`` with every removed option and its value stripped, and the
    fields those options set."""
    removed = REMOVED_OPTIONS.get(argv[0], {})
    kept, fields = [], set()
    tokens = iter(argv)
    for token in tokens:
        if token in removed:
            fields.add(removed[token])
            next(tokens)
        else:
            kept.append(token)
    return kept, fields


def pop_field(fields: dict, name: str):
    """Remove a field, dotted into nested configs, from a ``describe`` dict."""
    *path, leaf = name.split(".")
    for part in path:
        fields = fields[part]["fields"]
    return fields.pop(leaf)


def describe(value):
    """A JSON-comparable rendering of a config value, field by field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: describe(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"type": type(value).__name__, "fields": fields}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): describe(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return describe(value.tolist())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"type": type(value).__name__, "fields": describe(dict(sorted(vars(value).items())))}


def option_table(parser: argparse.ArgumentParser) -> dict:
    """Per dest: the attributes that define what an option parses."""
    table = {}
    for action in parser._actions:
        choices = action.choices
        if isinstance(choices, dict):  # the subcommand selector
            choices = sorted(choices)
        table[action.dest] = {
            "option_strings": list(action.option_strings),
            "action": type(action).__name__,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": None if choices is None else list(choices),
            "nargs": action.nargs,
            "const": action.const,
            "metavar": action.metavar,
            "required": action.required,
            "help": action.help,
        }
    return table


def option_tables() -> dict:
    parser = cli.build_parser()
    tables = {"repro": option_table(parser)}
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        tables[name] = option_table(subparser)
    return tables


class _Stop(Exception):
    """Raised by the stand-ins once the command has built its configs."""


class _FakeResult:
    def val_accuracy(self):
        return np.array([0.5])

    def mean_spread(self, last_k):
        return 0.0


def built(argv: list[str], monkeypatch) -> dict:
    """What ``main(argv)`` builds: job configs, observability, sweep grid.

    The execution entry points are replaced by stand-ins that record their
    inputs, so nothing is trained and nothing is written.
    """
    seen: dict = {"configs": []}

    class FakeRunner:
        def __init__(self, config, resume_from=None, observability=None):
            seen["configs"].append(config)
            seen["observability"] = describe(observability)
            seen["resume"] = resume_from
            raise _Stop

    def fake_run_configs(configs, jobs=1, collect_telemetry=False):
        seen["configs"].extend(configs)
        seen["jobs"] = jobs
        seen["collect_telemetry"] = collect_telemetry
        raise _Stop

    def fake_single(config):
        seen["configs"].append(config)
        raise _Stop

    def fake_experiment(config):
        seen["configs"].append(config)
        return _FakeResult()

    real_configs = Sweep.configs

    def recording_configs(sweep):
        pairs = real_configs(sweep)
        seen["grid"] = [
            [[name, describe(value)] for name, value in overrides]
            for overrides, _ in pairs
        ]
        return pairs

    monkeypatch.setattr(cli, "DistributedRunner", FakeRunner)
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: f"checkpoint:{path}")
    monkeypatch.setattr(cli, "run_single_instance", fake_single)
    monkeypatch.setattr(cli, "run_experiment", fake_experiment)
    monkeypatch.setattr(parallel, "run_configs", fake_run_configs)
    monkeypatch.setattr(Sweep, "configs", recording_configs)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except _Stop:
            pass
        except SystemExit as exc:
            seen["exit"] = exc.code
    return seen


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_is_the_captured_one(golden):
    assert [entry["argv"] for entry in golden["corpus"]] == CORPUS


@pytest.mark.parametrize("command", ["repro", "run", "sweep", "single", "cost",
                                     "preempt-model", "alpha-study", "dashboard",
                                     "trace"])
def test_option_table_matches_parent(command, golden):
    removed = REMOVED_OPTIONS.get(command, {})
    expected = {
        dest: want
        for dest, want in golden["options"][command].items()
        if not removed.keys() & set(want["option_strings"])
    }
    actual = option_tables()[command]
    assert sorted(actual) == sorted(expected)
    for dest, want in expected.items():
        got = dict(actual[dest])
        want = dict(want)
        # Help text may be reworded or moved, but no option loses it.
        if want.pop("help"):
            assert got["help"], f"{command} {dest}: help dropped"
        got.pop("help")
        assert got == want, f"{command} {dest}"


def test_option_and_field_counts():
    counts = {name: len(table) - 1 for name, table in option_tables().items()}
    assert counts["run"] == 46 and counts["sweep"] == 27
    assert counts["single"] == 3 and counts["alpha-study"] == 5
    assert len(dataclasses.fields(TrainingJobConfig)) == 37


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"{i:02d}-{CORPUS[i][0]}")
def test_argv_builds_the_parent_config(index, golden, monkeypatch):
    entry = golden["corpus"][index]
    argv, stripped = without_removed_options(entry["argv"])
    seen = built(argv, monkeypatch)
    assert seen.get("exit") == entry.get("exit")
    assert len(seen["configs"]) == len(entry["configs"])
    for config, changed in zip(seen["configs"], entry["configs"]):
        # Captured as the fields that differ from the parent's defaults.
        want = copy.deepcopy({**golden["default_config"], **changed})
        for name, stand_in in REMOVED_FIELDS.items():
            captured = pop_field(want, name)
            # A stripped option's field held the value the option set.
            if name not in stripped:
                assert captured == stand_in(config), name
        assert describe(config)["fields"] == want
    for key in ("observability", "resume", "jobs", "collect_telemetry", "grid"):
        assert seen.get(key) == entry.get(key), key
