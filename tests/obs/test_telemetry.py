"""Telemetry export: schema, digest semantics, round-trip, CLI, dashboard."""

from __future__ import annotations

import json

import pytest

from repro.analysis import sweep_dashboard, telemetry_dashboard
from repro.cli import main
from repro.core.runner import DistributedRunner
from repro.errors import ObservabilityError
from repro.obs import (
    DIGEST_FIELDS,
    OBSERVABILITY_OFF,
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    ObservabilityConfig,
    build_sweep_telemetry,
    read_telemetry,
    run_digest,
    write_telemetry,
)

from ..core.test_runner import tiny_config


@pytest.fixture(scope="module")
def finished_runner():
    runner = DistributedRunner(tiny_config(), observability=ObservabilityConfig(profile=True))
    runner.run()
    return runner


class TestDocument:
    def test_schema_and_sections(self, finished_runner):
        payload = finished_runner.telemetry()
        assert payload["schema"] == TELEMETRY_SCHEMA
        assert payload["schema_version"] == TELEMETRY_VERSION
        assert payload["seed"] == finished_runner.config.seed
        assert len(payload["epochs"]) == len(finished_runner.result.epochs)
        assert payload["counters"] == dict(finished_runner.result.counters)
        assert payload["audit"]["ok"] is True
        assert payload["metrics"]["histograms"]
        assert payload["profile"]["total_events"] > 0
        assert payload["digest"] == run_digest(payload)

    def test_document_is_json_serialisable(self, finished_runner):
        json.dumps(finished_runner.telemetry())

    def test_digest_excludes_observability_sections(self, finished_runner):
        payload = finished_runner.telemetry()
        stripped = {k: v for k, v in payload.items() if k in DIGEST_FIELDS}
        assert run_digest(stripped) == payload["digest"]
        # Mutating an observability section must not move the digest ...
        tampered = dict(payload)
        tampered["metrics"] = None
        tampered["audit"] = None
        tampered["profile"] = None
        assert run_digest(tampered) == payload["digest"]
        # ... but touching the deterministic core must.
        tampered["counters"] = {**payload["counters"], "assimilations": 999}
        assert run_digest(tampered) != payload["digest"]

    def test_round_trip(self, finished_runner, tmp_path):
        payload = finished_runner.telemetry()
        path = write_telemetry(tmp_path / "run.json", payload)
        loaded = read_telemetry(path)
        assert loaded == json.loads(json.dumps(payload))  # tuples -> lists

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something.else"}))
        with pytest.raises(ObservabilityError, match="not a telemetry document"):
            read_telemetry(path)

    def test_read_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": TELEMETRY_SCHEMA, "schema_version": 999})
        )
        with pytest.raises(ObservabilityError, match="version"):
            read_telemetry(path)

    def test_read_rejects_tampered_core(self, finished_runner, tmp_path):
        payload = finished_runner.telemetry()
        tampered = json.loads(json.dumps(payload))
        tampered["total_time_s"] += 1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        with pytest.raises(ObservabilityError, match="digest mismatch"):
            read_telemetry(path)

    def test_sweep_document_round_trip(self, finished_runner, tmp_path):
        doc = build_sweep_telemetry([finished_runner.telemetry()])
        path = write_telemetry(tmp_path / "sweep.json", doc)
        loaded = read_telemetry(path)
        assert loaded["schema"].endswith(".sweep")
        assert len(loaded["runs"]) == 1


class TestObservabilityModes:
    def test_off_mode_emits_no_observability_sections(self):
        runner = DistributedRunner(tiny_config(), observability=OBSERVABILITY_OFF)
        runner.run()
        payload = runner.telemetry()
        assert payload["metrics"] is None
        assert payload["audit"] is None
        assert payload["profile"] is None
        assert payload["digest"] == run_digest(payload)


class TestDashboards:
    def test_run_dashboard_renders_all_panels(self, finished_runner):
        text = telemetry_dashboard(finished_runner.telemetry())
        assert "accuracy vs simulated hours" in text
        assert "run counters" in text
        assert "latency distributions" in text
        assert "component timers" in text
        assert "wall-clock profile" in text
        assert "audit: OK" in text

    def test_sweep_dashboard_renders(self, finished_runner):
        text = sweep_dashboard(build_sweep_telemetry([finished_runner.telemetry()]))
        assert "sweep telemetry" in text
        assert "OK" in text


class TestCli:
    RUN_ARGS = [
        "run",
        "-p", "1", "-c", "2", "-t", "2",
        "--epochs", "1",
        "--shards", "4",
        "--alpha", "0.9",
    ]

    def test_run_metrics_out_and_dashboard(self, tmp_path, capsys):
        out = tmp_path / "tele.json"
        code = main(self.RUN_ARGS + ["--metrics-out", str(out), "--profile"])
        assert code == 0
        assert "telemetry written to" in capsys.readouterr().out
        payload = read_telemetry(out)
        assert payload["audit"]["ok"] is True
        assert payload["profile"]["total_events"] > 0

        assert main(["dashboard", str(out)]) == 0
        text = capsys.readouterr().out
        assert "audit: OK" in text and "run counters" in text

    def test_run_no_audit(self, tmp_path, capsys):
        out = tmp_path / "tele.json"
        assert main(self.RUN_ARGS + ["--metrics-out", str(out), "--no-audit"]) == 0
        capsys.readouterr()
        payload = read_telemetry(out)
        assert payload["audit"] is None
        assert payload["metrics"] is not None

    def test_sweep_metrics_out_and_dashboard(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "-p", "1", "-c", "2", "-t", "2",
                "--epochs", "1",
                "--shards", "4",
                "--rule", "vcasgd,downpour",
                "--metrics-out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = read_telemetry(out)
        assert len(payload["runs"]) == 2
        assert all(run["audit"]["ok"] for run in payload["runs"])

        assert main(["dashboard", str(out)]) == 0
        assert "sweep telemetry" in capsys.readouterr().out

    def test_sweep_metrics_out_is_one_path_at_any_jobs(self, tmp_path, capsys):
        digests = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep-j{jobs}.json"
            code = main(
                [
                    "sweep",
                    "-p", "1", "-c", "2", "-t", "1,2",
                    "--epochs", "1",
                    "--shards", "4",
                    "-j", jobs,
                    "--metrics-out", str(out),
                ]
            )
            assert code == 0
            digests.append([run["digest"] for run in read_telemetry(out)["runs"]])
        capsys.readouterr()
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]
