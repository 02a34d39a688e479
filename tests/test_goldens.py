"""The golden registry: one place for every run digest, one way to list them."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from .goldens import BENCH_PINS, GOLDENS, main, recompute


def test_the_listing_sets_each_pinned_digest_beside_its_recomputed_one(capsys):
    assert main(["codec_none/vcasgd"]) == 0
    line = capsys.readouterr().out.strip()
    hex_ = GOLDENS["codec_none/vcasgd"].hex
    assert line.split() == [
        "codec_none/vcasgd", "ok", "pinned", hex_, "recomputed", hex_
    ]


def test_no_test_module_pins_a_digest_of_its_own():
    tests = Path(__file__).parent
    digest = re.compile(r"\b[0-9a-f]{64}\b")
    strays = [
        str(path.relative_to(tests))
        for path in sorted(tests.rglob("*.py"))
        if path.name != "goldens.py"
        and digest.search(path.read_text())
    ]
    assert strays == []


@pytest.mark.parametrize("name", sorted(BENCH_PINS))
def test_each_tiny_bench_workload_matches_its_pin(name):
    assert recompute(name) == BENCH_PINS[name]


def test_the_listing_shows_a_bench_pin_with_its_simulated_metrics(capsys):
    assert main(["bench/fleet_10k_ping"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.split()[:3] == ["bench/fleet_10k_ping", "ok", "pinned"]
    assert line.count(str(BENCH_PINS["bench/fleet_10k_ping"])) == 2
