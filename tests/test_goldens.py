"""The golden registry: one place for every run digest, one way to list them."""

from __future__ import annotations

import re
from pathlib import Path

from .goldens import GOLDENS, main


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
