"""The float64 side of the step-dtype boundary, seen from a whole run.

Client steps train in float32 (``repro.nn.serialization.STEP_DTYPE``);
everything downstream of a step — the codec plane, the validator, the
update rules, the wire pricing — works on float64 vectors.  A step's
trained parameters cross at ``StateLayout.pack`` and Downpour's collected
gradient at ``StateLayout.accumulate``, both widening exactly.  These
tests watch every upload arrive at each of the three consumers and check
its dtype, and pin the upload bytes a gradient run charges: a gradient
that crossed in float32 would be priced at half its size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc.validator import ParameterValidator
from repro.core import DistributedRunner, make_rule
from repro.core.codec_plane import ParamCodecPlane
from repro.core.rules import UpdateRule

from .test_runner import tiny_config


@pytest.fixture
def seen(monkeypatch):
    """Dtypes of every ``params``/``gradient`` each consumer receives."""
    seen: dict[str, set] = {"codec": set(), "validator": set(), "rule": set()}

    def record(where, update):
        seen[where].add(("params", update.params.dtype))
        if update.gradient is not None:
            seen[where].add(("gradient", update.gradient.dtype))

    def watch(cls, name, where, arg):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            record(where, args[arg])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    watch(ParamCodecPlane, "encode_upload", "codec", 0)
    watch(ParameterValidator, "validate", "validator", 0)
    watch(UpdateRule, "apply", "rule", 1)
    return seen


FLOAT64 = np.dtype(np.float64)


@pytest.mark.parametrize("codec", [None, "zlib", "int8"])
def test_downpour_uploads_reach_every_consumer_as_float64(seen, codec):
    config = tiny_config(
        num_clients=3,
        update_rule=make_rule("downpour", server_lr=0.05),
        codec=codec,
        step_jobs=1,
        max_epochs=1,
    )
    DistributedRunner(config).run()
    consumers = ("validator", "rule") if codec is None else tuple(seen)
    for where in consumers:
        assert seen[where] == {("params", FLOAT64), ("gradient", FLOAT64)}, where


def test_downpour_upload_bytes_are_priced_in_float64():
    """Pinned on the tree that trained in float64: the step dtype moves
    what a gradient upload weighs on the wire by nothing."""
    config = tiny_config(
        num_clients=3,
        update_rule=make_rule("downpour", server_lr=0.05),
        seed=1234,
        step_jobs=1,
    )
    result = DistributedRunner(config).run()
    assert result.counters["assimilations"] == 12
    assert result.counters["bytes_up"] == 36972
