"""Golden pins for the two comparators: single-instance and round harness.

Both train through the client step engine; these digests hold their
trajectories bit-for-bit — epoch/round records plus (single instance)
final parameters — across any refactor of the training loop.  The round
cases run with dropouts and a ``local_steps`` cap that stops mid-pass, so
the truncated last batch order and the barrier rule's redraws are pinned
too.  A moved digest means the comparators' numbers changed.  Every
digest here was re-captured when client steps moved to the float32 step
dtype (DESIGN.md §8.7).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import ConstantAlpha, LocalTrainingConfig
from repro.core.baselines import RoundHarness, SingleInstanceTrainer
from repro.core.rules import DownpourRule, EASGDRule, VCASGDRule
from repro.nn.models import ModelSpec

from .test_baselines import tiny_job, tiny_round_config


def single_instance_digest(config) -> str:
    trainer = SingleInstanceTrainer(config)
    result = trainer.run()
    records = [
        [e.epoch, e.end_time_s, e.val_accuracy_mean, e.test_accuracy]
        for e in result.epochs
    ]
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps([records, result.stopped_reason]).encode())
    state = trainer.model.state_dict()
    for key in sorted(state):
        h.update(key.encode())
        h.update(state[key].tobytes())
    return h.hexdigest()


SINGLE_INSTANCE = {
    "adam": (dict(max_epochs=3), "54495d569646b35b654a7950b8743804"),
    "sgd": (
        dict(
            max_epochs=3,
            local_training=LocalTrainingConfig(optimizer="sgd", learning_rate=0.05),
        ),
        "d810992a86f40d02f512e12b56efac23",
    ),
    "batchnorm": (
        dict(
            max_epochs=3,
            model=ModelSpec(
                "mlp",
                {"in_features": 48, "hidden": [8], "num_classes": 4, "batch_norm": True},
            ),
        ),
        "ca2545c4d7df089a24f0b9fdec0062e8",
    ),
}


@pytest.mark.parametrize("case", sorted(SINGLE_INSTANCE))
def test_single_instance_golden(case):
    overrides, golden = SINGLE_INSTANCE[case]
    assert single_instance_digest(tiny_job(**overrides)) == golden


# 120 samples over 3 clients at batch 10 = 4 batches per pass; 6 local
# steps stop half-way through the second pass.
ROUND_CONFIG = dict(num_rounds=5, dropout_p=0.3, local_steps=6)

ROUND_RULES = {
    "vcasgd": (
        lambda: VCASGDRule(ConstantAlpha(0.7)), "7ca1f2a4f5657b8f723ad28b867bde04"
    ),
    "downpour": (
        lambda: DownpourRule(server_lr=0.02), "99b2ad1a6cd8798721b18db040c81781"
    ),
    "easgd": (
        lambda: EASGDRule(moving_rate=0.2), "b785e771c4334312373f80f0d4c7bc88"
    ),
}


class _Recording:
    """Delegates to ``rule`` and hashes every server vector it returns."""

    def __init__(self, rule) -> None:
        self.rule = rule
        self.hash = hashlib.blake2b(digest_size=16)

    def __getattr__(self, name):
        return getattr(self.rule, name)

    def apply(self, server, update, epoch):
        server = self.rule.apply(server, update, epoch)
        self.hash.update(server.tobytes())
        return server


@pytest.mark.parametrize("rule", sorted(ROUND_RULES))
def test_round_harness_golden(rule):
    make_rule, golden = ROUND_RULES[rule]
    recording = _Recording(make_rule())
    result = RoundHarness(tiny_round_config(**ROUND_CONFIG)).run(recording)
    records = [
        [r.round_index, r.end_time_s, r.val_accuracy, r.reported, r.stalled_retries]
        for r in result.records
    ]
    recording.hash.update(json.dumps([records, result.total_stalls]).encode())
    assert recording.hash.hexdigest() == golden
