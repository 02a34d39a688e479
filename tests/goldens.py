"""Every golden run digest the test suite pins, and the one way to compute them.

A golden is a sha256 over one whole run of ``tiny_config(**overrides)``
(``tests/core/test_runner.py``): its final parameters, its counters, its
epoch records and its trace, in one of three modes:

* ``"kinds"`` — the census of trace-record kinds;
* ``"none"`` — no trace at all;
* ``"ordered"`` — every record in order, with its time and fields.

The trace-order goldens hash the ordered records alone
(:func:`trace_digest`).

**Re-capture rule.**  A golden moves only when a change means to change
the runs it hashes, and that change says so up front, re-captures the
value here and records the old and new hex in CHANGES.md.  A host-side
change (where, when or on how many processes or threads a step trains or
an upload is priced) moves none; if one moves, find the leak instead.

List every golden, pinned against recomputed::

    PYTHONPATH=src python -m tests.goldens [NAME ...]
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core import DistributedRunner, FaultConfig, TrainingJobConfig, make_rule
from repro.nn.models import ModelSpec
from repro.simulation.chaos import ChaosPlan, ServerCrash, TransferFaultPlan

from .core.test_runner import tiny_config

TRACE_MODES = ("kinds", "none", "ordered")


def ordered_records(trace) -> bytes:
    return json.dumps(
        [[rec.time, rec.kind, sorted(rec.fields.items())] for rec in trace],
        default=repr,
    ).encode()


def digest_of(runner: DistributedRunner, result, trace: str = "kinds") -> str:
    """The digest of a run that has finished: ``result`` is what
    ``runner.run()`` returned."""
    if trace not in TRACE_MODES:
        raise ValueError(f"trace must be one of {TRACE_MODES}, got {trace!r}")
    h = hashlib.sha256()
    h.update(runner.pool.current_params().tobytes())
    h.update(json.dumps(result.counters, sort_keys=True).encode())
    h.update(
        json.dumps(
            [
                [e.end_time_s, e.val_accuracy_mean, e.test_accuracy]
                for e in result.epochs
            ]
        ).encode()
    )
    if trace == "kinds":
        kinds = Counter(rec.kind for rec in runner.trace)
        h.update(json.dumps(sorted(kinds.items())).encode())
    elif trace == "ordered":
        h.update(ordered_records(runner.trace))
    return h.hexdigest()


def run_digest(config: TrainingJobConfig, trace: str = "kinds") -> str:
    runner = DistributedRunner(config)
    return digest_of(runner, runner.run(), trace)


def trace_digest(config: TrainingJobConfig) -> str:
    runner = DistributedRunner(config)
    runner.run()
    return hashlib.sha256(ordered_records(runner.trace)).hexdigest()


@dataclass(frozen=True)
class Golden:
    """One pinned digest: the tiny run it hashes, and how."""

    overrides: dict
    hex: str
    digest: Callable[[TrainingJobConfig], str] = run_digest

    def config(self, **extra) -> TrainingJobConfig:
        return tiny_config(**{**self.overrides, **extra})

    def recompute(self) -> str:
        return self.digest(self.config())


_NO_TRACE = partial(run_digest, trace="none")
_ORDERED = partial(run_digest, trace="ordered")

# The int8 model (74 k scalars) is wider than one optimizer/merge/encoder
# block, so it drives the blocked loops end to end.
WIDE_MLP = ModelSpec("mlp", {"in_features": 48, "hidden": [1400], "num_classes": 4})

GOLDENS: dict[str, Golden] = {
    # Captured on the serial path when the multi-core plane landed
    # (DESIGN.md §8.5).  The default-path digest: if it moves, default
    # runs changed.  Every execution combo must hash to it.
    "multicore/p1c3t2": Golden(
        dict(num_clients=3, step_jobs=1),
        "7d17db9b18a335a4326d274d051597c804f488c740f1ccb114cf97060a691be4",
    ),
    # Captured on the commit preceding the codec plane: with codec=None
    # the plane is dormant.
    "codec_none/vcasgd": Golden(
        dict(),
        "5b8acddfaa6e9e020419fc346fe18c16d4fc5899bcc8c116964d7ac9e4af40b5",
    ),
    "codec_none/downpour": Golden(
        dict(num_clients=3, update_rule=make_rule("downpour", server_lr=0.05)),
        "3a96ad63bad955afecd268e2a05a0f1b279c9759151c0a062a7ce07e33050c89",
    ),
    # Lossy-codec pins, captured before parameter files were kept in their
    # encoded form and before the optimizer/merge/encoder scratch became
    # block-sized.  Error feedback is on (one replica) except in the
    # replicated run, where the plane turns it off.
    "codec_lossy/int8_wide": Golden(
        dict(codec="int8", model=WIDE_MLP),
        "c26df9a86ae89b875184e42d92b40a7cd8b2c77924b46f2c1d79496d062fa940",
    ),
    "codec_lossy/fp16": Golden(
        dict(codec="fp16"),
        "9ee43626211d540e94dab34d3131c3afa91d21f10d9fd78458baaa7a733fe8a8",
    ),
    "codec_lossy/topk_int8_downpour": Golden(
        dict(
            codec="topk",
            codec_quant="int8",
            update_rule=make_rule("downpour", server_lr=0.05),
        ),
        "6c6e75642f5652c2c128a06382da4e8c7dbfcbd639fe448b56166bb8ec713281",
    ),
    "codec_lossy/fp16_replicated": Golden(
        dict(num_clients=3, codec="fp16", replicas=2, quorum=2),
        "a9c50364860069afd8acfcf94c97dd56fae3883bb11563ffe8a39a8db77fdc6f",
    ),
    # Captured on the commit preceding the adversary fabric: with no
    # adversary the fabric is invisible.  plain_corrupt was re-captured
    # once, when the multi-core plane re-keyed unreplicated batch-order
    # draws from a sequential per-client stream to per-attempt generators
    # (replicas already drew per logical workunit).
    "byzantine/plain_corrupt": Golden(
        dict(num_clients=3, faults=FaultConfig(corrupt_clients=1, corruption_scale=0.5)),
        "6fd2cd9994ca81ebaf2dbf567c26d3e739f2f3b257bf47087b09384c63509f2b",
    ),
    "byzantine/replicated": Golden(
        dict(num_clients=4, replicas=2, quorum=2),
        "c3b55332130b2798eda77c314e150bd87611bd4305f8e2d936a0f78641a22240",
        _NO_TRACE,
    ),
    # Codec compositions the benchmark does not cover, captured on the
    # tree that priced every upload inline and trained every subtask at
    # its compute end.
    # 13 timeouts, 3 of them reissued to the client that timed out.
    "upload/int8_timeouts": Golden(
        dict(codec="int8", subtask_timeout_s=150),
        "036300099700196682e11b8f8d9b129c57aee5f745f921bcdd2591729bbbdb80",
        _ORDERED,
    ),
    # One preemption mid-compute; its two attempts are reissued.
    "upload/int8_preemption": Golden(
        dict(
            codec="int8",
            num_clients=3,
            max_epochs=3,
            faults=FaultConfig(preemption_hourly_p=0.9, relaunch_delay_s=30),
        ),
        "8e2e43e93f7a56ddf44311f233d98ab22b364d22bdd845216ddedcf89df1cbfc",
        _ORDERED,
    ),
    # A sole parameter server crashes and restores from its checkpoint,
    # and failed uploads retry with the size resolved the first time.
    "upload/int8_chaos": Golden(
        dict(
            codec="int8",
            max_epochs=3,
            faults=FaultConfig(
                chaos=ChaosPlan(
                    transfer=TransferFaultPlan(failure_p=0.2),
                    ps_crashes=(ServerCrash(at_s=300.0, restart_delay_s=60.0),),
                )
            ),
        ),
        "8b081088bf4657168f7eb77af4e2342571fa0b257f29584cc6eb1087ea0a9c74",
        _ORDERED,
    ),
    # The gradient stream.
    "upload/fp16_downpour": Golden(
        dict(
            codec="fp16",
            num_clients=3,
            update_rule=make_rule("downpour", server_lr=0.05),
        ),
        "c60b553491cefa81828ec6994e5957b357114cac6bf3e2e31289417eab0cee01",
        _ORDERED,
    ),
    "upload/zlib": Golden(
        dict(codec="zlib"),
        "30de0f46ff39c6089fbe6f42a477283116ab31a47e39b2650ead41b17e38d3a9",
        _ORDERED,
    ),
    "upload/delta": Golden(
        dict(codec="delta"),
        "ae61dbf891974c6ac66923d130e8680ff03c2271fe57314fc9d81049699ea2cb",
        _ORDERED,
    ),
    "upload/topk": Golden(
        dict(codec="topk"),
        "4b57f2cda9af4b2ecf77d7fd241d08dda5c5d053996b5a5b22cb302d3bc6a264",
        _ORDERED,
    ),
    # The ordered records alone, captured on the same tree as the upload
    # compositions.
    "trace_order/int8": Golden(
        dict(codec="int8"),
        "3a0fcc1b0c530b5530416ea09290f95e528e15701642611215226aa61dc2a3a7",
        trace_digest,
    ),
    "trace_order/zlib": Golden(
        dict(codec="zlib"),
        "638284997393838af13da99b5d912a451d65e34cecd340ad5fbce8903f5ddc1d",
        trace_digest,
    ),
    # Transfer failures with timeouts that reissue units to the client
    # that timed out.  Re-captured when a download retry began to die
    # with its attempt (it was
    # dd727e9ccbc8f77fc70957f9c66cf2ba166a453caf903b517aa663ea1d685f6e,
    # with one attempt computed twice on a client), and again when the
    # runner began to read each merge's staleness off the merged update
    # (it was
    # 2af5dd3fbfade2ca511bd8b69d5c2323bdc850eda0e2654e18db6160cde013f6,
    # with one sample taken from a later compute of the same unit).
    "attempts/reissued_downloads": Golden(
        dict(
            num_clients=3,
            max_epochs=4,
            subtask_timeout_s=200,
            faults=FaultConfig(
                chaos=ChaosPlan(transfer=TransferFaultPlan(failure_p=0.85))
            ),
            step_jobs=1,
        ),
        "ec30f8f49fc8282f9dd02ca8037706b36ab9d15fff9aa6dd5b92b59562fda121",
    ),
}


def family(prefix: str) -> dict[str, Golden]:
    """The goldens named ``prefix/<name>``, keyed by ``<name>``."""
    head = prefix + "/"
    return {
        name[len(head) :]: golden
        for name, golden in GOLDENS.items()
        if name.startswith(head)
    }


def main(names: list[str]) -> int:
    """Print every golden (or those named) pinned beside recomputed;
    return 1 if any moved."""
    names = names or list(GOLDENS)
    width = max(map(len, names))
    moved = 0
    for name in names:
        pinned, recomputed = GOLDENS[name].hex, GOLDENS[name].recompute()
        status = "ok" if pinned == recomputed else "MOVED"
        moved += status == "MOVED"
        print(f"{name:<{width}}  {status:<5}  pinned {pinned}  recomputed {recomputed}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
