"""Every golden run digest the test suite pins, and the one way to compute them.

A golden is a sha256 over one whole run of ``tiny_config(**overrides)``
(``tests/core/test_runner.py``): its final parameters, its counters, its
epoch records and its trace, in one of three modes:

* ``"kinds"`` — the census of trace-record kinds;
* ``"none"`` — no trace at all;
* ``"ordered"`` — every record in order, with its time and fields.

The trace-order goldens hash the ordered records alone
(:func:`trace_digest`); tests that compare two models' states hash each
with :func:`state_checksum`.

:data:`BENCH_PINS` pins what the benchmark runs: each workload of
``bench/workloads.py`` at ``--tiny`` and seed 1234, by the digest its
outcome reports, its ``sim_time_s`` and its ``wire_mb``.

**Re-capture rule.**  A golden moves only when a change means to change
the runs it hashes, and that change says so up front, re-captures the
value here and records the old and new hex in CHANGES.md.  A host-side
change (where, when or on how many processes or threads a step trains or
an upload is priced) moves none; if one moves, find the leak instead.

List every golden and bench pin, pinned against recomputed::

    PYTHONPATH=src python -m tests.goldens [NAME ...]
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import DistributedRunner, FaultConfig, TrainingJobConfig, make_rule
from repro.nn.models import ModelSpec
from repro.simulation.chaos import ChaosPlan, ServerCrash, TransferFaultPlan

from .core.test_runner import tiny_config

TRACE_MODES = ("kinds", "none", "ordered")


def state_checksum(state: dict[str, np.ndarray]) -> str:
    """sha256 over a state dict's keys, shapes and float64 values in key
    order, so equal states hash equal whatever their dict order."""
    digest = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key], dtype=np.float64)
        digest.update(key.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


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

# Every hex below was re-captured, the captions' histories aside, when
# client steps moved to the float32 step dtype (DESIGN.md §8.7).
GOLDENS: dict[str, Golden] = {
    # Captured on the serial path when the multi-core plane landed
    # (DESIGN.md §8.5).  The default-path digest: if it moves, default
    # runs changed.  Every execution combo must hash to it.
    "multicore/p1c3t2": Golden(
        dict(num_clients=3, step_jobs=1),
        "431d71e0e591a2968919e2ce5b236b170a3a49ec69c12310e763d55d0315ee6c",
    ),
    # Captured on the commit preceding the codec plane: with codec=None
    # the plane is dormant.
    "codec_none/vcasgd": Golden(
        dict(),
        "4ce96710afc5b4f6ba6b190dbfcd350b50b4d9c7ae9908f175274b4ee6a61ea3",
    ),
    "codec_none/downpour": Golden(
        dict(num_clients=3, update_rule=make_rule("downpour", server_lr=0.05)),
        "475d10c00ca6253d4ffd9d87aa232b56c1b87f34de7447b161b48a7a7ec02966",
    ),
    # Lossy-codec pins, captured before parameter files were kept in their
    # encoded form and before the optimizer/merge/encoder scratch became
    # block-sized.  Error feedback is on (one replica) except in the
    # replicated run, where the plane turns it off.
    "codec_lossy/int8_wide": Golden(
        dict(codec="int8", model=WIDE_MLP),
        "263129464ccee92c5b6bfbe01feaf27dcfe1782a0dd8fee02ddf9892cc2260cf",
    ),
    "codec_lossy/fp16": Golden(
        dict(codec="fp16"),
        "bdae141dee7a27cf4419d3355c311778d2275e826eed42713be4758607e6ba2f",
    ),
    "codec_lossy/topk_int8_downpour": Golden(
        dict(
            codec="topk",
            codec_quant="int8",
            update_rule=make_rule("downpour", server_lr=0.05),
        ),
        "a391d16e2a736eec0c8bb868d2254aa99d9a39bb04c2e2f410ea17823bcdb738",
    ),
    "codec_lossy/fp16_replicated": Golden(
        dict(num_clients=3, codec="fp16", replicas=2, quorum=2),
        "b94da7ef2301e5afc044259ada65d8bdf3289e6b7b4325682d28fc43c15b84d7",
    ),
    # Captured on the commit preceding the adversary fabric: with no
    # adversary the fabric is invisible.  plain_corrupt was re-captured
    # once, when the multi-core plane re-keyed unreplicated batch-order
    # draws from a sequential per-client stream to per-attempt generators
    # (replicas already drew per logical workunit).
    "byzantine/plain_corrupt": Golden(
        dict(num_clients=3, faults=FaultConfig(corrupt_clients=1, corruption_scale=0.5)),
        "6e01b1bcad9d5c4297db2270eba57b002804a7131a57a2fbf4a2a6f041644181",
    ),
    "byzantine/replicated": Golden(
        dict(num_clients=4, replicas=2, quorum=2),
        "76c2bea9e9b95919516f43788308ec675cadc932613b2c2084c7ec8944a8dd24",
        _NO_TRACE,
    ),
    # Codec compositions the benchmark does not cover, captured on the
    # tree that priced every upload inline and trained every subtask at
    # its compute end.
    # 13 timeouts, 3 of them reissued to the client that timed out.
    "upload/int8_timeouts": Golden(
        dict(codec="int8", subtask_timeout_s=150),
        "7bf44fbef772cf1871fac4fdb47e3909d84ccea72ee37419d7b6c8095089201b",
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
        "70b881da94fc3c919b7d3aa334d433db6f9bf8dc15f1f1b90683d377a0b571be",
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
        "0d135df02b34983777b232e06ff33fa82586575e4b684df47ef0f43aa10fe4fe",
        _ORDERED,
    ),
    # The gradient stream.
    "upload/fp16_downpour": Golden(
        dict(
            codec="fp16",
            num_clients=3,
            update_rule=make_rule("downpour", server_lr=0.05),
        ),
        "d819230e601c56c44815fd28cca5530dd7e46a1deb6e46c9e0a71deced02186f",
        _ORDERED,
    ),
    "upload/zlib": Golden(
        dict(codec="zlib"),
        "800158ec86663b36f3e36a705766b74e2d60cf53e9c6ff799ae47f5f6ea43258",
        _ORDERED,
    ),
    "upload/delta": Golden(
        dict(codec="delta"),
        "04f7634c602ebd639ddfaad4ec77f566c5a8504eca4e91c4a70661133ff9e702",
        _ORDERED,
    ),
    "upload/topk": Golden(
        dict(codec="topk"),
        "fa42089994d4cf8041929f84d160af93fa61936372770e3051d15a7d1e397288",
        _ORDERED,
    ),
    # The ordered records alone, captured on the same tree as the upload
    # compositions.
    "trace_order/int8": Golden(
        dict(codec="int8"),
        "8db492bbd4373fc9ab498fcd59666f63d423c2eb9534f054371653b61d01c8cc",
        trace_digest,
    ),
    "trace_order/zlib": Golden(
        dict(codec="zlib"),
        "2b221efdf9cf0f94f26f31922d36a667b410ebd366c3cbf22eefbefaa368802b",
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
        "0407c06f5a9d85dcad382a00e4d072ef27206d05c5a603c54f5178ce48de0d18",
    ),
}


BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
BENCH_SEED = 1234


@cache
def bench_workloads():
    """``bench/workloads.py``, loaded as a module (``bench/`` is no package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class BenchPin:
    """One bench workload at ``--tiny`` and seed :data:`BENCH_SEED`: the
    digest its outcome reports, and two of its simulated metrics."""

    hex: str
    sim_time_s: float
    wire_mb: float

    def __str__(self) -> str:
        return f"{self.hex} sim_time_s={self.sim_time_s!r} wire_mb={self.wire_mb!r}"


def bench_pin(workload: str) -> BenchPin:
    """Run one tiny bench workload in this process and pin its outcome."""
    run = bench_workloads().WORKLOADS[workload](BENCH_SEED, True)
    run.run()
    outcome = run.outcome()
    return BenchPin(outcome.digest, outcome.sim_time_s, outcome.wire_mb)


# Captured before the BOINC scheduler's and quorum's tests-only knobs
# became module constants with their defaults; that change moved none.
BENCH_PINS: dict[str, BenchPin] = {
    "bench/fig2_p1c3t2": BenchPin(
        "aaa4be33c994c8b0b8e48fcaa1c6299229f0236527ce530b131db11079838ba7",
        2492.281988899053,
        20.209649,
    ),
    "bench/wide_int8_p1c3t2": BenchPin(
        "4ccb7850feb9c55b07acd3b111d3fa801edd12837f098222a4148170919afab8",
        354.70671549615867,
        1.760775,
    ),
    "bench/chaos_p3c3t4": BenchPin(
        "77201216fd04d825622ef9bca49331b3bd74eb45c946d8d6e0f4e08a76637fd4",
        928.7158628037984,
        9.370364,
    ),
    "bench/fleet_10k_ping": BenchPin(
        "07affd6980c880a8a3d63d916a25cfccab7813c16b359823ee1092872b8da35e",
        296.9042396867388,
        5.7344,
    ),
    "bench/cohort8_homog": BenchPin(
        "2fb778b96bed3e9ce0a3c2d2aa525e3be6ab44fef83d578744e5bc76feac5685",
        711.6169791508303,
        10.640538,
    ),
}


def recompute(name: str) -> str | BenchPin:
    """What a golden (its hex) or a bench pin recomputes to."""
    if name in BENCH_PINS:
        return bench_pin(name.partition("/")[2])
    return GOLDENS[name].recompute()


def family(prefix: str) -> dict[str, Golden]:
    """The goldens named ``prefix/<name>``, keyed by ``<name>``."""
    head = prefix + "/"
    return {
        name[len(head) :]: golden
        for name, golden in GOLDENS.items()
        if name.startswith(head)
    }


def main(names: list[str]) -> int:
    """Print every golden and bench pin (or those named) pinned beside
    recomputed; return 1 if any moved."""
    names = names or [*GOLDENS, *BENCH_PINS]
    width = max(map(len, names))
    moved = 0
    for name in names:
        pinned = BENCH_PINS[name] if name in BENCH_PINS else GOLDENS[name].hex
        recomputed = recompute(name)
        status = "ok" if pinned == recomputed else "MOVED"
        moved += status == "MOVED"
        print(f"{name:<{width}}  {status:<5}  pinned {pinned}  recomputed {recomputed}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
