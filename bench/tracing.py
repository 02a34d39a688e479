"""Wall-clock span tracing of ``repro``'s layer boundaries, from outside.

The traced run patches the public callables listed in :func:`install`
(patch on entry, restore on exit — nothing under ``src/`` is edited),
records one span per call as ``(name, start, end, parent, workunit id)``
in memory, and accumulates each span name's *self time*: its duration
minus the part its child spans cover.  Everything runs in one thread and
spans nest strictly, so the self times of all spans under a root plus the
root's own self time sum to the root's duration — the tiling the
per-layer metrics report.

The wrapper's own cost (two clock reads, a list append) lands in the
*parent's* self time, which is why end-to-end numbers never come from a
traced run; ``bench.trace_overhead_ratio`` reports the price.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Tracer", "install"]


class Tracer:
    """In-memory span recorder plus the patch bookkeeping to undo it."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, workunit id or None)
        self.spans: list[tuple | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # Free-form tallies fed by wrapper ``tally`` hooks (codec bytes).
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [span index, covered child time]
        self._mute = 0  # >0 while inside a leaf span
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn, name: str, *, leaf: bool = False, wu=None, tally=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``leaf`` spans silence every wrapper beneath them (a model's
        forward pass calls nested modules; an evaluation is one tile, not
        forward + loss).  ``wu`` extracts a workunit id from the call's
        ``(args, kwargs)``; ``tally`` sees ``(tallies, result)``.
        """
        tracer = self
        spans = self.spans
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            if tracer._mute:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            if leaf:
                tracer._mute += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if leaf:
                    tracer._mute -= 1
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans[index] = (
                    name,
                    start,
                    end,
                    parent[0] if parent is not None else -1,
                    wu(args, kwargs) if wu is not None else None,
                )
                self_s[name] += duration - frame[1]
                calls[name] += 1
            if tally is not None:
                tally(tracer.tallies, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Replace ``cls.attr`` (as found in ``cls.__dict__``) with a span."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **options))

    def patch_overrides(self, base: type, attr: str, name: str, **options) -> None:
        """Patch ``attr`` on ``base`` and on every subclass that overrides it."""
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch_method(cls, attr, name, **options)

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Replace a module-level function everywhere ``repro`` bound it.

        ``from .steps import run_local_step`` copies the binding into the
        importing module, so the wrapper has to be installed under every
        ``repro.*`` module global that still *is* the original function.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- roots and read-out ----------------------------------------------
    @contextmanager
    def root(self, name: str):
        """A top-level span around a whole phase (set-up, timed region)."""
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, None)
            self.self_s[name] += (end - start) - frame[1]
            self.calls[name] += 1

    def take_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Return and clear the per-name self times and call counts, so
        the set-up phase and the timed region tile separately."""
        totals = (dict(self.self_s), dict(self.calls))
        self.self_s.clear()
        self.calls.clear()
        return totals

    def durations(self, name: str) -> list[float]:
        """Inclusive per-call durations of every finished span ``name``."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def write_jsonl(self, path) -> None:
        """One span per line: ``[name, start, end, parent, workunit]``."""
        # Formatted by hand in chunks: the fleet workload records 1.5M spans
        # and json.dumps per span costs more than the traced run itself.
        quoted: dict = {None: "null"}
        spans = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as out:
            for lo in range(0, len(spans), 100_000):
                lines = []
                for name, start, end, parent, wu in spans[lo : lo + 100_000]:
                    for text in (name, wu):
                        if text not in quoted:
                            quoted[text] = json.dumps(text)
                    lines.append(
                        f"[{quoted[name]},{start!r},{end!r},{parent},{quoted[wu]}]\n"
                    )
                out.write("".join(lines))


def _wu_attr(position: int):
    """Workunit id off a ``Workunit`` positional argument."""

    def extract(args, kwargs):
        return args[position].wu_id if len(args) > position else None

    return extract


def _wu_id(position: int):
    """Workunit id passed as a string, positionally or as ``wu_id=``."""

    def extract(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get("wu_id") or None

    return extract


def _tally_encoded(tallies, encoded) -> None:
    tallies["codec_raw_bytes"] += encoded.raw_nbytes
    tallies["codec_wire_bytes"] += encoded.nbytes


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are measured at.

    Span names are the metric names without their ``_s``/``_calls``
    suffix.  ``nn`` kernels and the rule apply are leaf spans: their
    inner calls (nested modules, autograd closures, optimizer updates)
    are one tile each.
    """
    import repro.core.steps as steps
    import repro.data.synthetic as synthetic
    import repro.nn.metrics as nn_metrics
    import repro.nn.serialization as serialization
    from repro.boinc.client import ClientDaemon
    from repro.boinc.files import WebServer
    from repro.boinc.scheduler import Scheduler
    from repro.boinc.validator import ParameterValidator
    from repro.boinc.work_generator import WorkGenerator
    from repro.core.codec_plane import ParamCodecPlane
    from repro.core.param_server import ParameterServerPool
    from repro.core.rules import UpdateRule
    from repro.core.runner import DistributedRunner
    from repro.kvstore.base import KVStore
    from repro.nn.codecs import Codec
    from repro.nn.cohort import CohortTrainer
    from repro.nn.layers import Module
    from repro.nn.optim import Optimizer
    from repro.nn.serialization import StateLayout
    from repro.nn.tensor import Tensor
    from repro.obs.audit import InvariantAuditor
    from repro.obs.collector import MetricsCollector
    from repro.simulation.engine import Simulator
    from repro.simulation.tracing import Trace

    # -- nn ---------------------------------------------------------------
    tracer.patch_overrides(Module, "__call__", "nn.forward", leaf=True)
    tracer.patch_method(Tensor, "backward", "nn.backward", leaf=True)
    tracer.patch_overrides(Optimizer, "step", "nn.optim_step", leaf=True)
    tracer.patch_function(nn_metrics, "evaluate_classifier", "nn.eval", leaf=True)
    tracer.patch_method(CohortTrainer, "run", "nn.cohort.run", leaf=True)
    tracer.patch_method(StateLayout, "pack", "nn.serialization.pack", leaf=True)
    tracer.patch_method(
        StateLayout, "unpack_into", "nn.serialization.unpack", leaf=True
    )
    tracer.patch_function(
        serialization, "compressed_size", "nn.serialization.zlib", leaf=True
    )
    # Not a leaf: the zlib pass inside encode is its own tile.
    tracer.patch_overrides(Codec, "encode", "nn.codecs.encode", tally=_tally_encoded)
    tracer.patch_overrides(Codec, "decode", "nn.codecs.decode", leaf=True)

    # -- core -------------------------------------------------------------
    tracer.patch_function(steps, "run_local_step", "core.steps.local_step")
    tracer.patch_overrides(UpdateRule, "apply_into", "core.rules.apply", leaf=True)
    tracer.patch_method(
        ParameterServerPool,
        "assimilate",
        "core.param_server.assimilate",
        wu=_wu_attr(1),
    )
    tracer.patch_method(
        ParamCodecPlane, "encode_publish", "core.codec_plane.encode_publish"
    )
    tracer.patch_method(
        ParamCodecPlane,
        "encode_upload",
        "core.codec_plane.encode_upload",
        wu=_wu_id(3),
    )
    tracer.patch_method(
        ParamCodecPlane,
        "on_downloaded",
        "core.codec_plane.download_decode",
        wu=_wu_id(4),
    )
    tracer.patch_method(DistributedRunner, "checkpoint", "core.checkpoint.snapshot")

    # -- boinc ------------------------------------------------------------
    tracer.patch_method(Scheduler, "request_work", "boinc.scheduler.request")
    tracer.patch_method(Scheduler, "ping", "boinc.scheduler.request")
    tracer.patch_method(
        Scheduler, "report_result", "boinc.scheduler.report", wu=_wu_id(1)
    )
    tracer.patch_method(
        ParameterValidator, "validate", "boinc.validator.validate", wu=_wu_id(3)
    )
    tracer.patch_method(WebServer, "download", "boinc.files.download", wu=_wu_id(8))
    tracer.patch_method(WebServer, "upload", "boinc.files.upload", wu=_wu_id(7))
    tracer.patch_method(ClientDaemon, "poll_for_work", "boinc.client.poll")

    # -- simulation, kvstore, obs -------------------------------------------
    tracer.patch_method(Simulator, "step", "simulation.engine.dispatch_self")
    tracer.patch_method(Trace, "emit", "simulation.tracing.emit")
    for op in ("read", "write", "read_modify_write"):
        tracer.patch_overrides(KVStore, op, "kvstore.op")
    tracer.patch_method(InvariantAuditor, "on_record", "obs.audit.on_record")
    tracer.patch_method(InvariantAuditor, "verify", "obs.audit.verify")
    tracer.patch_method(MetricsCollector, "on_record", "obs.collector.on_record")

    # -- data (set-up phase only) -------------------------------------------
    tracer.patch_function(synthetic, "make_classification_splits", "data.build")
    tracer.patch_method(WorkGenerator, "__init__", "data.build")
