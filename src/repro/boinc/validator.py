"""Result validation (BOINC's validator service, §II-C).

Before a result is assimilated, the validator checks that the uploaded
payload is structurally sound: decodable, shape-complete against the
job's parameter template, and finite (a client that diverged to NaN/inf
must not poison the server copy).  An optional L2 norm bound on the
parameter copy rejects wildly out-of-distribution uploads — the cheapest
defense against gross falsification attacks that keep every coordinate
finite.  Invalid results are rejected and the workunit is reissued by
the scheduler.

Every verdict carries a *stable reason code* (``ValidationResult.code``)
alongside the freeform reason text, so rejection trace records can be
aggregated per failure class (see ``server.result_invalid`` in
docs/TRACE_KINDS.md).

Payloads are either a bare flat parameter vector or a structured client
update — any object exposing ``params`` (required) and optionally
``gradient`` ndarray attributes, e.g. :class:`repro.core.rules.ClientUpdate`.
The BOINC layer stays agnostic of the concrete type; it validates both
vectors so neither a corrupted weight copy nor a divergent accumulated
gradient reaches an update rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation.tracing import Trace

__all__ = ["ValidationResult", "ParameterValidator"]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one uploaded result.

    ``code`` is a stable machine-readable reason class (``decode``,
    ``shape``, ``size``, ``non_finite``, ``bound``, ``norm_bound`` or
    ``ok``); ``reason`` the human-readable detail.
    """

    ok: bool
    reason: str = ""
    code: str = "ok"


class ParameterValidator:
    """Validates uploaded parameter vectors against a template."""

    def __init__(
        self,
        expected_size: int,
        max_abs_value: float = 1e6,
        max_abs_gradient: float = 1e9,
        max_norm: float | None = None,
        trace: Trace | None = None,
    ) -> None:
        self.expected_size = expected_size
        self.max_abs_value = max_abs_value
        self.max_abs_gradient = max_abs_gradient
        self.max_norm = max_norm
        self.trace = trace
        self.accepted = 0
        self.rejected = 0
        self.rejections_by_code: dict[str, int] = {}

    def validate(
        self, payload: object, now: float = 0.0, wu_id: str = ""
    ) -> ValidationResult:
        """Check one uploaded result payload (vector or client update)."""
        result = self._check(payload)
        if result.ok:
            self.accepted += 1
        else:
            self.rejected += 1
            self.rejections_by_code[result.code] = (
                self.rejections_by_code.get(result.code, 0) + 1
            )
        if self.trace is not None:
            self.trace.emit(
                now, "validator.checked", ok=result.ok, reason=result.reason, wu=wu_id
            )
        return result

    def _check(self, payload: object) -> ValidationResult:
        gradient = None
        if not isinstance(payload, np.ndarray):
            # Structured update: validate its parameter copy (and, when
            # present, the accumulated gradient the rule will consume).
            params = getattr(payload, "params", None)
            if params is None:
                return ValidationResult(
                    False, f"payload type {type(payload).__name__}", "decode"
                )
            gradient = getattr(payload, "gradient", None)
            payload = params
        verdict = self._check_vector(payload, "parameter", self.max_abs_value)
        if not verdict.ok:
            return verdict
        if self.max_norm is not None:
            norm = float(np.linalg.norm(payload))
            if norm > self.max_norm:
                return ValidationResult(
                    False,
                    f"parameter norm {norm:.3g} exceeds bound {self.max_norm:.3g}",
                    "norm_bound",
                )
        if gradient is None:
            return verdict
        return self._check_vector(gradient, "gradient", self.max_abs_gradient)

    def _check_vector(
        self, vec: object, kind: str, bound: float
    ) -> ValidationResult:
        if not isinstance(vec, np.ndarray):
            return ValidationResult(False, f"{kind} type {type(vec).__name__}", "decode")
        if vec.ndim != 1:
            return ValidationResult(
                False, f"expected flat {kind} vector, got ndim={vec.ndim}", "shape"
            )
        if vec.size != self.expected_size:
            return ValidationResult(
                False, f"{kind} size {vec.size} != expected {self.expected_size}", "size"
            )
        # One scan on the accept path: NaN propagates through max() and
        # fails both comparisons, +-inf fails the second, so a finite peak
        # within the bound proves every element finite.  Only a failing
        # vector is scanned again, to tell the two reason codes apart.
        peak = float(np.abs(vec).max()) if vec.size else 0.0
        if peak <= bound and peak < np.inf:
            return ValidationResult(True)
        if not np.isfinite(vec).all():
            return ValidationResult(False, f"non-finite {kind} values", "non_finite")
        return ValidationResult(
            False, f"{kind} magnitude {peak:.3g} exceeds bound", "bound"
        )
