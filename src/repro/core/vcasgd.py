"""VC-ASGD: the paper's asynchronous parameter-update scheme (§III-C).

On every client result the parameter server immediately applies

    W_s ← α·W_s + (1 − α)·W_{c_i,j}                               (Eq. 1)

regardless of arrival order, never waiting for stragglers — which is what
makes the scheme fault tolerant.  Unrolling Eq. 1 over the ``n_t`` results
of an epoch gives the epoch recursion the paper states as Eq. 2:

    W_{s,e} = α^{n_t}·W_{s,e−1} + (1 − α)·Σ_j α^{j−1}·W_{c, n_t−j+1}

(the later a result arrives, the less it is discounted).  α may vary with
the epoch; the paper's "Var" experiment uses α_e = e/(e+1), rising from
0.5 towards 1 like an inverse learning-rate schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..nn.serialization import BLOCK_SIZE

__all__ = [
    "AlphaSchedule",
    "ConstantAlpha",
    "VarAlpha",
    "CallableAlpha",
    "vcasgd_merge",
    "epoch_recursion",
]


class AlphaSchedule:
    """Maps an epoch number (1-based, as in the paper) to α ∈ (0, 1]."""

    def alpha_at(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _validate_epoch(self, epoch: int) -> None:
        if epoch < 1:
            raise ConfigurationError(f"epoch must be >= 1, got {epoch}")

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConstantAlpha(AlphaSchedule):
    """Fixed α (the paper's 0.7 / 0.95 / 0.999 experiments)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")

    def alpha_at(self, epoch: int) -> float:
        """α for the given 1-based epoch."""
        self._validate_epoch(epoch)
        return self.alpha

    def describe(self) -> str:
        """Short label used in run names and tables."""
        return f"alpha={self.alpha}"


@dataclass(frozen=True)
class VarAlpha(AlphaSchedule):
    """The paper's epoch-varying schedule: α_e = e / (e + 1).

    Rises from 0.5 (epoch 1) to ~0.98 (epoch 40): aggressive learning from
    clients early, stability late — "analogous to learning-rate scheduling".
    """

    def alpha_at(self, epoch: int) -> float:
        self._validate_epoch(epoch)
        return epoch / (epoch + 1.0)

    def describe(self) -> str:
        return "alpha=e/(e+1)"


class CallableAlpha(AlphaSchedule):
    """Wrap an arbitrary ``epoch -> alpha`` function."""

    def __init__(self, fn: Callable[[int], float], label: str = "custom") -> None:
        self.fn = fn
        self.label = label

    def alpha_at(self, epoch: int) -> float:
        self._validate_epoch(epoch)
        alpha = float(self.fn(epoch))
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"schedule produced alpha={alpha} at epoch {epoch}")
        return alpha

    def describe(self) -> str:
        return self.label


def vcasgd_merge(
    server: np.ndarray,
    client: np.ndarray,
    alpha: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Apply Eq. 1: ``out = α·server + (1−α)·client``.

    Vectorized BLAS-1; with ``out=server`` the merge is fully in place
    (the hot path at the parameter server — ~5M scalars per update in the
    paper's setup).  The merge walks the last axis one block
    (:data:`~repro.nn.serialization.BLOCK_SIZE` columns) at a time, so
    ``(1−α)·client`` needs only one block of scratch; passing ``scratch``
    (that long or longer, aliasing nothing) reuses it and the merge then
    allocates nothing at all.  Results are bit-identical to the whole-array
    expression — the same two multiplies and one add in the same order,
    per element.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    if server.shape != client.shape:
        raise ConfigurationError(
            f"parameter shape mismatch: server {server.shape} vs client {client.shape}"
        )
    if out is None:
        out = np.empty_like(server)
    width = server.shape[-1]
    if scratch is None:
        scratch = np.empty(
            server.shape[:-1] + (min(width, BLOCK_SIZE),),
            dtype=np.result_type(client, 1.0 - alpha),
        )
    for lo in range(0, width, BLOCK_SIZE):
        cols = slice(lo, lo + BLOCK_SIZE)
        block = np.multiply(server[..., cols], alpha, out=out[..., cols])
        # block += (1 - alpha) * client, without allocating (1-alpha)*client:
        block += np.multiply(
            client[..., cols], 1.0 - alpha, out=scratch[..., : block.shape[-1]]
        )
    return out


def epoch_recursion(
    server_prev: np.ndarray, client_updates: Sequence[np.ndarray], alpha: float
) -> np.ndarray:
    """Closed-form Eq. 2: the server copy after assimilating ``n_t`` results.

    ``client_updates`` are in arrival order.  Used by tests to prove the
    sequential Eq. 1 application equals the paper's unrolled form.
    """
    n_t = len(client_updates)
    result = (alpha**n_t) * np.asarray(server_prev, dtype=np.float64)
    for j, update in enumerate(client_updates):
        # The j-th arrival (0-based) is discounted by the (n_t - 1 - j)
        # merges that follow it.
        result += (1.0 - alpha) * (alpha ** (n_t - 1 - j)) * np.asarray(update)
    return result
