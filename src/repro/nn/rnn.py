"""Recurrent layers: Elman RNN and GRU cells with BPTT.

§II-A cites JSDoop training an RNN for text prediction on a volunteer
system, and §V lists NLP as a target workload; these cells make that
workload expressible on our substrate.  Backpropagation through time falls
out of the autograd engine — the per-step graphs chain naturally.

Layout: sequences are (batch, time, features); hidden states (batch, hidden).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ShapeError
from . import functional as F
from .initializers import Initializer, glorot_uniform
from .layers import Module, Parameter
from .serialization import STEP_DTYPE
from .tensor import Tensor

__all__ = ["RNNCell", "GRUCell", "LSTMCell", "RNN", "Embedding"]


class Embedding(Module):
    """Token-id → dense-vector lookup table."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        scale: float = 0.1,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ConfigurationError("embedding dims must be positive")
        self.num_embeddings = num_embeddings
        self.weight = Parameter(
            rng.normal(scale=scale, size=(num_embeddings, embedding_dim))
        )

    def forward(self, indices: np.ndarray) -> Tensor:  # type: ignore[override]
        indices = np.asarray(indices)
        if indices.min() < 0 or indices.max() >= self.num_embeddings:
            raise ShapeError(
                f"token ids out of range [0, {self.num_embeddings})"
            )
        return F.embedding_lookup(self.weight, indices)


class RNNCell(Module):
    """Elman cell: ``h' = tanh(x W_xh + h W_hh + b)``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        initializer: Initializer = glorot_uniform,
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xh = Parameter(initializer((input_size, hidden_size), rng))
        self.w_hh = Parameter(initializer((hidden_size, hidden_size), rng))
        self.bias = Parameter(np.zeros(hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:  # type: ignore[override]
        return F.tanh(x @ self.w_xh + h @ self.w_hh + self.bias)

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size), STEP_DTYPE))


class GRUCell(Module):
    """Gated recurrent unit (Cho et al. 2014).

    ``z = σ(x W_xz + h W_hz + b_z)``; ``r = σ(x W_xr + h W_hr + b_r)``;
    ``ĥ = tanh(x W_xn + (r ⊙ h) W_hn + b_n)``; ``h' = (1−z) ⊙ h + z ⊙ ĥ``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        initializer: Initializer = glorot_uniform,
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in ("z", "r", "n"):
            setattr(self, f"w_x{gate}", Parameter(initializer((input_size, hidden_size), rng)))
            setattr(self, f"w_h{gate}", Parameter(initializer((hidden_size, hidden_size), rng)))
            setattr(self, f"b_{gate}", Parameter(np.zeros(hidden_size)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:  # type: ignore[override]
        z = F.sigmoid(x @ self.w_xz + h @ self.w_hz + self.b_z)
        r = F.sigmoid(x @ self.w_xr + h @ self.w_hr + self.b_r)
        n = F.tanh(x @ self.w_xn + (r * h) @ self.w_hn + self.b_n)
        return (1.0 - z) * h + z * n

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size), STEP_DTYPE))


class LSTMCell(Module):
    """Long short-term memory cell (Hochreiter & Schmidhuber).

    Gates: input ``i``, forget ``f``, output ``o``, candidate ``g``::

        c' = f ⊙ c + i ⊙ g
        h' = o ⊙ tanh(c')

    The forget-gate bias is initialized to 1 (the standard trick that
    stops early training from flushing the cell state).
    State is the pair ``(h, c)``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator,
        initializer: Initializer = glorot_uniform,
    ) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ConfigurationError("sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in ("i", "f", "o", "g"):
            setattr(self, f"w_x{gate}", Parameter(initializer((input_size, hidden_size), rng)))
            setattr(self, f"w_h{gate}", Parameter(initializer((hidden_size, hidden_size), rng)))
            bias = np.ones(hidden_size) if gate == "f" else np.zeros(hidden_size)
            setattr(self, f"b_{gate}", Parameter(bias))

    def forward(  # type: ignore[override]
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h, c = state
        i = F.sigmoid(x @ self.w_xi + h @ self.w_hi + self.b_i)
        f = F.sigmoid(x @ self.w_xf + h @ self.w_hf + self.b_f)
        o = F.sigmoid(x @ self.w_xo + h @ self.w_ho + self.b_o)
        g = F.tanh(x @ self.w_xg + h @ self.w_hg + self.b_g)
        c_next = f * c + i * g
        h_next = o * F.tanh(c_next)
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_size), STEP_DTYPE)
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class RNN(Module):
    """Unrolls a cell over a (batch, time, features) sequence.

    Works with :class:`RNNCell`/:class:`GRUCell` (state = hidden tensor)
    and :class:`LSTMCell` (state = (h, c) pair).  Returns the hidden
    outputs of every step stacked on the time axis, plus the final state.
    """

    def __init__(self, cell: RNNCell | GRUCell | LSTMCell) -> None:
        super().__init__()
        self.cell = cell

    def forward(  # type: ignore[override]
        self, x: Tensor, state0=None
    ) -> tuple[Tensor, object]:
        if x.ndim != 3:
            raise ShapeError(f"RNN expects (batch, time, features), got {x.shape}")
        batch, steps, _ = x.shape
        state = state0 if state0 is not None else self.cell.initial_state(batch)
        outputs: list[Tensor] = []
        for t in range(steps):
            state = self.cell(x[:, t, :], state)
            hidden = state[0] if isinstance(state, tuple) else state
            outputs.append(hidden)
        return F.stack(outputs, axis=1), state
