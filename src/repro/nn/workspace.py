"""Per-layer workspace arena: reusable scratch buffers for NN kernels.

The conv/pooling kernels materialise several large intermediates every
step — the padded input, the im2col column matrix, the GEMM output, the
backward column gradients and the col2im scatter target.  Their shapes
are identical on every step of a training run, so each layer owns a
:class:`Workspace` and the kernels write into its buffers with
``np.copyto`` / ``out=`` instead of allocating.

Safety model (why reuse cannot corrupt the autograd graph):

* every array a workspace buffer backs is consumed within one
  forward+backward of its owning layer — ``Tensor._accumulate`` adds
  gradients into tensor-owned buffers (never keeps a reference), and the
  tensor *data* flowing through the graph is still freshly allocated by
  the kernels;
* workspaces are **per layer instance**, so two same-shaped layers never
  share buffers, and a layer's buffers are only rewritten at its next
  forward — after every consumer of the previous step finished.

Reuse only changes where each intermediate lives: the kernels execute the
same elementwise/GEMM operations in the same order whether a buffer is
fresh or on its thousandth step (``tests/nn/test_workspace.py`` trains
with reused and with cleared-every-step workspaces and asserts equality).
"""

from __future__ import annotations

import numpy as np

from .serialization import STEP_DTYPE

__all__ = ["Workspace"]


class Workspace:
    """An arena of reusable ndarray buffers keyed by (tag, shape, dtype).

    ``buffer`` returns an *uninitialised* buffer (callers fully overwrite
    it); ``zeros`` clears it first; ``arange_rows`` caches the row-index
    vectors fancy-indexing kernels need.  Buffers for different shapes
    coexist (a layer sees full and remainder batches), so lookups are
    exact-shape and never slice.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(
        self, tag: str, shape: tuple[int, ...], dtype: np.dtype | type = STEP_DTYPE
    ) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(
        self, tag: str, shape: tuple[int, ...], dtype: np.dtype | type = STEP_DTYPE
    ) -> np.ndarray:
        buf = self.buffer(tag, shape, dtype)
        buf.fill(0)
        return buf

    def arange_rows(self, n: int) -> np.ndarray:
        """Cached ``np.arange(n)`` (row indices for fancy indexing)."""
        key = ("arange", (n,), np.dtype(np.intp))
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.arange(n)
            self._buffers[key] = buf
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (frees the memory)."""
        self._buffers.clear()
