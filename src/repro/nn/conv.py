"""Convolution and pooling via im2col (vectorized, no Python pixel loops).

The im2col transform rewrites a convolution as a single GEMM, which is the
standard way to get NumPy-speed convolutions (see the HPC guide's advice to
push work into vectorized kernels).  Layout is NCHW throughout.

Every kernel writes its large per-step intermediates — padded input,
column matrix, GEMM output, backward column gradients, col2im scatter
target — into a :class:`~repro.nn.workspace.Workspace`.  A layer passes
its own, so shapes that repeat every step reuse the same buffers and the
hot path allocates only the output tensors the autograd graph must own;
``workspace=None`` means a fresh ``Workspace()`` for that call.  Reuse
only changes where an intermediate lives, never its value.  Constraint: a
forward on a reused workspace invalidates the intermediates captured by
the *previous* forward of the same layer, so backward must run before
that layer's next forward — which the step-per-batch training loop
guarantees.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .functional import apply_kernel
from .tensor import Tensor
from .workspace import Workspace

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "max_pool2d_kernel",
    "avg_pool2d_kernel",
    "global_avg_pool2d_kernel",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Workspace | None = None,
    tag: str = "im2col",
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*kh*kw).

    Returns the column matrix plus the output spatial dims.  Built with
    stride tricks: the intermediate 6-D view costs no copies; only the final
    reshape materializes, into a workspace buffer (the returned matrix is
    owned by the workspace and valid until the next call on it with the
    same tag and shape).
    """
    if workspace is None:
        workspace = Workspace()
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        padded = workspace.zeros(f"{tag}:pad", (n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, OH, OW, C, kh, kw) -> (N*OH*OW, C*kh*kw)
    t = windows.transpose(0, 2, 3, 1, 4, 5)
    cols = workspace.buffer(f"{tag}:cols", (n * oh * ow, c * kh * kw), x.dtype)
    np.copyto(cols.reshape(n, oh, ow, c, kh, kw), t)
    return cols, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Workspace | None = None,
    tag: str = "col2im",
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    The scatter target is a workspace buffer, so the return value (a view
    of it when ``pad > 0``) is only valid until the next call on that
    workspace with the same tag — layers hand it straight to
    ``Tensor._accumulate``, which copies.
    """
    if workspace is None:
        workspace = Workspace()
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    padded = workspace.zeros(f"{tag}:pad", (n, c, h + 2 * pad, w + 2 * pad), cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    # cols6: (N, C, kh, kw, OH, OW); add each kernel offset's contribution.
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int = 1,
    pad: int = 0,
    workspace: Workspace | None = None,
) -> Tensor:
    """2-D cross-correlation of NCHW input ``x`` with OIHW ``weight``.

    Implemented as im2col + GEMM; the backward pass reuses the cached
    column matrix for the weight gradient and col2im for the input gradient.
    The output tensor's data is always freshly allocated; the workspace only
    backs the intermediates.
    """
    if workspace is None:
        workspace = Workspace()
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got ndim={x.ndim}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects OIHW weight, got ndim={weight.ndim}")
    n, c, h, w = x.shape
    co, ci, kh, kw = weight.shape
    if ci != c:
        raise ShapeError(f"input has {c} channels but weight expects {ci}")

    cols, oh, ow = im2col(x.data, kh, kw, stride, pad, workspace, tag="fwd")
    w2d = weight.data.reshape(co, ci * kh * kw)
    # The GEMMs' own result dtype: wider input data widens the products.
    dtype = np.result_type(cols, w2d)
    out = np.matmul(
        cols, w2d.T, out=workspace.buffer("fwd:gemm", (n * oh * ow, co), dtype)
    )
    if bias is not None:
        out += bias.data
    out = out.reshape(n, oh, ow, co).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        # Materialized: for a batch of one sample a bare reshape is a
        # transposed view and the GEMMs would run with the other operand
        # order (different rounding).
        g2d = workspace.buffer("bwd:g2d", (n * oh * ow, co), dtype)
        np.copyto(g2d.reshape(n, oh, ow, co), g.transpose(0, 2, 3, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2d.sum(axis=0))
        if weight.requires_grad:
            gw = np.matmul(
                g2d.T, cols, out=workspace.buffer("bwd:gw", (co, ci * kh * kw), dtype)
            )
            weight._accumulate(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = np.matmul(
                g2d, w2d, out=workspace.buffer("bwd:gcols", cols.shape, dtype)
            )
            x._accumulate(
                col2im(gcols, (n, c, h, w), kh, kw, stride, pad, workspace, tag="bwd")
            )

    return Tensor._make(np.ascontiguousarray(out), parents, backward)


def max_pool2d_kernel(
    x: np.ndarray,
    kernel: int,
    stride: int | None = None,
    workspace: Workspace | None = None,
):
    """Max pooling as an ``(out, pull)`` kernel (see :mod:`.functional`)."""
    if workspace is None:
        workspace = Workspace()
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(
        x.reshape(n * c, 1, h, w), kernel, kernel, stride, 0, workspace, tag="fwd"
    )
    # cols: (N*C*OH*OW, kernel*kernel)
    rows = cols.shape[0]
    argmax = cols.argmax(axis=1, out=workspace.buffer("fwd:argmax", (rows,), np.intp))
    row_idx = workspace.arange_rows(rows)
    out = cols[row_idx, argmax]

    def pull(g: np.ndarray) -> np.ndarray:
        gcols = workspace.zeros("bwd:gcols", cols.shape, cols.dtype)
        gcols[row_idx, argmax] = g.reshape(-1)
        gx = col2im(
            gcols, (n * c, 1, h, w), kernel, kernel, stride, 0, workspace, tag="bwd"
        )
        return gx.reshape(n, c, h, w)

    return out.reshape(n, c, oh, ow), pull


def avg_pool2d_kernel(
    x: np.ndarray,
    kernel: int,
    stride: int | None = None,
    workspace: Workspace | None = None,
):
    """Average pooling as an ``(out, pull)`` kernel."""
    if workspace is None:
        workspace = Workspace()
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    cols, oh, ow = im2col(
        x.reshape(n * c, 1, h, w), kernel, kernel, stride, 0, workspace, tag="fwd"
    )
    inv = 1.0 / (kernel * kernel)

    def pull(g: np.ndarray) -> np.ndarray:
        gcols = workspace.buffer("bwd:gcols", cols.shape, cols.dtype)
        np.copyto(gcols, g.reshape(-1, 1))
        gcols *= inv
        gx = col2im(
            gcols, (n * c, 1, h, w), kernel, kernel, stride, 0, workspace, tag="bwd"
        )
        return gx.reshape(n, c, h, w)

    return cols.mean(axis=1).reshape(n, c, oh, ow), pull


def global_avg_pool2d_kernel(x: np.ndarray):
    """Global average pooling as an ``(out, pull)`` kernel."""
    inv = 1.0 / (x.shape[2] * x.shape[3])

    def pull(g: np.ndarray) -> np.ndarray:
        # The consumer adds this into its own buffer, so the stride-0
        # broadcast view needs no materializing copy.
        return np.broadcast_to(g[:, :, None, None] * inv, x.shape)

    return x.mean(axis=(2, 3)), pull


def max_pool2d(
    x: Tensor,
    kernel: int,
    stride: int | None = None,
    workspace: Workspace | None = None,
) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    return apply_kernel(x, lambda data: max_pool2d_kernel(data, kernel, stride, workspace))


def avg_pool2d(
    x: Tensor,
    kernel: int,
    stride: int | None = None,
    workspace: Workspace | None = None,
) -> Tensor:
    """Average pooling over windows."""
    return apply_kernel(x, lambda data: avg_pool2d_kernel(data, kernel, stride, workspace))


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""
    return apply_kernel(x, global_avg_pool2d_kernel)
