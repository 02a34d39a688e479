"""Blocked kernels are bit-identical to their straight-line forms.

Adam, SGD, the VC-ASGD merge and the int8 quantizer walk vectors longer
than one block (``BLOCK_SIZE`` columns) block by block through one
block of scratch.  The references below are the straight-line forms kept
verbatim: whole-array ops over full-size scratch.  Widths straddle every
block edge (1, B-1, B, B+1, 2B+7); the Hypothesis suites shrink the block
so they can explore ragged widths, groups and signed zeros cheaply.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import vcasgd
from repro.core.rules import ClientUpdate, VCASGDRule
from repro.core.vcasgd import ConstantAlpha, vcasgd_merge
from repro.nn import optim, serialization
from repro.nn.codecs import Int8Codec
from repro.nn.layers import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.serialization import BLOCK_SIZE

B = BLOCK_SIZE
WIDTHS = [1, B - 1, B, B + 1, 2 * B + 7]
STEPS = 3


# -- straight-line references (verbatim) ------------------------------------


def ref_sgd_update(self, data, grad, state, lr):
    scratch = state[0]
    # lr*grad lands in scratch instead of a fresh temporary; same
    # multiply, same subtract, bit-identical result.
    np.multiply(grad, lr, out=scratch)
    data -= scratch


def ref_adam_update(self, data, grad, state, lr):
    m, v, s1, s2 = state
    t = self.step_count  # step() already incremented: t >= 1
    m *= self.BETA1
    np.multiply(grad, 1 - self.BETA1, out=s1)  # (1-beta1)*grad
    m += s1
    v *= self.BETA2
    np.multiply(grad, 1 - self.BETA2, out=s1)  # ((1-beta2)*grad)*grad
    s1 *= grad
    v += s1
    np.divide(m, 1 - self.BETA1**t, out=s1)  # m_hat
    np.divide(v, 1 - self.BETA2**t, out=s2)  # v_hat
    np.sqrt(s2, out=s2)
    s2 += self.EPS
    s1 *= lr  # (lr*m_hat) / (sqrt(v_hat)+eps)
    s1 /= s2
    data -= s1


def ref_merge(server, client, alpha, out=None, scratch=None):
    if out is None:
        out = np.empty_like(server)
    np.multiply(server, alpha, out=out)
    # out += (1 - alpha) * client, without allocating (1-alpha)*client:
    scaled = np.multiply(client, 1.0 - alpha, out=scratch)
    out += scaled
    return out


def ref_int8_encode(vec, segments):
    scales = np.zeros(len(segments))
    codes = np.zeros(vec.size, dtype=np.int8)
    for i, (offset, size) in enumerate(segments):
        chunk = vec[offset : offset + size]
        maxabs = float(np.abs(chunk).max()) if size else 0.0
        if maxabs == 0.0:
            continue
        scale = maxabs / 127.0
        scales[i] = scale
        codes[offset : offset + size] = np.clip(
            np.round(chunk / scale), -127, 127
        ).astype(np.int8)
    return codes, scales


# -- helpers ------------------------------------------------------------------


OPTIMIZERS = {
    "adam": lambda params: Adam(params, lr=0.01),
    "sgd": lambda params: SGD(params, lr=0.05),
}


def signed_zeros(arr: np.ndarray, lo: int, hi: int) -> None:
    """Overwrite columns [lo, hi) with alternating +0.0 / -0.0."""
    seg = arr[..., lo:hi]
    seg[...] = 0.0
    seg[..., ::2] = -0.0


def run_both(name, data0, grads, strided=False):
    """Step the real optimizer and the verbatim reference side by side;
    return (real data, real moments, ref data, ref moments) per step."""
    if strided:
        # An arena run that sits between buffer slots: a column slice of a
        # wider (G, total) array, not contiguous when G > 1.
        host = np.full(data0.shape[:-1] + (data0.shape[-1] + 5,), 7.0, data0.dtype)
        data = host[..., 3 : 3 + data0.shape[-1]]
        data[...] = data0
        ghost = np.zeros_like(host)
        param = SimpleNamespace(data=data, grad=ghost[..., 3 : 3 + data0.shape[-1]])
    else:
        param = SimpleNamespace(data=data0.copy(), grad=np.zeros_like(data0))
    opt = OPTIMIZERS[name]([param])
    ref = OPTIMIZERS[name]([Parameter(np.zeros(1))])  # hyper-parameters
    ref_data = data0.copy()
    if name == "adam":
        ref_state = tuple(np.zeros_like(ref_data) for _ in range(2)) + tuple(
            np.empty_like(ref_data) for _ in range(2)
        )
        update = ref_adam_update
    else:
        ref_state = (np.empty_like(ref_data),)
        update = ref_sgd_update
    for grad in grads:
        param.grad[...] = grad
        opt.step()
        lr = ref.lr
        ref.step_count += 1
        update(ref, ref_data, grad.copy(), ref_state, lr)
        yield param.data, opt._state[0], ref_data, ref_state


def scratch_of(opt, i):
    """Parameter ``i``'s whole scratch buffers: its first block's views."""
    _, _, scratch = opt._blocks[i][0]
    return scratch


def assert_same_step(name, real, real_moments, ref, ref_state):
    assert real.tobytes() == np.ascontiguousarray(ref).tobytes()
    ref_moments = ref_state[:2] if name == "adam" else ref_state[1:]
    assert len(real_moments) == len(ref_moments)
    for got, want in zip(real_moments, ref_moments):
        assert got.tobytes() == want.tobytes()


# -- optimizers -----------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("group", [1, 3])
@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_optimizer_matches_straight_line(name, zero, group, width):
    rng = np.random.default_rng([width, group])
    data0 = rng.normal(size=(group, width))
    grads = [rng.normal(size=(group, width)) for _ in range(STEPS)]
    # A signed-zero segment straddling the first block edge, and one
    # all-zero gradient step of either sign: ``data - lr*0.0`` keeps a
    # -0.0 weight where ``data - lr*(-0.0)`` makes it +0.0.
    lo, hi = max(0, B - 3), min(width, B + 3)
    signed_zeros(data0, lo, hi)
    signed_zeros(grads[0], lo, hi)
    grads[1][...] = zero
    for step in run_both(name, data0, grads):
        assert_same_step(name, *step)


@pytest.mark.parametrize("width", [B - 1, 2 * B + 7])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_strided_arena_run_matches_straight_line(name, width):
    rng = np.random.default_rng(width)
    data0 = rng.normal(size=(3, width))
    grads = [rng.normal(size=(3, width)) for _ in range(STEPS)]
    for step in run_both(name, data0, grads, strided=True):
        assert_same_step(name, *step)


def test_scratch_is_one_block_and_moments_full_size():
    param = SimpleNamespace(data=np.zeros((3, 2 * B + 7)), grad=np.ones((3, 2 * B + 7)))
    small = SimpleNamespace(data=np.zeros((3, 5)), grad=np.ones((3, 5)))
    opt = Adam([param, small])
    opt.step()
    assert [s.shape for s in scratch_of(opt, 0)] == [(3, B), (3, B)]
    assert [m.shape for m in opt._state[0]] == [(3, 2 * B + 7)] * 2
    assert [s.shape for s in scratch_of(opt, 1)] == [(3, 5), (3, 5)]
    widths = [(cols.start, s[0].shape[-1]) for cols, _, s in opt._blocks[0]]
    assert widths == [(0, B), (B, B), (2 * B, 7)]


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_reset_zeroes_moments_only(name):
    rng = np.random.default_rng(5)
    start = rng.normal(size=B + 1)
    grads = [rng.normal(size=B + 1) for _ in range(STEPS)]

    def train(opt, p):
        for g in grads:
            p.grad = g.copy()
            opt.step()
        return p.data.tobytes()

    reused = Parameter(start.copy())
    opt = OPTIMIZERS[name]([reused])
    train(opt, reused)
    for s in scratch_of(opt, 0):
        s.fill(np.nan)
    opt.reset()
    assert all(np.isnan(s).all() for s in scratch_of(opt, 0))
    assert all(not m.any() for m in opt._state[0])
    reused.data[...] = start
    fresh = Parameter(start.copy())
    assert train(opt, reused) == train(OPTIMIZERS[name]([fresh]), fresh)


# Finite values with both signed zeros well represented.
values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(OPTIMIZERS)),
    block=st.integers(1, 6),
    group=st.integers(1, 3),
    width=st.integers(1, 20),
    dtype=st.sampled_from([np.float32, np.float64]),
    strided=st.booleans(),
    data=st.data(),
)
def test_property_optimizer_any_block(name, block, group, width, dtype, strided, data):
    shaped = arrays(dtype, (group, width), elements=values)
    data0 = data.draw(shaped)
    grads = [data.draw(shaped) for _ in range(STEPS)]
    with mock.patch.object(optim, "BLOCK_SIZE", block):
        with np.errstate(all="ignore"):
            for step in run_both(name, data0, grads, strided=strided):
                assert_same_step(name, *step)


# -- VC-ASGD merge -------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("out_mode", ["fresh", "separate", "in_place"])
@pytest.mark.parametrize("scratch_len", ["none", "block", "full"])
def test_merge_matches_straight_line(width, out_mode, scratch_len):
    rng = np.random.default_rng(width)
    server = rng.normal(size=width)
    client = rng.normal(size=width)
    lo, hi = max(0, B - 3), min(width, B + 3)
    signed_zeros(server, lo, hi)
    signed_zeros(client, lo + 1, hi)
    want = ref_merge(server, client, 0.7)
    scratch = {
        "none": None,
        "block": np.full(min(width, B), np.nan),
        "full": np.full(width, np.nan),
    }[scratch_len]
    if out_mode == "in_place":
        got = vcasgd_merge(server, client, 0.7, out=server, scratch=scratch)
        assert got is server
    else:
        out = np.empty(width) if out_mode == "separate" else None
        got = vcasgd_merge(server, client, 0.7, out=out, scratch=scratch)
        assert out is None or got is out
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", WIDTHS)
def test_vcasgd_rule_keeps_one_block_of_scratch(width):
    rng = np.random.default_rng(width)
    server = rng.normal(size=width)
    update = ClientUpdate(client_id="c", params=rng.normal(size=width))
    rule = VCASGDRule(schedule=ConstantAlpha(0.95))
    got = rule.apply(server, update, epoch=1)
    assert got.tobytes() == ref_merge(server, update.params, 0.95).tobytes()
    (scratch,) = rule.__dict__["_scratch_buffers"].values()
    assert scratch.shape == (min(width, B),)


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(1, 6),
    width=st.integers(1, 20),
    alpha=st.sampled_from([0.5, 0.7, 0.999, 1.0]),
    in_place=st.booleans(),
    data=st.data(),
)
def test_property_merge_any_block(block, width, alpha, in_place, data):
    server = data.draw(arrays(np.float64, width, elements=values))
    client = data.draw(arrays(np.float64, width, elements=values))
    want = ref_merge(server, client, alpha)
    with mock.patch.object(vcasgd, "BLOCK_SIZE", block):
        out = server if in_place else None
        got = vcasgd_merge(
            server, client, alpha, out=out, scratch=np.empty(min(width, block))
        )
    assert got.tobytes() == want.tobytes()


# -- int8 quantizer --------------------------------------------------------------


def layout_of(sizes):
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int).tolist()
    return SimpleNamespace(
        offsets=offsets, sizes=list(sizes), total_size=int(sum(sizes))
    )


def assert_int8_matches(vec, layout):
    segments = tuple(zip(layout.offsets, layout.sizes))
    enc = Int8Codec().encode(vec, layout)
    codes, scales, got_segments = enc.data
    want_codes, want_scales = ref_int8_encode(vec, segments)
    assert got_segments == segments
    assert codes.tobytes() == want_codes.tobytes()
    assert scales.tobytes() == want_scales.tobytes()
    ref_wire = min(
        serialization.compressed_size(want_codes), want_codes.nbytes
    ) + 4 * len(segments)
    assert enc.nbytes == ref_wire


@pytest.mark.parametrize("width", WIDTHS)
def test_int8_single_segment_matches_straight_line(width):
    rng = np.random.default_rng(width)
    vec = rng.normal(size=width)
    signed_zeros(vec, max(0, B - 3), min(width, B + 3))
    assert_int8_matches(vec, layout_of([width]))


def test_int8_segments_straddling_blocks_match_straight_line():
    rng = np.random.default_rng(3)
    sizes = [B - 1, 2, B + 1, 7, 2 * B + 7, 1]
    vec = rng.normal(size=sum(sizes))
    offsets = layout_of(sizes).offsets
    vec[offsets[1] : offsets[1] + 2] = [0.0, -0.0]  # an all-zero segment
    vec[offsets[3] : offsets[3] + 7] = -0.0  # all negative zeros
    vec[offsets[4] + B] = -250.0  # maxabs from the minimum, in block 2
    vec[offsets[2] + 5] = 90.0  # maxabs from the maximum
    assert_int8_matches(vec, layout_of(sizes))


@settings(max_examples=80, deadline=None)
@given(
    block=st.integers(1, 6),
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=5).filter(sum),
    data=st.data(),
)
def test_property_int8_any_block(block, sizes, data):
    vec = data.draw(arrays(np.float64, sum(sizes), elements=values))
    with mock.patch.object(serialization, "BLOCK_SIZE", block):
        assert_int8_matches(vec, layout_of(sizes))
