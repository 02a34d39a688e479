"""Workspace arena: buffer reuse mechanics and bit-identical kernels."""

from __future__ import annotations

import numpy as np

from repro.nn import SGD, Tensor, Workspace, cross_entropy, make_convnet
from repro.nn.conv import avg_pool2d, col2im, conv2d, im2col, max_pool2d

from ..goldens import state_checksum


class TestWorkspace:
    def test_same_key_reuses_buffer(self):
        ws = Workspace()
        a = ws.buffer("cols", (4, 9))
        b = ws.buffer("cols", (4, 9))
        assert a is b

    def test_distinct_tags_and_shapes_coexist(self):
        ws = Workspace()
        a = ws.buffer("cols", (4, 9))
        b = ws.buffer("pad", (4, 9))
        c = ws.buffer("cols", (2, 9))
        assert a is not b and a is not c
        assert ws.nbytes == a.nbytes + b.nbytes + c.nbytes

    def test_zeros_clears(self):
        ws = Workspace()
        ws.buffer("x", (3,)).fill(7.0)
        np.testing.assert_array_equal(ws.zeros("x", (3,)), np.zeros(3))

    def test_clear_frees(self):
        ws = Workspace()
        ws.buffer("x", (3,))
        ws.clear()
        assert ws.nbytes == 0


def _conv_forward_backward(x_data, w_data, b_data, workspace):
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = conv2d(x, w, b, stride=1, pad=1, workspace=workspace)
    out.sum().backward()
    return out.data, x.grad, w.grad, b.grad


class TestBitIdenticalKernels:
    def test_conv2d_with_and_without_workspace(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        ws = Workspace()
        plain = _conv_forward_backward(x, w, b, None)
        # Two passes through the same workspace: the second pass reuses
        # every buffer and must still match the fresh-workspace call exactly.
        _conv_forward_backward(x, w, b, ws)
        reused = _conv_forward_backward(x, w, b, ws)
        for got, want in zip(reused, plain):
            np.testing.assert_array_equal(got, want)

    def test_pooling_with_and_without_workspace(self, rng):
        for pool in (max_pool2d, avg_pool2d):
            x_data = rng.normal(size=(2, 3, 8, 8))
            ws = Workspace()
            for _ in range(2):  # second pass exercises buffer reuse
                x1 = Tensor(x_data.copy(), requires_grad=True)
                x2 = Tensor(x_data.copy(), requires_grad=True)
                out1 = pool(x1, 2, workspace=None)
                out2 = pool(x2, 2, workspace=ws)
                out1.sum().backward()
                out2.sum().backward()
                np.testing.assert_array_equal(out1.data, out2.data)
                np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_im2col_col2im_with_and_without_workspace(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        ws = Workspace()
        for _ in range(2):  # second pass exercises buffer reuse
            cols, oh, ow = im2col(x, 3, 3, 1, 1)
            cols_ws, *dims = im2col(x, 3, 3, 1, 1, ws)
            assert dims == [oh, ow]
            np.testing.assert_array_equal(cols_ws, cols)
            np.testing.assert_array_equal(
                col2im(cols, x.shape, 3, 3, 1, 1, ws), col2im(cols, x.shape, 3, 3, 1, 1)
            )

    def test_output_tensors_never_alias_workspace(self, rng):
        ws = Workspace()
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        first = conv2d(x, w, None, workspace=ws).data
        snapshot = first.copy()
        conv2d(x, w, None, workspace=ws)  # rewrites every workspace buffer
        np.testing.assert_array_equal(first, snapshot)


def _workspaces(module):
    if hasattr(module, "_workspace"):
        yield module._workspace
    for child in module._modules.values():
        yield from _workspaces(child)


class TestEndToEndTraining:
    def _train(self, reuse: bool) -> str:
        rng = np.random.default_rng(0)
        model = make_convnet(rng, in_channels=1, image_size=8, num_classes=4)
        workspaces = list(_workspaces(model))
        assert workspaces
        opt = SGD(model.parameters(), lr=0.05)
        data_rng = np.random.default_rng(1)
        for _ in range(4):
            if not reuse:
                for ws in workspaces:
                    ws.clear()  # every buffer of this step is fresh
            x = Tensor(data_rng.normal(size=(6, 1, 8, 8)))
            y = data_rng.integers(0, 4, size=6)
            loss = cross_entropy(model(x), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert all(ws.nbytes for ws in workspaces)
        return state_checksum(model.state_dict())

    def test_training_bit_identical_with_arena_on_and_off(self):
        assert self._train(reuse=True) == self._train(reuse=False)
