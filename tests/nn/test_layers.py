"""Module/layer semantics: registration, state dicts, modes, shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    Parameter,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.tensor import Tensor


class TestModuleRegistry:
    def test_parameters_discovered_depth_first(self, rng):
        net = Sequential(Dense(4, 8, rng), ReLU(), Dense(8, 2, rng))
        params = list(net.parameters())
        assert len(params) == 4  # two weights + two biases
        assert params[0].shape == (4, 8)

    def test_named_parameters_paths(self, rng):
        net = Sequential(Dense(4, 3, rng, bias=False))
        names = dict(net.named_parameters())
        assert list(names) == ["0.weight"]

    def test_num_parameters(self, rng):
        net = Dense(10, 5, rng)
        assert net.num_parameters() == 10 * 5 + 5

    def test_train_eval_propagates(self, rng):
        net = Sequential(BatchNorm(3), Sequential(BatchNorm(3)))
        net.eval()
        assert all(not m.training for m in [net, *net._modules.values()])
        net.train()
        assert net.training

    def test_zero_grad_clears_all(self, rng):
        net = Dense(3, 2, rng)
        out = net(Tensor(rng.normal(size=(4, 3))))
        out.sum().backward()
        assert net.weight.grad is not None and net.weight.grad.any()
        net.zero_grad()
        assert not net.weight.grad.any()


class TestStateDict:
    def test_roundtrip(self, rng):
        a = Sequential(Dense(4, 3, rng), BatchNorm(3))
        b = Sequential(Dense(4, 3, rng), BatchNorm(3))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_includes_buffers(self, rng):
        net = BatchNorm(3)
        state = net.state_dict()
        assert "buffer:running_mean" in state
        assert "buffer:running_var" in state

    def test_state_dict_is_a_copy(self, rng):
        net = Dense(2, 2, rng)
        state = net.state_dict()
        state["weight"][:] = 99.0
        assert not (net.weight.data == 99.0).any()

    def test_load_missing_key_raises(self, rng):
        net = Dense(2, 2, rng)
        state = net.state_dict()
        del state["bias"]
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_load_extra_key_raises(self, rng):
        net = Dense(2, 2, rng)
        state = net.state_dict()
        state["ghost"] = np.zeros(2)
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_load_wrong_shape_raises(self, rng):
        net = Dense(2, 2, rng)
        state = net.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_load_preserves_array_identity(self, rng):
        # In-place copy: optimizers hold references to the same buffers.
        net = Dense(2, 2, rng)
        buf = net.weight.data
        net.load_state_dict(net.state_dict())
        assert net.weight.data is buf


class TestDense:
    def test_forward_formula(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(5, 3))
        out = layer(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data + layer.bias.data, rtol=1e-12
        )

    def test_no_bias(self, rng):
        layer = Dense(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_invalid_dims(self, rng):
        with pytest.raises(ConfigurationError):
            Dense(0, 2, rng)

    def test_string_initializer(self, rng):
        layer = Dense(3, 2, rng, initializer="zeros")
        np.testing.assert_array_equal(layer.weight.data, 0.0)


class TestConv2DLayer:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 8, 3, rng, stride=2, padding=1)
        out = layer(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_invalid_geometry(self, rng):
        with pytest.raises(ConfigurationError):
            Conv2D(3, 8, 0, rng)


class TestBatchNorm:
    def test_normalizes_in_train_mode(self, rng):
        bn = BatchNorm(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_update(self, rng):
        bn = BatchNorm(2, momentum=0.5)
        x = rng.normal(loc=10.0, size=(32, 2))
        bn(Tensor(x))
        assert (bn.running_mean > 1.0).all()  # moved toward batch mean 10

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm(2)
        for _ in range(50):
            bn(Tensor(rng.normal(loc=3.0, size=(32, 2))))
        bn.eval()
        x = rng.normal(loc=3.0, size=(16, 2))
        out = bn(Tensor(x))
        # Normalizing by running stats of the same distribution ~ centers it.
        assert abs(out.data.mean()) < 0.5

    def test_4d_input(self, rng):
        bn = BatchNorm(3)
        out = bn(Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert out.shape == (2, 3, 4, 4)

    def test_rejects_3d(self, rng):
        with pytest.raises(ShapeError):
            BatchNorm(3)(Tensor(rng.normal(size=(2, 3, 4))))

    def test_gamma_beta_trainable(self, rng):
        bn = BatchNorm(3)
        out = bn(Tensor(rng.normal(size=(8, 3)), requires_grad=False))
        out.sum().backward()
        assert bn.beta.grad is not None


class TestComposites:
    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4))))
        assert out.shape == (2, 12)

    def test_sequential_append_and_iter(self, rng):
        net = Sequential(Dense(2, 2, rng))
        net.append(ReLU())
        assert len(net) == 2
        assert isinstance(list(net)[1], ReLU)

    def test_activation_modules(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        for mod, fn in [(ReLU(), np.maximum), (Tanh(), None), (Sigmoid(), None)]:
            out = mod(x)
            assert out.shape == x.shape

    def test_residual_identity(self, rng):
        body = Dense(4, 4, rng, initializer="zeros", bias=False)
        res = Residual(body)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(res(Tensor(x)).data, x)

    def test_residual_projection_shortcut(self, rng):
        body = Dense(4, 6, rng)
        shortcut = Dense(4, 6, rng)
        res = Residual(body, shortcut)
        out = res(Tensor(rng.normal(size=(2, 4))))
        assert out.shape == (2, 6)

    def test_residual_shape_mismatch_raises(self, rng):
        res = Residual(Dense(4, 6, rng))
        with pytest.raises(ShapeError):
            res(Tensor(rng.normal(size=(2, 4))))

    def test_pooling_modules(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert MaxPool2D(2)(x).shape == (1, 2, 2, 2)
        assert GlobalAvgPool2D()(x).shape == (1, 2)

    def test_dropout_module_respects_mode(self, rng):
        drop = Dropout(0.5, rng)
        x = Tensor(np.ones((8, 8)))
        drop.eval()
        np.testing.assert_array_equal(drop(x).data, x.data)
        drop.train()
        assert (drop(x).data == 0).any()


class TestParameter:
    def test_always_requires_grad(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad
