"""LayerNorm tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import LayerNorm, Tensor

from ..conftest import numerical_gradient


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        ln = LayerNorm(8)
        out = ln(Tensor(rng.normal(loc=3.0, scale=5.0, size=(4, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_works_on_3d_sequences(self, rng):
        ln = LayerNorm(6)
        out = ln(Tensor(rng.normal(size=(2, 5, 6))))
        assert out.shape == (2, 5, 6)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)

    def test_gamma_beta_affine(self, rng):
        ln = LayerNorm(4)
        ln.gamma.data[:] = 2.0
        ln.beta.data[:] = 1.0
        out = ln(Tensor(rng.normal(size=(3, 4))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 1.0, atol=1e-9)

    def test_no_mode_split(self, rng):
        ln = LayerNorm(4)
        x = Tensor(rng.normal(size=(2, 4)))
        train_out = ln(x).data.copy()
        ln.eval()
        np.testing.assert_array_equal(ln(x).data, train_out)

    def test_gradient_matches_numeric(self, rng):
        ln = LayerNorm(5)
        x_data = rng.normal(size=(3, 5))

        def loss(t: Tensor):
            return (ln(t) ** 2).sum()

        x = Tensor(x_data.copy(), requires_grad=True)
        loss(x).backward()
        numeric = numerical_gradient(lambda: loss(Tensor(x.data)).item(), x.data)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            LayerNorm(4)(Tensor(rng.normal(size=(2, 5))))
        with pytest.raises(ConfigurationError):
            LayerNorm(0)

    def test_parameters_registered(self):
        ln = LayerNorm(3)
        assert {n for n, _ in ln.named_parameters()} == {"gamma", "beta"}
