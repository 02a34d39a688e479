"""Recurrent layer tests: shapes, BPTT gradients, learnability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Adam, Dense, Tensor, cross_entropy
from repro.nn.rnn import RNN, Embedding, GRUCell, RNNCell

from ..conftest import in_float64, numerical_gradient


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_ids(self, rng):
        emb = Embedding(5, 4, rng)
        with pytest.raises(ShapeError):
            emb(np.array([5]))
        with pytest.raises(ShapeError):
            emb(np.array([-1]))

    def test_gradient_scatters_to_rows(self, rng):
        emb = Embedding(6, 3, rng)
        out = emb(np.array([2, 2, 4]))
        out.sum().backward()
        grad_rows = np.abs(emb.weight.grad).sum(axis=1)
        assert grad_rows[2] > 0 and grad_rows[4] > 0
        assert grad_rows[0] == 0

    def test_invalid_dims(self, rng):
        with pytest.raises(ConfigurationError):
            Embedding(0, 4, rng)


class TestRNNCell:
    def test_step_shape(self, rng):
        cell = RNNCell(4, 6, rng)
        h = cell(Tensor(rng.normal(size=(3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_output_bounded_by_tanh(self, rng):
        cell = RNNCell(4, 6, rng)
        h = cell(Tensor(rng.normal(size=(8, 4)) * 10), cell.initial_state(8))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ConfigurationError):
            RNNCell(0, 4, rng)

    def test_parameters_registered(self, rng):
        cell = RNNCell(4, 6, rng)
        names = {n for n, _ in cell.named_parameters()}
        assert names == {"w_xh", "w_hh", "bias"}


class TestGRUCell:
    def test_step_shape(self, rng):
        cell = GRUCell(4, 6, rng)
        h = cell(Tensor(rng.normal(size=(3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_zero_update_gate_keeps_state(self, rng):
        """With z ≈ 0 (large negative bias) the new state equals the old."""
        cell = GRUCell(3, 4, rng)
        cell.b_z.data[:] = -50.0
        h0 = Tensor(rng.normal(size=(2, 4)))
        h1 = cell(Tensor(rng.normal(size=(2, 3))), h0)
        np.testing.assert_allclose(h1.data, h0.data, atol=1e-8)

    def test_gate_parameter_count(self, rng):
        cell = GRUCell(4, 6, rng)
        assert len(list(cell.parameters())) == 9  # 3 gates x (Wx, Wh, b)


class TestRNNUnroll:
    def test_output_shapes(self, rng):
        rnn = RNN(RNNCell(4, 5, rng))
        out, h = rnn(Tensor(rng.normal(size=(2, 7, 4))))
        assert out.shape == (2, 7, 5)
        assert h.shape == (2, 5)

    def test_final_state_is_last_output(self, rng):
        rnn = RNN(RNNCell(4, 5, rng))
        out, h = rnn(Tensor(rng.normal(size=(2, 3, 4))))
        np.testing.assert_allclose(out.data[:, -1, :], h.data)

    def test_rejects_2d_input(self, rng):
        rnn = RNN(RNNCell(4, 5, rng))
        with pytest.raises(ShapeError):
            rnn(Tensor(rng.normal(size=(2, 4))))

    def test_custom_initial_state(self, rng):
        cell = RNNCell(4, 5, rng)
        rnn = RNN(cell)
        h0 = Tensor(np.ones((2, 5)))
        out1, _ = rnn(Tensor(np.zeros((2, 1, 4))), h0)
        out2, _ = rnn(Tensor(np.zeros((2, 1, 4))))
        assert not np.allclose(out1.data, out2.data)

    def test_bptt_gradient_matches_numeric(self, rng):
        cell = in_float64(RNNCell(3, 4, rng))
        rnn = RNN(cell)
        x = rng.normal(size=(2, 4, 3))

        def loss_value() -> float:
            out, _ = rnn(Tensor(x))
            return float((out.data ** 2).sum())

        out, _ = rnn(Tensor(x))
        (out * out).sum().backward()
        numeric = numerical_gradient(lambda: loss_value(), cell.w_hh.data)
        np.testing.assert_allclose(cell.w_hh.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_gru_bptt_gradient_matches_numeric(self, rng):
        cell = in_float64(GRUCell(3, 4, rng))
        rnn = RNN(cell)
        x = rng.normal(size=(2, 3, 3))

        def loss_value() -> float:
            out, _ = rnn(Tensor(x))
            return float((out.data ** 2).sum())

        out, _ = rnn(Tensor(x))
        (out * out).sum().backward()
        numeric = numerical_gradient(lambda: loss_value(), cell.w_hn.data)
        np.testing.assert_allclose(cell.w_hn.grad, numeric, rtol=1e-4, atol=1e-6)


class TestSequenceLearning:
    def test_gru_learns_cyclic_sequence(self, rng):
        """Next-token prediction on a deterministic cycle reaches 100%."""
        vocab, width = 5, 8
        emb = Embedding(vocab, width, rng)
        cell = GRUCell(width, 16, rng)
        rnn = RNN(cell)
        head = Dense(16, vocab, rng)
        params = (
            list(emb.parameters()) + list(cell.parameters()) + list(head.parameters())
        )
        opt = Adam(params, lr=0.01)
        seq = np.tile(np.arange(vocab), 20)
        x = np.stack([seq[i : i + 6] for i in range(60)])
        y = np.array([seq[i + 6] for i in range(60)])
        for _ in range(60):
            for m in (emb, cell, head):
                m.zero_grad()
            _, h = rnn(emb(x))
            loss = cross_entropy(head(h), y)
            loss.backward()
            opt.step()
        _, h = rnn(emb(x))
        assert float((head(h).data.argmax(1) == y).mean()) == 1.0
