"""LSTM cell tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Adam, Dense, Tensor, cross_entropy
from repro.nn.rnn import RNN, Embedding, LSTMCell

from ..conftest import in_float64, numerical_gradient


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell(Tensor(rng.normal(size=(3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_array_equal(cell.b_f.data, 1.0)
        np.testing.assert_array_equal(cell.b_i.data, 0.0)

    def test_parameter_count(self, rng):
        cell = LSTMCell(4, 6, rng)
        assert len(list(cell.parameters())) == 12  # 4 gates x (Wx, Wh, b)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ConfigurationError):
            LSTMCell(4, 0, rng)

    def test_closed_input_gate_preserves_cell(self, rng):
        """With i ≈ 0 and f ≈ 1, the cell state passes through unchanged."""
        cell = LSTMCell(3, 4, rng)
        cell.b_i.data[:] = -50.0
        cell.b_f.data[:] = 50.0
        h0, c0 = cell.initial_state(2)
        c0 = Tensor(rng.normal(size=(2, 4)))
        _, c1 = cell(Tensor(rng.normal(size=(2, 3))), (h0, c0))
        np.testing.assert_allclose(c1.data, c0.data, atol=1e-8)

    def test_unroll_with_rnn_wrapper(self, rng):
        rnn = RNN(LSTMCell(4, 5, rng))
        out, (h, c) = rnn(Tensor(rng.normal(size=(2, 6, 4))))
        assert out.shape == (2, 6, 5)
        np.testing.assert_allclose(out.data[:, -1, :], h.data)

    def test_bptt_gradient_matches_numeric(self, rng):
        cell = in_float64(LSTMCell(3, 4, rng))
        rnn = RNN(cell)
        x = rng.normal(size=(2, 3, 3))

        def loss_value() -> float:
            out, _ = rnn(Tensor(x))
            return float((out.data ** 2).sum())

        out, _ = rnn(Tensor(x))
        (out * out).sum().backward()
        numeric = numerical_gradient(lambda: loss_value(), cell.w_hg.data)
        np.testing.assert_allclose(cell.w_hg.grad, numeric, rtol=1e-4, atol=1e-6)

    def test_learns_long_range_dependency(self, rng):
        """Classify sequences by their FIRST token (requires memory across
        the whole sequence — the LSTM's raison d'être)."""
        vocab, steps = 4, 10
        emb = Embedding(vocab, 6, rng)
        cell = LSTMCell(6, 12, rng)
        rnn = RNN(cell)
        head = Dense(12, vocab, rng)
        params = (
            list(emb.parameters()) + list(cell.parameters()) + list(head.parameters())
        )
        opt = Adam(params, lr=0.02)
        data_rng = np.random.default_rng(0)
        x = data_rng.integers(0, vocab, size=(120, steps))
        y = x[:, 0].copy()  # label = first token, noise afterwards
        for _ in range(80):
            for m in (emb, cell, head):
                m.zero_grad()
            _, (h, _c) = rnn(emb(x))
            loss = cross_entropy(head(h), y)
            loss.backward()
            opt.step()
        _, (h, _c) = rnn(emb(x))
        acc = float((head(h).data.argmax(1) == y).mean())
        assert acc > 0.9
