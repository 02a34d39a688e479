"""Property-based gradient checking over random architectures.

The single most important invariant of the NN substrate: for *any* small
network the autograd gradient matches central differences.  Hypothesis
draws architectures (depth, widths, activation, batch-norm) and inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, cross_entropy, make_mlp
from repro.nn.layers import ReLU

from ..conftest import in_float64, numerical_gradient


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(0, 2),
    width=st.integers(2, 6),
    activation=st.sampled_from(["relu", "tanh"]),
    batch=st.integers(1, 4),
)
def test_property_random_mlp_gradients_match_numeric(
    seed, depth, width, activation, batch
):
    rng = np.random.default_rng(seed)
    in_features, classes = 5, 3
    model = in_float64(
        make_mlp(
            rng,
            in_features=in_features,
            hidden=tuple([width] * depth),
            num_classes=classes,
            activation=activation,
        )
    )
    x = rng.normal(size=(batch, in_features))
    # Keep ReLU inputs away from the kink for a clean numeric comparison.
    if activation == "relu":
        x = x + np.sign(x) * 0.05
    y = rng.integers(0, classes, size=batch)

    # Hidden pre-activations can still land on a ReLU kink, where central
    # differences disagree with the subgradient; reject those draws.
    if activation == "relu":
        h = Tensor(x)
        for layer in model.layers:
            if isinstance(layer, ReLU):
                assume(np.abs(h.data).min() > 1e-3)
            h = layer(h)

    def loss_value() -> float:
        return cross_entropy(model(Tensor(x)), y).item()

    model.zero_grad()
    cross_entropy(model(Tensor(x)), y).backward()

    # Check the gradient of one randomly chosen parameter tensor in full.
    params = list(model.parameters())
    target = params[int(rng.integers(len(params)))]
    numeric = numerical_gradient(lambda: loss_value(), target.data)
    np.testing.assert_allclose(target.grad, numeric, rtol=2e-4, atol=2e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_gradients_zero_for_uninvolved_classes(seed):
    """Bias gradient of the logit layer sums to zero across classes
    (softmax cross-entropy's probability conservation)."""
    rng = np.random.default_rng(seed)
    model = in_float64(make_mlp(rng, in_features=4, hidden=(5,), num_classes=4))
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    model.zero_grad()
    cross_entropy(model(Tensor(x)), y).backward()
    final_bias = list(model.parameters())[-1]
    assert abs(final_bias.grad.sum()) < 1e-12
