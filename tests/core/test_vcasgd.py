"""VC-ASGD update rule and α schedules (paper Eq. 1 / Eq. 2, §III-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vcasgd import (
    CallableAlpha,
    ConstantAlpha,
    VarAlpha,
    epoch_recursion,
    vcasgd_merge,
)
from repro.errors import ConfigurationError


class TestMerge:
    def test_eq1_formula(self, rng):
        server = rng.normal(size=10)
        client = rng.normal(size=10)
        out = vcasgd_merge(server, client, 0.95)
        np.testing.assert_allclose(out, 0.95 * server + 0.05 * client)

    def test_in_place_aliasing(self, rng):
        server = rng.normal(size=10)
        expected = 0.7 * server + 0.3 * np.ones(10)
        result = vcasgd_merge(server, np.ones(10), 0.7, out=server)
        assert result is server
        np.testing.assert_allclose(server, expected)

    def test_alpha_one_keeps_server(self, rng):
        server = rng.normal(size=5)
        out = vcasgd_merge(server, np.zeros(5), 1.0)
        np.testing.assert_allclose(out, server)

    def test_invalid_alpha(self, rng):
        v = rng.normal(size=3)
        with pytest.raises(ConfigurationError):
            vcasgd_merge(v, v, 0.0)
        with pytest.raises(ConfigurationError):
            vcasgd_merge(v, v, 1.5)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            vcasgd_merge(rng.normal(size=3), rng.normal(size=4), 0.9)

    def test_merge_is_convex_combination(self, rng):
        """Result stays within the elementwise interval [min, max]."""
        server = rng.normal(size=20)
        client = rng.normal(size=20)
        out = vcasgd_merge(server, client, 0.6)
        lo = np.minimum(server, client)
        hi = np.maximum(server, client)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestEq2Recursion:
    def test_sequential_eq1_equals_closed_form(self, rng):
        """Applying Eq. 1 n_t times must equal the paper's Eq. 2."""
        alpha = 0.9
        server = rng.normal(size=8)
        updates = [rng.normal(size=8) for _ in range(5)]
        sequential = server.copy()
        for u in updates:
            sequential = vcasgd_merge(sequential, u, alpha)
        closed = epoch_recursion(server, updates, alpha)
        np.testing.assert_allclose(sequential, closed, rtol=1e-12)

    def test_old_weight_is_alpha_pow_nt(self, rng):
        """With zero client updates, W_{s,e} = α^{n_t} · W_{s,e-1}."""
        alpha, n_t = 0.95, 50
        server = rng.normal(size=4)
        zeros = [np.zeros(4)] * n_t
        out = epoch_recursion(server, zeros, alpha)
        np.testing.assert_allclose(out, alpha**n_t * server)

    def test_later_arrivals_weigh_more(self):
        """The most recent client copy is discounted least (Eq. 2)."""
        server = np.zeros(1)
        early_heavy = epoch_recursion(server, [np.ones(1), np.zeros(1)], 0.9)
        late_heavy = epoch_recursion(server, [np.zeros(1), np.ones(1)], 0.9)
        assert late_heavy[0] > early_heavy[0]

    def test_empty_update_list(self, rng):
        server = rng.normal(size=3)
        np.testing.assert_allclose(epoch_recursion(server, [], 0.9), server)


class TestSchedules:
    def test_constant(self):
        s = ConstantAlpha(0.95)
        assert s.alpha_at(1) == s.alpha_at(40) == 0.95
        assert "0.95" in s.describe()

    def test_constant_bounds(self):
        with pytest.raises(ConfigurationError):
            ConstantAlpha(0.0)
        with pytest.raises(ConfigurationError):
            ConstantAlpha(1.2)
        ConstantAlpha(1.0)  # inclusive upper bound

    def test_var_alpha_paper_values(self):
        """α_e = e/(e+1): 0.5 at e=1 rising to ~0.98 at e=40 (§IV-C)."""
        s = VarAlpha()
        assert s.alpha_at(1) == pytest.approx(0.5)
        assert s.alpha_at(40) == pytest.approx(40 / 41)
        assert 0.975 < s.alpha_at(40) < 0.98

    def test_var_alpha_monotone(self):
        s = VarAlpha()
        values = [s.alpha_at(e) for e in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            VarAlpha().alpha_at(0)
        with pytest.raises(ConfigurationError):
            ConstantAlpha(0.9).alpha_at(-1)

    def test_callable_schedule(self):
        s = CallableAlpha(lambda e: 1.0 - 1.0 / (e + 1), label="inv")
        assert s.alpha_at(1) == pytest.approx(0.5)
        assert s.describe() == "inv"

    def test_callable_validates_range(self):
        s = CallableAlpha(lambda e: 2.0)
        with pytest.raises(ConfigurationError):
            s.alpha_at(1)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.01, 1.0),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_sequential_matches_closed_form(alpha, n, seed):
    rng = np.random.default_rng(seed)
    server = rng.normal(size=6)
    updates = [rng.normal(size=6) for _ in range(n)]
    sequential = server.copy()
    for u in updates:
        sequential = vcasgd_merge(sequential, u, alpha)
    np.testing.assert_allclose(
        sequential, epoch_recursion(server, updates, alpha), rtol=1e-9, atol=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.01, 0.99), seed=st.integers(0, 2**31 - 1))
def test_property_repeated_merge_converges_to_client(alpha, seed):
    """Merging the same client copy forever converges the server to it —
    the contraction that makes VC-ASGD convergent (§III-C)."""
    rng = np.random.default_rng(seed)
    server = rng.normal(size=4)
    client = rng.normal(size=4)
    for _ in range(3000):
        server = vcasgd_merge(server, client, alpha)
        if np.allclose(server, client, rtol=0.0, atol=1e-9):
            break
    np.testing.assert_allclose(server, client, atol=1e-6, rtol=0.0)
