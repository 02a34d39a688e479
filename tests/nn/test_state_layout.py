"""StateLayout codec: legacy equivalence, zero-copy views, mutation safety."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedRunner, TrainingJobConfig
from repro.errors import SerializationError
from repro.nn.losses import cross_entropy
from repro.nn.models import make_mlp
from repro.nn.serialization import (
    ParameterArena,
    StateLayout,
    state_to_vector,
    vector_to_state,
)
from repro.nn.tensor import Tensor


def legacy_pack(state: dict[str, np.ndarray]) -> np.ndarray:
    """The historical codec: sorted keys, ravel, concatenate."""
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float64).ravel() for k in sorted(state)]
    )


@st.composite
def random_states(draw) -> dict[str, np.ndarray]:
    n_keys = draw(st.integers(1, 6))
    state = {}
    for i in range(n_keys):
        ndim = draw(st.integers(0, 3))
        shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
        seed = draw(st.integers(0, 2**31 - 1))
        values = np.random.default_rng(seed).normal(size=shape)
        # Mixed key styles, including buffer-prefixed ones.
        prefix = "buffer:" if draw(st.booleans()) else ""
        state[f"{prefix}k{i:02d}"] = values
    return state


class TestLegacyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(state=random_states())
    def test_pack_matches_legacy_concatenate(self, state):
        layout = StateLayout.for_state(state)
        np.testing.assert_array_equal(layout.pack(state), legacy_pack(state))

    @settings(max_examples=40, deadline=None)
    @given(state=random_states())
    def test_roundtrip_exact(self, state):
        layout = StateLayout.for_state(state)
        restored = layout.unpack(layout.pack(state))
        assert set(restored) == set(state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])
            assert restored[key].shape == np.asarray(state[key]).shape

    @settings(max_examples=25, deadline=None)
    @given(state=random_states())
    def test_module_level_helpers_delegate(self, state):
        vec = state_to_vector(state)
        np.testing.assert_array_equal(vec, legacy_pack(state))
        restored = vector_to_state(vec, state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])


class TestLayoutCache:
    def test_same_signature_reuses_layout(self, rng):
        a = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        b = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        assert StateLayout.for_state(a) is StateLayout.for_state(b)

    def test_different_shapes_get_different_layouts(self, rng):
        a = {"w": rng.normal(size=(3, 2))}
        b = {"w": rng.normal(size=(2, 3))}
        assert StateLayout.for_state(a) is not StateLayout.for_state(b)


class TestViewsAndAliasing:
    def test_views_are_zero_copy(self, rng):
        state = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        layout = StateLayout.for_state(state)
        vec = layout.pack(state)
        views = layout.views(vec)
        for view in views.values():
            assert view.base is vec
        # Mutating a view is visible through the vector (that is the point).
        # Keys are laid out sorted, so "b" occupies the first three slots.
        views["b"][0] = 123.0
        assert vec[0] == 123.0

    def test_unpack_returns_owning_copies(self, rng):
        state = {"w": rng.normal(size=(4, 3))}
        layout = StateLayout.for_state(state)
        vec = layout.pack(state)
        restored = layout.unpack(vec)
        restored["w"][0, 0] = 999.0
        assert vec[0] != 999.0

    def test_pack_into_preallocated_out(self, rng):
        state = {"w": rng.normal(size=(5, 2))}
        layout = StateLayout.for_state(state)
        out = layout.empty()
        returned = layout.pack(state, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, legacy_pack(state))

    def test_unpack_into_live_arrays(self, rng):
        state = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        layout = StateLayout.for_state(state)
        vec = layout.pack(state)
        dest = {k: np.zeros_like(v) for k, v in state.items()}
        bindings = dict(dest)  # unpack_into must write through, not rebind
        layout.unpack_into(vec, dest)
        for key in state:
            np.testing.assert_array_equal(dest[key], state[key])
            assert dest[key] is bindings[key]

    def test_pack_size_mismatch_raises(self, rng):
        state = {"w": rng.normal(size=(4, 3))}
        layout = StateLayout.for_state(state)
        with pytest.raises(SerializationError):
            layout.pack({"w": rng.normal(size=(4, 4))})


class TestAccumulator:
    def test_accumulate_matches_sum_of_packed_gradients(self, rng):
        template = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}
        layout = StateLayout.for_state(template)
        acc = layout.zeros()
        total = np.zeros(12)
        for _ in range(4):
            grads = {k: rng.normal(size=v.shape) for k, v in template.items()}
            layout.accumulate(grads, acc)
            total += legacy_pack(grads)
        np.testing.assert_array_equal(acc, total)

    def test_missing_keys_contribute_zero(self, rng):
        template = {"w": rng.normal(size=(2, 2)), "b": rng.normal(size=2)}
        layout = StateLayout.for_state(template)
        acc = layout.accumulate({"b": np.ones(2)}, layout.zeros())
        # Sorted layout: "b" first, then the four scalars of "w".
        np.testing.assert_array_equal(acc, [1, 1, 0, 0, 0, 0])


class TestArena:
    """A model re-homed in a ParameterArena: flat storage, same contracts."""

    def _model(self, rng):
        return make_mlp(
            rng, in_features=5, hidden=(4,), num_classes=3, batch_norm=True
        )

    def test_pack_of_arena_model_is_the_concatenated_state_dict(self, rng):
        model = self._model(rng)
        before = legacy_pack(model.state_dict())
        arena = model.to_arena()
        layout = arena.layout
        assert model.to_arena() is arena  # idempotent
        assert arena.data.shape == (1, layout.total_size)
        assert layout.pack(arena).tobytes() == before.tobytes()
        assert layout.pack(model.state_arrays()).tobytes() == before.tobytes()
        assert legacy_pack(model.state_dict()).tobytes() == before.tobytes()
        # Every parameter, gradient and buffer is a view into the arena.
        for array in model.state_arrays().values():
            assert array.base is arena.data
        for p in model.parameters():
            assert p.grad.base is arena.grad

    def test_load_state_dict_writes_through_to_the_arena(self, rng):
        model = self._model(rng)
        arena = model.to_arena()
        bindings = model.state_arrays()
        fresh = {k: rng.normal(size=v.shape) for k, v in model.state_dict().items()}
        model.load_state_dict(fresh)
        for key, array in model.state_arrays().items():
            assert array is bindings[key]  # identity preserved, as documented
        assert arena.data[0].tobytes() == legacy_pack(fresh).tobytes()

    def test_unpack_into_arena_is_one_broadcast_copy(self, rng):
        model = self._model(rng)
        layout = StateLayout.for_state(model.state_dict())
        stacked = ParameterArena(layout, group=3)
        vec = rng.normal(size=layout.total_size)
        assert layout.unpack_into(vec, stacked) is stacked
        assert all(stacked.data[g].tobytes() == vec.tobytes() for g in range(3))
        with pytest.raises(SerializationError):
            layout.pack(stacked)  # three members do not fit one vector
        other = StateLayout.for_state({"w": np.zeros(layout.total_size)})
        with pytest.raises(SerializationError):
            other.unpack_into(vec, stacked)

    def test_tape_gradients_accumulate_flat(self, rng):
        model = self._model(rng)
        arena = model.to_arena()
        x, y = rng.normal(size=(6, 5)), rng.integers(0, 3, size=6)
        cross_entropy(model(Tensor(x)), y).backward()
        named = {name: p.grad.copy() for name, p in model.named_parameters()}
        layout = StateLayout.for_state(model.state_dict())
        per_key = layout.accumulate(named, layout.zeros())
        flat = layout.accumulate(arena, layout.zeros())
        assert flat.tobytes() == per_key.tobytes()
        model.zero_grad()
        assert not arena.grad.any()

    def test_checkpoint_resume_writes_through_to_the_eval_arena(self):
        config = TrainingJobConfig(
            max_epochs=2, num_shards=4, num_train=80, num_val=20, num_test=20, seed=3
        ).with_pct(1, 2, 2)
        first = DistributedRunner(replace(config, max_epochs=1))
        first.run()
        resumed = DistributedRunner(config, resume_from=first.checkpoint())
        bindings = resumed._eval_model.state_arrays()
        resumed._evaluate_vec(first.checkpoint().params)
        for key, array in resumed._eval_model.state_arrays().items():
            assert array is bindings[key] and array.base is resumed._eval_arena.data
        assert (
            resumed._eval_arena.data[0].tobytes() == first.checkpoint().params.tobytes()
        )
