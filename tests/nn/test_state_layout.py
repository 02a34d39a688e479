"""StateLayout codec: legacy equivalence, zero-copy views, the arena."""

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
    BUFFER_PREFIX,
    STEP_DTYPE,
    ParameterArena,
    StateLayout,
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
        restored = layout.views(layout.pack(state))
        assert set(restored) == set(state)
        for key in state:
            np.testing.assert_array_equal(restored[key], state[key])
            assert restored[key].shape == np.asarray(state[key]).shape


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

    def test_pack_into_preallocated_out(self, rng):
        state = {"w": rng.normal(size=(5, 2))}
        layout = StateLayout.for_state(state)
        out = np.empty(layout.total_size)
        returned = layout.pack(state, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, legacy_pack(state))

    def test_unpack_into_live_arrays(self, rng):
        model = make_mlp(rng, in_features=4, hidden=(3,), num_classes=2)
        arena = model.to_arena()
        bindings = model.state_arrays()
        vec = rng.normal(size=arena.layout.total_size)
        arena.layout.unpack_into(vec, arena)  # writes through, never rebinds
        for key, array in model.state_arrays().items():
            assert array is bindings[key]
        # Unpacking rounds to the step dtype; packing widens back exactly.
        rounded = vec.astype(STEP_DTYPE).astype(np.float64)
        assert arena.layout.pack(model.state_arrays()).tobytes() == rounded.tobytes()

    def test_pack_size_mismatch_raises(self, rng):
        state = {"w": rng.normal(size=(4, 3))}
        layout = StateLayout.for_state(state)
        with pytest.raises(SerializationError):
            layout.pack({"w": rng.normal(size=(4, 4))})


class TestAccumulator:
    def _model(self, rng):
        return make_mlp(
            rng, in_features=5, hidden=(4,), num_classes=3, batch_norm=True
        )

    def test_accumulate_matches_sum_of_packed_gradients(self, rng):
        arena = self._model(rng).to_arena()
        acc = np.zeros(arena.layout.total_size)
        total = np.zeros_like(acc)
        for _ in range(4):
            for tensor in arena.trainable:
                tensor.grad[...] = rng.normal(size=tensor.grad.shape)
            arena.layout.accumulate(arena, acc)
            total += arena.grad[0]
        assert acc.tobytes() == total.tobytes()

    def test_missing_keys_contribute_zero(self, rng):
        """Buffer slots never receive a gradient, so they accumulate zero."""
        model = self._model(rng)
        arena = model.to_arena()
        x, y = rng.normal(size=(6, 5)), rng.integers(0, 3, size=6)
        cross_entropy(model(Tensor(x)), y).backward()
        acc = arena.layout.accumulate(arena, np.zeros(arena.layout.total_size))
        for key, slot in arena.layout.views(acc).items():
            assert slot.any() != key.startswith(BUFFER_PREFIX)


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
        assert arena.data[0].tobytes() == legacy_pack(fresh).astype(STEP_DTYPE).tobytes()

    def test_unpack_into_arena_is_one_broadcast_copy(self, rng):
        model = self._model(rng)
        layout = StateLayout.for_state(model.state_dict())
        stacked = ParameterArena(layout, group=3)
        vec = rng.normal(size=layout.total_size)
        assert layout.unpack_into(vec, stacked) is stacked
        rounded = vec.astype(STEP_DTYPE)
        assert all(stacked.data[g].tobytes() == rounded.tobytes() for g in range(3))
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
        layout = StateLayout.for_state(model.state_dict())
        per_key = np.zeros(layout.total_size)
        slots = layout.views(per_key)
        for name, p in model.named_parameters():
            slots[name] += p.grad
        flat = layout.accumulate(arena, np.zeros(layout.total_size))
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
            resumed._eval_arena.data[0].tobytes()
            == first.checkpoint().params.astype(STEP_DTYPE).tobytes()
        )
