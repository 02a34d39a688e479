"""A client step trains in the step dtype, on views of its arena.

``STEP_DTYPE`` (float32) is the one number format of a client step.  The
failure these tests guard against trains nothing at all: a parameter bound
to a *copy* of its arena row never sees the optimizer's updates (one
attempt at the float32 flip read accuracy 0.14 that way).  So every
parameter, buffer and kernel view must share memory with its arena, and
after training every array the step touches must still have the step
dtype.  The flat vectors on the other side of :class:`StateLayout` stay
float64, and the two casts between them round-trip.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steps import draw_batch_orders
from repro.data import Dataset
from repro.nn.cohort import CohortTrainer, StepProgram, TapeProgram, train_steps
from repro.nn.layers import LayerNorm, Sequential
from repro.nn.models import make_convnet, make_mlp
from repro.nn.optim import Adam
from repro.nn.serialization import STEP_DTYPE, ParameterArena, StateLayout
from repro.nn.tensor import Tensor
from repro.nn.workspace import Workspace


def _models(rng):
    return {
        "mlp": (make_mlp(rng, in_features=6, hidden=(5,), num_classes=3,
                         batch_norm=True), (6,)),
        "convnet": (make_convnet(rng, in_channels=2, image_size=4, channels=(3,),
                                 num_classes=3), (2, 4, 4)),
    }


def _shard(rng, n, x_shape, num_classes=3):
    return Dataset(
        rng.normal(size=(n, *x_shape)).astype(STEP_DTYPE),
        rng.integers(0, num_classes, size=n),
    )


def _in_arena(array: np.ndarray, arena: ParameterArena) -> bool:
    return array.dtype == STEP_DTYPE and (
        np.shares_memory(array, arena.data) or np.shares_memory(array, arena.grad)
    )


def test_the_step_dtype_is_float32():
    assert STEP_DTYPE == np.float32


def test_every_state_array_of_to_arena_is_a_view_of_its_arena(rng):
    for model, _ in _models(rng).values():
        arena = model.to_arena()
        assert arena.data.dtype == arena.grad.dtype == STEP_DTYPE
        for key, array in model.state_arrays().items():
            assert np.shares_memory(array, arena.data), key
            assert array.dtype == STEP_DTYPE, key
        for name, p in model.named_parameters():
            assert np.shares_memory(p.grad, arena.grad), name
        for tensor in arena.trainable:
            assert _in_arena(tensor.data, arena) and _in_arena(tensor.grad, arena)


def test_every_kernel_view_of_a_step_program_is_in_its_arena(rng):
    for model, _ in _models(rng).values():
        for group in (1, 3):
            program = StepProgram(model, group)
            views = [
                (type(kernel).__name__, name, value)
                for kernel in program.kernels
                for name, value in vars(kernel).items()
                if isinstance(value, np.ndarray)
            ]
            assert views  # the walk really found the parameter views
            for kind, name, value in views:
                assert _in_arena(value, program.arena), f"{kind}.{name}"


def test_training_leaves_every_step_array_in_the_step_dtype(rng):
    """After ``train_steps``: data, grad, Adam moments and scratch — and
    the arena really moved, so the parameters are not a detached copy."""
    for model, x_shape in _models(rng).values():
        for program in (StepProgram(model, 2), TapeProgram(model)):
            arena = program.arena
            optimizer = Adam(arena.trainable, lr=0.01)
            group = arena.group
            shards = [_shard(rng, 8, x_shape) for _ in range(group)]
            orders = [draw_batch_orders(rng, 8, 2) for _ in range(group)]
            before = arena.data.copy()
            totals = train_steps(program, optimizer, shards, orders, 3, True)
            assert not np.array_equal(arena.data, before)
            assert arena.data.dtype == arena.grad.dtype == STEP_DTYPE
            for tensor in arena.trainable:
                assert _in_arena(tensor.data, arena) and _in_arena(tensor.grad, arena)
            state = [a for moments in optimizer._state for a in moments]
            scratch = [
                s for blocks in optimizer._blocks for _, _, part in blocks for s in part
            ]
            assert len(state) == 2 * len(arena.trainable) and scratch
            assert all(a.dtype == STEP_DTYPE for a in state + scratch)
            # The collected gradient crosses to the vector side widened.
            assert totals.dtype == np.float64 and totals.shape == arena.grad.shape


def test_a_tape_only_model_trains_in_its_arena(rng):
    model = Sequential(*make_mlp(rng, in_features=4, hidden=(4,), num_classes=2),
                       LayerNorm(2))
    trainer = CohortTrainer(TapeProgram(model), "adam", 0.01)
    layout = trainer.program.arena.layout
    base = layout.pack(trainer.program.arena)
    packed, _ = trainer.run(base, [_shard(rng, 6, (4,), 2)],
                            [draw_batch_orders(rng, 6, 2)], batch_size=3)
    assert packed.dtype == np.float64 and not np.array_equal(packed[0], base)
    assert layout.pack(model.state_arrays()).tobytes() == packed[0].tobytes()


def test_tensor_leaves_and_workspaces_read_the_owner():
    assert Tensor(2.0).dtype == STEP_DTYPE
    assert Tensor([1, 2]).dtype == STEP_DTYPE
    assert Tensor(np.arange(3)).dtype == STEP_DTYPE
    # A floating array keeps its own dtype, and so does a Python scalar
    # operand: it takes the other operand's dtype, never widens it.
    wide = Tensor(np.ones(3))
    assert wide.dtype == np.float64 and (wide * 0.1).dtype == np.float64
    narrow = Tensor(np.ones(3, dtype=STEP_DTYPE))
    assert (narrow * 0.1).dtype == (0.1 - narrow).dtype == STEP_DTYPE
    assert Workspace().buffer("a", (2,)).dtype == STEP_DTYPE
    assert Workspace().zeros("a", (2,)).dtype == STEP_DTYPE


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), group=st.integers(1, 3),
       scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]))
def test_pack_of_unpack_of_pack_is_pack(seed, group, scale):
    """The two casts: unpack rounds to the step dtype, pack widens exactly,
    so a vector that has crossed once crosses again unchanged."""
    rng = np.random.default_rng(seed)
    layout = StateLayout.for_state({"w": np.zeros((3, 4)), "b": np.zeros(5)})
    arena = ParameterArena(layout, group)
    vec = scale * rng.standard_normal(layout.total_size)
    out = layout.zeros(group)
    first = layout.pack(layout.unpack_into(vec, arena), out=out)
    assert first.dtype == np.float64
    assert all(row.tobytes() == vec.astype(STEP_DTYPE).astype(np.float64).tobytes()
               for row in first)
    again = layout.pack(layout.unpack_into(first, arena), out=layout.zeros(group))
    assert again.tobytes() == first.tobytes()
