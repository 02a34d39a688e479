"""Property suite: compiled step programs == the Tensor-tape loop, bitwise.

A client subtask trains on a tape-free :class:`StepProgram` — stacked
ndarray kernels over one flat parameter arena, at cohort size G = 1 for a
lone client and G > 1 for a fused cohort (DESIGN.md §8.5).  Its entire
correctness contract is *bit-identical to the Tensor tape* — not
approximately equal, byte-for-byte equal — so these tests hold it to the
oracle ``_tape_loop`` below: the historical serial loop, kept here
verbatim (autograd tape, ``zero_grad``, per-``Parameter`` optimizer,
per-key gradient accumulation on a model that never saw an arena).
Compared with ``ndarray.tobytes()`` equality on packed parameters *and*
accumulated gradients, across architectures, dtypes, cohort sizes 1–8,
both optimizers, both gradient-collection modes, ragged final batches and
per-member base vectors.  :class:`TapeProgram`, which runs architectures
that do not compile, is held to the same oracle.
"""

from __future__ import annotations

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec_plane import VersionedParams
from repro.core.parallel import ParallelFallbackWarning
from repro.core.steps import (
    StepDispatcher,
    _StepContext,
    draw_batch_orders,
    run_local_step,
)
from repro.data import Dataset
from repro.nn.cohort import CohortTrainer, CohortUnsupported, StepProgram, TapeProgram
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LayerNorm,
    LeakyReLU,
    MaxPool2D,
    Residual,
    Sequential,
    Sigmoid,
)
from repro.nn.losses import cross_entropy
from repro.nn.models import make_convnet, make_mlp, make_resnetv2
from repro.nn.optim import SGD, Adam
from repro.nn.serialization import StateLayout
from repro.nn.tensor import Tensor


def _tape_loop(model, base_vec, shard, orders, *, batch_size, optimizer,
               learning_rate, collect_gradient):
    """The oracle: one subtask on the autograd tape, as it always ran."""
    layout = StateLayout.for_state(model.state_dict())
    model.load_state_dict(layout.views(base_vec))
    model.train()
    make = Adam if optimizer == "adam" else SGD
    opt = make(model.parameters(), lr=learning_rate)
    gradient = np.zeros(layout.total_size) if collect_gradient else None
    for order in orders:
        for start in range(0, len(shard), batch_size):
            idx = order[start : start + batch_size]
            model.zero_grad()
            loss = cross_entropy(model(Tensor(shard.x[idx])), shard.y[idx])
            loss.backward()
            if gradient is not None:
                slots = layout.views(gradient)
                for name, p in model.named_parameters():
                    slots[name] += p.grad
            opt.step()
    return layout.pack(model.state_dict()), gradient


def _members(template, group, rng, *, n, x_shape, num_classes, dtype, epochs):
    """Build one cohort's worth of inputs: base vectors, shards, orders."""
    layout = StateLayout.for_state(template.state_dict())
    init = layout.pack(template.state_dict())
    base_vecs = np.stack(
        [init + 0.05 * rng.standard_normal(layout.total_size) for _ in range(group)]
    )
    shards = [
        Dataset(
            rng.normal(size=(n, *x_shape)).astype(dtype),
            rng.integers(0, num_classes, size=n),
        )
        for _ in range(group)
    ]
    orders = [draw_batch_orders(rng, n, epochs) for _ in range(group)]
    return layout, base_vecs, shards, orders


def _assert_program_matches_tape(
    template, group, rng, *, n, x_shape, num_classes, dtype,
    batch_size, optimizer, learning_rate, epochs, collect_gradient,
    shared_base=False,
):
    layout, base_vecs, shards, orders = _members(
        template, group, rng,
        n=n, x_shape=x_shape, num_classes=num_classes, dtype=dtype, epochs=epochs,
    )
    if shared_base:
        base_vecs = np.broadcast_to(base_vecs[0], base_vecs.shape)
    oracle_model = copy.deepcopy(template)
    trainer = CohortTrainer(StepProgram(template, group), optimizer, learning_rate)
    single = CohortTrainer(StepProgram(template), optimizer, learning_rate)
    tape = CohortTrainer(TapeProgram(copy.deepcopy(template)), optimizer, learning_rate)
    # Twice: the second run reuses the arena and the reset optimizer.
    for _ in range(2):
        packed, totals = trainer.run(
            base_vecs[0] if shared_base else base_vecs, shards, orders,
            batch_size=batch_size, collect_gradient=collect_gradient,
        )
        assert packed.shape == (group, layout.total_size)
    for g in range(group):
        vec, grad = _tape_loop(
            oracle_model, base_vecs[g], shards[g], orders[g],
            batch_size=batch_size, optimizer=optimizer,
            learning_rate=learning_rate, collect_gradient=collect_gradient,
        )
        subjects = {"stacked": (packed[g], None if totals is None else totals[g])}
        if g == 0:
            for name, member in (("single", single), ("tape", tape)):
                subjects[name] = run_local_step(
                    member, base_vecs[0], shards[0], orders[0],
                    batch_size=batch_size, collect_gradient=collect_gradient,
                )
        for name, (got_vec, got_grad) in subjects.items():
            assert got_vec.tobytes() == vec.tobytes(), f"{name}: member {g} params differ"
            if collect_gradient:
                assert got_grad.tobytes() == grad.tobytes(), (
                    f"{name}: member {g} grads differ"
                )
            else:
                assert got_grad is None and grad is None


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    group=st.integers(1, 8),
    hidden=st.integers(2, 6),
    batch_norm=st.booleans(),
    activation=st.sampled_from(["relu", "tanh"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    collect_gradient=st.booleans(),
    batch_size=st.integers(2, 7),
    shared_base=st.booleans(),
)
def test_property_mlp_program_bitwise_equals_tape(
    seed, group, hidden, batch_norm, activation, dtype,
    optimizer, collect_gradient, batch_size, shared_base,
):
    rng = np.random.default_rng(seed)
    in_features, num_classes = 6, 3
    template = make_mlp(
        rng, in_features=in_features, hidden=(hidden,),
        num_classes=num_classes, activation=activation, batch_norm=batch_norm,
    )
    _assert_program_matches_tape(
        template, group, rng,
        n=11, x_shape=(in_features,), num_classes=num_classes, dtype=dtype,
        batch_size=batch_size, optimizer=optimizer, learning_rate=0.01,
        epochs=2, collect_gradient=collect_gradient, shared_base=shared_base,
    )


@pytest.mark.parametrize("group", [1, 2, 5, 8])
def test_every_cohort_size_mlp(group):
    """Dense sweep of the cohort axis itself (no shrinking surprises)."""
    rng = np.random.default_rng(group)
    template = make_mlp(rng, in_features=5, hidden=(4,), num_classes=3)
    _assert_program_matches_tape(
        template, group, rng,
        n=9, x_shape=(5,), num_classes=3, dtype=np.float64,
        batch_size=4, optimizer="adam", learning_rate=0.01,
        epochs=2, collect_gradient=False,
    )


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("collect_gradient", [False, True])
def test_convnet_program_bitwise_equals_tape(optimizer, collect_gradient):
    """NCHW path: conv + batch-norm + global pooling, both update modes."""
    rng = np.random.default_rng(7)
    template = make_convnet(
        rng, in_channels=2, image_size=4, channels=(3, 4), num_classes=3
    )
    _assert_program_matches_tape(
        template, 3, rng,
        n=8, x_shape=(2, 4, 4), num_classes=3, dtype=np.float32,
        batch_size=3, optimizer=optimizer, learning_rate=0.01,
        epochs=2, collect_gradient=collect_gradient,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_remaining_layer_kind(dtype):
    """The kernels the model zoo does not reach: biased conv, both window
    pools, flatten, leaky ReLU, sigmoid — and layers ahead of the first
    parameter, which receive no gradient."""
    rng = np.random.default_rng(11)
    template = Sequential(
        LeakyReLU(0.1),
        Conv2D(2, 3, 3, rng, padding=1),
        MaxPool2D(2),
        Sigmoid(),
        Conv2D(3, 4, 2, rng, stride=1),
        AvgPool2D(2),
        Flatten(),
        LeakyReLU(0.2),
        Dense(4, 3, rng, bias=False),
    )
    _assert_program_matches_tape(
        template, 3, rng,
        n=7, x_shape=(2, 6, 6), num_classes=3, dtype=dtype,
        batch_size=3, optimizer="adam", learning_rate=0.01,
        epochs=2, collect_gradient=True,
    )


def test_short_final_batch_matches():
    """n not divisible by batch_size: the ragged tail batch must fuse too."""
    rng = np.random.default_rng(21)
    template = make_mlp(rng, in_features=4, hidden=(3,), num_classes=2)
    _assert_program_matches_tape(
        template, 4, rng,
        n=10, x_shape=(4,), num_classes=2, dtype=np.float64,
        batch_size=7, optimizer="sgd", learning_rate=0.05,
        epochs=3, collect_gradient=True,
    )


def test_program_never_touches_its_template():
    rng = np.random.default_rng(3)
    template = make_mlp(rng, in_features=4, hidden=(3,), num_classes=2, batch_norm=True)
    before = {k: v.copy() for k, v in template.state_dict().items()}
    _assert_program_matches_tape(
        template, 2, rng,
        n=6, x_shape=(4,), num_classes=2, dtype=np.float64,
        batch_size=3, optimizer="adam", learning_rate=0.01,
        epochs=1, collect_gradient=False,
    )
    after = template.state_dict()
    assert all(after[k].tobytes() == before[k].tobytes() for k in before)


def _unsupported(rng):
    return {
        "residual": Sequential(Dense(4, 4, rng), Residual(Dense(4, 4, rng)), Dense(4, 2, rng)),
        "layernorm": Sequential(Dense(4, 4, rng), LayerNorm(4), Dense(4, 2, rng)),
        "dropout": Sequential(Dense(4, 4, rng), Dropout(0.0, rng), Dense(4, 2, rng)),
    }


@pytest.mark.parametrize("kind", ["residual", "layernorm", "dropout"])
def test_layers_without_a_kernel_train_on_the_tape(kind):
    """No kernel pair -> CohortUnsupported at compile time, and the step
    context runs the same subtask on the tape, equal to the oracle."""
    rng = np.random.default_rng(5)
    template = _unsupported(rng)[kind]
    with pytest.raises(CohortUnsupported):
        StepProgram(template)
    layout, base_vecs, shards, orders = _members(
        template, 2, rng, n=6, x_shape=(4,), num_classes=2, dtype=np.float64, epochs=2
    )
    oracle_model = copy.deepcopy(template)
    context = _StepContext(
        template, batch_size=4, optimizer="adam", learning_rate=0.01,
        collect_gradient=True,
    )
    assert not context.compiles
    results = context.run_group(base_vecs[0], shards, orders)
    for g, (vec, grad) in enumerate(results):
        want_vec, want_grad = _tape_loop(
            oracle_model, base_vecs[0], shards[g], orders[g],
            batch_size=4, optimizer="adam", learning_rate=0.01, collect_gradient=True,
        )
        assert vec.tobytes() == want_vec.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def test_subclassed_layer_is_not_compiled_as_its_base():
    class Doubled(Dense):
        def forward(self, x):
            return super().forward(x) * 2.0

    rng = np.random.default_rng(0)
    with pytest.raises(CohortUnsupported):
        StepProgram(Sequential(Doubled(3, 2, rng)))
    with pytest.raises(CohortUnsupported):
        StepProgram(make_resnetv2(rng, stage_channels=(2,), blocks_per_stage=1))


def test_cohort_request_on_uncompilable_model_is_loud():
    """cohort_size > 1 with no kernels: one warning carrying the fallback
    record, and the members counted — never a silent serial run."""
    rng = np.random.default_rng(9)
    template = _unsupported(rng)["layernorm"]
    _, base_vecs, shards, orders = _members(
        template, 3, rng, n=6, x_shape=(4,), num_classes=2, dtype=np.float64, epochs=1
    )
    context = _StepContext(
        template, batch_size=4, optimizer="sgd", learning_rate=0.01,
        collect_gradient=False,
    )
    with pytest.warns(ParallelFallbackWarning, match="parallel.fallback") as caught:
        dispatcher = StepDispatcher(context, None, shards, cohort_size=3)
    assert len(caught) == 1
    fallback = caught[0].message.fallback
    assert fallback.reason == "cohort_unsupported" and fallback.requested_jobs == 3
    base = base_vecs[0]  # cohort mates share the parameter file *object*
    published = VersionedParams(base, 0)
    tasks = [dispatcher.submit(published, g, orders[g]) for g in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # once per run: nothing more at flush time
        results = [dispatcher.resolve(task) for task in tasks]
    assert dispatcher.stats["unsupported_members"] == 3
    assert dispatcher.stats["cohort_members"] == 0
    want = context.run_group(base, shards, orders)
    assert all(a[0].tobytes() == b[0].tobytes() for a, b in zip(results, want))
    # A model that compiles requests its cohorts without a word.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = _StepContext(
            make_mlp(rng, in_features=4, hidden=(3,), num_classes=2),
            batch_size=4, optimizer="sgd", learning_rate=0.01, collect_gradient=False,
        )
        StepDispatcher(quiet, None, shards, cohort_size=3)
