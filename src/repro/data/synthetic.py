"""Synthetic image-classification data — the CIFAR10 stand-in.

The paper benchmarks on CIFAR10 (50 000 train / 10 000 test, 32×32×3,
10 classes).  No dataset download is possible in this environment, so we
generate a *structured* synthetic task with the properties the experiments
depend on:

* per-class structure that a neural net must actually learn (class
  prototypes composed of low-frequency spatial patterns),
* within-class variation (random per-sample pattern mixing + pixel noise)
  so that shards drawn from different parts of the dataset induce the
  learn/unlearn dynamics §IV-C analyzes,
* a controllable difficulty knob (noise level) so the accuracy curves have
  headroom and do not saturate in epoch 1.

Everything is driven by an explicit ``numpy.random.Generator``; the same
seed yields bit-identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..nn.serialization import STEP_DTYPE
from .dataset import Dataset

__all__ = ["SyntheticImageConfig", "make_synthetic_images", "make_classification_splits"]

# Prototypes per class, and the low-frequency cosine patterns per axis that
# each prototype mixes.
PROTOTYPES_PER_CLASS = 3
PATTERN_FREQUENCIES = 3


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of the synthetic image task.

    Defaults are scaled down from CIFAR10 (32×32×3 → 8×8×3) so a full
    40-epoch distributed run executes in seconds; the *relative* behaviour
    of training strategies is what the reproduction measures.
    """

    num_classes: int = 10
    image_size: int = 8
    channels: int = 3
    noise_std: float = 2.5

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.image_size < 2 or self.channels < 1:
            raise ConfigurationError("invalid image geometry")
        if not self.noise_std >= 0:
            raise ConfigurationError("noise_std must be non-negative")

    @property
    def num_features(self) -> int:
        return self.channels * self.image_size * self.image_size


def _class_prototypes(
    cfg: SyntheticImageConfig, rng: np.random.Generator
) -> np.ndarray:
    """Build (classes, prototypes, C, H, W) smooth class templates.

    Each prototype is a random mixture of low-frequency 2-D cosine patterns,
    giving spatial structure a convolution can exploit (unlike white-noise
    prototypes, which only an MLP memorizes).
    """
    size = cfg.image_size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    bases = []
    for fy in range(PATTERN_FREQUENCIES):
        for fx in range(PATTERN_FREQUENCIES):
            phase_y = np.pi * fy * (yy + 0.5) / size
            phase_x = np.pi * fx * (xx + 0.5) / size
            bases.append(np.cos(phase_y) * np.cos(phase_x))
    basis = np.stack(bases)  # (B, H, W)
    n_basis = basis.shape[0]
    coeffs = rng.normal(
        size=(cfg.num_classes, PROTOTYPES_PER_CLASS, cfg.channels, n_basis)
    )
    protos = np.einsum("kpcb,bhw->kpchw", coeffs, basis)
    # Normalize each prototype to unit RMS so classes are equally "loud".
    rms = np.sqrt((protos**2).mean(axis=(2, 3, 4), keepdims=True))
    return protos / np.maximum(rms, 1e-12)


def make_synthetic_images(
    num_samples: int,
    cfg: SyntheticImageConfig,
    rng: np.random.Generator,
    flat: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_samples`` labelled images.

    Returns ``(x, y)`` with ``x`` of shape (N, C, H, W) — or (N, C*H*W)
    when ``flat`` — and integer labels ``y`` of shape (N,).  Labels are
    balanced up to rounding.
    """
    if num_samples <= 0:
        raise ConfigurationError("num_samples must be positive")
    protos = _class_prototypes(cfg, rng)
    labels = rng.permutation(np.arange(num_samples) % cfg.num_classes)
    proto_idx = rng.integers(PROTOTYPES_PER_CLASS, size=num_samples)
    # Per-sample convex mixing of the chosen prototype with a second one of
    # the same class: within-class variation beyond additive noise.
    second_idx = rng.integers(PROTOTYPES_PER_CLASS, size=num_samples)
    mix = rng.uniform(0.55, 1.0, size=num_samples)[:, None, None, None]
    # mix * first + (1 - mix) * second, in place: the same products and
    # sum as the expression, with two sample-sized arrays alive, not five.
    x = protos[labels, proto_idx]
    x *= mix
    second = protos[labels, second_idx]
    second *= 1.0 - mix
    x += second
    del second
    x += rng.normal(scale=cfg.noise_std, size=x.shape)
    if flat:
        x = x.reshape(num_samples, -1)
    return x.astype(STEP_DTYPE), labels.astype(np.int64)


def make_classification_splits(
    cfg: SyntheticImageConfig,
    rng: np.random.Generator,
    num_train: int = 2000,
    num_val: int = 400,
    num_test: int = 400,
    flat: bool = False,
) -> tuple[Dataset, Dataset, Dataset]:
    """Build train/validation/test :class:`~repro.data.dataset.Dataset` splits.

    All three splits share the same class prototypes (drawn once from
    ``rng``), mirroring CIFAR10's train/test split of a single distribution.
    """
    protos_rng_state = rng.bit_generator.state  # prototypes must be shared
    total = num_train + num_val + num_test
    x, y = make_synthetic_images(total, cfg, rng, flat=flat)
    del protos_rng_state
    train = Dataset(x[:num_train], y[:num_train], name="train")
    val = Dataset(
        x[num_train : num_train + num_val], y[num_train : num_train + num_val], name="val"
    )
    test = Dataset(x[num_train + num_val :], y[num_train + num_val :], name="test")
    return train, val, test
