"""repro — reproduction of "Distributed Deep Learning Using Volunteer
Computing-Like Paradigm" (Atre, Jha, Rao; IPDPS workshops 2021).

Subpackages
-----------
``repro.nn``
    NumPy deep-learning substrate (autograd, layers, models, optimizers) —
    stands in for the paper's TensorFlow stack.
``repro.data``
    Synthetic CIFAR-style dataset and shard splitting.
``repro.simulation``
    Discrete-event simulator: clock, processor-sharing compute, network
    links, preemption models, deterministic RNG streams, tracing.
``repro.kvstore``
    Eventual- (Redis-like) and strong-consistency (MySQL-like) parameter
    stores with paper-calibrated latencies.
``repro.boinc``
    BOINC-like middleware: workunits, scheduler with timeout/reissue and
    sticky-file affinity, web server, validator, client daemon.
``repro.core``
    The paper's contribution: VC-ASGD, the parameter-server pool, the
    distributed training runner, and the ASGD baselines.
``repro.cloud``
    Preemptible-instance pricing, interruption bands, fleet cost model.
``repro.analysis``
    Curve metrics (crossovers, smoothness, final gap) and tables.

Quickstart
----------
>>> from repro.core import TrainingJobConfig, run_experiment
>>> result = run_experiment(TrainingJobConfig(max_epochs=3, num_shards=10))
>>> result.final_val_accuracy  # doctest: +SKIP
0.41
"""

import importlib

from .errors import ReproError

_SUBPACKAGES = (
    "nn", "data", "simulation", "kvstore", "boinc", "core", "cloud", "analysis"
)


def __getattr__(name: str):
    # Subpackages load on first use, so that ``python -m repro`` can pin
    # the BLAS thread count (``repro.__main__``) before NumPy is imported.
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*_SUBPACKAGES, "ReproError"]
