"""Comparators: single-instance training and the prior ASGD family.

The update rules themselves live in :mod:`repro.core.rules`; the round
harness races them.
"""

from .rounds import RoundConfig, RoundHarness, RoundRecord, RoundResult
from .single_instance import SingleInstanceTrainer, run_single_instance

__all__ = [
    "SingleInstanceTrainer",
    "run_single_instance",
    "RoundConfig",
    "RoundHarness",
    "RoundRecord",
    "RoundResult",
]
