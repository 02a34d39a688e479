"""Preemptible-instance termination models (§III-E, §IV-E).

Two models, matching the two ways the paper reasons about interruption:

* :class:`ExponentialLifetime` — the *simulation* model.  AWS publishes a
  monthly "frequency of interruption" per instance pool; we convert an
  hourly interruption probability ``p`` into a memoryless lifetime with
  rate ``-ln(1 - p)`` per hour and schedule termination events on the
  simulator.  Terminations of different instances are independent, as the
  paper argues when instances come from distinct pools.

* :class:`BernoulliSubtaskModel` — the paper's *analytical* model:
  independent Bernoulli trials per subtask batch, expected extra training
  time ``n * p * t_o`` (§IV-E).  Implemented exactly so the benchmark can
  print the paper's 50 min / 200 min numbers and cross-check them against
  the event simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ExponentialLifetime",
    "BernoulliSubtaskModel",
    "interruption_rate_per_hour",
]


def interruption_rate_per_hour(hourly_probability: float) -> float:
    """Poisson rate λ such that P(preempted within 1 h) = ``hourly_probability``."""
    if not 0.0 <= hourly_probability < 1.0:
        raise ConfigurationError(
            f"hourly interruption probability must be in [0, 1), got {hourly_probability}"
        )
    return -math.log(1.0 - hourly_probability)


@dataclass(frozen=True)
class ExponentialLifetime:
    """Memoryless instance lifetime derived from an hourly interruption rate."""

    hourly_probability: float

    def __post_init__(self) -> None:
        interruption_rate_per_hour(self.hourly_probability)  # validates

    @property
    def rate_per_second(self) -> float:
        return interruption_rate_per_hour(self.hourly_probability) / 3600.0

    def sample_lifetime(self, rng: np.random.Generator) -> float:
        """Seconds until this instance is reclaimed (inf if p == 0)."""
        if self.hourly_probability == 0.0:
            return math.inf
        return float(rng.exponential(1.0 / self.rate_per_second))

    def survival_probability(self, seconds: float) -> float:
        """P(instance still running after ``seconds``)."""
        return math.exp(-self.rate_per_second * seconds)


@dataclass(frozen=True)
class BernoulliSubtaskModel:
    """The paper's §IV-E closed-form timeout model.

    Notation follows the paper: ``n_s`` total subtasks in the job,
    ``n_c`` client instances, ``n_tc`` simultaneous subtasks per client,
    ``t_e`` average subtask execution time, ``t_o`` the scheduler timeout.
    A *batch* of ``n_c * n_tc`` subtasks runs at a time, so
    ``n = n_s / (n_c * n_tc)`` batches can each independently lose an
    instance with probability ``p``.
    """

    n_s: int
    n_c: int
    n_tc: int
    t_e: float
    t_o: float

    def __post_init__(self) -> None:
        if min(self.n_s, self.n_c, self.n_tc) <= 0:
            raise ConfigurationError("n_s, n_c, n_tc must be positive")
        if not self.t_e > 0 or not self.t_o > 0:
            raise ConfigurationError("t_e and t_o must be positive")

    @property
    def n(self) -> float:
        """Number of sequential subtask waves (the paper's ``n``)."""
        return self.n_s / (self.n_c * self.n_tc)

    def expected_timeouts(self, p: float) -> float:
        """Expected number of waves that suffer a timeout: ``n * p``."""
        self._check_p(p)
        return self.n * p

    def expected_training_time(self, p: float) -> float:
        """``n·p·(t_e + t_o) + n·(1-p)·t_e  =  n·t_e + n·p·t_o`` (paper Eq.)."""
        self._check_p(p)
        return self.n * self.t_e + self.n * p * self.t_o

    def expected_delay(self, p: float) -> float:
        """The ``n·p·t_o`` term: expected *increase* in training time."""
        self._check_p(p)
        return self.n * p * self.t_o

    def baseline_time(self) -> float:
        """Training time with no preemptions: ``n · t_e``."""
        return self.n * self.t_e

    def sample_delay(self, p: float, rng: np.random.Generator) -> float:
        """Monte-Carlo draw of the total delay over all waves."""
        self._check_p(p)
        waves = int(round(self.n))
        timeouts = rng.binomial(1, p, size=waves).sum()
        return float(timeouts) * self.t_o

    @staticmethod
    def _check_p(p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"probability must be in [0, 1], got {p}")
