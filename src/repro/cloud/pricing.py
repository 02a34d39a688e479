"""Cloud price book: standard vs preemptible instances (§III-E, §IV-E).

The paper's anchor: the P5C5T2 client fleet (5 instances, 40 vCPU, 160 GB
RAM total) costs **$1.67/h** on standard instances and **$0.50/h** on
preemptible ones — a 70% saving; preemptible discounts in general run
70–90%.  We price an instance linearly in vCPUs and RAM with coefficients
calibrated to that anchor, and apply a per-pool discount for preemptible
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import ConfigurationError
from ..simulation.resources import InstanceSpec

__all__ = [
    "PricingClass",
    "PriceBook",
    "default_price_book",
    "PAPER_FLEET_STANDARD_PER_H",
]

# The §IV-E anchor.
PAPER_FLEET_STANDARD_PER_H = 1.67


class PricingClass(Enum):
    """How an instance is billed."""

    STANDARD = "standard"
    PREEMPTIBLE = "preemptible"


@dataclass(frozen=True)
class PriceBook:
    """Linear price model: ``$/h = vcpus * per_vcpu + ram_gb * per_gb``.

    ``preemptible_discount`` is the *fraction saved* (0.70 → preemptible
    costs 30% of standard).  The paper quotes 70–90% depending on pool.
    """

    per_vcpu_hour: float
    per_gb_hour: float
    preemptible_discount: float = 0.70

    def __post_init__(self) -> None:
        if self.per_vcpu_hour < 0 or self.per_gb_hour < 0:
            raise ConfigurationError("negative price coefficients")
        if not 0.0 <= self.preemptible_discount < 1.0:
            raise ConfigurationError(
                f"discount must be in [0, 1), got {self.preemptible_discount}"
            )

    def standard_hourly(self, spec: InstanceSpec) -> float:
        """$/hour for a standard (on-demand) instance of this spec."""
        return spec.vcpus * self.per_vcpu_hour + spec.ram_gb * self.per_gb_hour

    def preemptible_hourly(self, spec: InstanceSpec) -> float:
        """$/hour for the same capacity from the preemptible pool."""
        return self.standard_hourly(spec) * (1.0 - self.preemptible_discount)

    def hourly(self, spec: InstanceSpec, pricing: PricingClass) -> float:
        """$/hour for ``spec`` under the given pricing class."""
        if pricing is PricingClass.STANDARD:
            return self.standard_hourly(spec)
        return self.preemptible_hourly(spec)

    def cost(self, spec: InstanceSpec, pricing: PricingClass, hours: float) -> float:
        """Total $ for running ``spec`` for ``hours`` (fractional allowed)."""
        if hours < 0:
            raise ConfigurationError(f"negative duration {hours}")
        return self.hourly(spec, pricing) * hours


def default_price_book() -> PriceBook:
    """Coefficients calibrated to the paper's P5C5T2 fleet anchor.

    The fleet totals 40 vCPU + 160 GB; AWS-typical cost attribution puts
    roughly 80% of an instance's price on compute.  Solving
    ``40 a + 160 b = 1.67`` with the 80/20 split gives the coefficients
    below; the preemptible discount of 70% then lands the fleet at
    $0.501/h — the paper's $0.50.
    """
    a = PAPER_FLEET_STANDARD_PER_H * 0.80 / 40.0  # $/vCPU-hour
    b = PAPER_FLEET_STANDARD_PER_H * 0.20 / 160.0  # $/GB-hour
    return PriceBook(per_vcpu_hour=a, per_gb_hour=b, preemptible_discount=0.70)
