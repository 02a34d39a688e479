"""Fleet composition and cost accounting (§IV-E).

A :class:`Fleet` is the set of client instances a training job runs on,
each with a pricing class.  It answers the paper's cost questions —
hourly rate, total job cost, preemptible savings — and supports the
horizontal-vs-vertical scaling comparison (10 small vs 5 large instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..simulation.resources import TABLE1_CLIENTS, InstanceSpec
from .pricing import PriceBook, PricingClass, default_price_book

__all__ = ["FleetMember", "Fleet", "paper_p5c5t2_fleet"]


@dataclass(frozen=True)
class FleetMember:
    """One instance in the fleet."""

    spec: InstanceSpec
    pricing: PricingClass = PricingClass.PREEMPTIBLE
    interruption_p: float = 0.05  # hourly; <5% band, the paper's pools

    def __post_init__(self) -> None:
        if not 0.0 <= self.interruption_p < 1.0:
            raise ConfigurationError(f"invalid interruption_p {self.interruption_p}")


@dataclass
class Fleet:
    """A collection of client instances with a shared price book."""

    members: list[FleetMember]
    price_book: PriceBook = field(default_factory=default_price_book)

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError("fleet must contain at least one member")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def total_vcpus(self) -> int:
        return sum(m.spec.vcpus for m in self.members)

    @property
    def total_ram_gb(self) -> float:
        return sum(m.spec.ram_gb for m in self.members)

    def hourly_cost(self) -> float:
        """$/hour at each member's own pricing class."""
        return sum(self.price_book.hourly(m.spec, m.pricing) for m in self.members)

    def hourly_cost_if(self, pricing: PricingClass) -> float:
        """$/hour if every member were billed at ``pricing``."""
        return sum(self.price_book.hourly(m.spec, pricing) for m in self.members)

    def job_cost(self, hours: float) -> float:
        """Total $ for a job of the given duration."""
        if not hours >= 0:
            raise ConfigurationError(f"negative duration {hours}")
        return self.hourly_cost() * hours

    def savings_fraction(self) -> float:
        """Fraction saved vs an all-standard fleet (the paper's 70%)."""
        standard = self.hourly_cost_if(PricingClass.STANDARD)
        return 1.0 - self.hourly_cost() / standard

    def as_pricing(self, pricing: PricingClass) -> "Fleet":
        """Copy of this fleet with every member rebilled at ``pricing``."""
        return Fleet(
            [FleetMember(m.spec, pricing, m.interruption_p) for m in self.members],
            price_book=self.price_book,
        )

    def scaled_horizontal(self, factor: int) -> "Fleet":
        """``factor``× more instances of the same specs (horizontal scaling)."""
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return Fleet(self.members * factor, price_book=self.price_book)


def paper_p5c5t2_fleet(pricing: PricingClass = PricingClass.PREEMPTIBLE) -> Fleet:
    """The §IV-E cost-analysis fleet: 5 × (8 vCPU, 32 GB) clients.

    The paper quotes 40 vCPU / 160 GB total, i.e. five of the 8-vCPU/32 GB
    client rows of Table I.
    """
    spec = TABLE1_CLIENTS[0]  # 8 vCPU / 2.2 GHz / 32 GB
    members = [FleetMember(spec, pricing) for _ in range(5)]
    return Fleet(members)
