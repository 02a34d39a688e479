"""Cloud cost/preemption models: pricing, interruption bands, fleets."""

from .capacity import (
    CapacityEstimate,
    WorkloadSpec,
    cifar10_workload,
    imagenet_workload,
    plan_capacity,
)
from .fleet import Fleet, FleetMember, paper_p5c5t2_fleet
from .interruption import (
    INTERRUPTION_BANDS,
    DelayAnalysis,
    InterruptionBand,
    band_for,
    paper_p5c5t2_analysis,
)
from .pricing import (
    PAPER_FLEET_STANDARD_PER_H,
    PriceBook,
    PricingClass,
    default_price_book,
)

__all__ = [
    "WorkloadSpec",
    "CapacityEstimate",
    "cifar10_workload",
    "imagenet_workload",
    "plan_capacity",
    "Fleet",
    "FleetMember",
    "paper_p5c5t2_fleet",
    "InterruptionBand",
    "INTERRUPTION_BANDS",
    "band_for",
    "DelayAnalysis",
    "paper_p5c5t2_analysis",
    "PriceBook",
    "PricingClass",
    "default_price_book",
    "PAPER_FLEET_STANDARD_PER_H",
]
