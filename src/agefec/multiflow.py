"""Rate sharing for several age-sensitive flows on one bottleneck.

A single adaptive controller sets the total codeword rate from aggregate
feedback; the allocator then moves rate from flows with few violations to
flows with many, conserving the total.  Flows keep their own thresholds,
decode state, and emission clocks.
"""

from __future__ import annotations

from .adaptive_sampling import FlowsOutcome, run_adaptive_flows
from .core import ParameterError
from .netsim import SimConfig

# How far allocate_rates blends each share toward the flow mean per interval.
MIX = 0.05


def raw_allocation(
    sigmas, ratios, sigma_total: float, sigma_total_old: float, mix: float = 0.0
):
    """Violation-weighted split of the new total rate, before flooring.

    Each flow keeps its old share, shifted by how far its violation ratio
    sits from the flow average, then everything scales with the total.  The
    raw shares sum to sigma_total exactly whenever the old shares summed to
    sigma_total_old, but individual entries may dip below any floor.

    `mix` blends each share toward the flow mean.  Violation differences are
    the only reallocating force in the base rule, so once no flow violates,
    unequal shares would persist forever; the blend decays them.  Its terms
    sum to zero, leaving the conservation property exact.
    """
    sigmas = list(sigmas)
    ratios = list(ratios)
    if len(sigmas) != len(ratios) or not sigmas:
        raise ParameterError("need one violation ratio per flow")
    if sigma_total_old <= 0:
        raise ParameterError(f"previous total must be > 0, got {sigma_total_old}")
    if not 0.0 <= mix <= 1.0:
        raise ParameterError(f"mix must lie in [0, 1], got {mix}")
    avg = sum(ratios) / len(ratios)
    mean_sigma = sum(sigmas) / len(sigmas)
    scale = sigma_total / sigma_total_old
    return [
        (s + mix * (mean_sigma - s) + (r - avg)) * scale
        for s, r in zip(sigmas, ratios)
    ]


def allocate_rates(
    sigmas,
    ratios,
    sigma_total: float,
    sigma_total_old: float,
    sigma_min: float,
):
    """Split sigma_total across flows with a per-flow floor.

    Starts from the raw violation-weighted shares, floors each flow at an
    equal slice of sigma_min, and hands out the remaining budget in
    proportion to each flow's raw excess above that floor.  The result sums
    to sigma_total up to rounding.
    """
    raw = raw_allocation(sigmas, ratios, sigma_total, sigma_total_old, MIX)
    count = len(raw)
    floor = sigma_min / count
    budget = sigma_total - floor * count
    if budget <= 0:
        return [sigma_total / count] * count
    excess = [max(r - floor, 0.0) for r in raw]
    total_excess = sum(excess)
    if total_excess <= 0:
        return [sigma_total / count] * count
    return [floor + e * (budget / total_excess) for e in excess]


def run_sim(config: SimConfig, flow_count: int = 2, flow_avts=None) -> FlowsOutcome:
    """Simulate `flow_count` adaptive flows sharing the bottleneck."""
    if flow_count < 2:
        raise ParameterError(f"flow_count must be >= 2, got {flow_count}")
    if flow_avts is None:
        flow_avts = (config.avt,) * flow_count
    elif len(flow_avts) != flow_count:
        raise ParameterError(f"expected {flow_count} per-flow thresholds, got {len(flow_avts)}")
    return run_adaptive_flows(config, flow_avts, allocate_rates)
