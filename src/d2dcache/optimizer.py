"""Exhaustive parameter search over caching methods.

Search spaces are tiny (tens of candidates), so optimization is exact
enumeration with a deterministic lexicographic tie-break toward smaller
(n, k, d): fewer simultaneous D2D connections is operationally cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import CodeSpec, Scheme, make_code
from .cost_model import (
    CostBreakdown,
    SystemConfig,
    regenerating_cost,
    replication_cost,
    simple_caching_cost,
)
from .geometry import GeometryTable


@dataclass(frozen=True)
class SearchRanges:
    """Inclusive storage-degree ranges; k, d range implicitly over 1 <= k <= d <= n-1."""

    replication_n: tuple[int, int] = (2, 6)
    coded_n: tuple[int, int] = (3, 6)

    def __post_init__(self) -> None:
        for lo, hi in (self.replication_n, self.coded_n):
            if lo > hi:
                raise ValueError(f"empty search range [{lo}, {hi}]")


@dataclass(frozen=True)
class OptimizationResult:
    best: CodeSpec
    cost: CostBreakdown
    savings_vs_simple: float
    frontier: list[tuple[CodeSpec, float]] = field(repr=False)


def replication_candidates(ranges: SearchRanges) -> list[CodeSpec]:
    lo, hi = ranges.replication_n
    return [make_code(Scheme.REPLICATION, n) for n in range(lo, hi + 1)]


def coded_candidates(scheme: Scheme, ranges: SearchRanges) -> list[CodeSpec]:
    lo, hi = ranges.coded_n
    out = []
    for n in range(lo, hi + 1):
        for k in range(1, n):
            for d in range(k, n):
                out.append(make_code(scheme, n, k, d))
    return out


def _minimize(
    cfg: SystemConfig, candidates: list[CodeSpec], costs: list[CostBreakdown], geom: GeometryTable
) -> OptimizationResult:
    frontier = [(code, cost.total) for code, cost in zip(candidates, costs)]
    # candidates come in lexicographic (n, k, d) order and min keeps the
    # first of equal totals, so ties go to the smallest (n, k, d)
    best_i = min(range(len(candidates)), key=lambda i: costs[i].total)
    simple_total = simple_caching_cost(cfg, geom).total
    return OptimizationResult(
        best=candidates[best_i],
        cost=costs[best_i],
        savings_vs_simple=1.0 - costs[best_i].total / simple_total,
        frontier=frontier,
    )


def optimize_replication(
    cfg: SystemConfig, ranges: SearchRanges, geom: GeometryTable
) -> OptimizationResult:
    """Minimize the replication cost over the storage degree n."""
    candidates = replication_candidates(ranges)
    costs = [replication_cost(cfg, c.n, geom) for c in candidates]
    return _minimize(cfg, candidates, costs, geom)


def optimize_regenerating(
    cfg: SystemConfig, scheme: Scheme, ranges: SearchRanges, geom: GeometryTable
) -> OptimizationResult:
    """Minimize the MSR or MBR cost over all feasible (n, k, d)."""
    if scheme not in (Scheme.MSR, Scheme.MBR):
        raise ValueError(f"expected msr or mbr, got {scheme}")
    candidates = coded_candidates(scheme, ranges)
    costs = [regenerating_cost(cfg, c, geom) for c in candidates]
    return _minimize(cfg, candidates, costs, geom)


@dataclass(frozen=True)
class MethodComparison:
    """Optimized cost of every method at one operating point."""

    simple: CostBreakdown
    replication: OptimizationResult
    msr: OptimizationResult
    mbr: OptimizationResult
    winner: Scheme
    savings_vs_simple: float

    def cost_of(self, scheme: Scheme | str) -> CostBreakdown:
        """Optimized cost of one method."""
        scheme = Scheme(scheme)
        if scheme is Scheme.SIMPLE:
            return self.simple
        results = {Scheme.REPLICATION: self.replication, Scheme.MSR: self.msr, Scheme.MBR: self.mbr}
        return results[scheme].cost


def best_method(cfg: SystemConfig, ranges: SearchRanges, geom: GeometryTable) -> MethodComparison:
    """Evaluate all four methods and pick the cheapest redundant one vs simple caching."""
    simple = simple_caching_cost(cfg, geom)
    rep = optimize_replication(cfg, ranges, geom)
    msr = optimize_regenerating(cfg, Scheme.MSR, ranges, geom)
    mbr = optimize_regenerating(cfg, Scheme.MBR, ranges, geom)
    ranked = sorted(
        [
            (rep.cost.total, Scheme.REPLICATION),
            (msr.cost.total, Scheme.MSR),
            (mbr.cost.total, Scheme.MBR),
            (simple.total, Scheme.SIMPLE),
        ],
        key=lambda t: t[0],
    )
    best_total, winner = ranked[0]
    return MethodComparison(
        simple=simple,
        replication=rep,
        msr=msr,
        mbr=mbr,
        winner=winner,
        savings_vs_simple=1.0 - best_total / simple.total,
    )
