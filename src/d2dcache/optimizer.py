"""Exhaustive parameter search over caching methods.

Search spaces are tiny (tens of candidates), so optimization is exact
enumeration with a deterministic lexicographic tie-break toward smaller
(n, k, d): fewer simultaneous D2D connections is operationally cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import CodeSpec, Scheme, make_code
from .cost_model import CostBreakdown, SystemConfig, method_cost, simple_caching_cost
from .geometry import GeometryTable


@dataclass(frozen=True)
class SearchRanges:
    """Inclusive storage-degree ranges; k, d range implicitly over 1 <= k <= d <= n-1.

    Replication is the (n, 1, 1) code and searches replication_n; MSR and
    MBR search coded_n. The search keeps only the candidates with n < m.
    """

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
    frontier: list[tuple[CodeSpec, float]] = field(repr=False)


def candidates(scheme: Scheme, ranges: SearchRanges) -> list[CodeSpec]:
    """Every code of one redundant method in the search, in lexicographic (n, k, d) order."""
    scheme = Scheme(scheme)
    if scheme is Scheme.SIMPLE:
        raise ValueError("simple caching has no parameters to search")
    if scheme is Scheme.REPLICATION:
        lo, hi = ranges.replication_n
        return [make_code(scheme, n) for n in range(lo, hi + 1)]
    lo, hi = ranges.coded_n
    return [
        make_code(scheme, n, k, d) for n in range(lo, hi + 1) for k in range(1, n) for d in range(k, n)
    ]


def optimize(
    cfg: SystemConfig, scheme: Scheme, ranges: SearchRanges, geom: GeometryTable
) -> OptimizationResult:
    """Minimize one redundant method's cost over its candidates with n < m."""
    codes = [code for code in candidates(scheme, ranges) if code.n < cfg.m]
    if not codes:
        raise ValueError(f"no {Scheme(scheme).value} candidate in the search has n < m={cfg.m}")
    costs = [method_cost(cfg, code, geom) for code in codes]
    # min keeps the first of equal totals, so ties go to the smallest (n, k, d)
    best = min(costs, key=lambda c: c.total)
    return OptimizationResult(best.method, best, [(c.method, c.total) for c in costs])


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
    rep, msr, mbr = (
        optimize(cfg, scheme, ranges, geom) for scheme in (Scheme.REPLICATION, Scheme.MSR, Scheme.MBR)
    )
    # min keeps the first of equal totals: replication, msr, mbr, then simple
    best = min((rep.cost, msr.cost, mbr.cost, simple), key=lambda c: c.total)
    return MethodComparison(
        simple=simple,
        replication=rep,
        msr=msr,
        mbr=mbr,
        winner=best.method.scheme,
        savings_vs_simple=1.0 - best.total / simple.total,
    )
