"""Stochastic geometry of a disk-shaped caching cluster.

Everything here reduces to one primitive: the intersection area of two
circles. From it we get the probability that a random storage node lies
within distance x of a reference point, the distribution of the q-th
nearest-neighbor distance, and finally the expected transmission costs
(powered distances) consumed by the cost model and the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Mapping

from scipy.integrate import quad

if TYPE_CHECKING:
    from .cost_model import SystemConfig

# Outer integrals (over the reference-point offset t) and the ccdf
# integrals nested inside them. The inner tolerance is 10x tighter so
# nested quadrature error does not dominate the outer estimate.
_OUTER_QUAD = {"epsabs": 1e-12, "epsrel": 1e-8, "limit": 200}
_INNER_QUAD = {"epsabs": 1e-13, "epsrel": 1e-9, "limit": 200}


def _eta(x: float, mu: float) -> float:
    """Circular segment area for a chord of length mu in a circle of radius x."""
    half = mu / 2.0
    s = max(min(half / x, 1.0), -1.0)  # clamp: exactly 1 at case boundaries
    return x * x * math.asin(s) - half * math.sqrt(max(x * x - half * half, 0.0))


def circle_intersection_area(R: float, r: float, v: float) -> float:
    """Intersection area of circles of radii R and r whose centers are v apart.

    Symmetric in (R, r); piecewise over full containment, two lens
    regimes split at v = sqrt(R^2 - r^2), and disjoint circles.
    """
    if R <= 0.0 or r <= 0.0:
        raise ValueError(f"circle radii must be positive, got R={R}, r={r}")
    if v < 0.0:
        raise ValueError(f"center distance must be nonnegative, got v={v}")
    if r > R:
        R, r = r, R
    if v <= R - r:
        return math.pi * r * r
    if v >= R + r:
        return 0.0
    mu = math.sqrt(max((r + R - v) * (r - R + v) * (-r + R + v) * (r + R + v), 0.0)) / v
    if v * v <= R * R - r * r:
        # small circle's center side: its segment is the major one
        return math.pi * r * r - _eta(r, mu) + _eta(R, mu)
    return _eta(r, mu) + _eta(R, mu)


def coverage_probability(x: float, r: float, t: float) -> float:
    """Fraction of a disk of radius r within distance x of a point at offset t.

    The point sits at distance t <= r from the disk center. This is the
    cdf of the distance from that point to a uniform node in the disk.
    """
    if r <= 0.0:
        raise ValueError(f"disk radius must be positive, got r={r}")
    if not 0.0 <= t <= r:
        raise ValueError(f"offset must satisfy 0 <= t <= r, got t={t}, r={r}")
    if x < 0.0:
        raise ValueError(f"distance must be nonnegative, got x={x}")
    if x == 0.0:
        return 0.0
    if x >= r + t:
        return 1.0
    return min(circle_intersection_area(x, r, t) / (math.pi * r * r), 1.0)


def _check_rank(n: int, q: int) -> None:
    if n < 1 or q < 1:
        raise ValueError(f"counts must be positive, got n={n}, q={q}")
    if q > n:
        raise ValueError(f"rank q={q} exceeds node count n={n}")


def _below_rank_prob(x: float, n: int, q: int, r: float, t: float) -> float:
    """P(fewer than q of n uniform nodes lie within x) — ccdf of the q-th distance."""
    p = coverage_probability(x, r, t)
    s = 0.0
    for i in range(q):
        s += comb(n, i) * p**i * (1.0 - p) ** (n - i)
    return s


def expected_neighbor_distance(n: int, q: int, r: float, t: float) -> float:
    """Expected distance from a point at offset t to its q-th nearest of n nodes."""
    return expected_neighbor_distance_power(n, q, r, t, gamma=1.0)


def expected_neighbor_distance_power(
    n: int, q: int, r: float, t: float, gamma: float
) -> float:
    """Expected gamma-th power of the q-th nearest-neighbor distance.

    Integrates gamma * x^(gamma-1) against the distance ccdf.
    """
    _check_rank(n, q)
    if not 0.0 <= t <= r:
        raise ValueError(f"offset must satisfy 0 <= t <= r, got t={t}, r={r}")
    if gamma < 1.0:
        raise ValueError(f"pathloss exponent must be >= 1, got gamma={gamma}")

    def integrand(x: float) -> float:
        return gamma * x ** (gamma - 1.0) * _below_rank_prob(x, n, q, r, t)

    val, _ = quad(integrand, 0.0, r, **_INNER_QUAD)
    if t > 0.0:
        tail, _ = quad(integrand, r, r + t, **_INNER_QUAD)
        val += tail
    return val


def link_cost(q: int, n: int, r: float, gamma: float) -> float:
    """Expected cost of sending one data unit to the q-th nearest of n storage nodes.

    Averages the powered neighbor distance over a uniformly placed
    reference point, whose offset density is 2t/r^2.
    """
    _check_rank(n, q)

    def integrand(t: float) -> float:
        return t * expected_neighbor_distance_power(n, q, r, t, gamma)

    val, _ = quad(integrand, 0.0, r, **_OUTER_QUAD)
    return 2.0 / (r * r) * val


def base_station_cost(r: float, v: float, gamma_bs: float) -> float:
    """Expected gamma_bs-th power of the distance from a uniform cluster node
    to a base station at distance v > r from the cluster center."""
    if r <= 0.0:
        raise ValueError(f"disk radius must be positive, got r={r}")
    if v <= r:
        raise ValueError(f"base station must lie outside the cluster (v > r), got v={v}, r={r}")
    if gamma_bs < 1.0:
        raise ValueError(f"pathloss exponent must be >= 1, got gamma_bs={gamma_bs}")

    disk = math.pi * r * r

    def integrand(x: float) -> float:
        # the base station sits outside the disk, so use the area ratio directly
        covered = min(circle_intersection_area(x, r, v) / disk, 1.0)
        return gamma_bs * x ** (gamma_bs - 1.0) * (1.0 - covered)

    # ccdf is identically 1 below v - r and 0 above v + r
    val, _ = quad(integrand, v - r, v + r, **_INNER_QUAD)
    return (v - r) ** gamma_bs + val


@dataclass(frozen=True)
class GeometryTable:
    """Precomputed link costs L(q, n) for one cluster configuration.

    entries maps (q, n) with 1 <= q <= n <= n_max to the expected D2D
    transmission cost; bs_cost is the base-station downlink analogue.
    Immutable after construction; safe to share across threads.
    """

    r: float
    gamma_d2d: float
    gamma_bs: float
    v: float
    bs_cost: float
    entries: Mapping[tuple[int, int], float]

    @property
    def n_max(self) -> int:
        return max(n for _, n in self.entries)

    def link(self, q: int, n: int) -> float:
        _check_rank(n, q)
        return self.entries[(q, n)]

    def nearest_sum(self, count: int, n: int) -> float:
        """Sum of L(q, n) over q = 1..count: one data unit from each of the
        count nearest of n storage nodes."""
        if not 0 <= count <= n:
            raise ValueError(f"need 0 <= count <= n, got count={count}, n={n}")
        return sum(self.entries[(q, n)] for q in range(1, count + 1))

    def to_json(self) -> str:
        def f(x: float) -> str:
            return format(x, ".17g")

        rows = ",".join(
            '{"q":%d,"n":%d,"L":%s}' % (q, n, f(L))
            for (q, n), L in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        )
        return (
            '{"r":%s,"gamma_d2d":%s,"gamma_bs":%s,"v":%s,"bs_cost":%s,"entries":[%s]}'
            % (f(self.r), f(self.gamma_d2d), f(self.gamma_bs), f(self.v), f(self.bs_cost), rows)
        )

    @classmethod
    def from_json(cls, text: str) -> "GeometryTable":
        doc = json.loads(text)
        entries = {(int(e["q"]), int(e["n"])): float(e["L"]) for e in doc["entries"]}
        return cls(
            r=float(doc["r"]),
            gamma_d2d=float(doc["gamma_d2d"]),
            gamma_bs=float(doc["gamma_bs"]),
            v=float(doc["v"]),
            bs_cost=float(doc["bs_cost"]),
            entries=entries,
        )


def build_geometry_table(cfg: "SystemConfig", n_max: int) -> GeometryTable:
    """Tabulate link_cost for all 1 <= q <= n <= n_max plus the base-station cost."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    entries = {}
    for n in range(1, n_max + 1):
        for q in range(1, n + 1):
            entries[(q, n)] = link_cost(q, n, cfg.r, cfg.gamma_d2d)
    return GeometryTable(
        r=cfg.r,
        gamma_d2d=cfg.gamma_d2d,
        gamma_bs=cfg.gamma_bs,
        v=cfg.v,
        bs_cost=base_station_cost(cfg.r, cfg.v, cfg.gamma_bs),
        entries=entries,
    )
