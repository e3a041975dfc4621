"""Stochastic geometry of a disk-shaped caching cluster.

Everything here reduces to one primitive: the intersection area of two
circles. From it we get the probability that a random storage node lies
within distance x of a reference point, the distribution of the q-th
nearest-neighbor distance, and finally the expected transmission costs
(powered distances) consumed by the cost model and the simulator.

Every integral is a fixed Gauss-Legendre rule or a closed form evaluated
on numpy arrays, so one table build integrates all ranks q of a node
count n at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Mapping

import numpy as np
from scipy.special import betainc, gammaln

if TYPE_CHECKING:
    from .cost_model import SystemConfig

# Gauss-Legendre nodes per axis: the offset t and the lens-panel angle.
# The coarser rule runs beside the fine one only to estimate a table's
# quadrature error.
_NODES = 48
_CHECK_NODES = 32


def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on the
    Legendre polynomial P_nodes. Plain numpy: no LAPACK workspace is touched."""

    def evaluate(u):  # P_nodes(u) and its derivative, by the three-term recurrence
        p, prev = u, np.ones_like(u)
        for j in range(2, nodes + 1):
            p, prev = ((2 * j - 1) * u * p - (j - 1) * prev) / j, p
        return p, nodes * (u * p - prev) / (u * u - 1.0)

    u = np.cos(math.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))
    for _ in range(4):  # quadratic convergence from these starting points
        p, slope = evaluate(u)
        u = u - p / slope
    _, slope = evaluate(u)
    return u, 2.0 / ((1.0 - u * u) * slope**2)


_LEGENDRE = {nodes: _gauss_legendre(nodes) for nodes in (_NODES, _CHECK_NODES)}


def _legendre(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    u, w = _LEGENDRE[nodes]
    half = (b - a) / 2.0
    return a + half * (u + 1.0), half * w


def _lens_area(R, r, v):
    """Elementwise intersection area of circles of radii R and r whose
    centers are v apart, for |R - r| <= v <= R + r.

    The half-angles come from atan2 against four times the area of the
    (v, R, r) triangle, so both lens regimes share one expression.
    """
    s = np.sqrt(np.maximum((r + R - v) * (r - R + v) * (-r + R + v) * (r + R + v), 0.0))
    return (
        R * R * np.arctan2(s, v * v + R * R - r * r)
        + r * r * np.arctan2(s, v * v + r * r - R * R)
        - 0.5 * s
    )


def circle_intersection_area(R: float, r: float, v: float) -> float:
    """Intersection area of circles of radii R and r whose centers are v apart.

    Symmetric in (R, r); piecewise over full containment, the lens, and
    disjoint circles.
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
    return float(_lens_area(R, r, v))


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


def _lens_panel(r: float, offset, nodes: int):
    """Nodes on [|r - offset|, r + offset], where a circle of radius x about
    a point at `offset` from the center of a disk of radius r crosses its edge.

    With c = max(r, offset) and h = min(r, offset), x = c - h cos(theta) for
    theta in [0, pi], which removes the square-root kinks of the coverage
    at both ends. Returns x, the weights of dx and the uncovered fraction,
    with the nodes along a new last axis.
    """
    theta, w = _legendre(nodes, 0.0, math.pi)
    o = np.asarray(offset, dtype=float)[..., None]
    c, h = np.maximum(r, o), np.minimum(r, o)
    x = c - h * np.cos(theta)
    uncovered = np.maximum(1.0 - _lens_area(x, r, o) / (math.pi * r * r), 0.0)
    return x, h * np.sin(theta) * w, uncovered


def _inside_sums(n: int, r: float, t: np.ndarray, gamma: float) -> np.ndarray:
    """int_0^(r-t) gamma x^(gamma-1) P(Bin(n, p) < q) dx for q = 1..n, per offset in t.

    There the circle of radius x lies inside the disk, so p = x^2/r^2, and
    with g = gamma/2 and z = ((r - t)/r)^2 each binomial term integrates to
    g r^gamma C(n, i) B(g + i, n - i + 1) I_z(g + i, n - i + 1), exactly.
    """
    g = gamma / 2.0
    i = np.arange(n)[:, None]
    coef = np.exp(gammaln(n + 1) + gammaln(g + i) - gammaln(i + 1) - gammaln(g + n + 1))
    terms = coef * betainc(g + i, n - i + 1, ((r - t) / r) ** 2)
    return g * r**gamma * np.cumsum(terms, axis=0)


def _powered_distances(n: int, r: float, t: np.ndarray, gamma: float, nodes: int) -> np.ndarray:
    """E[X_q^gamma] for q = 1..n, X_q the q-th nearest of n nodes to a point
    at each offset in t: an (n, len(t)) array.

    Integrates gamma x^(gamma-1) against the ccdf P(Bin(n, p) < q) =
    I_{1-p}(n - q + 1, q): in closed form up to r - t, by the lens panel beyond.
    """
    x, w, uncovered = _lens_panel(r, t, nodes)
    w = gamma * x ** (gamma - 1.0) * w
    # one rank at a time keeps the temporaries at one (t, theta) grid
    lens = [(betainc(n - q + 1, q, uncovered) * w).sum(axis=-1) for q in range(1, n + 1)]
    return _inside_sums(n, r, t, gamma) + np.array(lens)


def _link_costs(n: int, r: float, gamma: float, nodes: int) -> np.ndarray:
    """L(q, n) for q = 1..n: the powered distances averaged over a uniform
    reference point, whose offset density is 2t/r^2."""
    t, w = _legendre(nodes, 0.0, r)
    return _powered_distances(n, r, t, gamma, nodes) @ (2.0 * t * w / (r * r))


def _check_moment(r: float, gamma: float) -> None:
    if r <= 0.0:
        raise ValueError(f"disk radius must be positive, got r={r}")
    if gamma < 1.0:
        raise ValueError(f"pathloss exponent must be >= 1, got gamma={gamma}")


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
    _check_moment(r, gamma)
    if not 0.0 <= t <= r:
        raise ValueError(f"offset must satisfy 0 <= t <= r, got t={t}, r={r}")
    return float(_powered_distances(n, r, np.array([t]), gamma, _NODES)[q - 1, 0])


def link_cost(q: int, n: int, r: float, gamma: float) -> float:
    """Expected cost of sending one data unit to the q-th nearest of n storage nodes.

    Averages the powered neighbor distance over a uniformly placed
    reference point, whose offset density is 2t/r^2.
    """
    _check_rank(n, q)
    _check_moment(r, gamma)
    return float(_link_costs(n, r, gamma, _NODES)[q - 1])


def _base_station_cost(r: float, v: float, gamma_bs: float, nodes: int) -> float:
    # the distance ccdf is 1 below v - r and 0 above v + r
    x, w, uncovered = _lens_panel(r, v, nodes)
    tail = gamma_bs * x ** (gamma_bs - 1.0) * w * uncovered
    return (v - r) ** gamma_bs + float(tail.sum())


def base_station_cost(r: float, v: float, gamma_bs: float) -> float:
    """Expected gamma_bs-th power of the distance from a uniform cluster node
    to a base station at distance v > r from the cluster center."""
    if r <= 0.0:
        raise ValueError(f"disk radius must be positive, got r={r}")
    if v <= r:
        raise ValueError(f"base station must lie outside the cluster (v > r), got v={v}, r={r}")
    if gamma_bs < 1.0:
        raise ValueError(f"pathloss exponent must be >= 1, got gamma_bs={gamma_bs}")
    return _base_station_cost(r, v, gamma_bs, _NODES)


@dataclass(frozen=True)
class GeometryTable:
    """Precomputed link costs L(q, n) for one cluster configuration.

    entries maps (q, n) with 1 <= q <= n <= n_max to the expected D2D
    transmission cost; bs_cost is the base-station downlink analogue.
    quad_error, set by build_geometry_table, is the largest relative gap
    between the fine and the check quadrature over entries and bs_cost;
    it is neither compared nor written to JSON.
    Immutable after construction; safe to share across threads.
    """

    r: float
    gamma_d2d: float
    gamma_bs: float
    v: float
    bs_cost: float
    entries: Mapping[tuple[int, int], float]
    quad_error: float | None = field(default=None, compare=False)
    # _prefix[n][count] is nearest_sum(count, n), summed in q order from 0
    _prefix: dict[int, list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prefix = {
            n: list(accumulate((self.entries[(q, n)] for q in range(1, n + 1)), initial=0.0))
            for n in {n for _, n in self.entries}
        }
        object.__setattr__(self, "_prefix", prefix)

    @property
    def n_max(self) -> int:
        return max(n for _, n in self.entries)

    def link(self, q: int, n: int) -> float:
        _check_rank(n, q)
        try:
            return self.entries[(q, n)]
        except KeyError:
            raise ValueError(f"node count n={n} is beyond this table's n_max={self.n_max}") from None

    def nearest_sum(self, count: int, n: int) -> float:
        """Sum of L(q, n) over q = 1..count: one data unit from each of the
        count nearest of n storage nodes."""
        if not 0 <= count <= n:
            raise ValueError(f"need 0 <= count <= n, got count={count}, n={n}")
        try:
            return self._prefix[n][count] if count else 0.0
        except KeyError:
            raise ValueError(f"node count n={n} is beyond this table's n_max={self.n_max}") from None

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
    """Tabulate link_cost for all 1 <= q <= n <= n_max plus the base-station cost.

    Every entry is also integrated by the coarser check rule; quad_error is
    the largest relative gap between the two.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_moment(cfg.r, cfg.gamma_d2d)
    bs_cost = base_station_cost(cfg.r, cfg.v, cfg.gamma_bs)
    bs_check = _base_station_cost(cfg.r, cfg.v, cfg.gamma_bs, _CHECK_NODES)
    quad_error = abs(bs_cost - bs_check) / bs_cost
    entries = {}
    for n in range(1, n_max + 1):
        costs = _link_costs(n, cfg.r, cfg.gamma_d2d, _NODES)
        check = _link_costs(n, cfg.r, cfg.gamma_d2d, _CHECK_NODES)
        quad_error = max(quad_error, float((np.abs(costs - check) / costs).max()))
        entries.update(zip(((q, n) for q in range(1, n + 1)), costs.tolist()))
    return GeometryTable(
        r=cfg.r,
        gamma_d2d=cfg.gamma_d2d,
        gamma_bs=cfg.gamma_bs,
        v=cfg.v,
        bs_cost=bs_cost,
        entries=entries,
        quad_error=quad_error,
    )
