"""Steady-state analysis of the cluster population chains.

The cluster population is an M/M/infinity birth-death process (arrivals
at m*lam, per-node departures at lam) whose stationary law is Poisson
with mean m. Simple caching adds a level tracking whether the file is
cached. Its uncached level solves the three-term zeta recursion, one
tridiagonal system; the cached level is the rest of the Poisson law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


class SolverError(RuntimeError):
    """Steady-state linear system could not be solved reliably."""


def _check_positive(**values: float) -> None:
    """Reject a non-finite or non-positive mean or rate with ValueError."""
    for name, x in values.items():
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {name}={x}")


def _poisson_pmf(m: float, j_max: int) -> np.ndarray:
    """Poisson(m) probabilities of 0..j_max nodes, not renormalized."""
    j = np.arange(j_max + 1)
    return np.exp(j * math.log(m) - m - gammaln(j + 1))


def default_truncation(m: float) -> int:
    """Truncation level with negligible Poisson tail (20 std devs past the mean)."""
    return math.ceil(m + 20.0 * math.sqrt(m))


def poisson_steady_state(m: float, j: int) -> float:
    """Stationary probability of j nodes in the cluster: m^j e^-m / j!."""
    _check_positive(m=m)
    if j < 0:
        raise ValueError(f"state index must be nonnegative, got j={j}")
    return math.exp(j * math.log(m) - m - math.lgamma(j + 1))


def poisson_tail_at_or_below(m: float, n: int) -> float:
    """Probability that the cluster population is n or below."""
    _check_positive(m=m)
    if n < 0:
        raise ValueError(f"state index must be nonnegative, got n={n}")
    return float(_poisson_pmf(m, n).sum())


@dataclass(frozen=True)
class PopulationDistribution:
    """Truncated, renormalized stationary population distribution."""

    m: float
    probs: np.ndarray

    @classmethod
    def from_mean(cls, m: float, j_max: int | None = None) -> "PopulationDistribution":
        _check_positive(m=m)
        if j_max is None:
            j_max = default_truncation(m)
        probs = _poisson_pmf(m, j_max)
        return cls(m=m, probs=probs / probs.sum())

    def mean(self) -> float:
        return float(np.arange(len(self.probs)) @ self.probs)


@dataclass(frozen=True)
class CachingChainState:
    """Solved steady state of the two-level simple-caching chain.

    Arrays are indexed by total cluster population j = 0..j_max:
    lower[j] is the probability of j nodes with the file uncached,
    upper[j] of j nodes with the file cached (upper[0] = 0: a cached
    file implies at least the caching node present).
    """

    m: float
    omega: float
    lam: float
    j_max: int
    upper: np.ndarray
    lower: np.ndarray


def _balance_residual(m: float, omega: float, lam: float, lower: np.ndarray, upper: np.ndarray) -> float:
    """Largest net probability flow into any state of the two-level chain."""
    cached = upper[1:]  # cached[y]: the caching node and y empty nodes
    loss = lam * cached  # (1, y) -> (0, y): the caching node departs
    request = omega * np.arange(1, len(lower)) * lower[1:]  # (0, y) -> (1, y-1)
    cross = (np.append(loss, 0.0) - np.insert(request, 0, 0.0), request - loss)
    # net flow y -> y+1 within a level: arrivals (blocked at its top state), empty-node departures
    ups = [m * lam * p[:-1] - lam * np.arange(1, len(p)) * p[1:] for p in (lower, cached)]
    return max(float(np.abs(c - np.diff(u, prepend=0.0, append=0.0)).max()) for c, u in zip(cross, ups))


def simple_caching_steady_state(
    m: float, omega: float, lam: float, j_max: int | None = None
) -> CachingChainState:
    """Steady state of the two-level chain, truncated at j_max nodes.

    State (x, y): x in {0, 1} caching nodes, y empty nodes. Nodes arrive at
    m*lam (blocked at j_max in total) and depart at lam each, the caching
    node's departure uncaching the file; while uncached, a request at
    y*omega moves (0, y) -> (1, y-1). With upper = pi - lower, balance at
    (0, y), y = 0..j_max, is a column diagonally dominant tridiagonal
    system in z = lower, solved by Thomas elimination without pivoting:

        (a_y + y(lam + omega)) z_y - m lam z_{y-1} - y lam z_{y+1} = lam pi_{y+1}

    with a_y = m lam but a_{j_max} = 0, and 0 on the right of the last row.
    The residual over both levels checks the cached level's balance.
    """
    _check_positive(m=m, omega=omega, lam=lam)
    if j_max is None:
        j_max = default_truncation(m)
    if j_max < m + 10.0 * math.sqrt(m):
        raise ValueError(f"truncation j_max={j_max} too small for m={m}")

    pi = PopulationDistribution.from_mean(m, j_max).probs
    # rows over lam; elimination leaves z_y = d[y] + e[y] z_{y+1}, all terms >= 0
    rhs, w = pi.tolist(), omega / lam
    e, d = [0.0], [rhs[0]]  # row 0 reads z_0 = pi_0
    for y in range(1, j_max):
        pivot = m + y * (1.0 + w) - m * e[-1]
        e.append(y / pivot)
        d.append((rhs[y + 1] + m * d[-1]) / pivot)
    z = [m * d[-1] / (j_max * (1.0 + w) - m * e[-1])]  # last row
    for y in range(j_max - 1, -1, -1):
        z.append(d[y] + e[y] * z[-1])
    lower = np.array(z[::-1])
    p = np.concatenate((lower, pi - lower))
    p[j_max + 1] = 0.0  # upper[0]: a cached file implies its caching node
    residual = _balance_residual(m, omega, lam, p[: j_max + 1], p[j_max + 1 :])
    if not np.isfinite(p).all() or residual > 1e-9 or p.min() < -1e-9:
        raise SolverError(f"j_max={j_max}: balance residual {residual:.3e}, min p {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return CachingChainState(m, omega, lam, j_max, upper=p[j_max + 1 :], lower=p[: j_max + 1])


def zeta_recursion_residual(state: CachingChainState) -> float:
    """Max residual of the three-term balance recursion of the lower chain.

    With zeta_j the probability of (j nodes, file uncached) and pi_j the
    stationary population law, global balance at (0, j) gives

        zeta_{j+1} = (m/j + omega/lam + 1) zeta_j - (m/j) zeta_{j-1} - pi_{j+1} / j

    for j >= 1, with zeta_0 = pi_0: with no node present the file is uncached.
    """
    z, m, w = state.lower, state.m, state.omega / state.lam
    pi = _poisson_pmf(m, state.j_max)
    j = np.arange(1, state.j_max)
    rhs = (m / j + w + 1.0) * z[1:-1] - (m / j) * z[:-2] - pi[2:] / j
    return float(np.abs(z[2:] - rhs).max(initial=0.0))


def base_station_request_fraction(state: CachingChainState) -> float:
    """Fraction of file requests that must be served by the base station."""
    j = np.arange(state.j_max + 1)
    bs_flux = float((j * state.lower).sum()) * state.omega
    d2d_flux = float((np.maximum(j - 1, 0) * state.upper).sum()) * state.omega
    return bs_flux / (bs_flux + d2d_flux)
