"""Steady-state analysis of the cluster population chains.

The cluster population is an M/M/infinity birth-death process (arrivals
at m*lam, per-node departures at lam) whose stationary law is Poisson
with mean m. Simple caching adds a second chain level tracking whether
the file is currently cached; we solve its truncated global-balance
system directly rather than iterating the (underdetermined) three-term
recursion its lower-level probabilities satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


class SolverError(RuntimeError):
    """Steady-state linear system could not be solved reliably."""


def default_truncation(m: float) -> int:
    """Truncation level with negligible Poisson tail (20 std devs past the mean)."""
    return math.ceil(m + 20.0 * math.sqrt(m))


def poisson_steady_state(m: float, j: int) -> float:
    """Stationary probability of j nodes in the cluster: m^j e^-m / j!."""
    if m <= 0.0:
        raise ValueError(f"mean population must be positive, got m={m}")
    if j < 0:
        raise ValueError(f"state index must be nonnegative, got j={j}")
    return math.exp(j * math.log(m) - m - math.lgamma(j + 1))


def poisson_tail_at_or_below(m: float, n: int) -> float:
    """Probability that the cluster population is n or below."""
    if m <= 0.0:
        raise ValueError(f"mean population must be positive, got m={m}")
    if n < 0:
        raise ValueError(f"state index must be nonnegative, got n={n}")
    j = np.arange(n + 1)
    return float(np.exp(j * math.log(m) - m - gammaln(j + 1)).sum())


@dataclass(frozen=True)
class PopulationDistribution:
    """Truncated, renormalized stationary population distribution."""

    m: float
    probs: np.ndarray

    @classmethod
    def from_mean(cls, m: float, j_max: int | None = None) -> "PopulationDistribution":
        if j_max is None:
            j_max = default_truncation(m)
        j = np.arange(j_max + 1)
        probs = np.exp(j * math.log(m) - m - gammaln(j + 1))
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


def generator_matrix(m: float, omega: float, lam: float, j_max: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Truncated generator of the two-level chain, with its state labels.

    State (x, y): x in {0, 1} caching nodes, y empty nodes. Transitions:
    arrivals (x, y) -> (x, y+1) at m*lam; empty-node departures at y*lam;
    the caching node departs (1, y) -> (0, y) at lam; a request while the
    file is uncached makes the requester download from the base station
    and become the caching node, (0, y) -> (1, y-1) at y*omega.
    """
    states = [(0, y) for y in range(j_max + 1)] + [(1, y) for y in range(j_max)]
    index = {s: i for i, s in enumerate(states)}
    N = len(states)
    Q = np.zeros((N, N))

    def add(src: tuple[int, int], dst: tuple[int, int], rate: float) -> None:
        if dst in index:
            Q[index[src], index[dst]] += rate

    for y in range(j_max + 1):
        add((0, y), (0, y + 1), m * lam)
        if y >= 1:
            add((0, y), (0, y - 1), y * lam)
            add((0, y), (1, y - 1), y * omega)
    for y in range(j_max):
        add((1, y), (1, y + 1), m * lam)
        if y >= 1:
            add((1, y), (1, y - 1), y * lam)
        add((1, y), (0, y), lam)
    Q[np.arange(N), np.arange(N)] = -Q.sum(axis=1)
    return Q, states


def simple_caching_steady_state(
    m: float, omega: float, lam: float, j_max: int | None = None
) -> CachingChainState:
    """Solve the truncated global-balance system of the two-level chain."""
    if m <= 0.0 or omega <= 0.0 or lam <= 0.0:
        raise ValueError(f"rates must be positive, got m={m}, omega={omega}, lam={lam}")
    if j_max is None:
        j_max = default_truncation(m)
    if j_max < m + 10.0 * math.sqrt(m):
        raise ValueError(f"truncation j_max={j_max} too small for m={m}")

    Q, states = generator_matrix(m, omega, lam, j_max)
    A = Q.T  # balance equations A p = 0; they sum to zero, so one is redundant
    redundant = A[-1].copy()
    A[-1] = 1.0  # normalization takes the redundant equation's place
    b = np.zeros(len(states))
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"balance system singular at j_max={j_max}: {err}") from err
    # residual of the full system: every balance equation and normalization
    residual = max(float(np.abs(A @ p - b).max()), abs(float(redundant @ p)))
    if not np.isfinite(p).all() or residual > 1e-9 or p.min() < -1e-9:
        cond = float(np.linalg.cond(A))
        raise SolverError(
            f"balance system ill-conditioned at j_max={j_max}: "
            f"residual={residual:.3e}, condition estimate={cond:.3e}"
        )
    p = np.clip(p, 0.0, None)
    p /= p.sum()

    lower = p[: j_max + 1]
    upper = np.zeros(j_max + 1)
    upper[1:] = p[j_max + 1 :]  # (1, y) holds y+1 nodes in total
    return CachingChainState(m=m, omega=omega, lam=lam, j_max=j_max, upper=upper, lower=lower)


def zeta_recursion_residual(state: CachingChainState) -> float:
    """Max residual of the three-term balance recursion of the lower chain.

    With zeta_j the probability of (j nodes, file uncached) and pi_j the
    stationary population law, global balance at (0, j) gives

        zeta_{j+1} = (m/j + omega/lam + 1) zeta_j - (m/j) zeta_{j-1} - pi_{j+1} / j

    for j >= 1, with zeta_0 = 0 in the untruncated chain.
    """
    z = state.lower
    m, w = state.m, state.omega / state.lam
    pi = np.array([poisson_steady_state(m, j) for j in range(state.j_max + 1)])
    worst = 0.0
    for j in range(1, state.j_max):
        rhs = (m / j + w + 1.0) * z[j] - (m / j) * z[j - 1] - pi[j + 1] / j
        worst = max(worst, abs(z[j + 1] - rhs))
    return worst


def base_station_request_fraction(state: CachingChainState) -> float:
    """Fraction of file requests that must be served by the base station."""
    j = np.arange(state.j_max + 1)
    bs_flux = float((j * state.lower).sum()) * state.omega
    d2d_flux = float((np.maximum(j - 1, 0) * state.upper).sum()) * state.omega
    return bs_flux / (bs_flux + d2d_flux)
