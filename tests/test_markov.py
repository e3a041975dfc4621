import math
import tracemalloc

import numpy as np
import pytest

from d2dcache import markov
from d2dcache.markov import (
    CachingChainState,
    PopulationDistribution,
    SolverError,
    base_station_request_fraction,
    default_truncation,
    poisson_steady_state,
    poisson_tail_at_or_below,
    simple_caching_steady_state,
    zeta_recursion_residual,
)


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


class TestPoissonLaw:
    def test_mode_at_unit_mean(self):
        assert poisson_steady_state(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert poisson_steady_state(1.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_log_gamma_oracle_large_mean(self):
        # direct log-space evaluation, independent of the implementation path
        m, j = 100.0, 100
        expected = math.exp(j * math.log(m) - m - math.lgamma(j + 1))
        assert poisson_steady_state(m, j) == pytest.approx(expected, rel=1e-13)
        assert poisson_steady_state(m, j) == pytest.approx(0.039861, rel=1e-4)

    def test_normalization(self):
        total = sum(poisson_steady_state(100.0, j) for j in range(default_truncation(100.0)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_tail_small_population(self):
        # probability of at most 6 nodes when the mean is 100
        tail = poisson_tail_at_or_below(100.0, 6)
        assert 3.7e-35 <= tail <= 8.3e-35
        brute = sum(poisson_steady_state(100.0, j) for j in range(7))
        assert tail == pytest.approx(brute, rel=1e-12)

    def test_tail_at_zero(self):
        assert poisson_tail_at_or_below(2.0, 0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poisson_steady_state(0.0, 1)
        with pytest.raises(ValueError):
            poisson_steady_state(1.0, -1)
        with pytest.raises(ValueError):
            poisson_tail_at_or_below(1.0, -1)


class TestPopulationDistribution:
    def test_mean_matches_parameter(self):
        dist = PopulationDistribution.from_mean(100.0)
        assert dist.mean() == pytest.approx(100.0, rel=1e-9)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_small_mean(self):
        dist = PopulationDistribution.from_mean(2.0, j_max=60)
        assert dist.probs[0] == pytest.approx(math.exp(-2.0), rel=1e-12)


@pytest.fixture(scope="module")
def default_chain() -> CachingChainState:
    return simple_caching_steady_state(m=100.0, omega=0.01, lam=1.0, j_max=300)


class TestCachingChain:
    def test_normalization_and_positivity(self, default_chain):
        total = default_chain.lower.sum() + default_chain.upper.sum()
        assert total == pytest.approx(1.0, abs=1e-12)
        assert default_chain.lower.min() >= 0.0
        assert default_chain.upper.min() >= 0.0
        assert default_chain.upper[0] == 0.0

    def test_population_marginal_is_poisson(self, default_chain):
        # the two levels must sum to the M/M/infinity law in total population
        marginal = default_chain.lower + default_chain.upper
        pi = np.array([poisson_steady_state(100.0, j) for j in range(default_chain.j_max + 1)])
        assert np.abs(marginal - pi).sum() < 1e-6

    def test_balance_recursion_residual(self, default_chain):
        assert zeta_recursion_residual(default_chain) < 1e-8

    def test_recursion_residual_at_other_rates(self):
        # away from m*omega == lam the corrected last term still balances
        state = simple_caching_steady_state(m=50.0, omega=0.1, lam=2.0, j_max=250)
        assert zeta_recursion_residual(state) < 1e-8

    def test_generator_rows_sum_to_zero(self):
        Q, states = generator_matrix(10.0, 0.05, 1.0, 40)
        assert np.abs(Q.sum(axis=1)).max() < 1e-9
        assert len(states) == 2 * 40 + 1

    def test_stationarity_under_generator(self, default_chain):
        Q, states = generator_matrix(100.0, 0.01, 1.0, default_chain.j_max)
        p = np.empty(len(states))
        for i, (x, y) in enumerate(states):
            p[i] = default_chain.lower[y] if x == 0 else default_chain.upper[y + 1]
        assert np.abs(p @ Q).max() < 1e-10

    def test_rate_ratio_invariance(self):
        # only omega/lam matters for the stationary law (after time rescale)
        a = simple_caching_steady_state(m=30.0, omega=0.02, lam=1.0, j_max=200)
        b = simple_caching_steady_state(m=30.0, omega=0.06, lam=3.0, j_max=200)
        assert np.abs(a.lower - b.lower).max() < 1e-10
        assert np.abs(a.upper - b.upper).max() < 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simple_caching_steady_state(m=-1.0, omega=0.01, lam=1.0)
        with pytest.raises(ValueError):
            simple_caching_steady_state(m=100.0, omega=0.01, lam=1.0, j_max=50)

    def test_residual_gate_is_a_solver_error(self, monkeypatch):
        # a NaN population law fails the finiteness check; a Poisson law of
        # the wrong mean leaves the cached level's balance unmet
        poisson_pmf = markov._poisson_pmf
        for pmf in (
            lambda m, j_max: np.full(j_max + 1, np.nan),
            lambda m, j_max: poisson_pmf(1.01 * m, j_max),
        ):
            monkeypatch.setattr(markov, "_poisson_pmf", pmf)
            with pytest.raises(SolverError, match="balance residual"):
                simple_caching_steady_state(m=30.0, omega=0.02, lam=1.0, j_max=200)

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @pytest.mark.parametrize("omega", [1e-3, 0.1, 2.0])
    @pytest.mark.parametrize("m", [5.0, 20.0, 100.0, 200.0])
    def test_matches_dense_generator_solve(self, m, omega, lam):
        state = simple_caching_steady_state(m, omega, lam)
        Q, states = generator_matrix(m, omega, lam, state.j_max)
        p = np.concatenate((state.lower, state.upper[1:]))  # in the generator's state order
        assert np.abs(p @ Q).max() < 1e-10
        A = Q.T.copy()
        A[-1] = 1.0  # normalization replaces one redundant balance equation
        b = np.zeros(len(states))
        b[-1] = 1.0
        assert np.abs(p - np.linalg.solve(A, b)).max() < 1e-13
        pi = PopulationDistribution.from_mean(m, state.j_max).probs
        assert state.lower[0] == pytest.approx(pi[0], rel=1e-15, abs=0.0)

    def test_memory_is_linear_in_truncation(self):
        tracemalloc.start()
        try:
            simple_caching_steady_state(1000.0, 0.01, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestInputChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: simple_caching_steady_state(100.0, math.inf, 1.0),
            lambda: simple_caching_steady_state(100.0, math.nan, 1.0),
            lambda: simple_caching_steady_state(100.0, 0.01, math.inf),
            lambda: simple_caching_steady_state(100.0, 0.01, 0.0),
            lambda: simple_caching_steady_state(math.nan, 0.01, 1.0),
            lambda: simple_caching_steady_state(math.inf, 0.01, 1.0),
            lambda: PopulationDistribution.from_mean(0.0),
            lambda: PopulationDistribution.from_mean(math.nan),
            lambda: poisson_steady_state(math.inf, 3),
            lambda: poisson_tail_at_or_below(math.nan, 3),
            lambda: poisson_tail_at_or_below(-1.0, 3),
        ],
        ids=[
            "chain-omega-inf", "chain-omega-nan", "chain-lam-inf", "chain-lam-zero", "chain-m-nan",
            "chain-m-inf", "law-m-zero", "law-m-nan", "pmf-m-inf", "tail-m-nan", "tail-m-negative",
        ],
    )
    def test_rejects_non_finite_or_non_positive(self, call):
        with pytest.raises(ValueError, match="must be finite and positive"):
            call()


class TestBaseStationFraction:
    def test_bounded(self, default_chain):
        frac = base_station_request_fraction(default_chain)
        assert 0.0 < frac < 1.0

    def test_decreasing_in_request_rate(self):
        # more frequent requests keep the cache warm more of the time
        fracs = []
        for omega in [0.001, 0.01, 0.1, 0.5]:
            state = simple_caching_steady_state(m=100.0, omega=omega, lam=1.0, j_max=300)
            fracs.append(base_station_request_fraction(state))
        assert all(b < a for a, b in zip(fracs, fracs[1:]))

    def test_matches_cycle_approximation(self, default_chain):
        # renewal-cycle view: one base-station fetch per ~(1/lam + 1/(m*omega))
        # against ~(m-1)(omega/lam) cached requests per cycle
        m, omega, lam = 100.0, 0.01, 1.0
        per_cycle_d2d = (m - 1.0) * omega / lam
        approx = 1.0 / (1.0 + per_cycle_d2d)
        assert base_station_request_fraction(default_chain) == pytest.approx(approx, rel=0.02)
