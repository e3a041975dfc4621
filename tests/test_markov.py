import math

import numpy as np
import pytest

from d2dcache.markov import (
    CachingChainState,
    PopulationDistribution,
    SolverError,
    base_station_request_fraction,
    default_truncation,
    generator_matrix,
    poisson_steady_state,
    poisson_tail_at_or_below,
    simple_caching_steady_state,
    zeta_recursion_residual,
)


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

    def test_singular_system_is_a_solver_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SolverError, match="singular"):
            simple_caching_steady_state(m=30.0, omega=0.02, lam=1.0, j_max=200)


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
