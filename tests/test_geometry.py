import math

import numpy as np
import pytest

from d2dcache.codes import Scheme
from d2dcache.cost_model import SystemConfig
from d2dcache.geometry import (
    GeometryTable,
    base_station_cost,
    build_geometry_table,
    circle_intersection_area,
    coverage_probability,
    expected_neighbor_distance,
    expected_neighbor_distance_power,
    link_cost,
)
from d2dcache.optimizer import SearchRanges, optimize


def lens_area_oracle(R, r, v):
    """Independent circle-lens area via the distance-based arccos formula."""
    if r > R:
        R, r = r, R
    if v <= R - r:
        return math.pi * r * r
    if v >= R + r:
        return 0.0
    d1 = (R * R - r * r + v * v) / (2 * v)
    d2 = v - d1
    a1 = R * R * math.acos(max(min(d1 / R, 1.0), -1.0)) - d1 * math.sqrt(max(R * R - d1 * d1, 0.0))
    a2 = r * r * math.acos(max(min(d2 / r, 1.0), -1.0)) - d2 * math.sqrt(max(r * r - d2 * d2, 0.0))
    return a1 + a2


def uniform_disk(rng, count, r=1.0):
    rad = r * np.sqrt(rng.random(count))
    ang = 2.0 * np.pi * rng.random(count)
    return rad * np.cos(ang), rad * np.sin(ang)


class TestCircleIntersectionArea:
    def test_full_containment(self):
        assert circle_intersection_area(1.0, 1.0, 0.0) == pytest.approx(math.pi)

    def test_disjoint(self):
        assert circle_intersection_area(1.0, 1.0, 3.0) == 0.0

    def test_lens_case_against_oracles(self):
        exact = circle_intersection_area(2.0, 1.0, 2.0)
        assert exact == pytest.approx(lens_area_oracle(2.0, 1.0, 2.0), abs=1e-12)
        # dart-throwing in the small circle
        rng = np.random.default_rng(7)
        x, y = uniform_disk(rng, 10_000_000, r=1.0)
        hit = ((x - 2.0) ** 2 + y**2 <= 4.0).mean()
        assert exact == pytest.approx(hit * math.pi, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            R, r = rng.uniform(0.05, 4.0, size=2)
            v = rng.uniform(0.0, 9.0)
            assert circle_intersection_area(R, r, v) == circle_intersection_area(r, R, v)

    def test_bounds_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            R, r = rng.uniform(0.05, 4.0, size=2)
            v = rng.uniform(0.0, 9.0)
            a = circle_intersection_area(R, r, v)
            assert 0.0 <= a <= math.pi * min(r, R) ** 2 + 1e-12

    def test_continuity_at_case_boundaries(self):
        eps = 1e-10
        for R, r in [(1.0, 1.0), (2.0, 1.0), (3.0, 0.5)]:
            boundaries = [R - r, R + r]
            if R > r:
                boundaries.append(math.sqrt(R * R - r * r))
            for b in boundaries:
                if b <= 0:
                    continue
                below = circle_intersection_area(R, r, b - eps)
                above = circle_intersection_area(R, r, b + eps)
                # float cancellation near the case boundaries dominates eps
                assert abs(below - above) < 1e-7 * math.pi * r * r

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            circle_intersection_area(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            circle_intersection_area(1.0, -1.0, 0.5)


class TestCoverageProbability:
    def test_zero_radius(self):
        assert coverage_probability(0.0, 1.0, 0.5) == 0.0

    def test_covers_whole_disk(self):
        assert coverage_probability(2.0, 1.0, 0.5) == 1.0

    def test_against_dart_oracle(self):
        rng = np.random.default_rng(11)
        x, y = uniform_disk(rng, 10_000_000)
        frac = (((x - 0.3) ** 2 + y**2) <= 0.25).mean()
        assert coverage_probability(0.5, 1.0, 0.3) == pytest.approx(frac, abs=1e-3)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = rng.uniform(0.0, 1.0)
            xs = np.sort(rng.uniform(0.0, 2.2, size=30))
            vals = [coverage_probability(x, 1.0, t) for x in xs]
            assert all(0.0 <= p <= 1.0 for p in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_offset_outside_disk(self):
        with pytest.raises(ValueError):
            coverage_probability(0.5, 1.0, 1.5)


class TestNeighborDistances:
    def test_center_single_node(self):
        # E[X] for density 2x on [0,1] is 2/3
        assert expected_neighbor_distance(1, 1, 1.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-8)

    def test_rank_monotonicity(self):
        vals = [expected_neighbor_distance(5, q, 1.0, 0.5) for q in range(1, 6)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(17)
        n, q, t = 3, 2, 0.7
        x, y = uniform_disk(rng, 1_000_000 * n)
        d = np.sqrt((x.reshape(-1, n) - t) ** 2 + y.reshape(-1, n) ** 2)
        d.sort(axis=1)
        sampled = d[:, q - 1].mean()
        assert expected_neighbor_distance(n, q, 1.0, t) == pytest.approx(sampled, rel=5e-3)

    def test_rejects_rank_above_count(self):
        with pytest.raises(ValueError):
            expected_neighbor_distance(2, 3, 1.0, 0.1)

    def test_power_gamma_one_matches_distance(self):
        for n, q, t in [(1, 1, 0.0), (4, 2, 0.6), (6, 6, 0.9)]:
            assert expected_neighbor_distance_power(n, q, 1.0, t, 1.0) == pytest.approx(
                expected_neighbor_distance(n, q, 1.0, t), rel=1e-7
            )

    def test_power_center_second_moment(self):
        # E[X^2] for density 2x on [0,1] is 1/2
        assert expected_neighbor_distance_power(1, 1, 1.0, 0.0, 2.0) == pytest.approx(0.5, rel=1e-8)

    def test_power_against_sampling_oracle(self):
        rng = np.random.default_rng(19)
        n, q, t, gamma = 4, 2, 0.4, 4.0
        x, y = uniform_disk(rng, 1_000_000 * n)
        d2 = (x.reshape(-1, n) - t) ** 2 + y.reshape(-1, n) ** 2
        d2.sort(axis=1)
        sampled = (d2[:, q - 1] ** (gamma / 2)).mean()
        assert expected_neighbor_distance_power(n, q, 1.0, t, gamma) == pytest.approx(
            sampled, rel=1e-2
        )


class TestLinkCost:
    def test_two_point_second_moment(self):
        # E|X1 - X2|^2 = r^2/2 + r^2/2 for independent uniform disk points
        assert link_cost(1, 1, 1.0, 2.0) == pytest.approx(1.0, abs=1e-6)

    def test_second_moment_scales_with_radius(self):
        assert link_cost(1, 1, 2.0, 2.0) == pytest.approx(4.0, abs=4e-6)

    def test_against_two_point_sampling_oracle(self):
        rng = np.random.default_rng(23)
        q, n, gamma, draws = 2, 6, 4.0, 2_000_000
        rad = np.sqrt(rng.random((draws, n + 1)))
        ang = 2.0 * np.pi * rng.random((draws, n + 1))
        x, y = rad * np.cos(ang), rad * np.sin(ang)
        d2 = (x[:, 1:] - x[:, :1]) ** 2 + (y[:, 1:] - y[:, :1]) ** 2
        d2.sort(axis=1)
        sampled = (d2[:, q - 1] ** (gamma / 2)).mean()
        assert link_cost(q, n, 1.0, gamma) == pytest.approx(sampled, rel=1e-2)


class TestBaseStationCost:
    def test_second_moment_closed_form(self):
        # E[(v + X)^2 + Y^2] = v^2 + r^2/2 for a uniform disk offset by v
        assert base_station_cost(1.0, 20.0, 2.0) == pytest.approx(400.5, abs=1e-6)
        assert base_station_cost(1.0, 10.0, 2.0) == pytest.approx(100.5, abs=1e-6)

    def test_first_moment_bounds_and_oracle(self):
        val = base_station_cost(1.0, 20.0, 1.0)
        assert 19.0 <= val <= 21.0
        rng = np.random.default_rng(29)
        x, y = uniform_disk(rng, 5_000_000)
        sampled = np.sqrt((x - 20.0) ** 2 + y**2).mean()
        assert val == pytest.approx(sampled, rel=1e-3)

    def test_rejects_base_station_inside_cluster(self):
        with pytest.raises(ValueError):
            base_station_cost(1.0, 0.5, 2.0)


@pytest.fixture(scope="module")
def table():
    return build_geometry_table(SystemConfig(), n_max=6)


class TestGeometryTable:
    def test_entry_count(self, table):
        assert len(table.entries) == 21  # (q, n) pairs with q <= n <= 6

    def test_singleton_table(self):
        t = build_geometry_table(SystemConfig(), n_max=1)
        assert t.entries == {(1, 1): pytest.approx(link_cost(1, 1, 1.0, 4.0))}

    def test_monotone_in_rank(self, table):
        for n in range(2, 7):
            for q in range(2, n + 1):
                assert table.link(q, n) >= table.link(q - 1, n)

    def test_monotone_in_density(self, table):
        for n in range(2, 7):
            for q in range(1, n):
                assert table.link(q, n) <= table.link(q, n - 1)

    def test_entries_finite_positive(self, table):
        assert all(math.isfinite(v) and v > 0 for v in table.entries.values())

    def test_invariants_on_random_configs(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            cfg = SystemConfig(
                r=float(rng.uniform(0.5, 2.0)),
                v=float(rng.uniform(5.0, 30.0)),
                gamma_d2d=float(rng.choice([2.0, 3.0, 4.0])),
            )
            t = build_geometry_table(cfg, n_max=4)
            for n in range(2, 5):
                for q in range(2, n + 1):
                    assert t.link(q, n) >= t.link(q - 1, n)
                for q in range(1, n):
                    assert t.link(q, n) <= t.link(q, n - 1)

    def test_nearest_sum(self, table):
        assert table.nearest_sum(0, 4) == 0.0
        assert table.nearest_sum(3, 4) == table.link(1, 4) + table.link(2, 4) + table.link(3, 4)
        for count in (-1, 5):
            with pytest.raises(ValueError):
                table.nearest_sum(count, 4)

    def test_ranks_beyond_the_table(self, table):
        calls = (
            lambda: table.link(1, 7),
            lambda: table.nearest_sum(2, 7),
            lambda: optimize(SystemConfig(), Scheme.MSR, SearchRanges((2, 8), (3, 8)), table),
        )
        for call in calls:
            with pytest.raises(ValueError, match="n_max=6"):
                call()

    def test_json_round_trip(self, table):
        again = GeometryTable.from_json(table.to_json())
        assert again == table
        assert again.to_json() == table.to_json()


class TestQuadratureOracles:
    """Closed forms and identities the table quadrature must reproduce."""

    @pytest.mark.parametrize("r", [1.0, 0.6, 2.5])
    def test_two_point_moments(self, r):
        # E|X1 - X2|^2 = r^2 and E|X1 - X2|^4 = 5 r^4 / 3 for uniform disk points
        assert link_cost(1, 1, r, 2.0) == pytest.approx(r**2, rel=1e-12)
        assert link_cost(1, 1, r, 4.0) == pytest.approx(5.0 * r**4 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.2, 1.5, 2.1, 3.3])
    def test_two_point_moments_against_distance_density(self, gamma):
        from scipy.integrate import quad

        # density of s = |X1 - X2| / 2r for two uniform points in a disk of radius r
        def density(s):
            return 16.0 * s * (math.acos(s) - s * math.sqrt(1.0 - s * s)) / math.pi

        r = 1.7
        moment, _ = quad(lambda s: s**gamma * density(s), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
        assert link_cost(1, 1, r, gamma) == pytest.approx((2.0 * r) ** gamma * moment, rel=1e-11)

    @pytest.mark.parametrize("gamma", [2.0, 2.7, 4.0])
    def test_ranks_sum_to_all_distances(self, gamma):
        # summed over ranks, the n nearest are all n nodes: n * E|X1 - X2|^gamma
        t = build_geometry_table(SystemConfig(gamma_d2d=gamma), n_max=8)
        for n in range(1, 9):
            total = t.nearest_sum(n, n)
            assert total == pytest.approx(n * t.link(1, 1), rel=1e-12)

    @pytest.mark.parametrize("r, v", [(1.0, 20.0), (1.0, 1.5), (3.0, 10.0)])
    def test_base_station_second_moment(self, r, v):
        assert base_station_cost(r, v, 2.0) == pytest.approx(v * v + r * r / 2.0, rel=1e-12)

    def test_matches_nested_adaptive_quadrature(self):
        # the n_max=3, v=15 table as nested adaptive quadrature computed it
        adaptive = {
            (1, 1): 1.6666666665463397,
            (1, 2): 0.65370798822386533,
            (2, 2): 2.6796253448705398,
            (1, 3): 0.33751746216021583,
            (2, 3): 1.2860890403460452,
            (3, 3): 3.3763934971366192,
        }
        t = build_geometry_table(SystemConfig(v=15.0), n_max=3)
        assert t.entries.keys() == adaptive.keys()
        for key, value in adaptive.items():
            assert t.entries[key] == pytest.approx(value, rel=2e-8)

    @pytest.mark.parametrize("gamma", [2.1, 3.0, 4.0])
    def test_quad_error_is_small(self, gamma):
        t = build_geometry_table(SystemConfig(gamma_d2d=gamma), n_max=8)
        assert math.isfinite(t.quad_error)
        assert 0.0 <= t.quad_error <= 1e-7

    def test_quad_error_is_not_persisted(self, table):
        again = GeometryTable.from_json(table.to_json())
        assert again.quad_error is None
        assert again == table
        assert "quad_error" not in table.to_json()

    @pytest.mark.parametrize("nodes", [32, 48])
    def test_gauss_legendre_rule(self, nodes):
        from d2dcache.geometry import _gauss_legendre

        u, w = _gauss_legendre(nodes)
        ref_u, ref_w = np.polynomial.legendre.leggauss(nodes)
        assert np.abs(u - ref_u).max() < 1e-15
        assert np.abs(w / ref_w - 1.0).max() < 1e-11
        # exact for every polynomial of degree below 2 * nodes
        for degree in (0, 2, nodes, 2 * nodes - 2):
            assert (w * u**degree).sum() == pytest.approx(2.0 / (degree + 1), rel=1e-13)
