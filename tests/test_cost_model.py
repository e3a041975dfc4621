import dataclasses
import math

import pytest

from d2dcache.codes import Scheme, make_code
from d2dcache.cost_model import (
    SystemConfig,
    downlink_cost,
    fetches,
    method_cost,
    operator_gain,
    simple_caching_cost,
    upkeep_cost,
)
from d2dcache.geometry import build_geometry_table


@pytest.fixture(scope="module")
def geom():
    return build_geometry_table(SystemConfig(), n_max=6)


class TestSystemConfig:
    def test_defaults_round_trip(self):
        cfg = SystemConfig()
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(m=1.0)
        with pytest.raises(ValueError):
            SystemConfig(omega=0.0)
        with pytest.raises(ValueError):
            SystemConfig(r=2.0, v=1.0)
        with pytest.raises(ValueError):
            SystemConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(theta=0.0)
        for name in SystemConfig().to_dict():
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    SystemConfig(**{name: bad})

    def test_warns_above_failure_rate(self):
        with pytest.warns(UserWarning, match="low-popularity") as record:
            SystemConfig(omega=2.0, lam=1.0)
        # the warning points at the caller, not into the dataclass __init__
        assert record[0].filename == __file__


class TestCostFormulas:
    def test_total_is_component_sum(self, geom):
        cfg = SystemConfig()
        for code in [
            make_code(Scheme.SIMPLE),
            make_code(Scheme.REPLICATION, 3),
            make_code(Scheme.MSR, 6, 5, 5),
            make_code(Scheme.MBR, 5, 3, 4),
        ]:
            c = method_cost(cfg, code, geom)
            assert c.total == c.reconstruction + c.repair + c.storage

    def test_simple_caching_closed_form(self, geom):
        cfg = SystemConfig()
        c = simple_caching_cost(cfg, geom)
        cycle = 1.0 / cfg.lam + 1.0 / (cfg.m * cfg.omega)
        assert c.reconstruction == pytest.approx(
            ((cfg.m - 1) * cfg.omega * geom.link(1, 1) + geom.bs_cost) / cycle
        )
        assert c.storage == pytest.approx(cfg.sigma / cycle)
        assert c.repair == 0.0

    def test_replication_closed_form(self, geom):
        cfg = SystemConfig()
        c = method_cost(cfg, make_code(Scheme.REPLICATION, 3), geom)
        # the (n, 1, 1) code reproduces the replication products to the last bit
        assert c.reconstruction == (cfg.m - 3) * cfg.omega * geom.link(1, 3)
        assert c.repair == 3 * cfg.lam * geom.link(1, 2)
        assert c.storage == 3 * cfg.sigma

    def test_single_unit_code_matches_replication(self, geom):
        # an (n, k=1, d=1) code moves whole copies, like replication
        cfg = SystemConfig()
        for n in (3, 4, 6):
            coded = method_cost(cfg, make_code(Scheme.MSR, n, 1, 1), geom)
            rep = method_cost(cfg, make_code(Scheme.REPLICATION, n), geom)
            assert coded.reconstruction == pytest.approx(rep.reconstruction)
            assert coded.repair == pytest.approx(rep.repair)
            assert coded.storage == pytest.approx(rep.storage)

    def test_storage_slope_in_sigma(self, geom):
        # d(total)/d(sigma) is the stored volume n * alpha
        code = make_code(Scheme.MBR, 5, 3, 4)
        lo = method_cost(SystemConfig(sigma=1.0), code, geom)
        hi = method_cost(SystemConfig(sigma=3.0), code, geom)
        assert hi.total - lo.total == pytest.approx(2.0 * 5 * code.alpha)
        assert hi.reconstruction == lo.reconstruction
        assert hi.repair == lo.repair

    def test_rate_scaling(self, geom):
        # scaling both rates by c scales every transmission cost rate by c
        code = make_code(Scheme.MSR, 6, 5, 5)
        base = method_cost(SystemConfig(sigma=0.0), code, geom)
        scaled = method_cost(SystemConfig(lam=2.0, omega=0.02, sigma=0.0), code, geom)
        assert scaled.reconstruction == pytest.approx(2.0 * base.reconstruction)
        assert scaled.repair == pytest.approx(2.0 * base.repair)

    def test_replication_degree_bounds(self, geom):
        with pytest.raises(ValueError):
            method_cost(SystemConfig(), make_code(Scheme.REPLICATION, 1), geom)
        with pytest.raises(ValueError):
            method_cost(SystemConfig(m=5.0), make_code(Scheme.REPLICATION, 5), geom)


class TestFetchRule:
    def test_regenerating_code(self):
        code = make_code(Scheme.MBR, 5, 3, 4)
        storage_req, empty_req, repair = fetches(code)
        assert storage_req == (code.alpha, 2, 4)  # k-1 nearest of the n-1 others
        assert empty_req == (code.alpha, 3, 5)  # k nearest of n
        assert repair == (code.beta, 4, 4)  # d nearest of the n-1 survivors

    def test_replication_moves_whole_copies(self):
        # a storage node holds the file; others fetch one copy from the nearest
        assert fetches(make_code(Scheme.REPLICATION, 3)) == ((1.0, 0, 2), (1.0, 1, 3), (1.0, 1, 2))


class TestOperatorEconomics:
    def test_downlink_closed_form(self, geom):
        # m * omega * (v^2 + r^2 / 2) for the squared-distance uplink exponent
        cfg = SystemConfig(omega=0.1)
        assert downlink_cost(cfg, geom) == pytest.approx(100.0 * 0.1 * 400.5, rel=1e-9)
        assert downlink_cost(cfg) == pytest.approx(downlink_cost(cfg, geom), rel=1e-9)

    def test_upkeep_weights(self, geom):
        cfg = SystemConfig(theta=3.0)
        c = method_cost(cfg, make_code(Scheme.REPLICATION, 3), geom)
        assert upkeep_cost(cfg, c) == pytest.approx(
            3.0 * (c.reconstruction + c.repair) + c.storage
        )
        unit = dataclasses.replace(cfg, theta=1.0)
        assert upkeep_cost(unit, c) == pytest.approx(c.total)

    def test_gain_decreases_with_theta(self, geom):
        gains = []
        for theta in [1.0, 2.0, 4.0, 8.0]:
            cfg = SystemConfig(omega=0.1, theta=theta)
            gains.append(operator_gain(cfg, method_cost(cfg, make_code(Scheme.REPLICATION, 3), geom), geom))
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_gain_positive_definition(self, geom):
        cfg = SystemConfig(omega=0.1)
        c = method_cost(cfg, make_code(Scheme.REPLICATION, 3), geom)
        assert operator_gain(cfg, c, geom) == pytest.approx(
            downlink_cost(cfg, geom) / upkeep_cost(cfg, c)
        )
