import math
from dataclasses import replace

import pytest

from d2dcache.codes import Scheme, make_code
from d2dcache.cost_model import SystemConfig, method_cost, simple_caching_cost
from d2dcache.geometry import build_geometry_table
from d2dcache.simulator import COUNTER_NAMES, SimConfig, replicate, simulate


@pytest.fixture(scope="module")
def geom():
    return build_geometry_table(SystemConfig(), n_max=6)


def run(geom, code, omega=0.01, sigma=2.0, horizon=2000.0, seed=1, fidelity="chain", **kw):
    system = SystemConfig(omega=omega, sigma=sigma)
    cfg = SimConfig(system=system, method=code, horizon=horizon, seed=seed, fidelity=fidelity, **kw)
    return system, simulate(cfg, geom)


class TestConfigValidation:
    def test_rejects_bad_controls(self):
        sys_cfg = SystemConfig()
        code = make_code(Scheme.REPLICATION, 3)
        with pytest.raises(ValueError):
            SimConfig(system=sys_cfg, method=code, horizon=0.0)
        with pytest.raises(ValueError):
            SimConfig(system=sys_cfg, method=code, warmup=1.0)
        with pytest.raises(ValueError):
            SimConfig(system=sys_cfg, method=code, fidelity="exact")

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, horizon):
        # a run to an infinite (or NaN) horizon never ends
        with pytest.raises(ValueError, match="finite"):
            SimConfig(system=SystemConfig(), method=make_code(Scheme.SIMPLE), horizon=horizon)


class TestDeterminismAndCounters:
    @pytest.mark.parametrize("fidelity", ["chain", "spatial"])
    def test_bitwise_reproducible(self, geom, fidelity):
        code = make_code(Scheme.MSR, 6, 5, 5)
        _, a = run(geom, code, horizon=300.0, seed=42, fidelity=fidelity)
        _, b = run(geom, code, horizon=300.0, seed=42, fidelity=fidelity)
        assert a == b

    def test_seed_changes_output(self, geom):
        code = make_code(Scheme.REPLICATION, 3)
        _, a = run(geom, code, horizon=300.0, seed=1)
        _, b = run(geom, code, horizon=300.0, seed=2)
        assert a.cost.total != b.cost.total

    def test_counters_consistent(self, geom):
        code = make_code(Scheme.MBR, 5, 3, 4)
        _, res = run(geom, code, horizon=500.0)
        c = res.counters
        assert set(c) == set(COUNTER_NAMES)
        assert all(v >= 0 for v in c.values())
        # every starvation is eventually repaired by an arrival, and every
        # covered storage departure is repaired immediately
        assert c["repairs"] <= c["departures"] + c["arrivals"]
        assert abs(c["arrivals"] - c["departures"]) <= 4 * 100  # population stays near m

    def test_simple_counters(self, geom):
        code = make_code(Scheme.SIMPLE)
        _, res = run(geom, code, horizon=500.0)
        assert res.counters["bs_downloads"] <= res.counters["requests"]
        assert res.counters["repairs"] == 0

    @pytest.mark.parametrize("reps", [1, 3])
    def test_cost_is_a_breakdown_of_the_method(self, geom, reps):
        code = make_code(Scheme.MBR, 5, 3, 4)
        cfg = SimConfig(system=SystemConfig(), method=code, horizon=200.0, seed=2)
        res = replicate(cfg, reps, geom) if reps > 1 else simulate(cfg, geom)
        c = res.cost
        assert c.method == code
        assert c.total == c.reconstruction + c.repair + c.storage

    def test_mean_population(self, geom):
        code = make_code(Scheme.REPLICATION, 3)
        _, res = run(geom, code, horizon=2000.0)
        assert res.mean_population == pytest.approx(100.0, rel=0.02)


class TestAgainstClosedForms:
    def test_replication_repair_isolated(self, geom):
        # with requests switched (effectively) off and free storage, the cost
        # rate is pure repair: n * lam * L(1, n-1)
        system = SystemConfig(omega=1e-9, sigma=0.0)
        code = make_code(Scheme.REPLICATION, 4)
        cfg = SimConfig(system=system, method=code, horizon=4000.0, seed=3)
        res = simulate(cfg, geom)
        assert res.cost.reconstruction == pytest.approx(0.0, abs=1e-6)
        assert res.cost.total == pytest.approx(4.0 * geom.link(1, 3), rel=0.03)

    @pytest.mark.parametrize(
        "code",
        [
            make_code(Scheme.REPLICATION, 3),
            make_code(Scheme.MSR, 6, 5, 5),
            make_code(Scheme.MBR, 5, 3, 4),
        ],
        ids=lambda c: f"{c.scheme.value}-{c.n}-{c.k}-{c.d}",
    )
    def test_chain_fidelity_tracks_analytic(self, geom, code):
        system, res = run(geom, code, omega=0.01, horizon=4000.0, seed=5)
        analytic = method_cost(system, code, geom)
        assert res.cost.total == pytest.approx(analytic.total, rel=0.05)

    def test_spatial_fidelity_tracks_chain(self, geom):
        code = make_code(Scheme.MSR, 6, 5, 5)
        system, chain = run(geom, code, omega=0.1, horizon=4000.0, seed=5)
        _, spatial = run(geom, code, omega=0.1, horizon=4000.0, seed=5, fidelity="spatial")
        assert spatial.cost.total == pytest.approx(chain.cost.total, rel=0.05)

    def test_simple_chain_tracks_analytic(self, geom):
        code = make_code(Scheme.SIMPLE)
        system, res = run(geom, code, omega=0.1, horizon=4000.0, seed=5)
        analytic = simple_caching_cost(system, geom)
        assert res.cost.total == pytest.approx(analytic.total, rel=0.05)

    def test_storage_component_rate(self, geom):
        # storage accrues at n * alpha * sigma while no slot is starved
        code = make_code(Scheme.MBR, 5, 3, 4)
        system, res = run(geom, code, omega=0.01, sigma=10.0, horizon=2000.0)
        expected = 5 * code.alpha * 10.0
        assert res.cost.storage == pytest.approx(expected, rel=0.01)


class TestReplicate:
    def test_identical_seeds_collapse_interval(self, geom):
        code = make_code(Scheme.REPLICATION, 3)
        cfg = SimConfig(system=SystemConfig(), method=code, horizon=200.0, seed=0)
        res = replicate(cfg, 3, geom, seeds=[9, 9, 9])
        assert res.ci95_halfwidth == pytest.approx(0.0, abs=1e-12)

    def test_interval_covers_analytic(self, geom):
        code = make_code(Scheme.MSR, 6, 5, 5)
        system = SystemConfig(omega=0.01)
        cfg = SimConfig(system=system, method=code, horizon=1000.0, seed=0)
        res = replicate(cfg, 8, geom)
        analytic = method_cost(system, code, geom).total
        assert abs(res.cost.total - analytic) <= 5.0 * res.ci95_halfwidth
        assert res.counters["requests"] > 0

    def test_interval_is_student_t(self, geom):
        from scipy.stats import t

        code = make_code(Scheme.REPLICATION, 3)
        cfg = SimConfig(system=SystemConfig(), method=code, horizon=200.0, seed=0)
        seeds = [1, 2, 3, 4]
        res = replicate(cfg, 4, geom, seeds=seeds)
        totals = [simulate(replace(cfg, seed=s), geom).cost.total for s in seeds]
        mean = sum(totals) / 4
        std = math.sqrt(sum((x - mean) ** 2 for x in totals) / 3)
        assert res.ci95_halfwidth == pytest.approx(t.ppf(0.975, 3) * std / 2.0, rel=1e-12)

    def test_derived_seeds_reproducible(self, geom):
        code = make_code(Scheme.REPLICATION, 3)
        cfg = SimConfig(system=SystemConfig(), method=code, horizon=200.0, seed=4)
        a = replicate(cfg, 3, geom)
        b = replicate(cfg, 3, geom)
        assert a == b

    def test_interval_shrinks_with_horizon(self, geom):
        # doubling the horizon should usually tighten the interval
        code = make_code(Scheme.REPLICATION, 3)
        wins = 0
        for trial in range(10):
            short = SimConfig(system=SystemConfig(), method=code, horizon=150.0, seed=trial)
            long = SimConfig(system=SystemConfig(), method=code, horizon=300.0, seed=trial)
            if replicate(long, 4, geom).ci95_halfwidth < replicate(short, 4, geom).ci95_halfwidth:
                wins += 1
        assert wins >= 7

    def test_rejects_degenerate_requests(self, geom):
        code = make_code(Scheme.REPLICATION, 3)
        cfg = SimConfig(system=SystemConfig(), method=code, horizon=200.0)
        with pytest.raises(ValueError):
            replicate(cfg, 1, geom)
        with pytest.raises(ValueError):
            replicate(cfg, 3, geom, seeds=[1, 2])
