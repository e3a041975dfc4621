import dataclasses

import pytest

from d2dcache.codes import Scheme, make_code
from d2dcache.cost_model import SystemConfig, method_cost
from d2dcache.geometry import GeometryTable, build_geometry_table
from d2dcache.optimizer import SearchRanges, best_method, candidates, optimize


@pytest.fixture(scope="module")
def geom():
    return build_geometry_table(SystemConfig(), n_max=6)


class TestCandidateEnumeration:
    def test_replication_range(self):
        cands = candidates(Scheme.REPLICATION, SearchRanges(replication_n=(2, 6)))
        assert [c.n for c in cands] == [2, 3, 4, 5, 6]

    def test_coded_count_small_range(self):
        # n=3 admits (k,d) in {(1,1),(1,2),(2,2)}
        cands = candidates(Scheme.MSR, SearchRanges(coded_n=(3, 3)))
        assert [(c.n, c.k, c.d) for c in cands] == [(3, 1, 1), (3, 1, 2), (3, 2, 2)]

    def test_coded_count_default_range(self):
        cands = candidates(Scheme.MBR, SearchRanges())
        # sum over n of n(n-1)/2 feasible (k, d) pairs
        assert len(cands) == sum(n * (n - 1) // 2 for n in range(3, 7))

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SearchRanges(replication_n=(4, 2))


class TestOptimization:
    def test_replication_matches_brute_force(self, geom):
        cfg = SystemConfig(omega=0.01, sigma=0.01)
        res = optimize(cfg, Scheme.REPLICATION, SearchRanges(), geom)
        brute = min(
            (method_cost(cfg, make_code(Scheme.REPLICATION, n), geom).total, n) for n in range(2, 7)
        )
        assert res.cost.total == pytest.approx(brute[0])
        assert res.best.n == brute[1]

    def test_regenerating_matches_brute_force(self, geom):
        for omega in (0.01, 0.1):
            cfg = SystemConfig(omega=omega, sigma=100.0)
            res = optimize(cfg, Scheme.MSR, SearchRanges(), geom)
            brute = min(
                (method_cost(cfg, c, geom).total, (c.n, c.k, c.d))
                for c in candidates(Scheme.MSR, SearchRanges())
            )
            assert res.cost.total == pytest.approx(brute[0])
            assert (res.best.n, res.best.k, res.best.d) == brute[1]

    def test_forced_single_candidate(self, geom):
        cfg = SystemConfig()
        res = optimize(cfg, Scheme.REPLICATION, SearchRanges(replication_n=(4, 4)), geom)
        assert res.best.n == 4
        assert len(res.frontier) == 1

    def test_frontier_covers_all_candidates(self, geom):
        res = optimize(SystemConfig(), Scheme.MBR, SearchRanges(), geom)
        assert len(res.frontier) == len(candidates(Scheme.MBR, SearchRanges()))
        assert min(t for _, t in res.frontier) == pytest.approx(res.cost.total)

    def test_deterministic(self, geom):
        cfg = SystemConfig(omega=0.1)
        a = optimize(cfg, Scheme.MSR, SearchRanges(), geom)
        b = optimize(cfg, Scheme.MSR, SearchRanges(), geom)
        assert a == b

    def test_rescaling_argmin_invariance(self, geom):
        # multiplying both rates by the same factor rescales all transmission
        # terms equally, so with sigma=0 the optimal parameters are unchanged
        lo = SystemConfig(omega=0.01, sigma=0.0)
        hi = SystemConfig(omega=0.05, lam=5.0, sigma=0.0)
        for scheme in (Scheme.MSR, Scheme.MBR):
            a = optimize(lo, scheme, SearchRanges(), geom)
            b = optimize(hi, scheme, SearchRanges(), geom)
            assert a.best == b.best

    def test_ties_go_to_smallest_parameters(self):
        # free links and free storage make every candidate cost 0
        entries = {(q, n): 0.0 for n in range(1, 7) for q in range(1, n + 1)}
        zero = GeometryTable(
            r=1.0, gamma_d2d=4.0, gamma_bs=2.0, v=20.0, bs_cost=1.0, entries=entries
        )
        cfg = SystemConfig(sigma=0.0)
        assert optimize(cfg, Scheme.REPLICATION, SearchRanges(), zero).best.n == 2
        for scheme in (Scheme.MSR, Scheme.MBR):
            best = optimize(cfg, scheme, SearchRanges(), zero).best
            assert (best.n, best.k, best.d) == (3, 1, 1)
        # replication, MSR and MBR all cost 0; replication comes first among them
        assert best_method(cfg, SearchRanges(), zero).winner is Scheme.REPLICATION

    def test_requires_coded_scheme(self, geom):
        # replication is the (n, 1, 1) code; simple caching has nothing to search
        with pytest.raises(ValueError, match="simple"):
            optimize(SystemConfig(), Scheme.SIMPLE, SearchRanges(), geom)
        with pytest.raises(ValueError, match="simple"):
            candidates(Scheme.SIMPLE, SearchRanges())

    def test_search_clipped_below_m(self, geom):
        cfg = SystemConfig(m=5.0)
        res = optimize(cfg, Scheme.MSR, SearchRanges(), geom)
        assert max(code.n for code, _ in res.frontier) == 4
        assert len(res.frontier) == 3 + 6  # n = 3 and n = 4
        rep = optimize(cfg, Scheme.REPLICATION, SearchRanges(), geom)
        assert [code.n for code, _ in rep.frontier] == [2, 3, 4]
        with pytest.raises(ValueError, match="mbr.*m=3"):
            optimize(SystemConfig(m=3.0), Scheme.MBR, SearchRanges(), geom)


class TestBestMethod:
    def test_winner_is_global_minimum(self, geom):
        cfg = SystemConfig(omega=0.01)
        cmp = best_method(cfg, SearchRanges(), geom)
        totals = {
            Scheme.SIMPLE: cmp.simple.total,
            Scheme.REPLICATION: cmp.replication.cost.total,
            Scheme.MSR: cmp.msr.cost.total,
            Scheme.MBR: cmp.mbr.cost.total,
        }
        assert totals[cmp.winner] == min(totals.values())
        assert cmp.savings_vs_simple == pytest.approx(
            1.0 - totals[cmp.winner] / cmp.simple.total
        )

    def test_simple_wins_when_redundancy_is_hopeless(self, geom):
        # crushing storage price with rare requests favors not pre-storing
        cfg = SystemConfig(omega=0.001, sigma=1e6)
        cmp = best_method(cfg, SearchRanges(), geom)
        assert cmp.winner is Scheme.SIMPLE
        assert cmp.savings_vs_simple == 0.0

    def test_savings_increase_with_request_rate(self, geom):
        rows = []
        for omega in (0.001, 0.01, 0.1):
            cfg = SystemConfig(omega=omega)
            rows.append(best_method(cfg, SearchRanges(), geom).savings_vs_simple)
        assert rows[0] < rows[1] < rows[2]
