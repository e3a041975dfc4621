"""Numeric anchors the artifact must reproduce.

Each criterion is a standalone check with a pinned tolerance. They are
exposed as plain functions so both the test suite and the `verify` CLI
subcommand run the same code. Shared geometry tables are cached per
process; the heavy criteria are the sampling oracles (6) and the
simulator sweep (7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .codes import Scheme, make_code, mbr_point, msr_point
from .cost_model import SystemConfig, method_cost, operator_gain
from .geometry import GeometryTable, base_station_cost, build_geometry_table, link_cost
from .markov import (
    PopulationDistribution,
    poisson_tail_at_or_below,
    simple_caching_steady_state,
    zeta_recursion_residual,
)
from .optimizer import SearchRanges, best_method, optimize
from .simulator import SimConfig, simulate


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def _cfg(sigma: float, omega: float, v: float = 20.0, theta: float = 1.0) -> SystemConfig:
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # omega = 1 grid point trips the regime warning
        return SystemConfig(
            m=100.0, lam=1.0, omega=omega, r=1.0, v=v,
            gamma_d2d=4.0, gamma_bs=2.0, sigma=sigma, theta=theta,
        )


@lru_cache(maxsize=None)
def default_table(v: float = 20.0) -> GeometryTable:
    return build_geometry_table(_cfg(2.0, 0.01, v=v), n_max=6)


def table_i_reproduction() -> CriterionResult:
    expected = [
        (-3.5, 41.1, Scheme.MBR),
        (-3.0, 80.1, Scheme.MSR),
        (-2.5, 92.3, Scheme.MSR),
        (-2.0, 96.2, Scheme.MSR),
        (-1.5, 97.3, Scheme.MSR),
        (-1.0, 97.4, Scheme.MSR),
        (-0.5, 96.7, Scheme.MSR),
        (0.0, 96.1, Scheme.REPLICATION),
    ]
    geom = default_table()
    ranges = SearchRanges()
    rows = []
    savings_ok = True
    method_hits = 0
    for lw, want_pct, want_method in expected:
        cmp = best_method(_cfg(2.0, 10.0**lw), ranges, geom)
        got_pct = 100.0 * cmp.savings_vs_simple
        if abs(got_pct - want_pct) > 1.5:
            savings_ok = False
        if cmp.winner == want_method:
            method_hits += 1
        rows.append(f"{lw}:{got_pct:.1f}%/{cmp.winner.value}")
    passed = savings_ok and method_hits >= 7
    return CriterionResult(
        1, "table-i-savings-and-methods", passed,
        f"method matches {method_hits}/8; " + " ".join(rows),
    )


def table_ii_reproduction() -> CriterionResult:
    expected = {-2.0: 35.8, -1.5: 35.1, -1.0: 33.0, -0.5: 26.9, 0.0: 16.9}
    geom = default_table()
    ranges = SearchRanges()
    rows = []
    passed = True
    for lw, want_pct in expected.items():
        cfg = _cfg(100.0, 10.0**lw)
        rep = optimize(cfg, Scheme.REPLICATION, ranges, geom)
        msr = optimize(cfg, Scheme.MSR, ranges, geom)
        got_pct = 100.0 * (1.0 - msr.cost.total / rep.cost.total)
        if abs(got_pct - want_pct) > 1.5:
            passed = False
        rows.append(f"{lw}:{got_pct:.1f}%")
    return CriterionResult(2, "table-ii-msr-vs-replication", passed, " ".join(rows))


def poisson_tail_anchor() -> CriterionResult:
    tail = poisson_tail_at_or_below(100.0, 6)
    passed = 3.7e-35 <= tail <= 8.3e-35
    return CriterionResult(3, "poisson-tail-m100-n6", passed, f"tail={tail:.3e}")


def operator_gain_anchor() -> CriterionResult:
    ranges = SearchRanges()

    def log_gain(omega: float, v: float) -> float:
        cfg = _cfg(100.0, omega, v=v, theta=1.0)
        msr = optimize(cfg, Scheme.MSR, ranges, default_table(v))
        return math.log10(operator_gain(cfg, msr.cost, default_table(v)))

    anchor = log_gain(0.1, 20.0)
    lifts = [log_gain(w, 20.0) - log_gain(w, 10.0) for w in (1e-2, 1e-1)]
    passed = abs(anchor - 1.5) <= 0.2 and all(abs(l - 0.5) <= 0.15 for l in lifts)
    return CriterionResult(
        4, "operator-gain", passed,
        f"log10G(w=.1,v=20)={anchor:.3f}; lifts={[f'{l:.3f}' for l in lifts]}",
    )


def optimal_parameter_checks() -> CriterionResult:
    geom = default_table()
    ranges = SearchRanges()
    rep_ns = {
        optimize(_cfg(0.01, 10.0**lw), Scheme.REPLICATION, ranges, geom).best.n
        for lw in np.linspace(-3.0, 0.0, 13)
    }
    rep_ok = rep_ns == {6}

    high = optimize(_cfg(100.0, 0.1), Scheme.MSR, ranges, geom).best
    high_ok = (high.n, high.k, high.d) == (6, 5, 5)

    grid = np.linspace(-4.0, 0.0, 33)
    dk_hits = sum(
        1
        for lw in grid
        if (b := optimize(_cfg(100.0, 10.0**lw), Scheme.MSR, ranges, geom).best).d == b.k
    )
    dk_ok = dk_hits >= 0.9 * len(grid)
    passed = rep_ok and high_ok and dk_ok
    return CriterionResult(
        5, "optimal-parameters", passed,
        f"rep n*={sorted(rep_ns)}; high-omega MSR=({high.n},{high.k},{high.d}); "
        f"d=k on {dk_hits}/{len(grid)} grid points",
    )


def sample_link_cost(
    q: int, n: int, r: float, gamma: float, draws: int, rng: np.random.Generator
) -> float:
    """Monte Carlo oracle for link_cost: q-th nearest powered distance."""

    def uniform_disk(count: int) -> tuple[np.ndarray, np.ndarray]:
        rad = r * np.sqrt(rng.random(count))
        ang = 2.0 * np.pi * rng.random(count)
        return rad * np.cos(ang), rad * np.sin(ang)

    px, py = uniform_disk(draws)
    nx, ny = uniform_disk(draws * n)
    d2 = (nx.reshape(draws, n) - px[:, None]) ** 2 + (ny.reshape(draws, n) - py[:, None]) ** 2
    d2.sort(axis=1)
    return float(np.mean(d2[:, q - 1] ** (gamma / 2.0)))


def geometry_oracle_suite() -> CriterionResult:
    ok_unit = abs(link_cost(1, 1, 1.0, 2.0) - 1.0) <= 1e-6
    ok_bs = abs(base_station_cost(1.0, 20.0, 2.0) - 400.5) <= 1e-6

    rng = np.random.default_rng(20160901)
    geom = default_table()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, n + 1))
        gamma = float(rng.choice([2.0, 4.0]))
        exact = link_cost(q, n, 1.0, gamma) if gamma != 4.0 else geom.link(q, n)
        sampled = sample_link_cost(q, n, 1.0, gamma, 2_000_000, rng)
        worst = max(worst, abs(sampled / exact - 1.0))
    passed = ok_unit and ok_bs and worst <= 0.01
    return CriterionResult(
        6, "geometry-oracles", passed,
        f"unit={ok_unit} bs={ok_bs} worst sampling deviation={100 * worst:.3f}%",
    )


def simulator_agreement() -> CriterionResult:
    geom = default_table()
    methods = {
        "simple": make_code(Scheme.SIMPLE, 1),
        "replication": make_code(Scheme.REPLICATION, 3),
        "msr": make_code(Scheme.MSR, 6, 5, 5),
        "mbr": make_code(Scheme.MBR, 5, 3, 4),
    }
    rows = []
    passed = True
    for name, code in methods.items():
        for omega in (1e-3, 1e-2, 1e-1):
            cfg = _cfg(2.0, omega)
            analytic = method_cost(cfg, code, geom).total
            results = {}
            # fidelity cross-check only at the default request rate: at
            # omega = 1e-3 a single 1e4-horizon run of simple caching has
            # ~3% coefficient of variation, so comparing two independent
            # runs there tests noise, not agreement
            fidelities = ("chain", "spatial") if omega == 1e-2 else ("chain",)
            for fidelity in fidelities:
                sim = simulate(
                    SimConfig(system=cfg, method=code, horizon=1e4, seed=7, fidelity=fidelity),
                    geom,
                )
                results[fidelity] = sim.cost.total
            chain_dev = abs(results["chain"] / analytic - 1.0)
            if chain_dev > 0.05:
                passed = False
            row = f"{name}@{omega:g}: chain {100 * chain_dev:.1f}%"
            if "spatial" in results:
                fid_dev = abs(results["spatial"] / results["chain"] - 1.0)
                if fid_dev > 0.03:
                    passed = False
                row += f", fid {100 * fid_dev:.1f}%"
            rows.append(row)
    return CriterionResult(7, "simulator-vs-analytic", passed, "; ".join(rows))


def code_parameter_identities() -> CriterionResult:
    passed = True
    for d in range(1, 17):
        for k in range(1, d + 1):
            a_msr, b_msr, g_msr = msr_point(k, d)
            a_mbr, b_mbr, g_mbr = mbr_point(k, d)
            # extremal ordering, checked with exact rational arithmetic
            fa_msr, fg_msr = Fraction(1, k), Fraction(d, k * (d - k + 1))
            fa_mbr = Fraction(2 * d, k * (2 * d - k + 1))
            if not (fa_msr <= fa_mbr and fa_mbr <= fg_msr):
                passed = False
            if a_mbr != g_mbr:
                passed = False
            if d == k and g_msr != 1.0:
                passed = False
            if g_msr != d * b_msr or g_mbr != d * b_mbr:
                passed = False
    return CriterionResult(8, "code-parameter-identities", passed, "exhaustive k<=d<=16")


def markov_validation() -> CriterionResult:
    state = simple_caching_steady_state(m=100.0, omega=0.01, lam=1.0, j_max=300)
    residual = zeta_recursion_residual(state)
    marginal = state.upper + state.lower
    pi = PopulationDistribution.from_mean(100.0, j_max=300).probs
    tv = 0.5 * float(np.abs(marginal - pi).sum())
    passed = residual < 1e-8 and tv < 1e-6
    return CriterionResult(
        9, "markov-validation", passed, f"zeta residual={residual:.2e}, marginal TV={tv:.2e}"
    )


CRITERIA = {
    1: table_i_reproduction,
    2: table_ii_reproduction,
    3: poisson_tail_anchor,
    4: operator_gain_anchor,
    5: optimal_parameter_checks,
    6: geometry_oracle_suite,
    7: simulator_agreement,
    8: code_parameter_identities,
    9: markov_validation,
}


def run_criterion(number: int) -> CriterionResult:
    return CRITERIA[number]()
