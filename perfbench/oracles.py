"""Correctness oracles, independent of the code they check.

Everything here is the benchmark's own transcription of the paper's
closed forms and of the sampling oracles used by the acceptance suite.
It imports nothing from d2dcache, and runs outside the timed section.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

REL_TOL = 1e-9  # closed-form recomputation, relative
TV_TOL = 1e-6  # chain marginal vs Poisson(m), total variation
MC_Z = 5.0  # geometry spot check: standard errors allowed
MC_DRAWS = 200_000
SIM_FAMILY_ALPHA = 1e-5  # false-alarm rate of one Monte Carlo sweep's rows
SCHEMES = ("replication", "msr", "mbr")


# -- code parameters ------------------------------------------------------

def tradeoff_point(scheme: str, k: int, d: int) -> tuple[float, float]:
    """(alpha, beta) of an MSR or MBR code, per Dimakis et al. 2010."""
    if scheme == "msr":
        return 1.0 / k, 1.0 / (k * (d - k + 1))
    beta = 2.0 / (k * (2 * d - k + 1))
    return d * beta, beta


def candidates(replication_n: tuple[int, int], coded_n: tuple[int, int]) -> list[tuple]:
    """(scheme, n, k, d) in the order the search breaks ties: lexicographic."""
    out = [("replication", n, 1, 1) for n in range(replication_n[0], replication_n[1] + 1)]
    for scheme in ("msr", "mbr"):
        for n in range(coded_n[0], coded_n[1] + 1):
            out += [(scheme, n, k, d) for k in range(1, n) for d in range(k, n)]
    return out


# -- closed-form costs ----------------------------------------------------

class ClosedForms:
    """Cost rates at fixed (m, lam, geometry) as a + b*omega + c*sigma per code.

    ``link`` maps (q, n) to the expected D2D cost L(q, n); ``ebs`` is the
    base-station cost. Simple caching is not affine in omega and has its
    own method.
    """

    def __init__(self, link: dict, ebs: float, m: float, lam: float, codes: list[tuple]) -> None:
        self.link, self.ebs, self.m, self.lam = link, ebs, m, lam
        self.codes = list(codes)
        self.index = {c: i for i, c in enumerate(self.codes)}
        coef = np.array([self._coefficients(*c) for c in self.codes])
        self.a, self.b, self.c = coef.T  # c is also the storage cost per unit sigma

    def _coefficients(self, scheme: str, n: int, k: int, d: int) -> tuple[float, ...]:
        L, m, lam = self.link, self.m, self.lam
        if scheme == "replication":
            return n * lam * L[(1, n - 1)], (m - n) * L[(1, n)], float(n)
        alpha, beta = tradeoff_point(scheme, k, d)
        rec = n * alpha * sum(L[(i, n - 1)] for i in range(1, k))
        rec += (m - n) * alpha * sum(L[(i, n)] for i in range(1, k + 1))
        repair = n * lam * beta * sum(L[(i, n - 1)] for i in range(1, d + 1))
        return repair, rec, n * alpha

    def totals(self, omega: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Total cost of every code (columns) at every point (rows)."""
        return self.a + np.outer(omega, self.b) + np.outer(sigma, self.c)

    def simple(self, omega, sigma):
        """(total, storage) of simple caching: a renewal cycle per cached copy."""
        cycle = 1.0 / self.lam + 1.0 / (self.m * omega)
        d2d = (self.m - 1.0) * (omega / self.lam) * self.link[(1, 1)]
        return (d2d + self.ebs + sigma) / cycle, sigma / cycle

    def total(self, scheme: str, n: int, k: int, d: int, omega: float, sigma: float) -> float:
        if scheme == "simple":
            return float(self.simple(omega, sigma)[0])
        i = self.index[(scheme, n, k, d)]
        return float(self.a[i] + self.b[i] * omega + self.c[i] * sigma)


def _close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(abs(x), abs(y))


def check_design_points(forms: ClosedForms, points: list[tuple], results: list[tuple]) -> list[list[str]]:
    """Recompute each point's per-scheme optimum, winner and operator gain.

    ``points`` are (omega, sigma, theta); ``results`` are, per point,
    (winner, {scheme: (n, k, d, total)}, simple_total, gain). A choice that
    differs from the oracle's passes only if the two totals tie to REL_TOL.
    Returns the failures of each point.
    """
    omega = np.array([p[0] for p in points])
    sigma = np.array([p[1] for p in points])
    totals = forms.totals(omega, sigma)
    simple_total, _ = forms.simple(omega, sigma)
    columns = {s: [i for i, c in enumerate(forms.codes) if c[0] == s] for s in SCHEMES}
    failures = []
    for row, (point, (winner, best, prog_simple, gain)) in enumerate(zip(points, results)):
        bad = []
        ranked = []
        for scheme in SCHEMES:
            cols = columns[scheme]
            sub = totals[row, cols]
            j = int(np.argmin(sub))
            want = forms.codes[cols[j]]
            n, k, d, got_total = best[scheme]
            got = forms.index.get((scheme, n, k, d))
            if got is None:
                bad.append(f"{scheme} chose ({n},{k},{d}) outside the search range")
                continue
            if (scheme, n, k, d) != want and not _close(totals[row, got], sub[j]):
                bad.append(f"{scheme} chose ({n},{k},{d}), oracle {want[1:]}")
            if not _close(got_total, sub[j]):
                bad.append(f"{scheme} total {got_total!r} vs oracle {sub[j]!r}")
            ranked.append((float(sub[j]), scheme))
        if not _close(prog_simple, simple_total[row]):
            bad.append(f"simple total {prog_simple!r} vs oracle {simple_total[row]!r}")
        ranked.append((float(simple_total[row]), "simple"))
        if len(ranked) == 4:
            best_total, want_winner = sorted(ranked, key=lambda t: t[0])[0]
            got_total = dict((s, t) for t, s in ranked)[winner]
            if winner != want_winner and not _close(got_total, best_total):
                bad.append(f"winner {winner}, oracle {want_winner}")
            if gain is not None:
                theta = point[2]
                if winner == "simple":
                    storage = float(forms.simple(point[0], point[1])[1])
                else:
                    n, k, d, _ = best[winner]
                    storage = float(forms.c[forms.index[(winner, n, k, d)]] * point[1])
                upkeep = theta * got_total - storage * (theta - 1.0)
                want_gain = forms.m * point[0] * forms.ebs / upkeep
                if not _close(gain, want_gain):
                    bad.append(f"gain {gain!r} vs oracle {want_gain!r}")
        failures.append(bad)
    return failures


# -- geometry -------------------------------------------------------------

def check_table(link: dict, r: float, gamma: float, v: float, ebs: float, gamma_bs: float) -> list[str]:
    """Shape checks of a link-cost table, plus the exact base-station cost.

    L(q, n) is finite, positive and below (2r)^gamma, grows with the rank
    q and does not grow with the node count n. At gamma_bs = 2 the base
    station cost is E|X - V|^2 = v^2 + r^2/2 for X uniform in the disk.
    """
    bad = []
    cap = (2.0 * r) ** gamma
    for (q, n), value in link.items():
        if not (math.isfinite(value) and 0.0 < value < cap):
            bad.append(f"L({q},{n})={value!r} outside (0, {cap!r})")
        if (q + 1, n) in link and not link[(q + 1, n)] > value:
            bad.append(f"L({q + 1},{n}) does not exceed L({q},{n})")
        if (q, n + 1) in link and not link[(q, n + 1)] <= value:
            bad.append(f"L({q},{n + 1}) exceeds L({q},{n})")
    if gamma_bs == 2.0 and not _close(ebs, v * v + 0.5 * r * r):
        bad.append(f"bs_cost {ebs!r} vs exact {v * v + 0.5 * r * r!r}")
    return bad


def sampled_link_cost(q: int, n: int, r: float, gamma: float, draws: int, rng) -> tuple[float, float]:
    """Mean and standard error of the gamma-th power of the q-th nearest of
    n uniform nodes' distance to a uniform point, all in a disk of radius r."""

    def uniform_disk(count: int) -> np.ndarray:
        rad = r * np.sqrt(rng.random(count))
        ang = 2.0 * np.pi * rng.random(count)
        return rad * np.exp(1j * ang)

    point = uniform_disk(draws)
    nodes = uniform_disk(draws * n).reshape(draws, n)
    d2 = np.abs(nodes - point[:, None]) ** 2
    sample = np.partition(d2, q - 1, axis=1)[:, q - 1] ** (gamma / 2.0)
    return float(sample.mean()), float(sample.std(ddof=1) / math.sqrt(draws))


def check_sampled_entries(link: dict, r: float, gamma: float, picks: list, rng) -> list[str]:
    bad = []
    for q, n in picks:
        mean, se = sampled_link_cost(q, n, r, gamma, MC_DRAWS, rng)
        if abs(mean - link[(q, n)]) > MC_Z * se:
            bad.append(f"L({q},{n})={link[(q, n)]!r}, sampled {mean!r} +- {se!r}")
    return bad


# -- Markov chain ---------------------------------------------------------

def poisson_tv(m: float, marginal: np.ndarray) -> float:
    """Total variation between a population marginal on 0..j_max and the
    Poisson(m) law truncated to the same range."""
    j = np.arange(len(marginal))
    log_pmf = j * math.log(m) - m - np.array([math.lgamma(x + 1.0) for x in j])
    pmf = np.exp(log_pmf)
    return 0.5 * float(np.abs(marginal - pmf / pmf.sum()).sum())


# -- Monte Carlo sweep ----------------------------------------------------

SIM_COLUMNS = (
    "method,n,k,d,omega,sigma,reconstruction,repair,storage,total,ci95,seed,horizon,fidelity,"
    "counters.requests,counters.bs_downloads,counters.repairs,counters.arrivals,"
    "counters.departures,counters.repair_starvations"
).split(",")


def sim_tolerance_factor(reps: int, rows: int) -> float:
    """Multiple of a row's ci95 within which the analytic total must lie.

    ci95 is the t(reps-1) 97.5% quantile times the standard error; the
    factor rescales it to the two-sided level SIM_FAMILY_ALPHA / rows
    (Bonferroni), so a correct sweep fails with probability SIM_FAMILY_ALPHA.
    """
    df = reps - 1
    return stats.t.ppf(1.0 - SIM_FAMILY_ALPHA / (2.0 * rows), df) / stats.t.ppf(0.975, df)


def check_sim_csv(text: str, forms: ClosedForms, expect: dict) -> list[str]:
    """Schema, row count and analytic agreement of a simulate_sweep.csv.

    ``expect`` holds the sweep's omegas, sigma, methods, horizon, reps and
    fidelity. Each row's total must agree with the closed form of its code
    within sim_tolerance_factor * ci95.
    """
    lines = text.rstrip("\n").split("\n")
    if lines[0].split(",") != SIM_COLUMNS:
        return [f"header {lines[0]!r}"]
    rows = [dict(zip(SIM_COLUMNS, line.split(","))) for line in lines[1:]]
    want_rows = len(expect["omegas"]) * len(expect["methods"])
    if len(rows) != want_rows:
        return [f"{len(rows)} rows, expected {want_rows}"]
    factor = sim_tolerance_factor(expect["reps"], want_rows)
    bad = []
    seen = set()
    for row in rows:
        scheme, omega = row["method"], float(row["omega"])
        n, k, d = int(row["n"]), int(row["k"]), int(row["d"])
        seen.add((scheme, min(expect["omegas"], key=lambda w: abs(w - omega))))
        if row["fidelity"] != expect["fidelity"] or float(row["horizon"]) != expect["horizon"]:
            bad.append(f"row {row['method']}@{omega}: fidelity/horizon {row['fidelity']}/{row['horizon']}")
        parts = [float(row[c]) for c in ("reconstruction", "repair", "storage")]
        total, ci = float(row["total"]), float(row["ci95"])
        if not (math.isfinite(total) and math.isfinite(ci) and ci >= 0.0):
            bad.append(f"row {scheme}@{omega}: total {total!r}, ci95 {ci!r}")
            continue
        if not _close(sum(parts), total, 1e-12):
            bad.append(f"row {scheme}@{omega}: components sum {sum(parts)!r} != total {total!r}")
        analytic = forms.total(scheme, n, k, d, omega, float(row["sigma"]))
        if abs(total - analytic) > factor * ci:
            bad.append(
                f"row {scheme}({n},{k},{d})@{omega}: simulated {total!r} +- {ci!r}, "
                f"analytic {analytic!r}, allowed {factor:.2f} x ci95"
            )
    want = {(s, w) for s in expect["methods"] for w in expect["omegas"]}
    if seen != want:
        bad.append(f"rows cover {sorted(seen)}, expected {sorted(want)}")
    return bad
