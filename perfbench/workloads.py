"""The benchmark's workloads.

Each workload draws its inputs from the benchmark seed, hands the program
only those inputs, and keeps a compact record of every operation so the
oracles can check it after the timed section. Operation i uses input
``key(i)``; operations with equal keys must give identical records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GAMMA_JITTER = 0.01


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    unit = ""  # what one unit of work_per_s is
    setup_reps = 3

    def __init__(self, dc, seed: int, tmp: Path) -> None:
        self.dc = dc
        self.rng = random.Random(seed)
        self.tmp = tmp

    def setup(self) -> None:
        """Work a user does once before the first operation."""

    def key(self, i: int):
        return i

    def op(self, i: int):
        raise NotImplementedError

    def record(self, i: int, raw):
        """Untimed: reduce an operation's output to what the checks need."""
        return raw

    def fingerprint(self, rec):
        """What two operations on the same input must agree on exactly."""
        return rec

    def work(self, i: int) -> float:
        return 1.0

    def check(self, done: list[tuple[int, object]]) -> dict[int, list[str]]:
        """Failures per operation index."""
        return {}

    def describe(self) -> str:
        return ""


class ColdConfig(Workload):
    """A user bringing up new clusters, each with its own geometry."""

    name = "cold-config"
    unit = "configs"
    N_MAX = 8
    OMEGAS = 3  # best_method calls per config
    MS = (50.0, 100.0, 200.0)
    MC_PICKS = 2  # sampled table entries per config

    def __init__(self, dc, seed, tmp):
        super().__init__(dc, seed, tmp)
        # gamma_d2d follows a golden-ratio sequence over [2, 4] with a small
        # seeded jitter, so that every run covers the range alike, whatever
        # its length, and no two configs share a table; m cycles through MS.
        self._inputs: list[dict] = []

    def _input(self, i: int) -> dict:
        while len(self._inputs) <= i:
            j = len(self._inputs)
            omegas = sorted(log_uniform(self.rng, 1e-4, 1e-1) for _ in range(self.OMEGAS))
            self._inputs.append(
                {
                    "m": self.MS[j % len(self.MS)],
                    "gamma_d2d": 2.0 + 2.0 * ((j * GOLDEN + self.rng.uniform(0.0, GAMMA_JITTER)) % 1.0),
                    "v": self.rng.uniform(10.0, 40.0),
                    "omegas": omegas,
                    "picks": [self._pick() for _ in range(self.MC_PICKS)],
                    "mc_seed": self.rng.randrange(2**32),
                }
            )
        return self._inputs[i]

    def _pick(self) -> tuple[int, int]:
        n = self.rng.randint(1, self.N_MAX)
        return self.rng.randint(1, n), n

    def op(self, i):
        dc, x = self.dc, self._input(i)
        cfg = dc.SystemConfig(m=x["m"], v=x["v"], gamma_d2d=x["gamma_d2d"], omega=x["omegas"][0])
        geom = dc.build_geometry_table(cfg, n_max=self.N_MAX)
        state = dc.simple_caching_steady_state(cfg.m, cfg.omega, cfg.lam)
        fraction = dc.base_station_request_fraction(state)
        ranges = dc.SearchRanges()
        comparisons = [dc.best_method(replace(cfg, omega=w), ranges, geom) for w in x["omegas"]]
        return cfg, geom, state, fraction, comparisons

    def record(self, i, raw):
        cfg, geom, state, fraction, comparisons = raw
        return {
            "cfg": cfg,
            "link": dict(geom.entries),
            "bs_cost": geom.bs_cost,
            "marginal": state.lower + state.upper,
            "chain_digest": _digest(state.lower.tobytes() + state.upper.tobytes()),
            "fraction": fraction,
            "best": [_comparison_record(c) for c in comparisons],
        }

    def fingerprint(self, rec):
        return {k: v for k, v in rec.items() if k not in ("cfg", "marginal")}

    def check(self, done):
        out = {}
        for i, rec in done:
            x, cfg = self._input(i), rec["cfg"]
            bad = oracles.check_table(rec["link"], cfg.r, cfg.gamma_d2d, cfg.v, rec["bs_cost"], cfg.gamma_bs)
            rng = np.random.default_rng(x["mc_seed"])
            bad += oracles.check_sampled_entries(rec["link"], cfg.r, cfg.gamma_d2d, x["picks"], rng)
            tv = oracles.poisson_tv(cfg.m, rec["marginal"])
            if not tv <= oracles.TV_TOL:
                bad.append(f"chain marginal TV {tv:.3e} from Poisson({cfg.m})")
            if not 0.0 < rec["fraction"] < 1.0:
                bad.append(f"base-station request fraction {rec['fraction']!r}")
            forms = oracles.ClosedForms(
                rec["link"], rec["bs_cost"], cfg.m, cfg.lam, oracles.candidates((2, 6), (3, 6))
            )
            points = [(w, cfg.sigma, cfg.theta) for w in x["omegas"]]
            for failures in oracles.check_design_points(forms, points, rec["best"]):
                bad += failures
            out[i] = bad
        return out

    def describe(self):
        return (
            f"configs: m cycles {self.MS}, gamma_d2d = 2 + 2*frac(i*0.618.. + U[0,{GAMMA_JITTER}]), "
            f"v ~ U[10,40], {self.OMEGAS} omegas ~ logU[1e-4,1e-1], n_max={self.N_MAX}"
        )


def _comparison_record(cmp, gain=None) -> tuple:
    best = {
        s: (r.best.n, r.best.k, r.best.d, r.cost.total)
        for s, r in (("replication", cmp.replication), ("msr", cmp.msr), ("mbr", cmp.mbr))
    }
    return cmp.winner.value, best, cmp.simple.total, gain


class DesignSweep(Workload):
    """A user sweeping operating points on one cluster whose tables are built."""

    unit = "points"

    def __init__(self, dc, seed, tmp, name: str, ranges: tuple, points: int):
        super().__init__(dc, seed, tmp)
        self.name = name
        self.n_points = points  # distinct operating points; operations cycle through them
        self.ranges = dc.SearchRanges(*ranges)
        self.n_max = max(self.ranges.replication_n[1], self.ranges.coded_n[1])
        self.points = [
            (log_uniform(self.rng, 1e-4, 1.0), log_uniform(self.rng, 1e-2, 1e2), self.rng.uniform(1.0, 4.0))
            for _ in range(self.n_points)
        ]
        self.geom = None

    def setup(self):
        self.base = self.dc.SystemConfig()
        self.geom = self.dc.build_geometry_table(self.base, n_max=self.n_max)

    def key(self, i):
        return i % self.n_points

    def op(self, i):
        dc = self.dc
        omega, sigma, theta = self.points[i % self.n_points]
        cfg = dc.SystemConfig(omega=omega, sigma=sigma, theta=theta)
        cmp = dc.best_method(cfg, self.ranges, self.geom)
        winner = {
            dc.Scheme.SIMPLE: cmp.simple,
            dc.Scheme.REPLICATION: cmp.replication.cost,
            dc.Scheme.MSR: cmp.msr.cost,
            dc.Scheme.MBR: cmp.mbr.cost,
        }[cmp.winner]
        return cmp, dc.operator_gain(cfg, winner, self.geom)

    def record(self, i, raw):
        cmp, gain = raw
        return _comparison_record(cmp, gain)

    def check(self, done):
        forms = oracles.ClosedForms(
            dict(self.geom.entries), self.geom.bs_cost, self.base.m, self.base.lam,
            oracles.candidates(self.ranges.replication_n, self.ranges.coded_n),
        )
        failures = oracles.check_design_points(
            forms, [self.points[self.key(i)] for i, _ in done], [rec for _, rec in done]
        )
        return {i: bad for (i, _), bad in zip(done, failures)}

    def describe(self):
        return (
            f"{self.n_points} points: omega ~ logU[1e-4,1], sigma ~ logU[1e-2,1e2], theta ~ U[1,4]; "
            f"ranges rep {self.ranges.replication_n} coded {self.ranges.coded_n}; table n_max={self.n_max}"
        )


class Sweep:
    """One `d2dcache simulate` call and what its CSV must hold."""

    def __init__(self, fidelity: str, methods: tuple, grid: tuple, horizon: float, reps: int,
                 seed: int, out: Path) -> None:
        lo, hi, count = grid
        self.out = out
        self.expect = {
            "omegas": [10.0 ** (lo + (hi - lo) * j / (count - 1)) for j in range(count)],
            "methods": list(methods),
            "horizon": float(horizon),
            "reps": reps,
            "fidelity": fidelity,
        }
        self.argv = [
            "simulate", "--fidelity", fidelity, "--methods", ",".join(methods),
            f"--omega-grid={lo}:{hi}:{count}", "--horizon", str(horizon),
            "--reps", str(reps), "--seed", str(seed), "--out", str(out),
        ]
        self.lifetimes = horizon * reps * count * len(methods)


class MonteCarloSweep(Workload):
    """A user validating the analytics with the CLI's simulate sweeps: one at
    chain fidelity over all four methods, one at spatial fidelity."""

    name = "mc-sweep"
    unit = "node-lifetimes"
    setup_reps = 1

    def __init__(self, dc, seed, tmp):
        super().__init__(dc, seed, tmp)
        sim_seed = self.rng.randrange(1_000_000)
        self.sweeps = [
            Sweep("chain", ("simple", "replication", "msr", "mbr"), (-3, -1, 2), 25, 8,
                  sim_seed, tmp / "chain"),
            Sweep("spatial", ("simple", "msr"), (-3, -1, 2), 35, 8, sim_seed, tmp / "spatial"),
        ]

    def key(self, i):
        return 0

    def op(self, i):
        from d2dcache import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(sweep.argv) for sweep in self.sweeps]

    def record(self, i, raw):
        files = sorted(p for sweep in self.sweeps for p in sweep.out.iterdir() if p.is_file())
        csvs = [(sweep.out / "simulate_sweep.csv").read_text() for sweep in self.sweeps]
        return {
            "rc": raw,
            "csv": csvs,
            "digests": {f"{p.parent.name}/{p.name}": _digest(p.read_bytes()) for p in files},
            "bytes": sum(p.stat().st_size for p in files),
            "rows": sum(text.count("\n") - 1 for text in csvs),
        }

    def fingerprint(self, rec):
        return rec["rc"], rec["digests"]

    def work(self, i):
        return sum(sweep.lifetimes for sweep in self.sweeps)

    def check(self, done):
        dc = self.dc
        base = dc.SystemConfig()
        geom = dc.build_geometry_table(base, n_max=6)
        forms = oracles.ClosedForms(
            dict(geom.entries), geom.bs_cost, base.m, base.lam, oracles.candidates((2, 6), (3, 6))
        )
        i, rec = done[0]
        bad = []
        for sweep, rc, text in zip(self.sweeps, rec["rc"], rec["csv"]):
            if rc != 0:
                bad.append(f"{sweep.expect['fidelity']} sweep: cli exit code {rc}")
            else:
                bad += oracles.check_sim_csv(text, forms, sweep.expect)
        return {i: bad}

    def describe(self):
        return "; ".join("d2dcache " + " ".join(sweep.argv[:-2]) + " --out <tmp>" for sweep in self.sweeps)


def make(name: str, dc, seed: int, tmp: Path) -> Workload:
    if name == "cold-config":
        return ColdConfig(dc, seed, tmp)
    if name == "design-paper":
        return DesignSweep(dc, seed, tmp, name, ((2, 6), (3, 6)), 512)
    if name == "design-wide":
        return DesignSweep(dc, seed, tmp, name, ((2, 12), (3, 12)), 128)
    if name == "mc-sweep":
        return MonteCarloSweep(dc, seed, tmp)
    raise ValueError(f"unknown workload {name!r}")
