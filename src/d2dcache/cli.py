"""Experiment driver CLI.

Subcommands produce plot-ready CSV/JSON artifacts: geometry tables,
analytic cost sweeps, optimal-parameter curves, Monte Carlo points,
operator-gain sweeps, savings tables, and the acceptance verification
suite. All outputs are deterministic given a seed; sweep rows are sorted
by (sigma, omega, method, v) so parallelism never changes bytes.

Exit codes: 0 ok, 1 config or usage error, 2 numerical/solver failure,
3 acceptance-verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance
from .codes import FeasibilityError
from .cost_model import CostBreakdown, SystemConfig, operator_gain
from .geometry import GeometryTable, build_geometry_table
from .markov import SolverError
from .optimizer import MethodComparison, SearchRanges, best_method
from .simulator import COUNTER_NAMES, SimConfig, replicate, simulate

ALL_METHODS = ("simple", "replication", "msr", "mbr")
CSV_HEADER = "method,n,k,d,omega,sigma,reconstruction,repair,storage,total"


class ConfigError(ValueError):
    pass


def cost_csv_row(cost: CostBreakdown, cfg: SystemConfig) -> str:
    c = cost.method
    return (
        f"{c.scheme.value},{c.n},{c.k},{c.d},{cfg.omega!r},{cfg.sigma!r},"
        f"{cost.reconstruction!r},{cost.repair!r},{cost.storage!r},{cost.total!r}"
    )


def _parse_grid(spec: str) -> list[float]:
    """Parse LO:HI:N (log10 endpoints) into an omega grid."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, expected LO:HI:N") from exc
    if n < 1:
        raise ConfigError(f"grid needs at least one point, got {n}")
    return (10.0 ** np.linspace(lo, hi, n)).tolist()


def _parse_range(spec: str) -> tuple[int, int]:
    try:
        lo, hi = (int(s) for s in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad range spec {spec!r}, expected LO:HI") from exc
    return lo, hi


def _base_config(args) -> dict:
    base = SystemConfig().to_dict()
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        unknown = set(doc) - set(base)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "omega" in doc:
            raise ConfigError("omega is swept by --omega-grid; drop it from the config file")
        base.update({k: float(v) for k, v in doc.items()})
    for f in ("m", "lam", "r", "gamma_d2d", "gamma_bs", "theta"):
        val = getattr(args, f, None)
        if val is not None:
            base[f] = val
    # only gain has a v column; elsewhere a second --v would be dropped
    if args.v and args.command != "gain":
        if len(args.v) > 1:
            raise ConfigError(f"{args.command} takes a single --v, got {len(args.v)}")
        base["v"] = args.v[0]
    return base


def _make_cfg(base: dict, **overrides) -> SystemConfig:
    return SystemConfig(**{**base, **overrides})


def _methods(args) -> list[str]:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("no methods selected")
    for m in methods:
        if m not in ALL_METHODS:
            raise ConfigError(f"unknown method {m!r}, expected one of {ALL_METHODS}")
    return methods


def _sweep(args, methods: list) -> list[tuple[SystemConfig, str, MethodComparison, GeometryTable]]:
    """Optimize every method at each (sigma, omega, v) point, with one geometry
    table per v. Returns (cfg, method, comparison, table) in output order,
    sorted by (sigma, omega, method, v); methods=[None] gives one per point.
    """
    base = _base_config(args)
    ranges = SearchRanges(_parse_range(args.rep_n), _parse_range(args.coded_n))
    omegas = _parse_grid(args.omega_grid)
    n_max = max(ranges.replication_n[1], ranges.coded_n[1])
    points = []
    for v in args.v or [base["v"]]:
        geom = build_geometry_table(_make_cfg(base, v=v), n_max)
        for sigma in args.sigma or [base["sigma"]]:
            for omega in omegas:
                cfg = _make_cfg(base, sigma=sigma, omega=omega, v=v)
                cmp = best_method(cfg, ranges, geom)
                points += [(cfg, method, cmp, geom) for method in methods]
    points.sort(key=lambda p: (p[0].sigma, p[0].omega, p[1], p[0].v))
    return points


def _write(args, name: str, lines: list[str]) -> None:
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    print(path)


def cmd_geometry(args) -> int:
    base = _base_config(args)
    cfg = _make_cfg(base, sigma=(args.sigma or [base["sigma"]])[0])
    table = build_geometry_table(cfg, args.n_max)
    _write(args, "geometry_table.json", [table.to_json()])
    return 0


def cmd_cost(args) -> int:
    rows = [cost_csv_row(cmp.cost_of(m), cfg) for cfg, m, cmp, _ in _sweep(args, _methods(args))]
    _write(args, "cost_sweep.csv", [CSV_HEADER] + rows)
    return 0


def cmd_optimize(args) -> int:
    rows = []
    for cfg, method, cmp, _ in _sweep(args, ["replication", "msr", "mbr"]):
        cost = cmp.cost_of(method)
        b = cost.method
        savings = 100.0 * (1.0 - cost.total / cmp.simple.total)
        rows.append(
            f"{cfg.omega!r},{cfg.sigma!r},{method},{b.n},{b.k},{b.d},{cost.total!r},{savings!r}"
        )
    _write(args, "optimize_sweep.csv", ["omega,sigma,method,n,k,d,total,savings_pct"] + rows)
    return 0


def _sim_job(job: tuple[SimConfig, int, GeometryTable]) -> str:
    cfg, reps, geom = job
    result = replicate(cfg, reps, geom) if reps > 1 else simulate(cfg, geom)
    counters = ",".join(str(result.counters[n]) for n in COUNTER_NAMES)
    return (
        f"{cost_csv_row(result.cost, cfg.system)},"
        f"{result.ci95_halfwidth!r},{cfg.seed},{cfg.horizon!r},{cfg.fidelity},{counters}"
    )


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    run = {"horizon": args.horizon, "fidelity": args.fidelity, "warmup": args.warmup}
    jobs = [
        (SimConfig(cfg, cmp.cost_of(method).method, seed=args.seed + rank, **run), args.reps, geom)
        for rank, (cfg, method, cmp, geom) in enumerate(_sweep(args, _methods(args)))
    ]
    workers = int(os.environ.get("D2DCACHE_THREADS", "0")) or 1
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_sim_job, jobs))
    else:
        lines = [_sim_job(j) for j in jobs]

    header = CSV_HEADER + ",ci95,seed,horizon,fidelity," + ",".join(
        f"counters.{n}" for n in COUNTER_NAMES
    )
    _write(args, "simulate_sweep.csv", [header] + lines)
    return 0


def cmd_gain(args) -> int:
    rows = []
    for cfg, method, cmp, geom in _sweep(args, _methods(args)):
        gain = operator_gain(cfg, cmp.cost_of(method), geom)
        rows.append(
            f"{cfg.omega!r},{cfg.v!r},{cfg.sigma!r},{method},{gain!r},{math.log10(gain)!r}"
        )
    _write(args, "gain_sweep.csv", ["omega,v,sigma,method,gain,log10_gain"] + rows)
    return 0


def cmd_tables(args) -> int:
    rows = []
    for cfg, _, cmp, _ in _sweep(args, [None]):
        b = cmp.cost_of(cmp.winner).method
        msr_vs_rep = 100.0 * (1.0 - cmp.msr.cost.total / cmp.replication.cost.total)
        rows.append(
            f"{math.log10(cfg.omega)!r},{cfg.sigma!r},{cmp.winner.value},{b.n},{b.k},{b.d},"
            f"{100.0 * cmp.savings_vs_simple!r},{msr_vs_rep!r}"
        )
    header = "log10_omega,sigma,best_method,n,k,d,savings_vs_simple_pct,msr_vs_replication_pct"
    _write(args, "savings_tables.csv", [header] + rows)
    return 0


def cmd_verify(args) -> int:
    numbers = None
    if args.criteria:
        numbers = sorted({int(s) for s in args.criteria.split(",")})
        unknown = [n for n in numbers if n not in acceptance.CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criteria: {unknown}")
    ok = True
    for number in numbers or sorted(acceptance.CRITERIA):
        result = acceptance.run_criterion(number)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.criterion} {result.name}: {result.detail}")
        ok = ok and result.passed
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--sigma", type=float, action="append", help="storage cost (repeatable)")
    common.add_argument("--v", type=float, action="append", help="base-station distance (repeatable)")
    common.add_argument("--theta", type=float, default=None)
    common.add_argument("--m", type=float, default=None)
    common.add_argument("--lam", type=float, default=None)
    common.add_argument("--r", type=float, default=None)
    common.add_argument("--gamma-d2d", dest="gamma_d2d", type=float, default=None)
    common.add_argument("--gamma-bs", dest="gamma_bs", type=float, default=None)
    common.add_argument("--omega-grid", default="-4:0:33", help="LO:HI:N, log10 endpoints")
    common.add_argument("--methods", default=",".join(ALL_METHODS))
    common.add_argument("--rep-n", dest="rep_n", default="2:6")
    common.add_argument("--coded-n", dest="coded_n", default="3:6")

    parser = argparse.ArgumentParser(prog="d2dcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", parents=[common], help="emit the geometry table")
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("cost", parents=[common], help="analytic cost sweep")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("optimize", parents=[common], help="optimal-parameter curves")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo sweep")
    p.add_argument("--fidelity", choices=("chain", "spatial"), default="chain")
    p.add_argument("--horizon", type=float, default=1e4)
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gain", parents=[common], help="operator-gain sweep")
    p.set_defaults(func=cmd_gain)

    p = sub.add_parser("tables", parents=[common], help="savings tables")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="acceptance suite on the paper's configs")
    p.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    # tables defaults to the published rows rather than the full grid
    if args.command == "tables" and not any(a.startswith("--omega-grid") for a in raw):
        args.omega_grid = "-3.5:0:8"
    try:
        return args.func(args)
    except (ConfigError, FeasibilityError, ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
