"""Event-driven Monte Carlo simulation of the caching cluster.

The cluster population evolves as a continuous-time chain (arrivals at
m*lam, per-node departures at lam, per-node requests at omega); each
request or repair fetches what `cost_model.fetches` names, as in the
closed form. Two fidelities:

- "chain": every request/repair is charged its expected cost from the
  geometry table, so the run validates the chain dynamics alone.
- "spatial": nodes get fixed uniform positions in the disk at arrival
  and are charged actual powered distances to their nearest helpers,
  validating the geometry integrals end to end.

A single run is strictly sequential; replications use independent
derived RNG streams and may run in any order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import stdtrit

from .codes import CodeSpec, Scheme
from .cost_model import CostBreakdown, Fetch, SystemConfig, fetches
from .geometry import GeometryTable

COUNTER_NAMES = (
    "requests",
    "bs_downloads",
    "repairs",
    "arrivals",
    "departures",
    "repair_starvations",
)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: system + method + run controls.

    horizon is measured in expected node lifetimes T = 1/lam; warmup is
    the leading fraction of the horizon discarded from averages.
    """

    system: SystemConfig
    method: CodeSpec
    horizon: float = 1e4
    seed: int = 0
    fidelity: str = "chain"
    warmup: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError(f"warmup fraction must be in [0, 1), got {self.warmup}")
        if self.fidelity not in ("chain", "spatial"):
            raise ValueError(f"fidelity must be 'chain' or 'spatial', got {self.fidelity!r}")


@dataclass(frozen=True)
class SimResult:
    """Empirical cost rates over the post-warmup window, in the closed
    form's breakdown; ci95_halfwidth bounds cost.total."""

    cost: CostBreakdown
    ci95_halfwidth: float
    counters: dict[str, int]
    mean_population: float


def _draw_position(rng: random.Random, r: float) -> tuple[float, float]:
    rad = r * math.sqrt(rng.random())
    ang = 2.0 * math.pi * rng.random()
    return rad * math.cos(ang), rad * math.sin(ang)


def _powered(dx: float, dy: float, gamma: float) -> float:
    return (dx * dx + dy * dy) ** (gamma * 0.5)


class _Accumulator:
    """Cost, population and live-storage accumulation restricted to [t0, t1]."""

    def __init__(self, t0: float, t1: float) -> None:
        self.t0 = t0
        self.t1 = t1
        self.rec = 0.0
        self.rep = 0.0
        self.sto = 0.0
        self.pop_time = 0.0  # integral of population over the window
        self.live_time = 0.0  # integral of live storage-node count

    def dwell(self, a: float, b: float, pop: float, live: int = 0) -> None:
        lo, hi = max(a, self.t0), min(b, self.t1)
        if hi > lo:
            self.pop_time += pop * (hi - lo)
            self.live_time += live * (hi - lo)


def _result(acc: _Accumulator, counters: dict[str, int], method: CodeSpec) -> SimResult:
    w = acc.t1 - acc.t0
    return SimResult(
        cost=CostBreakdown.make(acc.rec / w, acc.rep / w, acc.sto / w, method),
        ci95_halfwidth=math.nan,
        counters=counters,
        mean_population=acc.pop_time / w,
    )


def _sim_simple(cfg: SimConfig, geom: GeometryTable, rng: random.Random) -> SimResult:
    sys = cfg.system
    m, lam, om, sigma = sys.m, sys.lam, sys.omega, sys.sigma
    horizon = cfg.horizon / lam
    acc = _Accumulator(cfg.warmup * horizon, horizon)
    spatial = cfg.fidelity == "spatial"
    L11 = geom.link(1, 1)
    ebs = geom.bs_cost
    counters = dict.fromkeys(COUNTER_NAMES, 0)

    pop = round(m)
    cached = True
    if spatial:
        nodes = [_draw_position(rng, sys.r) for _ in range(pop)]
        cache_idx = 0

    t = 0.0
    while True:
        arr = m * lam
        dep = pop * lam
        req = (pop - 1) * om if cached else pop * om
        total = arr + dep + req
        t_next = t + rng.expovariate(total)
        if t_next >= horizon:
            acc.dwell(t, horizon, pop)
            break
        acc.dwell(t, t_next, pop)
        t = t_next
        rec = t >= acc.t0
        u = rng.random() * total
        if u < arr:
            counters["arrivals"] += 1
            pop += 1
            if spatial:
                nodes.append(_draw_position(rng, sys.r))
        elif u < arr + dep:
            counters["departures"] += 1
            if spatial:
                idx = rng.randrange(pop)
                if cached and idx == cache_idx:
                    cached = False
                nodes[idx] = nodes[-1]
                nodes.pop()
                if cached and cache_idx == pop - 1:
                    cache_idx = idx
            else:
                if cached and rng.randrange(pop) == 0:
                    cached = False
            pop -= 1
        else:
            counters["requests"] += 1
            if cached:
                if spatial:
                    j = rng.randrange(pop - 1)
                    if j >= cache_idx:
                        j += 1
                    cx, cy = nodes[cache_idx]
                    px, py = nodes[j]
                    cost = _powered(px - cx, py - cy, sys.gamma_d2d)
                else:
                    cost = L11
                if rec:
                    acc.rec += cost
            else:
                counters["bs_downloads"] += 1
                if spatial:
                    j = rng.randrange(pop)
                    px, py = nodes[j]
                    cost = _powered(px - sys.v, py, sys.gamma_bs)
                    cache_idx = j
                else:
                    cost = ebs
                cached = True
                if rec:
                    acc.rec += cost
                    acc.sto += sigma  # charged once per caching cycle
    return _result(acc, counters, cfg.method)


def _sim_redundant(cfg: SimConfig, geom: GeometryTable, rng: random.Random) -> SimResult:
    sys = cfg.system
    code = cfg.method
    m, lam, om, sigma = sys.m, sys.lam, sys.omega, sys.sigma
    n = code.n
    horizon = cfg.horizon / lam
    acc = _Accumulator(cfg.warmup * horizon, horizon)
    spatial = cfg.fidelity == "spatial"
    storage_requests = code.scheme in (Scheme.MSR, Scheme.MBR)
    counters = dict.fromkeys(COUNTER_NAMES, 0)

    events = fetches(code)
    on_storage_req, on_empty_req, on_repair = events
    # expected per-event charges for chain fidelity
    req_storage_cost, req_empty_cost, repair_cost = (
        units * geom.nearest_sum(nearest, among) for units, nearest, among in events
    )

    pop = round(m)
    if pop <= n:
        raise ValueError(f"initial population {pop} must exceed storage degree {n}")
    deficit = 0  # storage slots lost to starvation, repaired at next arrival
    empties = pop - n
    if spatial:
        storage = [_draw_position(rng, sys.r) for _ in range(n)]
        empty_pos = [_draw_position(rng, sys.r) for _ in range(empties)]

    def nearest_cost(px: float, py: float, others: list, fetch: Fetch) -> float:
        units, nearest, _ = fetch
        d2 = sorted((ox - px) ** 2 + (oy - py) ** 2 for ox, oy in others)
        g = sys.gamma_d2d * 0.5
        return units * sum(v**g for v in d2[:nearest])

    t = 0.0
    while True:
        live = n - deficit
        arr = m * lam
        dep = pop * lam
        req_s = live * om if storage_requests else 0.0
        req_e = empties * om
        total = arr + dep + req_s + req_e
        t_next = t + rng.expovariate(total)
        if t_next >= horizon:
            acc.dwell(t, horizon, pop, live)
            break
        acc.dwell(t, t_next, pop, live)
        t = t_next
        rec = t >= acc.t0
        u = rng.random() * total
        if u < arr:
            counters["arrivals"] += 1
            pop += 1
            pos = _draw_position(rng, sys.r) if spatial else None
            if deficit > 0:
                counters["repairs"] += 1
                deficit -= 1
                if spatial:
                    cost = nearest_cost(pos[0], pos[1], storage, on_repair)
                    storage.append(pos)
                else:
                    cost = repair_cost
                if rec:
                    acc.rep += cost
            else:
                empties += 1
                if spatial:
                    empty_pos.append(pos)
        elif u < arr + dep:
            counters["departures"] += 1
            idx = rng.randrange(pop)
            pop -= 1
            if idx < n - deficit:  # a storage node leaves
                if spatial:
                    storage[idx] = storage[-1]
                    storage.pop()
                if empties > 0:
                    counters["repairs"] += 1
                    empties -= 1
                    if spatial:
                        j = rng.randrange(len(empty_pos))
                        newcomer = empty_pos[j]
                        empty_pos[j] = empty_pos[-1]
                        empty_pos.pop()
                        cost = nearest_cost(newcomer[0], newcomer[1], storage, on_repair)
                        storage.append(newcomer)
                    else:
                        cost = repair_cost
                    if rec:
                        acc.rep += cost
                else:
                    counters["repair_starvations"] += 1
                    deficit += 1
            else:
                empties -= 1
                if spatial:
                    # positions are i.i.d., so any empty is exchangeable
                    j = rng.randrange(len(empty_pos))
                    empty_pos[j] = empty_pos[-1]
                    empty_pos.pop()
        else:
            counters["requests"] += 1
            if u < arr + dep + req_s:  # a storage node reconstructs
                if spatial:
                    i = rng.randrange(len(storage))
                    px, py = storage[i]
                    others = storage[:i] + storage[i + 1 :]
                    cost = nearest_cost(px, py, others, on_storage_req)
                else:
                    cost = req_storage_cost
            else:
                if spatial:
                    px, py = empty_pos[rng.randrange(len(empty_pos))]
                    cost = nearest_cost(px, py, storage, on_empty_req)
                else:
                    cost = req_empty_cost
            if rec:
                acc.rec += cost
    acc.sto = code.alpha * sigma * acc.live_time
    return _result(acc, counters, code)


def simulate(config: SimConfig, geom: GeometryTable) -> SimResult:
    """Run one simulation; identical (config, geom) gives identical results."""
    rng = random.Random(config.seed)
    if config.method.scheme is Scheme.SIMPLE:
        return _sim_simple(config, geom, rng)
    return _sim_redundant(config, geom, rng)


def replicate(
    config: SimConfig,
    n_reps: int,
    geom: GeometryTable,
    seeds: list[int] | None = None,
) -> SimResult:
    """Aggregate independent replications; 95% CI from the t-distribution.

    Replication seeds are derived from (config.seed, replicate index)
    unless an explicit seed list is given.
    """
    if n_reps < 2:
        raise ValueError(f"need at least 2 replications, got {n_reps}")
    if seeds is None:
        children = np.random.SeedSequence(config.seed).spawn(n_reps)
        seeds = [int(c.generate_state(1)[0]) for c in children]
    elif len(seeds) != n_reps:
        raise ValueError(f"expected {n_reps} seeds, got {len(seeds)}")

    runs = [simulate(replace(config, seed=s), geom) for s in seeds]
    totals = np.array([r.cost.total for r in runs])
    rec, rep, sto = np.array(
        [(r.cost.reconstruction, r.cost.repair, r.cost.storage) for r in runs]
    ).mean(axis=0)
    counters = {
        name: sum(r.counters[name] for r in runs) for name in COUNTER_NAMES
    }
    halfwidth = float(
        stdtrit(n_reps - 1, 0.975) * totals.std(ddof=1) / math.sqrt(n_reps)
    )
    return SimResult(
        cost=CostBreakdown.make(float(rec), float(rep), float(sto), config.method),
        ci95_halfwidth=halfwidth,
        counters=counters,
        mean_population=float(np.mean([r.mean_population for r in runs])),
    )
