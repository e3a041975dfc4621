"""Closed-form expected cost rates for each caching method.

Costs are energy per unit time, split into reconstruction (serving file
requests), repair (replacing lost storage nodes), and storage. The
simple-caching expression is a renewal-cycle approximation; the
simulator provides the empirical check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .codes import CodeSpec, Scheme, make_code
from .geometry import GeometryTable, base_station_cost


@dataclass(frozen=True)
class SystemConfig:
    """Cluster and economic parameters.

    m: expected node count; lam: node failure rate; omega: per-node file
    request rate; r: cluster radius; v: base-station distance (> r);
    gamma_d2d / gamma_bs: pathloss exponents; sigma: storage cost per
    unit data; theta: operator weight on D2D transmission cost.
    """

    m: float = 100.0
    lam: float = 1.0
    omega: float = 0.01
    r: float = 1.0
    v: float = 20.0
    gamma_d2d: float = 4.0
    gamma_bs: float = 2.0
    sigma: float = 2.0
    theta: float = 1.0

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"config field {name} must be finite, got {value}")
        if self.m <= 1.0:
            raise ValueError(f"expected node count must exceed 1, got m={self.m}")
        if self.lam <= 0.0 or self.omega <= 0.0:
            raise ValueError(f"rates must be positive, got lam={self.lam}, omega={self.omega}")
        if not 0.0 < self.r < self.v:
            raise ValueError(f"need 0 < r < v, got r={self.r}, v={self.v}")
        if self.sigma < 0.0:
            raise ValueError(f"storage weight must be nonnegative, got sigma={self.sigma}")
        if self.theta <= 0.0:
            raise ValueError(f"transmission weight must be positive, got theta={self.theta}")
        if self.omega >= self.lam:
            warnings.warn(
                f"omega={self.omega} >= lam={self.lam}: outside the assumed "
                "low-popularity regime (omega < lam)",
                stacklevel=3,  # past the dataclass __init__ to the caller
            )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "lam": self.lam,
            "omega": self.omega,
            "r": self.r,
            "v": self.v,
            "gamma_d2d": self.gamma_d2d,
            "gamma_bs": self.gamma_bs,
            "sigma": self.sigma,
            "theta": self.theta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SystemConfig":
        return cls(**{k: float(v) for k, v in doc.items()})


@dataclass(frozen=True)
class CostBreakdown:
    """Expected cost rates of one method; total is exactly the component sum."""

    reconstruction: float
    repair: float
    storage: float
    total: float
    method: CodeSpec

    @classmethod
    def make(
        cls, reconstruction: float, repair: float, storage: float, method: CodeSpec
    ) -> "CostBreakdown":
        return cls(
            reconstruction=reconstruction,
            repair=repair,
            storage=storage,
            total=reconstruction + repair + storage,
            method=method,
        )


Fetch = tuple[float, int, int]  # (units, nearest, among)


def fetches(code: CodeSpec) -> tuple[Fetch, Fetch, Fetch]:
    """What a storage-node request, an empty-node request and a repair
    fetch: `units` from each of the `nearest` closest of `among` storage
    nodes. Any k of the n fragments rebuild the file, and a newcomer pulls
    beta from each of d survivors; replication is the (n, 1, 1) code with
    alpha = beta = 1, so it moves whole copies from the nearest replica.
    """
    n, k, d = code.n, code.k, code.d
    return (code.alpha, k - 1, n - 1), (code.alpha, k, n), (code.beta, d, n - 1)


def simple_caching_cost(cfg: SystemConfig, geom: GeometryTable) -> CostBreakdown:
    """Renewal-cycle approximation of the simple caching cost rate.

    One cycle: the caching node lives 1/lam serving (m-1)(omega/lam)
    requests at D2D cost L(1,1), the file is then refetched from the base
    station after roughly 1/(m*omega), and sigma is charged once.
    """
    cycle = 1.0 / cfg.lam + 1.0 / (cfg.m * cfg.omega)
    d2d = (cfg.m - 1.0) * (cfg.omega / cfg.lam) * geom.link(1, 1)
    reconstruction = (d2d + geom.bs_cost) / cycle
    storage = cfg.sigma / cycle
    return CostBreakdown.make(reconstruction, 0.0, storage, make_code(Scheme.SIMPLE, 1))


def method_cost(cfg: SystemConfig, code: CodeSpec, geom: GeometryTable) -> CostBreakdown:
    """Cost rate of any method; simple caching is the one special case.

    The n storage and m - n empty nodes each request at omega, each
    storage node is repaired at lam, and every event pays its `fetches`.
    """
    if code.scheme is Scheme.SIMPLE:
        return simple_caching_cost(cfg, geom)
    n = code.n
    if n >= cfg.m:
        raise ValueError(f"storage degree n={n} must be below m={cfg.m}")
    # (units, nearest, among) of a storage-node request, an empty-node request, a repair
    (u_s, q_s, of_s), (u_e, q_e, of_e), (u_r, q_r, of_r) = fetches(code)
    rec_storage = n * cfg.omega * u_s * geom.nearest_sum(q_s, of_s)
    rec_empty = (cfg.m - n) * cfg.omega * u_e * geom.nearest_sum(q_e, of_e)
    repair = n * cfg.lam * u_r * geom.nearest_sum(q_r, of_r)
    storage = n * code.alpha * cfg.sigma
    return CostBreakdown.make(rec_storage + rec_empty, repair, storage, code)


def downlink_cost(cfg: SystemConfig, geom: GeometryTable | None = None) -> float:
    """Cost rate of serving every request from the base station: m * omega * E_BS."""
    ebs = geom.bs_cost if geom is not None else base_station_cost(cfg.r, cfg.v, cfg.gamma_bs)
    return cfg.m * cfg.omega * ebs


def upkeep_cost(cfg: SystemConfig, cost: CostBreakdown) -> float:
    """Operator-side cost: transmission weighted by theta, storage kept at weight 1."""
    return cfg.theta * cost.total - cost.storage * (cfg.theta - 1.0)


def operator_gain(cfg: SystemConfig, cost: CostBreakdown, geom: GeometryTable | None = None) -> float:
    """Downlink-to-upkeep cost ratio; > 1 means caching pays off for the operator."""
    upkeep = upkeep_cost(cfg, cost)
    if upkeep <= 0.0:
        raise ZeroDivisionError(f"upkeep cost must be positive, got {upkeep}")
    return downlink_cost(cfg, geom) / upkeep
