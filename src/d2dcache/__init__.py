"""Energy cost modeling of erasure-coded device-to-device caching clusters.

Analytic cost rates, exhaustive parameter optimization, and event-driven
Monte Carlo validation for a disk-shaped cluster of churning nodes that
collectively cache a file, protected by replication or regenerating codes.
"""

from .codes import CodeSpec, FeasibilityError, Scheme, make_code, mbr_point, msr_point
from .cost_model import (
    CostBreakdown,
    SystemConfig,
    downlink_cost,
    method_cost,
    operator_gain,
    simple_caching_cost,
    upkeep_cost,
)
from .geometry import (
    GeometryTable,
    base_station_cost,
    build_geometry_table,
    circle_intersection_area,
    coverage_probability,
    expected_neighbor_distance,
    expected_neighbor_distance_power,
    link_cost,
)
from .markov import (
    CachingChainState,
    PopulationDistribution,
    SolverError,
    base_station_request_fraction,
    poisson_steady_state,
    poisson_tail_at_or_below,
    simple_caching_steady_state,
    zeta_recursion_residual,
)
from .optimizer import (
    MethodComparison,
    OptimizationResult,
    SearchRanges,
    best_method,
    optimize,
)
from .simulator import SimConfig, SimResult, replicate, simulate

__version__ = "0.1.0"

__all__ = [
    "CodeSpec", "FeasibilityError", "Scheme", "make_code", "mbr_point", "msr_point",
    "CostBreakdown", "SystemConfig", "downlink_cost", "method_cost", "operator_gain",
    "simple_caching_cost", "upkeep_cost",
    "GeometryTable", "base_station_cost", "build_geometry_table",
    "circle_intersection_area", "coverage_probability", "expected_neighbor_distance",
    "expected_neighbor_distance_power", "link_cost",
    "CachingChainState", "PopulationDistribution", "SolverError",
    "base_station_request_fraction", "poisson_steady_state", "poisson_tail_at_or_below",
    "simple_caching_steady_state", "zeta_recursion_residual",
    "MethodComparison", "OptimizationResult", "SearchRanges", "best_method", "optimize",
    "SimConfig", "SimResult", "replicate", "simulate",
]
