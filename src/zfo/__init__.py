"""Zeroth-order feedback optimization for cooperative multi-agent systems.

The package provides the building blocks of the method — feasible-set
geometry, communication-graph statistics, the delayed information-exchange
protocol, benchmark problems, a parameter planner, and a round-based
simulator — plus a `zfo` command-line front end.
"""

from .agents import SwarmTables
from .config import apply_overrides, build_run_config, load_config
from .errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    OracleError,
    ProtocolViolation,
    ZfoError,
)
from .geometry import (
    Box,
    ConvexSet,
    ShiftedSimplex,
    WholeSpace,
)
from .network import (
    BernoulliDrops,
    CommGraph,
    CompatibilityReport,
    DelayModel,
    NetworkStats,
    NoDelay,
    check_compatibility,
    network_stats,
    shortest_path_lengths,
)
from .planner import (
    ParamPlan,
    PlanReport,
    ProblemConstants,
    constants_for,
    expected_gap_bound,
    expected_stationarity_bound,
    plan,
    scaling_report,
    verify_plan,
)
from .problems import (
    Problem,
    RoutingInstance,
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    centralized_solve,
    routing_problem,
)
from .runner import RunConfig, RunTrace, metrics_snapshot, run, summary_dict, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "BernoulliDrops",
    "Box",
    "CommGraph",
    "CompatibilityReport",
    "ConfigurationError",
    "ConvexSet",
    "DelayModel",
    "DomainError",
    "NetworkStats",
    "NoDelay",
    "OracleError",
    "ParamPlan",
    "PlanReport",
    "Problem",
    "ProblemConstants",
    "ProtocolViolation",
    "RoutingInstance",
    "RunConfig",
    "RunTrace",
    "ShiftedSimplex",
    "SwarmTables",
    "WholeSpace",
    "ZfoError",
    "apply_overrides",
    "build_box_quadratic",
    "build_routing_instance",
    "build_run_config",
    "build_trig_sum",
    "centralized_solve",
    "check_compatibility",
    "constants_for",
    "expected_gap_bound",
    "expected_stationarity_bound",
    "load_config",
    "metrics_snapshot",
    "network_stats",
    "plan",
    "routing_problem",
    "run",
    "scaling_report",
    "shortest_path_lengths",
    "summary_dict",
    "verify_plan",
    "write_trace_csv",
]
