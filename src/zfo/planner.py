"""Parameter planning from the algorithm's certified complexity regimes.

Given the constants that describe a problem instance and its communication
network, this module computes shrinkage ``delta``, smoothing radius ``u``,
step size ``eta``, and horizon ``T`` so that every sufficient condition of
the chosen convergence regime holds with equality (the configuration that
yields the advertised iteration complexity).  It also re-verifies arbitrary
parameter tuples against those conditions, evaluates the closed-form
expected-performance bounds, and fits the horizon-versus-accuracy scaling
exponent.

Five regimes are supported:

- ``convex-noiseless``        exact observations, constrained convex costs
- ``convex-noisy``            noisy observations, constrained convex costs
- ``convex-noisy-interior``   as above, with the optimum known to be interior
- ``nonconvex-noiseless``     exact observations, unconstrained smooth costs
- ``nonconvex-noisy``         noisy observations, unconstrained smooth costs

All functions are pure and deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigurationError, DomainError, OracleError
from .network import NetworkStats
from .problems import Problem

__all__ = [
    "REGIMES",
    "ProblemConstants",
    "ParamPlan",
    "ConditionCheck",
    "PlanReport",
    "constants_for",
    "analysed_smoothing_range",
    "in_analysed_range",
    "smoothing_condition_value",
    "plan",
    "verify_plan",
    "expected_gap_bound",
    "expected_stationarity_bound",
    "scaling_report",
]

REGIMES = (
    "convex-noiseless",
    "convex-noisy",
    "convex-noisy-interior",
    "nonconvex-noiseless",
    "nonconvex-noisy",
)

_CONVEX_REGIMES = ("convex-noiseless", "convex-noisy", "convex-noisy-interior")

# Relative tolerance for the smoothing-radius bisection.
_BISECT_RTOL = 1e-12
_BISECT_MAX_ITER = 300

# Tolerance used when judging whether a re-checked inequality holds; plan()
# output satisfies every condition with slack 0 up to this tolerance.
_CHECK_RTOL = 1e-9


def _is_number(value) -> bool:
    """A real number that is not a boolean (JSON's true and false included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_positive(name: str, value: float, *, allow_zero: bool = False) -> float:
    if not _is_number(value):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


class _Record:
    """Dict round trip of a frozen dataclass, read off its own fields.

    On construction every field is cast to its annotated type (a JSON
    integer given for a float field is stored as a float).  ``as_dict``
    lists the fields in order, with tuples as lists and nested records as
    dicts; ``from_dict`` refuses unknown keys and missing keys that have
    no default.
    """

    _label: str  # names the record in from_dict's errors

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _CASTS[f.type](value))

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown {cls._label} field(s): {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ConfigurationError(f"missing {cls._label} field(s): {sorted(missing)}")
        return cls(**data)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.as_dict() if isinstance(value, _Record) else value


@dataclass(frozen=True)
class ProblemConstants(_Record):
    """Scalar constants describing a problem instance on a network.

    Attributes
    ----------
    n_agents:
        Number of agents ``n``.
    dim:
        Total decision dimension ``d`` (all agents combined).
    lipschitz:
        Bound ``G`` on the norm of any local cost gradient.
    smoothness:
        Bound ``L`` on the Lipschitz constant of any local cost gradient.
    b_bar:
        Root-mean-square delayed pairwise distance of the network.
    b_frak:
        Dimension-weighted variant of ``b_bar``.
    staleness_bound:
        Worst-case information staleness ``B`` (network diameter plus the
        extra-delay allowance).
    sigma:
        Standard deviation of additive observation noise (0 = exact).
    outer_radius:
        Radius bound on the joint feasible set (constrained regimes only).
    inner_radius:
        Radius of a ball around the origin contained in every agent's
        feasible set (constrained regimes only).
    breg_diameter:
        Upper bound on the Bregman divergence from any feasible point to the
        optimum (constrained regimes only).
    init_gap:
        Upper bound on ``f(x(0)) - inf f`` (unconstrained regimes; the
        horizon formula floors it at 1 when absent).
    gap_max:
        ``max f - min f`` over the feasible set, the admissible accuracy
        range of the convex noiseless regime.
    """

    _label = "constants"

    n_agents: int
    dim: int
    lipschitz: float
    smoothness: float
    b_bar: float
    b_frak: float
    staleness_bound: int
    sigma: float = 0.0
    outer_radius: float | None = None
    inner_radius: float | None = None
    breg_diameter: float | None = None
    init_gap: float | None = None
    gap_max: float | None = None

    def __post_init__(self) -> None:
        for name, floor, kind in (
            ("n_agents", 1, "a positive"),
            ("dim", 1, "a positive"),
            ("staleness_bound", 0, "a non-negative"),
        ):
            value = getattr(self, name)
            if not (_is_number(value) and float(value).is_integer()) or value < floor:
                raise ConfigurationError(f"{name} must be {kind} integer, got {value!r}")
        _require_positive("lipschitz", self.lipschitz)
        for name in ("smoothness", "b_bar", "b_frak", "sigma"):
            _require_positive(name, getattr(self, name), allow_zero=True)
        for name in ("outer_radius", "inner_radius", "breg_diameter", "gap_max", "init_gap"):
            value = getattr(self, name)
            if value is not None:
                _require_positive(name, value, allow_zero=name == "init_gap")
        super().__post_init__()


def constants_for(
    problem: Problem,
    stats: NetworkStats,
    sigma: float = 0.0,
    x0: np.ndarray | None = None,
) -> ProblemConstants:
    """Assemble :class:`ProblemConstants` from a problem and network stats.

    ``inner_radius`` is the problem's own, the others come from its ``meta``;
    ``init_gap`` is filled in when ``x0`` is given and the problem records
    ``f_star`` or ``f_lower``.  An infeasible ``x0`` and a problem without
    the Lipschitz and smoothness constants in its ``meta`` are refused.
    """
    if stats.n != problem.n:
        raise ConfigurationError(
            f"network has {stats.n} nodes but the problem has {problem.n} agents"
        )
    meta = problem.meta
    missing = [name for name in ("lipschitz", "smoothness") if name not in meta]
    if missing:
        raise ConfigurationError(
            f"problem {problem.name!r} records no {' or '.join(missing)} constant; "
            "planning needs both"
        )
    init_gap = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        agent = problem.first_infeasible(problem.blocks(x0))
        if agent is not None:
            raise DomainError(f"x0 puts agent {agent + 1} outside its feasible set")
        floor = problem.f_star if problem.f_star is not None else problem.f_lower
        if floor is not None:
            init_gap = float(problem.global_cost(x0) - floor)
    return ProblemConstants(
        n_agents=problem.n,
        dim=problem.total_dim,
        lipschitz=float(meta["lipschitz"]),
        smoothness=float(meta["smoothness"]),
        b_bar=stats.b_bar,
        b_frak=stats.b_frak,
        staleness_bound=stats.staleness_bound,
        sigma=float(sigma),
        outer_radius=meta.get("outer_radius"),
        inner_radius=problem.inner_radius(),
        breg_diameter=meta.get("breg_diameter"),
        init_gap=init_gap,
        gap_max=meta.get("gap_max"),
    )


@dataclass(frozen=True)
class ParamPlan(_Record):
    """A full parameter tuple for one regime at one target accuracy."""

    _label = "plan"

    regime: str
    epsilon: float
    delta: float
    u: float
    eta: float
    horizon: int
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConditionCheck(_Record):
    """One re-evaluated inequality: ``value <= bound`` or ``value >= bound``."""

    _label = "check"

    name: str
    kind: str  # "max": value must be <= bound; "min": value must be >= bound
    value: float
    bound: float
    satisfied: bool
    slack: float  # bound - value for "max", value - bound for "min"


@dataclass(frozen=True)
class PlanReport(_Record):
    """Verification report for a parameter tuple against its regime."""

    _label = "report"

    regime: str
    epsilon: float
    checks: tuple[ConditionCheck, ...]
    satisfied: bool
    notes: tuple[str, ...] = ()


# Field annotation -> cast applied on construction (see _Record).
_CASTS = {
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "bool": bool,
    "tuple[str, ...]": tuple,
    "tuple[ConditionCheck, ...]": lambda checks: tuple(
        ConditionCheck.from_dict(ch) if isinstance(ch, dict) else ch for ch in checks
    ),
}


def _check(name: str, kind: str, value: float, bound: float) -> ConditionCheck:
    """Judge ``value <= bound`` (kind "max") or ``value >= bound`` (kind "min")."""
    tol = _CHECK_RTOL * max(1.0, abs(bound))
    if kind == "max":
        satisfied, slack = value <= bound + tol, bound - value
    else:
        satisfied, slack = value >= bound - tol, value - bound
    return ConditionCheck(name, kind, value, bound, satisfied, slack)


# ---------------------------------------------------------------------------
# Smoothing radius: the analysed range and the planner's equation
# ---------------------------------------------------------------------------


def analysed_smoothing_range(delta: float, inner_radius: float, dim: int) -> float:
    """``delta * r / (3 sqrt(d))``: the convex bounds hold for smoothing radii
    up to it (Nesterov & Spokoiny 2017), with ``r`` the problem's inner radius."""
    return delta * inner_radius / (3.0 * math.sqrt(dim))


def in_analysed_range(u: float, bound: float) -> bool:
    """``u <= bound`` (an ``analysed_smoothing_range``) up to a relative 1e-12."""
    return u <= bound * (1.0 + 1e-12)


def smoothing_condition_value(u: float, constants: ProblemConstants, epsilon: float) -> float:
    """Left-hand side of the constrained-regime smoothing condition.

    Returns ``u * sqrt(d + (4/9) * max(0, ln(20 G R^2 sqrt(n) / (u eps))))``
    which must stay below ``delta * r / 3``.  Strictly increasing in ``u``.
    """
    if u <= 0:
        raise ConfigurationError(f"smoothing radius must be > 0, got {u!r}")
    c = constants
    if c.outer_radius is None:
        raise ConfigurationError("smoothing condition needs outer_radius (bounded feasible set)")
    log_arg = 20.0 * c.lipschitz * c.outer_radius**2 * math.sqrt(c.n_agents) / (u * epsilon)
    log_term = max(0.0, math.log(log_arg))
    return u * math.sqrt(c.dim + (4.0 / 9.0) * log_term)


def _solve_smoothing_radius(constants: ProblemConstants, epsilon: float, target: float) -> float:
    """Solve ``smoothing_condition_value(u) == target`` for ``u`` by bisection.

    The left-hand side is continuous, vanishes as ``u -> 0`` and exceeds
    ``target`` at ``u = target`` (it is at least ``u * sqrt(d)`` with
    ``d >= 1``), so a root exists in ``(0, target]``.  The feasible (lower)
    endpoint is returned so the inequality holds after rounding.
    """
    if target <= 0:
        raise ConfigurationError(f"smoothing bisection target must be > 0, got {target!r}")
    hi = target
    hi_value = smoothing_condition_value(hi, constants, epsilon)
    if hi_value < target:  # the lhs is >= u * sqrt(d) >= u, so this cannot happen
        raise OracleError(
            "smoothing-radius bisection is not bracketed: "
            f"value at the upper endpoint {hi!r} is {hi_value!r} < target {target!r}"
        )
    lo = 0.0
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if smoothing_condition_value(mid, constants, epsilon) <= target:
            lo = mid
        else:
            hi = mid
    if lo <= 0.0 or hi - lo > _BISECT_RTOL * hi:
        raise OracleError("smoothing-radius bisection failed to converge")
    return lo


# ---------------------------------------------------------------------------
# Regime conditions: one input check, and one bound per condition that
# plan() meets with equality and verify_plan() re-evaluates
# ---------------------------------------------------------------------------


def _require_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}; expected one of {list(REGIMES)}")


def _require_constrained_constants(constants: ProblemConstants, regime: str) -> None:
    missing = [
        name
        for name in ("outer_radius", "inner_radius", "breg_diameter")
        if getattr(constants, name) is None
    ]
    if missing:
        raise ConfigurationError(
            f"regime {regime!r} needs a bounded feasible set; missing constants: {missing}"
        )


def _check_inputs(constants: ProblemConstants, epsilon: float, regime: str, purpose: str) -> float:
    """Refuse inputs on which the regime's bounds are undefined; return ``epsilon``.

    ``purpose`` ("planning" or "verification") names the caller in messages.
    """
    _require_regime(regime)
    epsilon = _require_positive("epsilon", epsilon)
    c = constants
    noiseless = regime.endswith("-noiseless")
    if noiseless != (c.sigma == 0.0):  # sigma >= 0 by construction
        wanted = "exact observations (sigma = 0)" if noiseless else "noisy observations (sigma > 0)"
        raise ConfigurationError(f"regime {regime!r} requires {wanted}, got sigma = {c.sigma}")
    if regime in _CONVEX_REGIMES:
        _require_constrained_constants(c, regime)
        if regime == "convex-noiseless" and c.gap_max is None:
            raise ConfigurationError(
                f"convex-noiseless {purpose} needs gap_max (the admissible accuracy range)"
            )
        if regime == "convex-noisy-interior" and c.smoothness <= 0:
            raise ConfigurationError(f"convex-noisy-interior {purpose} requires smoothness > 0")
    else:
        if c.smoothness <= 0:
            raise ConfigurationError(f"regime {regime!r} requires smoothness > 0")
        if c.b_bar <= 0:
            raise ConfigurationError(
                f"regime {regime!r} requires b_bar > 0 (a single agent with no extra delay is degenerate)"
            )
    return epsilon


def _delta_bound(c: ProblemConstants, epsilon: float, regime: str) -> float:
    """Largest shrinkage factor of a convex regime."""
    if regime == "convex-noisy-interior":
        return math.sqrt(epsilon) / (c.outer_radius * math.sqrt(2.0 * c.smoothness))
    return epsilon / (5.0 * c.lipschitz * c.outer_radius)


def _u_bound(c: ProblemConstants, epsilon: float, delta: float, regime: str) -> float:
    """Bound of the smoothing condition: on ``smoothing_condition_value(u)``
    in a convex regime, on ``u`` itself in a nonconvex one."""
    if regime in _CONVEX_REGIMES:
        return delta * c.inner_radius / 3.0
    return math.sqrt(epsilon) / (4.0 * c.smoothness * math.sqrt(c.dim))


def _eta_bound(c: ProblemConstants, epsilon: float, u: float, regime: str) -> float:
    """Largest step size of the regime at smoothing radius ``u``."""
    if regime == "convex-noiseless":
        return epsilon / (32.0 * _grad_sq(c) * (c.b_frak + 0.5) * (math.sqrt(c.dim) + 1.0) ** 2)
    if regime in _CONVEX_REGIMES:
        return 3.0 * u * u * epsilon / (8.0 * c.sigma**2 * (c.b_frak + 0.5) * (math.sqrt(c.dim) + 1.0) ** 2)
    base = c.smoothness * c.b_bar * math.sqrt(c.n_agents) * c.dim
    if regime == "nonconvex-noiseless":
        return epsilon / (48.0 * base)
    return epsilon * u * u / (c.sigma**2 * 2.0 * base)


def _sample_bound(c: ProblemConstants, epsilon: float, eta: float, regime: str) -> int:
    """Fewest averaged rounds ``T - B + 1`` of the regime at step size ``eta``."""
    if regime in _CONVEX_REGIMES:
        return int(math.ceil(15.0 * c.breg_diameter / (2.0 * eta * epsilon)))
    return int(math.ceil(6.0 * _nonconvex_budget(c)[0] / (eta * epsilon)))


def _nonconvex_budget(constants: ProblemConstants) -> tuple[float, tuple[str, ...]]:
    """Horizon budget ``max(init_gap, 1)``; a note explains a defaulted gap."""
    if constants.init_gap is None:
        return 1.0, ("initial optimality gap not supplied; horizon uses the formula's floor of 1",)
    return max(float(constants.init_gap), 1.0), ()


def _second_order_note(second: str, second_term: float, first: str, first_term: float) -> list[str]:
    """A note when a second-order term of the bound exceeds 10% of the
    first-order term it is neglected against."""
    if second_term > 0.1 * first_term:
        return [
            f"second-order {second} term ({second_term:.6e}) exceeds 10% of the first-order "
            f"{first} term ({first_term:.6e}); epsilon may not be small enough for the "
            "advertised accuracy guarantee"
        ]
    return []


def _bound_note(bound: str, terms: tuple[float, ...], names: tuple[str, ...], epsilon: float) -> list[str]:
    """A note when the plan's own bound (the sum of its `terms`) exceeds
    epsilon, naming the largest term."""
    if sum(terms) > epsilon * (1.0 + _CHECK_RTOL):
        term, name = max(zip(terms, names))
        return [
            f"the {bound} bound at this plan ({sum(terms):.6e}) exceeds epsilon = "
            f"{epsilon}; its {name} term ({term:.6e}) dominates"
        ]
    return []


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan(constants: ProblemConstants, epsilon: float, regime: str) -> ParamPlan:
    """Choose ``delta, u, eta, T`` so every regime condition holds with equality.

    The smoothing radius of the constrained regimes is found by bisection on
    its defining equation to 1e-12 relative accuracy; all other parameters
    are direct substitutions.  ``verify_plan`` on the result is always clean.
    A plan whose own bound exceeds epsilon carries a note naming the bound's
    dominant term: ``expected_gap_bound`` for a convex regime (its interior
    variant for convex-noisy-interior), ``expected_stationarity_bound``
    (which needs ``init_gap``) for a nonconvex one.
    """
    epsilon = _check_inputs(constants, epsilon, regime, "planning")
    c = constants
    notes: list[str] = []
    if regime in _CONVEX_REGIMES:
        if regime == "convex-noiseless" and epsilon > c.gap_max:
            raise ConfigurationError(
                f"epsilon = {epsilon} is outside the admissible range (0, {c.gap_max}] "
                "for the convex-noiseless regime"
            )
        delta = _delta_bound(c, epsilon, regime)
        if delta >= 1.0:
            raise ConfigurationError(
                f"epsilon = {epsilon} is too large: the implied shrinkage factor {delta} reaches 1"
            )
        u = _solve_smoothing_radius(c, epsilon, _u_bound(c, epsilon, delta, regime))
    else:
        delta = 0.0
        notes.append("feasible-set shrinkage disabled: this regime targets unconstrained problems")
        notes += _nonconvex_budget(c)[1]
        u = _u_bound(c, epsilon, delta, regime)
    eta = _eta_bound(c, epsilon, u, regime)
    samples = _sample_bound(c, epsilon, eta, regime)
    if regime in _CONVEX_REGIMES:
        if regime != "convex-noiseless":
            smooth_term, noise_term = _gap_step_terms(c, eta, u)
            notes += _second_order_note("smoothness", smooth_term, "noise", noise_term)
        terms = _gap_terms(c, eta, u, delta, samples, regime == "convex-noisy-interior")
        names = ("averaging", "smoothing-bias", "smoothness", "noise", "tail", "shrinkage-bias")
        notes += _bound_note("gap", terms, names, epsilon)
    else:
        if c.staleness_bound > 0:
            descent, _, _, warmup = _stationarity_terms(c, eta, u, samples, _nonconvex_budget(c)[0])
            notes += _second_order_note("warm-up", warmup, "initial-gap", descent)
        if c.init_gap is not None:
            terms = _stationarity_terms(c, eta, u, samples, c.init_gap)
            names = ("descent", "drift", "smoothing-bias", "warm-up")
            notes += _bound_note("stationarity", terms, names, epsilon)
    return ParamPlan(regime, epsilon, delta, u, eta, c.staleness_bound - 1 + samples, tuple(notes))


def verify_plan(constants: ProblemConstants, epsilon: float, candidate: ParamPlan) -> PlanReport:
    """Re-evaluate every inequality of the candidate's regime and report slack.

    Pure re-evaluation: never raises on a violated inequality, only reports
    it.  Inputs on which the regime's bounds are undefined are refused with
    the same check as in ``plan``, and so is a candidate outside the
    parameters' domain (``eta <= 0``, ``u <= 0``, ``delta`` outside
    ``[0, 1)`` or ``horizon < 0``).  ``plan()`` output verifies clean with
    zero slack (up to 1e-9) on the equality-tight conditions.
    """
    regime = candidate.regime
    epsilon = _check_inputs(constants, epsilon, regime, "verification")
    _require_positive("candidate eta", candidate.eta)
    _require_positive("candidate u", candidate.u)
    if not 0.0 <= candidate.delta < 1.0:
        raise ConfigurationError(f"candidate delta must lie in [0, 1), got {candidate.delta!r}")
    if candidate.horizon < 0:
        raise ConfigurationError(f"candidate horizon must be >= 0, got {candidate.horizon!r}")
    c = constants
    checks: list[ConditionCheck] = []
    notes: list[str] = []
    if regime == "convex-noiseless":
        checks.append(_check("accuracy-range", "max", epsilon, c.gap_max))
    if regime in _CONVEX_REGIMES:
        checks.append(_check("shrinkage", "max", candidate.delta, _delta_bound(c, epsilon, regime)))
        u_value = smoothing_condition_value(candidate.u, c, epsilon)
    else:
        u_value = candidate.u
        notes += _nonconvex_budget(c)[1]
    checks += [
        _check("smoothing", "max", u_value, _u_bound(c, epsilon, candidate.delta, regime)),
        _check("step-size", "max", candidate.eta, _eta_bound(c, epsilon, candidate.u, regime)),
        _check(
            "horizon",
            "min",
            candidate.horizon - c.staleness_bound + 1,
            _sample_bound(c, epsilon, candidate.eta, regime),
        ),
    ]
    return PlanReport(regime, epsilon, tuple(checks), all(ch.satisfied for ch in checks), tuple(notes))


# ---------------------------------------------------------------------------
# Closed-form expected-performance bounds
# ---------------------------------------------------------------------------


def _averaged_rounds(c: ProblemConstants, horizon: int) -> int:
    """Rounds ``T - B + 1`` in a bound's ergodic average; refuses an empty one."""
    if horizon < c.staleness_bound:
        raise ConfigurationError(
            f"horizon {horizon} is below the staleness bound {c.staleness_bound}; "
            "the ergodic average would be empty"
        )
    return horizon - c.staleness_bound + 1


def _grad_sq(c: ProblemConstants) -> float:
    """``G^2 + (L R / 4)^2``, the squared gradient bound of the convex regimes."""
    return c.lipschitz**2 + (c.smoothness * c.outer_radius / 4.0) ** 2


def _gap_step_terms(c: ProblemConstants, eta: float, u: float) -> tuple[float, float]:
    """The gap bound's step-size terms: smoothness ``16 eta (G^2 + (L R / 4)^2) w k``
    and noise ``2 eta sigma^2 / (3 u^2) w k``, with ``w = b_frak + 1/2`` and
    ``k = (sqrt(d) + 1/6)^2``."""
    weight = c.b_frak + 0.5
    cap = (math.sqrt(c.dim) + 1.0 / 6.0) ** 2
    step_term = 16.0 * eta * _grad_sq(c) * weight * cap
    noise_term = 2.0 * eta * c.sigma**2 / (3.0 * u * u) * weight * cap
    return step_term, noise_term


def _gap_terms(
    c: ProblemConstants, eta: float, u: float, delta: float, samples: int, interior: bool
) -> tuple[float, float, float, float, float, float]:
    """The gap bound's terms over ``samples`` averaged rounds: averaging,
    smoothing bias, the two step-size terms of ``_gap_step_terms``, the
    Gaussian tail and the shrinkage bias; with ``interior``, the two biases
    of an optimum inside the feasible set.  ``expected_gap_bound`` sums them."""
    averaging = 5.0 * c.breg_diameter / (4.0 * eta * samples)
    if interior:
        smoothing_bias = 0.5 * u * u * c.smoothness * c.dim
        shrink_bias = 0.5 * c.smoothness * c.outer_radius**2 * delta**2
    else:
        smoothing_bias = u * c.lipschitz * math.sqrt(c.dim)
        shrink_bias = c.lipschitz * c.outer_radius * delta
    step_term, noise_term = _gap_step_terms(c, eta, u)
    tail = (
        5.0
        * c.lipschitz
        * c.outer_radius**2
        * math.sqrt(c.n_agents)
        / (2.0 * u)
        * math.exp(c.dim / 2.0 - (delta * c.inner_radius) ** 2 / (4.0 * u * u))
    )
    return averaging, smoothing_bias, step_term, noise_term, tail, shrink_bias


def _stationarity_terms(
    c: ProblemConstants, eta: float, u: float, samples: int, gap: float
) -> tuple[float, float, float, float]:
    """The stationarity bound's descent, drift, smoothing-bias and warm-up
    terms, with the second moment ``12 G^2 + sigma^2 / (2 u^2)``."""
    moment = 12.0 * c.lipschitz**2 + (c.sigma**2 / (2.0 * u * u) if c.sigma > 0 else 0.0)
    descent = 6.0 * gap / (5.0 * eta * samples)
    drift = 12.0 / 5.0 * eta * c.smoothness * c.b_bar * math.sqrt(c.n_agents) * c.dim * moment
    smoothing_bias = 2.0 * u * u * c.smoothness**2 * c.dim
    warmup = c.lipschitz * c.staleness_bound / samples * math.sqrt(moment * c.dim)
    return descent, drift, smoothing_bias, warmup


def expected_gap_bound(
    constants: ProblemConstants,
    eta: float,
    u: float,
    delta: float,
    horizon: int,
    interior: bool = False,
) -> float:
    """Closed-form bound on the expected ergodic optimality gap (convex case).

    Valid for ``u > 0`` in the ``analysed_smoothing_range`` and ``horizon >=
    staleness_bound``; raises ``ConfigurationError`` outside that range,
    where the formula certifies nothing.  With ``interior=True``
    the variant for an optimum known to lie strictly inside the feasible set
    is evaluated.
    """
    c = constants
    _require_constrained_constants(c, "expected_gap_bound")
    eta = _require_positive("eta", eta)
    u = _require_positive("u", u)
    _require_positive("delta", delta, allow_zero=True)
    bound = analysed_smoothing_range(delta, c.inner_radius, c.dim)
    if not in_analysed_range(u, bound):
        raise ConfigurationError(
            f"expected_gap_bound requires u <= delta * inner_radius / (3 sqrt(d)) = {bound}, got u = {u}"
        )
    averaging, smoothing_bias, step_term, noise_term, tail, shrink_bias = _gap_terms(
        c, eta, u, delta, _averaged_rounds(c, horizon), interior
    )
    return averaging + smoothing_bias + step_term + noise_term + tail + shrink_bias


def expected_stationarity_bound(
    constants: ProblemConstants,
    eta: float,
    u: float,
    horizon: int,
) -> float:
    """Closed-form bound on the mean squared gradient norm (nonconvex case).

    Requires ``init_gap`` (a bound on ``f(x(0)) - inf f``) and
    ``horizon >= staleness_bound``.  The final term is the warm-up cost of
    the first ``staleness_bound`` rounds, which the planner reports but does
    not optimize.
    """
    c = constants
    if c.init_gap is None:
        raise ConfigurationError("expected_stationarity_bound requires init_gap")
    if c.smoothness <= 0:
        raise ConfigurationError("expected_stationarity_bound requires smoothness > 0")
    eta = _require_positive("eta", eta)
    u = _require_positive("u", u)
    samples = _averaged_rounds(c, horizon)
    descent, drift, smoothing_bias, warmup = _stationarity_terms(c, eta, u, samples, c.init_gap)
    return descent + drift + smoothing_bias + warmup


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def scaling_report(
    constants: ProblemConstants,
    regime: str,
    epsilons: list[float] | tuple[float, ...],
) -> dict:
    """Tabulate planned horizons across accuracies and fit the growth exponent.

    Fits ``log T`` against ``log(1/epsilon)`` by least squares.  Requires at
    least three accuracies spanning a factor of four or more.
    """
    _require_regime(regime)
    eps = [float(e) for e in epsilons]
    if len(eps) < 3:
        raise ConfigurationError(f"scaling_report needs at least 3 accuracies, got {len(eps)}")
    for e in eps:
        _require_positive("epsilon", e)
    if max(eps) / min(eps) < 4.0:
        raise ConfigurationError(
            "scaling_report needs accuracies spanning at least a factor of 4, "
            f"got {max(eps) / min(eps):.3g}"
        )
    eps_sorted = sorted(eps, reverse=True)
    rows = []
    for e in eps_sorted:
        p = plan(constants, e, regime)
        rows.append(
            {
                "epsilon": e,
                "horizon": p.horizon,
                "samples": p.horizon - constants.staleness_bound + 1,
            }
        )
    log_inv_eps = np.log([1.0 / r["epsilon"] for r in rows])
    log_t = np.log([float(r["horizon"]) for r in rows])
    exponent = float(np.polyfit(log_inv_eps, log_t, 1)[0])
    return {"regime": regime, "rows": rows, "exponent": exponent}
