"""Tests for parameter planning, verification, bounds, and scaling."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from zfo.cli import main
from zfo.errors import ConfigurationError, DomainError
from zfo.network import CommGraph, network_stats
from zfo.planner import (
    REGIMES,
    ConditionCheck,
    ParamPlan,
    PlanReport,
    ProblemConstants,
    analysed_smoothing_range,
    constants_for,
    expected_gap_bound,
    expected_stationarity_bound,
    plan,
    scaling_report,
    smoothing_condition_value,
    verify_plan,
)
from zfo.problems import (
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    routing_problem,
)
from zfo.runner import RunConfig, run


def _constants(**overrides) -> ProblemConstants:
    base = dict(
        n_agents=4,
        dim=6,
        lipschitz=2.0,
        smoothness=1.5,
        b_bar=2.2,
        b_frak=2.5,
        staleness_bound=3,
        sigma=0.0,
        outer_radius=2.0,
        inner_radius=0.4,
        breg_diameter=8.0,
        init_gap=3.0,
        gap_max=20.0,
    )
    base.update(overrides)
    return ProblemConstants(**base)


# ---------------------------------------------------------------------------
# Independent transcriptions of the closed-form planning conditions, used as
# oracles against the library implementation.
# ---------------------------------------------------------------------------


def _oracle_convex_noiseless(c: ProblemConstants, eps: float):
    G, L, R = c.lipschitz, c.smoothness, c.outer_radius
    delta = eps / (5 * G * R)
    eta = eps / (32 * (G**2 + (L * R / 4) ** 2) * (c.b_frak + 1 / 2) * (math.sqrt(c.dim) + 1) ** 2)
    samples = math.ceil(15 * c.breg_diameter / (2 * eta * eps))
    return delta, eta, samples


def _oracle_smoothing_lhs(u: float, c: ProblemConstants, eps: float) -> float:
    arg = 20 * c.lipschitz * c.outer_radius**2 * math.sqrt(c.n_agents) / (u * eps)
    return u * math.sqrt(c.dim + (4 / 9) * max(0.0, math.log(arg)))


def _oracle_gap_bound(c, eta, u, delta, horizon, interior):
    d, n = c.dim, c.n_agents
    G, L, R, r = c.lipschitz, c.smoothness, c.outer_radius, c.inner_radius
    samples = horizon - c.staleness_bound + 1
    w = c.b_frak + 1 / 2
    cap = (math.sqrt(d) + 1 / 6) ** 2
    t1 = 5 * c.breg_diameter / (4 * eta * samples)
    t2 = 0.5 * L * d * u**2 if interior else G * math.sqrt(d) * u
    t3 = 16 * eta * (G**2 + (L * R / 4) ** 2) * w * cap
    t4 = (2 * eta * c.sigma**2) / (3 * u**2) * w * cap
    t5 = (5 * G * R**2 * math.sqrt(n)) / (2 * u) * math.exp(d / 2 - (delta**2 * r**2) / (4 * u**2))
    t6 = 0.5 * L * R**2 * delta**2 if interior else G * R * delta
    return t1 + t2 + t3 + t4 + t5 + t6


def _oracle_stationarity_bound(c, eta, u, horizon):
    d, n = c.dim, c.n_agents
    G, L = c.lipschitz, c.smoothness
    samples = horizon - c.staleness_bound + 1
    moment = 12 * G**2 + c.sigma**2 / (2 * u**2)
    t1 = 6 * c.init_gap / (5 * eta * samples)
    t2 = (12 / 5) * eta * L * c.b_bar * math.sqrt(n) * d * moment
    t3 = 2 * u**2 * L**2 * d
    t4 = G * c.staleness_bound / samples * math.sqrt(moment * d)
    return t1 + t2 + t3 + t4


# ---------------------------------------------------------------------------
# Frozen scalar examples
# ---------------------------------------------------------------------------


def test_convex_noiseless_delta_frozen():
    c = _constants(lipschitz=1.0, outer_radius=1.0)
    p = plan(c, 0.1, "convex-noiseless")
    assert p.delta == pytest.approx(0.02, abs=0.0)


def test_nonconvex_noiseless_u_frozen():
    c = _constants(smoothness=1.0, dim=4)
    for eps in (0.5, 0.1, 0.01):
        p = plan(c, eps, "nonconvex-noiseless")
        assert p.u == pytest.approx(math.sqrt(eps) / 8, rel=1e-15)


def test_convex_noiseless_full_plan_matches_oracle():
    c = _constants()
    eps = 0.7
    p = plan(c, eps, "convex-noiseless")
    delta, eta, samples = _oracle_convex_noiseless(c, eps)
    assert p.delta == delta
    assert p.eta == eta
    assert p.horizon == c.staleness_bound - 1 + samples
    target = delta * c.inner_radius / 3
    lhs = _oracle_smoothing_lhs(p.u, c, eps)
    assert lhs <= target
    assert lhs >= target * (1 - 1e-9)


def test_convex_noisy_eta_matches_formula():
    c = _constants(sigma=0.3)
    eps = 0.25
    p = plan(c, eps, "convex-noisy")
    expected_eta = (
        3 * p.u**2 * eps / (8 * c.sigma**2 * (c.b_frak + 1 / 2) * (math.sqrt(c.dim) + 1) ** 2)
    )
    assert p.eta == pytest.approx(expected_eta, rel=1e-15)
    assert p.delta == pytest.approx(eps / (5 * c.lipschitz * c.outer_radius), rel=1e-15)


def test_convex_noisy_interior_delta():
    c = _constants(sigma=0.3)
    eps = 0.05
    p = plan(c, eps, "convex-noisy-interior")
    assert p.delta == pytest.approx(
        math.sqrt(eps) / (c.outer_radius * math.sqrt(2 * c.smoothness)), rel=1e-15
    )


def test_nonconvex_noisy_eta_matches_formula():
    c = _constants(sigma=0.2)
    eps = 0.1
    p = plan(c, eps, "nonconvex-noisy")
    u = math.sqrt(eps) / (4 * c.smoothness * math.sqrt(c.dim))
    expected_eta = eps * u**2 / (c.sigma**2 * 2 * c.smoothness * c.b_bar * math.sqrt(c.n_agents) * c.dim)
    assert p.u == pytest.approx(u, rel=1e-15)
    assert p.eta == pytest.approx(expected_eta, rel=1e-15)
    budget = max(c.init_gap, 1.0)
    assert p.horizon == c.staleness_bound - 1 + math.ceil(6 * budget / (p.eta * eps))


def test_nonconvex_plans_have_zero_shrinkage():
    for regime, sigma in (("nonconvex-noiseless", 0.0), ("nonconvex-noisy", 0.1)):
        p = plan(_constants(sigma=sigma), 0.2, regime)
        assert p.delta == 0.0
        assert any("unconstrained" in note for note in p.notes)


# ---------------------------------------------------------------------------
# Smoothing-radius bisection
# ---------------------------------------------------------------------------


def test_bisection_hits_equality_and_implies_dimension_hypothesis():
    c = _constants()
    for eps in (1.0, 0.2, 0.01):
        p = plan(c, eps, "convex-noiseless")
        target = p.delta * c.inner_radius / 3
        lhs = smoothing_condition_value(p.u, c, eps)
        assert lhs <= target
        assert lhs == pytest.approx(target, rel=1e-9)
        # The smoothing condition is the strong form of the per-dimension cap.
        assert p.u <= p.delta * c.inner_radius / (3 * math.sqrt(c.dim))


def test_smoothing_condition_value_validation():
    c = _constants()
    with pytest.raises(ConfigurationError):
        smoothing_condition_value(0.0, c, 0.1)
    unbounded = _constants(outer_radius=None, inner_radius=None, breg_diameter=None)
    with pytest.raises(ConfigurationError):
        smoothing_condition_value(0.1, unbounded, 0.1)


# ---------------------------------------------------------------------------
# Regime admissibility
# ---------------------------------------------------------------------------


def test_epsilon_above_admissible_range_rejected():
    c = _constants(gap_max=0.5)
    with pytest.raises(ConfigurationError, match="admissible range"):
        plan(c, 0.6, "convex-noiseless")


def test_missing_gap_max_rejected_for_convex_noiseless():
    c = _constants(gap_max=None)
    with pytest.raises(ConfigurationError, match="gap_max"):
        plan(c, 0.1, "convex-noiseless")


def test_noise_level_must_match_regime():
    with pytest.raises(ConfigurationError, match="sigma"):
        plan(_constants(sigma=0.1), 0.1, "convex-noiseless")
    with pytest.raises(ConfigurationError, match="sigma"):
        plan(_constants(sigma=0.0), 0.1, "convex-noisy")
    with pytest.raises(ConfigurationError, match="sigma"):
        plan(_constants(sigma=0.0), 0.1, "nonconvex-noisy")


def test_unbounded_sets_rejected_for_convex_regimes():
    c = _constants(outer_radius=None, inner_radius=None, breg_diameter=None)
    with pytest.raises(ConfigurationError, match="bounded"):
        plan(c, 0.1, "convex-noiseless")


def test_unknown_regime_rejected():
    with pytest.raises(ConfigurationError, match="regime"):
        plan(_constants(), 0.1, "strongly-convex")


# Inputs on which a regime's bounds are undefined: plan and verify_plan share
# one input check, so each must refuse all of them.
_REFUSED_INPUTS = [
    ("unknown-regime", {}, "strongly-convex", "unknown regime"),
    ("noisy-sigma-for-noiseless", {"sigma": 0.1}, "convex-noiseless", "sigma = 0"),
    ("zero-sigma-for-noisy", {"sigma": 0.0}, "nonconvex-noisy", "sigma > 0"),
    (
        "unbounded-set",
        {"sigma": 0.1, "outer_radius": None, "inner_radius": None, "breg_diameter": None},
        "convex-noisy",
        "bounded feasible set",
    ),
    ("missing-gap-max", {"gap_max": None}, "convex-noiseless", "gap_max"),
    ("interior-zero-smoothness", {"sigma": 0.1, "smoothness": 0.0}, "convex-noisy-interior", "smoothness > 0"),
    ("nonconvex-zero-smoothness", {"smoothness": 0.0}, "nonconvex-noiseless", "smoothness > 0"),
    ("nonconvex-noisy-zero-smoothness", {"sigma": 0.1, "smoothness": 0.0}, "nonconvex-noisy", "smoothness > 0"),
    ("zero-b-bar", {"b_bar": 0.0}, "nonconvex-noiseless", "b_bar > 0"),
]


@pytest.mark.parametrize(
    "overrides, regime, message",
    [case[1:] for case in _REFUSED_INPUTS],
    ids=[case[0] for case in _REFUSED_INPUTS],
)
def test_plan_and_verify_refuse_the_same_inputs(overrides, regime, message):
    c = _constants(**overrides)
    with pytest.raises(ConfigurationError, match=message):
        plan(c, 0.1, regime)
    candidate = ParamPlan(regime=regime, epsilon=0.1, delta=0.1, u=0.01, eta=1e-3, horizon=100)
    with pytest.raises(ConfigurationError, match=message):
        verify_plan(c, 0.1, candidate)


def test_oversized_epsilon_shrinkage_guard():
    # Noisy regimes have no stated accuracy ceiling; the planner still refuses
    # a shrinkage factor that would collapse the feasible set.
    c = _constants(sigma=0.5, lipschitz=0.1, outer_radius=0.5)
    with pytest.raises(ConfigurationError, match="shrinkage"):
        plan(c, 1.0, "convex-noisy")


def test_missing_init_gap_floors_budget_with_note():
    c = _constants(init_gap=None)
    eps = 0.3
    p = plan(c, eps, "nonconvex-noiseless")
    assert any("floor of 1" in note for note in p.notes)
    assert p.horizon == c.staleness_bound - 1 + math.ceil(6 * 1.0 / (p.eta * eps))


# ---------------------------------------------------------------------------
# verify_plan
# ---------------------------------------------------------------------------


def _random_constants(rng: np.random.Generator, sigma: float) -> ProblemConstants:
    n = int(rng.integers(1, 9))
    d = n + int(rng.integers(0, 10))
    G = float(rng.uniform(0.2, 5.0))
    L = float(rng.uniform(0.05, 3.0))
    R = float(rng.uniform(0.5, 4.0))
    return ProblemConstants(
        n_agents=n,
        dim=d,
        lipschitz=G,
        smoothness=L,
        b_bar=float(rng.uniform(0.5, 5.0)),
        b_frak=float(rng.uniform(0.5, 5.0)),
        staleness_bound=int(rng.integers(1, 7)),
        sigma=sigma,
        outer_radius=R,
        inner_radius=float(rng.uniform(0.05, 1.0) * R),
        breg_diameter=2.0 * R**2,
        init_gap=float(rng.uniform(0.1, 5.0)),
        gap_max=2.0 * G * R,
    )


def _random_epsilon(rng: np.random.Generator, c: ProblemConstants, regime: str) -> float:
    if regime == "convex-noiseless":
        cap = c.gap_max
    elif regime == "convex-noisy":
        cap = 5 * c.lipschitz * c.outer_radius  # keeps the shrinkage factor below 1
    elif regime == "convex-noisy-interior":
        cap = 2 * c.smoothness * c.outer_radius**2
    else:
        cap = 1.0
    return float(cap * rng.uniform(0.05, 0.8))


_EQUALITY_CHECKS = {"shrinkage", "smoothing", "step-size", "horizon"}


def test_plan_verify_roundtrip_random_constants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        for regime in REGIMES:
            sigma = 0.0 if regime.endswith("-noiseless") else float(rng.uniform(0.05, 1.0))
            c = _random_constants(rng, sigma)
            eps = _random_epsilon(rng, c, regime)
            p = plan(c, eps, regime)
            report = verify_plan(c, eps, p)
            assert report.satisfied, (regime, report.as_dict())
            for check in report.checks:
                if check.name in _EQUALITY_CHECKS:
                    assert abs(check.slack) <= 1e-9 * max(1.0, abs(check.bound)), (
                        regime,
                        check.as_dict(),
                    )


def test_verify_flags_doubled_step_size():
    c = _constants()
    eps = 0.5
    p = plan(c, eps, "convex-noiseless")
    bad = replace(p, eta=2 * p.eta)
    report = verify_plan(c, eps, bad)
    assert not report.satisfied
    step = next(ch for ch in report.checks if ch.name == "step-size")
    assert not step.satisfied
    assert step.slack == pytest.approx(-p.eta, rel=1e-12)
    # The other conditions are unaffected except the horizon, which now has
    # twice the required sample count and reports positive integer slack.
    horizon = next(ch for ch in report.checks if ch.name == "horizon")
    assert horizon.satisfied


def test_verify_flags_short_horizon_with_integer_slack():
    c = _constants()
    eps = 0.5
    p = plan(c, eps, "convex-noiseless")
    bad = replace(p, horizon=p.horizon - 7)
    report = verify_plan(c, eps, bad)
    horizon = next(ch for ch in report.checks if ch.name == "horizon")
    assert not horizon.satisfied
    assert horizon.slack == -7.0


def test_verify_accepts_strictly_smaller_eta():
    c = _constants(sigma=0.4)
    eps = 0.2
    p = plan(c, eps, "convex-noisy")
    # A smaller step size is admissible, but the same horizon then violates
    # the sample-count requirement.
    slower = replace(p, eta=p.eta / 3)
    report = verify_plan(c, eps, slower)
    step = next(ch for ch in report.checks if ch.name == "step-size")
    assert step.satisfied and step.slack > 0
    horizon = next(ch for ch in report.checks if ch.name == "horizon")
    assert not horizon.satisfied


@pytest.mark.parametrize(
    "field, value",
    [
        ("eta", 0.0),
        ("eta", -1e-3),
        ("eta", math.nan),
        ("u", 0.0),
        ("u", -1.0),
        ("delta", -0.1),
        ("delta", 1.0),
        ("horizon", -1),
    ],
)
@pytest.mark.parametrize("regime", ["convex-noiseless", "nonconvex-noiseless"])
def test_verify_refuses_candidate_outside_parameter_domain(regime, field, value):
    # eta = 0 used to divide by zero in the sample bound, and eta < 0 or
    # u < 0 used to verify as satisfied against a negative horizon bound
    c = _constants()
    candidate = replace(plan(c, 0.5, regime), **{field: value})
    with pytest.raises(ConfigurationError, match=f"candidate {field} must"):
        verify_plan(c, 0.5, candidate)


def test_verify_interior_uses_interior_shrinkage_bound():
    c = _constants(sigma=0.4)
    eps = 0.05
    p = plan(c, eps, "convex-noisy-interior")
    report = verify_plan(c, eps, p)
    shrink = next(ch for ch in report.checks if ch.name == "shrinkage")
    assert shrink.bound == pytest.approx(
        math.sqrt(eps) / (c.outer_radius * math.sqrt(2 * c.smoothness)), rel=1e-15
    )
    assert report.satisfied


# ---------------------------------------------------------------------------
# Second-order advisories
# ---------------------------------------------------------------------------


def test_second_order_advisory_for_large_noise_free_term():
    # With very small noise the smoothing radius stays moderate while the
    # noise term shrinks, so the smoothness term dominates and is flagged.
    c = _constants(sigma=1e-3)
    p = plan(c, 0.5, "convex-noisy")
    assert any("second-order" in note for note in p.notes)


def test_no_second_order_advisory_for_dominant_noise():
    c = _constants(sigma=50.0)
    p = plan(c, 0.05, "convex-noisy")
    assert not any("second-order" in note for note in p.notes)


@pytest.mark.parametrize(
    "regime, sigma, eps, horizon, drift",
    [
        ("nonconvex-noiseless", 0.0, 0.5, 7717, 0.52),
        ("nonconvex-noiseless", 0.0, 1.0, 1930, 1.04),
        ("nonconvex-noisy", 1.0, 1.0, 3402, 1.19),
        ("nonconvex-noisy", 0.1, 1.0, 36, 59.6),
    ],
)
def test_nonconvex_plan_that_misses_its_bound_names_the_dominant_term(
    regime, sigma, eps, horizon, drift
):
    problem = build_trig_sum(3, 1, seed=0)
    stats = network_stats(CommGraph.path(3), delta=0, dims=problem.dims)
    c = constants_for(problem, stats, sigma=sigma, x0=np.zeros(3))
    p = plan(c, eps, regime)
    assert p.horizon == horizon
    bound = expected_stationarity_bound(c, p.eta, p.u, p.horizon)
    assert bound > eps
    (note,) = [n for n in p.notes if "stationarity bound" in n]
    assert note.startswith(f"the stationarity bound at this plan ({bound:.6e}) exceeds epsilon")
    name, term = re.search(r"its (\S+) term \(([^)]+)\) dominates$", note).groups()
    assert name == "drift" and float(term) == pytest.approx(drift, rel=0.01)


@pytest.mark.parametrize(
    "regime, sigma, eps, bound",
    [
        ("convex-noisy", 0.01, 2.0, 20.38),
        ("convex-noisy-interior", 0.1, 2.0, 15.49),
        ("convex-noisy-interior", 0.01, 1.0, 343.5),
        ("convex-noiseless", 0.0, 2.0, 1.349),  # acceptance 5's plan
        ("convex-noisy", 0.5, 2.0, 1.069),
    ],
)
def test_convex_plan_states_its_own_gap_bound_when_it_misses_epsilon(regime, sigma, eps, bound):
    problem = build_box_quadratic(3, 2, seed=0)
    stats = network_stats(CommGraph.path(3), delta=0, dims=problem.dims)
    c = constants_for(problem, stats, sigma=sigma)
    p = plan(c, eps, regime)
    got = expected_gap_bound(c, p.eta, p.u, p.delta, p.horizon, interior=regime.endswith("interior"))
    assert got == pytest.approx(bound, rel=1e-3)
    notes = [n for n in p.notes if "gap bound" in n]
    if bound <= eps:
        assert notes == []
        return
    (note,) = notes
    assert note.startswith(f"the gap bound at this plan ({got:.6e}) exceeds epsilon = {eps}")
    name, term = re.search(r"its (\S+) term \(([^)]+)\) dominates$", note).groups()
    # the step size is sized from the noise term alone, so at small sigma the
    # smoothness term leads: the one the second-order note already names
    assert name == "smoothness"
    assert any(n.startswith(f"second-order smoothness term ({term})") for n in p.notes)


def test_nonconvex_plan_within_its_bound_carries_no_bound_note():
    # noise-dominated moment: the step size covers it and the bound holds
    c = _constants(sigma=5.0)
    p = plan(c, 0.3, "nonconvex-noisy")
    assert expected_stationarity_bound(c, p.eta, p.u, p.horizon) <= 0.3
    assert not any("stationarity bound" in note for note in p.notes)


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def test_expected_gap_bound_matches_transcription():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = _random_constants(rng, sigma=float(rng.uniform(0.0, 0.5)))
        delta = float(rng.uniform(0.05, 0.5))
        sqrt_d = math.sqrt(c.dim)
        u = float(delta * c.inner_radius / (3 * sqrt_d) * rng.uniform(0.2, 1.0))
        eta = float(rng.uniform(1e-4, 1e-1))
        horizon = c.staleness_bound + int(rng.integers(0, 500))
        for interior in (False, True):
            got = expected_gap_bound(c, eta, u, delta, horizon, interior=interior)
            want = _oracle_gap_bound(c, eta, u, delta, horizon, interior)
            assert got == pytest.approx(want, rel=1e-12)


def test_expected_gap_bound_rejects_hypothesis_violation():
    c = _constants()
    delta = 0.2
    u_max = delta * c.inner_radius / (3 * math.sqrt(c.dim))
    with pytest.raises(ConfigurationError, match="u <="):
        expected_gap_bound(c, 1e-3, 2 * u_max, delta, c.staleness_bound + 10)
    with pytest.raises(ConfigurationError, match="staleness"):
        expected_gap_bound(c, 1e-3, 0.5 * u_max, delta, c.staleness_bound - 1)


def test_run_note_and_gap_bound_share_the_analysed_range():
    # box 3 x 2 on a path at delta = 0.1: r is the box's half-width 1
    problem = build_box_quadratic(3, 2, seed=0)
    graph = CommGraph.path(3)
    c = constants_for(problem, network_stats(graph, delta=0, dims=problem.dims))
    delta = 0.1
    bound = analysed_smoothing_range(delta, c.inner_radius, c.dim)
    assert bound == delta * 1.0 / (3.0 * math.sqrt(6))
    for scale, inside in ((1.0 + 1e-13, True), (1.0 + 1e-9, False)):
        u = bound * scale
        trace = run(RunConfig(problem, graph, eta=1e-3, u=u, horizon=10, delta=delta))
        noted = any("exceeds the analyzed range" in note for note in trace.notes)
        assert noted is not inside, scale
        if inside:
            assert expected_gap_bound(c, 1e-3, u, delta, 100) > 0.0
        else:
            with pytest.raises(ConfigurationError, match=r"requires u <= .* = " + re.escape(str(bound))):
                expected_gap_bound(c, 1e-3, u, delta, 100)


def test_constants_for_has_no_inner_radius_for_an_unconstrained_problem():
    problem = build_trig_sum(3, 1, seed=0)
    stats = network_stats(CommGraph.path(3), delta=0, dims=problem.dims)
    assert problem.inner_radius() is None
    assert constants_for(problem, stats).inner_radius is None


def test_expected_stationarity_bound_matches_transcription():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = _random_constants(rng, sigma=float(rng.uniform(0.0, 0.5)))
        u = float(rng.uniform(1e-3, 0.3))
        eta = float(rng.uniform(1e-4, 1e-1))
        horizon = c.staleness_bound + int(rng.integers(0, 500))
        got = expected_stationarity_bound(c, eta, u, horizon)
        want = _oracle_stationarity_bound(c, eta, u, horizon)
        assert got == pytest.approx(want, rel=1e-12)


def test_expected_stationarity_bound_requires_init_gap():
    c = _constants(init_gap=None)
    with pytest.raises(ConfigurationError, match="init_gap"):
        expected_stationarity_bound(c, 1e-3, 1e-2, c.staleness_bound + 5)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

_SCALING_EPS = [0.2, 0.1, 0.05, 0.025]


def test_scaling_exponent_convex_noiseless():
    report = scaling_report(_constants(), "convex-noiseless", _SCALING_EPS)
    assert report["exponent"] == pytest.approx(2.0, abs=0.1)


def test_scaling_exponent_nonconvex_noiseless():
    report = scaling_report(_constants(), "nonconvex-noiseless", _SCALING_EPS)
    assert report["exponent"] == pytest.approx(2.0, abs=0.1)


def test_scaling_exponent_nonconvex_noisy():
    report = scaling_report(_constants(sigma=0.2), "nonconvex-noisy", _SCALING_EPS)
    assert report["exponent"] == pytest.approx(3.0, abs=0.15)


def test_scaling_exponent_convex_noisy_grows_faster():
    report = scaling_report(_constants(sigma=0.2), "convex-noisy", _SCALING_EPS)
    assert 3.9 <= report["exponent"] <= 4.5


def test_epsilon_halving_grows_horizon_fourfold():
    c = _constants()
    t_coarse = plan(c, 0.2, "convex-noiseless").horizon
    t_fine = plan(c, 0.1, "convex-noiseless").horizon
    assert t_fine / t_coarse == pytest.approx(4.0, rel=0.1)


def test_scaling_report_input_validation():
    c = _constants()
    with pytest.raises(ConfigurationError, match="at least 3"):
        scaling_report(c, "convex-noiseless", [0.2, 0.1])
    with pytest.raises(ConfigurationError, match="factor"):
        scaling_report(c, "convex-noiseless", [0.2, 0.15, 0.1])


def test_scaling_report_rows_sorted_and_consistent():
    c = _constants()
    report = scaling_report(c, "convex-noiseless", [0.05, 0.2, 0.1, 0.025])
    eps_col = [row["epsilon"] for row in report["rows"]]
    assert eps_col == sorted(eps_col, reverse=True)
    for row in report["rows"]:
        assert row["horizon"] == plan(c, row["epsilon"], "convex-noiseless").horizon


# ---------------------------------------------------------------------------
# Constants plumbing
# ---------------------------------------------------------------------------


def test_constants_for_box_quadratic_on_path():
    problem = build_box_quadratic(3, 2, seed=0)
    graph = CommGraph.path(3)
    stats = network_stats(graph, delta=1, dims=problem.dims)
    x0 = np.zeros(problem.total_dim)
    c = constants_for(problem, stats, sigma=0.25, x0=x0)
    assert c.n_agents == 3
    assert c.dim == 6
    assert c.lipschitz == problem.meta["lipschitz"]
    assert c.smoothness == problem.meta["smoothness"]
    assert c.outer_radius == problem.meta["outer_radius"]
    assert c.inner_radius == problem.inner_radius() == 1.0  # the box's half-width
    assert c.breg_diameter == problem.meta["breg_diameter"]
    assert c.gap_max == problem.meta["gap_max"]
    assert c.b_bar == stats.b_bar
    assert c.b_frak == stats.b_frak
    assert c.staleness_bound == stats.staleness_bound
    assert c.sigma == 0.25
    assert c.init_gap == pytest.approx(problem.global_cost(x0) - problem.f_star, rel=1e-12)


def test_constants_for_judges_x0_with_the_guard():
    # the box's per-coordinate slack once let this point through; the guard's
    # Euclidean 1e-9 refuses it, for every problem kind
    problem = build_box_quadratic(1, 2, seed=0)
    stats = network_stats(CommGraph.path(1), delta=0, dims=problem.dims)
    with pytest.raises(DomainError, match=r"^x0 puts agent 1 outside its feasible set$"):
        constants_for(problem, stats, x0=np.full(2, 1.0 + 0.8e-9))
    assert constants_for(problem, stats, x0=np.full(2, 1.0)).init_gap is not None
    routing = routing_problem(build_routing_instance(2, 3, seed=1))
    stats = network_stats(CommGraph.complete(routing.n), delta=0, dims=routing.dims)
    x0 = np.zeros(routing.total_dim)
    x0[3 * 4] = 1.0  # agent 5's first reduced share past the simplex
    with pytest.raises(DomainError, match=r"^x0 puts agent 5 outside"):
        constants_for(routing, stats, x0=x0)


def test_constants_for_rejects_size_mismatch():
    problem = build_box_quadratic(3, 2, seed=0)
    graph = CommGraph.path(4)
    stats = network_stats(graph, delta=0, dims=(2, 2, 2, 2))
    with pytest.raises(ConfigurationError, match="nodes"):
        constants_for(problem, stats)


def test_constants_for_names_the_missing_constants():
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    problem = replace(problem, meta={"outer_radius": problem.meta["outer_radius"]})
    stats = network_stats(CommGraph.complete(problem.n), delta=0, dims=problem.dims)
    with pytest.raises(
        ConfigurationError, match=r"^problem 'routing' records no lipschitz or smoothness constant"
    ):
        constants_for(problem, stats)


@pytest.mark.parametrize("regime", REGIMES)
def test_routing_constants_plan_and_verify_in_every_regime(regime, tmp_path, capsys):
    # planned, not run: the certified horizons are far beyond a test's budget
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    stats = network_stats(CommGraph.complete(problem.n), delta=0, dims=problem.dims)
    sigma = 0.0 if regime.endswith("noiseless") else 0.5
    c = constants_for(problem, stats, sigma=sigma, x0=np.zeros(problem.total_dim))
    epsilon = 0.5 * c.gap_max
    p = plan(c, epsilon, regime)
    assert p.horizon >= c.staleness_bound
    assert verify_plan(c, epsilon, p).satisfied
    path = tmp_path / "routing-constants.json"
    path.write_text(json.dumps(c.as_dict()))
    argv = ["plan", "--regime", regime, "--eps", str(epsilon), "--constants", str(path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["report"]["satisfied"] is True


def test_constants_dict_roundtrip():
    c = _constants(sigma=0.1)
    again = ProblemConstants.from_dict(c.as_dict())
    assert again == c
    with pytest.raises(ConfigurationError, match="unknown"):
        ProblemConstants.from_dict({**c.as_dict(), "bogus": 1})
    with pytest.raises(ConfigurationError, match="missing"):
        ProblemConstants.from_dict({"n_agents": 2})


def test_constants_from_json_integers_serialise_as_floats():
    # A constants file may spell a float field as a JSON integer; the record
    # stores it as a float, so the serialised form does not depend on it.
    doc = json.loads(
        '{"n_agents": 3, "dim": 6, "lipschitz": 2, "smoothness": 1, "b_bar": 2, '
        '"b_frak": 3, "staleness_bound": 2, "sigma": 0, "outer_radius": 2, "gap_max": 20}'
    )
    out = ProblemConstants.from_dict(doc).as_dict()
    for name in ("lipschitz", "smoothness", "b_bar", "b_frak", "sigma", "outer_radius", "gap_max"):
        assert type(out[name]) is float, name
    for name in ("n_agents", "dim", "staleness_bound"):
        assert type(out[name]) is int, name
    assert out["inner_radius"] is None
    assert '"lipschitz": 2.0' in json.dumps(out)


def test_plan_dict_roundtrip():
    c = _constants()
    p = plan(c, 0.4, "convex-noiseless")
    again = ParamPlan.from_dict(p.as_dict())
    assert again == p
    with pytest.raises(ConfigurationError, match="unknown"):
        ParamPlan.from_dict({**p.as_dict(), "bogus": 1})
    with pytest.raises(ConfigurationError, match="missing"):
        ParamPlan.from_dict({"regime": p.regime})


def test_report_dict_roundtrip():
    c = _constants(sigma=0.2, init_gap=None)
    p = plan(c, 0.1, "nonconvex-noisy")
    report = verify_plan(c, 0.1, p)
    assert report.notes
    again = PlanReport.from_dict(json.loads(json.dumps(report.as_dict())))
    assert again == report
    assert isinstance(again.checks[0], ConditionCheck)


def test_constants_validation():
    with pytest.raises(ConfigurationError, match="n_agents"):
        _constants(n_agents=0)
    with pytest.raises(ConfigurationError, match="lipschitz"):
        _constants(lipschitz=-1.0)
    with pytest.raises(ConfigurationError, match="staleness"):
        _constants(staleness_bound=-1)
    with pytest.raises(ConfigurationError, match="finite"):
        _constants(outer_radius=float("inf"))


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: _constants(b_bar=-0.5), "b_bar must be >= 0, got -0.5"),
        (lambda: _constants(lipschitz="a"), "lipschitz must be a number, got 'a'"),
        (lambda: _constants(sigma=None), "sigma must be a number, got None"),
        (lambda: _constants(gap_max=True), "gap_max must be a number, got True"),
        (lambda: _constants(n_agents=True), "n_agents must be a positive integer, got True"),
        (lambda: _constants(dim="6"), "dim must be a positive integer, got '6'"),
        (lambda: _constants(staleness_bound=2.5),
         "staleness_bound must be a non-negative integer, got 2.5"),
        (lambda: _constants(n_agents=float("nan")), "n_agents must be a positive integer, got nan"),
        (lambda: expected_stationarity_bound(_constants(smoothness=0.0), 0.1, 1e-3, 100),
         "expected_stationarity_bound requires smoothness > 0"),
    ],
    ids=["negative_allowed_zero", "string", "null", "bool", "bool_integer", "string_integer",
         "fractional_integer", "nan_integer", "stationarity_smoothness"],
)
def test_planner_refusals_name_the_field(make, named):
    with pytest.raises(ConfigurationError) as info:
        make()
    assert str(info.value) == named
