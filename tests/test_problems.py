"""Problem-construction tests: hand-computed routing costs, gradient
checks against central finite differences, reparameterization round
trips, dependence detection, and the centralized reference solver."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfo.cli import main
from zfo.errors import ConfigurationError, DomainError, OracleError
from zfo.problems import (
    RoutingInstance,
    alloc_to_reduced,
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    centralized_solve,
    estimate_constants,
    eval_allocation,
    reduced_to_alloc,
    routing_affected_sets,
    routing_problem,
    sample_feasible_reduced,
)
from test_runner import _mixed_problem


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def _hand_instance(**overrides):
    """One group, two agents, four routes with hand-picked coefficients."""
    base = dict(
        n_groups=1,
        agents_per_group=2,
        routes=np.array([[0, 1, 2, 3], [0, 1, 2, 3]]),
        traffic=np.array([2.0, 0.5]),
        quad=np.array([1.0, 0.0, 0.0, 0.0]),
        lin=np.zeros(4),
        offset=np.array([0.0, 1.0, 0.0, 0.0]),
        groups=np.array([0, 0]),
    )
    base.update(overrides)
    return RoutingInstance(**base)


# ---------------------------------------------------------------------------
# routing evaluation


def test_eval_allocation_hand_computed():
    inst = _hand_instance()
    v = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    per_agent, f = eval_allocation(inst, v)
    # loads: route0 = 1.0, route1 = 1.5; unit costs: 1.0 and 1.0
    np.testing.assert_allclose(per_agent, [2.0, 0.5])
    assert f == pytest.approx(1.25)


def test_eval_allocation_identity_on_random_points():
    inst = build_routing_instance(3, 2, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = sample_feasible_reduced(inst, rng)
        per_agent, f = eval_allocation(inst, reduced_to_alloc(inst, x))
        assert abs(per_agent.mean() - f) <= 1e-12 * max(1.0, abs(f))


def test_routing_local_costs_equal_reference_evaluation():
    # the engine's one-pass closure and the reference evaluation agree bit for bit
    rng = np.random.default_rng(1)
    for groups, per, seed in ((1, 1, 0), (2, 3, 1), (3, 2, 5), (10, 6, 0)):
        inst = build_routing_instance(groups, per, seed=seed)
        problem = routing_problem(inst)
        k = inst.routes_per_agent
        vertices = alloc_to_reduced(inst, np.eye(k)[rng.integers(0, k, inst.n_agents)])
        points = [sample_feasible_reduced(inst, rng) for _ in range(200)] + [vertices]
        for x in points:
            expected, _ = eval_allocation(inst, reduced_to_alloc(inst, x))
            np.testing.assert_array_equal(problem.local_costs(x.ravel()), expected)
            np.testing.assert_array_equal(problem.local_costs(x.ravel(), check=False), expected)


# The stacked contract: each row of an (R, D) call equals the one-vector call.
_STACKED_PROBLEMS = {
    **{
        f"routing{g}x{a}": routing_problem(build_routing_instance(g, a, seed=g + a))
        for g, a in ((1, 1), (2, 3), (3, 2), (10, 6))
    },
    "box_quadratic": build_box_quadratic(5, 3, seed=0),
    "trig_sum": build_trig_sum(4, 2, seed=1),
    "mixed": _mixed_problem(),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_STACKED_PROBLEMS)),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluations_equal_one_vector_calls(name, rows, seed):
    problem = _STACKED_PROBLEMS[name]
    rng = np.random.default_rng(seed)
    # feasible rows: projections (often on the boundary) and interior points
    xs = np.stack([
        rng.uniform(0.0, 1.0) * problem.project_feasible(rng.normal(0.0, 1.0, problem.total_dim))
        for _ in range(rows)
    ])
    for check in (True, False):
        costs = problem.local_costs(xs, check=check)
        assert costs.shape == (rows, problem.n)
        for r in range(rows):
            np.testing.assert_array_equal(costs[r], problem.local_costs(xs[r], check=check))
    grads = problem.grad(xs)
    assert grads.shape == (rows, problem.total_dim)
    for r in range(rows):
        np.testing.assert_array_equal(grads[r], problem.grad(xs[r]))

    # an infeasible row fails the checked call as it does alone, naming its agent
    r, agent = rng.integers(rows), rng.integers(problem.n)
    bad = xs.copy()
    bad[r, problem.offsets[agent]] = 10.0
    try:
        problem.local_costs(bad[r])
    except DomainError as one:
        with pytest.raises(DomainError) as stacked:
            problem.local_costs(bad)
        assert str(stacked.value) == str(one)
        if name.startswith("routing"):
            assert str(one) == f"agent {agent + 1} action outside its simplex"


def test_builder_layout():
    inst = build_routing_instance(10, 6, seed=7)
    assert inst.n_agents == 60
    assert inst.n_routes == 22
    assert inst.routes.shape == (60, 4)
    # group g uses routes {2g, ..., 2g+3}
    np.testing.assert_array_equal(inst.routes[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(inst.routes[-1], [18, 19, 20, 21])
    assert np.all(inst.traffic > 0)
    assert np.all(inst.quad >= 0)


def test_builder_is_deterministic():
    a = build_routing_instance(2, 3, seed=11)
    b = build_routing_instance(2, 3, seed=11)
    np.testing.assert_array_equal(a.traffic, b.traffic)
    np.testing.assert_array_equal(a.quad, b.quad)


# ---------------------------------------------------------------------------
# reparameterization


def test_reduced_round_trip():
    inst = build_routing_instance(2, 3, seed=1)
    rng = np.random.default_rng(2)
    x = sample_feasible_reduced(inst, rng)
    v = reduced_to_alloc(inst, x)
    np.testing.assert_allclose(v.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(v >= -1e-12)
    np.testing.assert_allclose(alloc_to_reduced(inst, v), x, atol=1e-12)


def test_reduced_membership_matches_allocation_validity():
    inst = build_routing_instance(1, 1, seed=3)
    problem = routing_problem(inst)
    set_ = problem.sets[0]
    rng = np.random.default_rng(4)
    for _ in range(300):
        x = rng.normal(0.0, 0.3, size=3)
        v = reduced_to_alloc(inst, x[None, :])[0]
        valid = bool(np.all(v >= -1e-12)) and v.sum() <= 1 + 1e-12
        assert set_.contains(x, tol=1e-9) == valid or abs(
            min(v.min(), 1.0 - v.sum())
        ) < 1e-8  # boundary points may flip either way within tolerance


def test_origin_is_uniform_allocation():
    inst = build_routing_instance(2, 3, seed=1)
    v = reduced_to_alloc(inst, np.zeros((6, 3)))
    np.testing.assert_allclose(v, 0.25)


# ---------------------------------------------------------------------------
# gradients


def test_routing_gradient_matches_finite_differences():
    inst = build_routing_instance(2, 2, seed=9)
    problem = routing_problem(inst)
    rng = np.random.default_rng(10)
    x = sample_feasible_reduced(inst, rng).ravel() * 0.8  # safely interior
    fun = lambda z: problem.global_cost(z, check=False)
    np.testing.assert_allclose(problem.grad(x), _fd_grad(fun, x), rtol=1e-5, atol=1e-7)


def test_routing_local_grads_match_finite_differences():
    inst = build_routing_instance(2, 2, seed=9)
    problem = routing_problem(inst)
    rng = np.random.default_rng(11)
    x = sample_feasible_reduced(inst, rng).ravel() * 0.8
    rows = problem.local_grads(x)
    for i in [0, 2, 3]:
        fun_i = lambda z: float(problem.local_costs(z, check=False)[i])
        np.testing.assert_allclose(rows[i], _fd_grad(fun_i, x), rtol=1e-5, atol=1e-7)


def test_local_grads_mean_equals_global_gradient():
    inst = build_routing_instance(3, 2, seed=12)
    problem = routing_problem(inst)
    x = sample_feasible_reduced(inst, np.random.default_rng(13)).ravel()
    np.testing.assert_allclose(
        problem.local_grads(x).mean(axis=0), problem.grad(x), atol=1e-12
    )


def test_box_quadratic_gradients():
    problem = build_box_quadratic(3, 2, seed=1)
    x = np.random.default_rng(2).uniform(-0.5, 0.5, size=6)
    fun = lambda z: problem.global_cost(z, check=False)
    np.testing.assert_allclose(problem.grad(x), _fd_grad(fun, x), rtol=1e-6, atol=1e-8)


def test_trig_sum_gradients():
    problem = build_trig_sum(2, 2, seed=3)
    x = np.random.default_rng(4).normal(size=4)
    fun = lambda z: problem.global_cost(z, check=False)
    np.testing.assert_allclose(problem.grad(x), _fd_grad(fun, x), rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# dependence structure


def test_affected_sets_follow_group_adjacency():
    inst = build_routing_instance(3, 2, seed=0)
    affected = routing_affected_sets(inst)
    assert affected[0] == frozenset({0, 1, 2, 3})  # group 0 sees groups 0-1
    assert affected[2] == frozenset(range(6))  # middle group sees everyone
    assert affected[5] == frozenset({2, 3, 4, 5})


def test_affected_sets_match_finite_difference_detection():
    inst = build_routing_instance(3, 2, seed=6)
    problem = routing_problem(inst)
    affected = problem.affected
    x = sample_feasible_reduced(inst, np.random.default_rng(7)).ravel() * 0.7
    base = problem.local_costs(x, check=False)
    for l in range(problem.n):
        bump = x.copy()
        bump[problem.offsets[l]] += 1e-4
        delta = np.abs(problem.local_costs(bump, check=False) - base)
        for i in range(problem.n):
            if l in affected[i]:
                assert delta[i] > 1e-10, (i, l)
            else:
                assert delta[i] == 0.0, (i, l)


# ---------------------------------------------------------------------------
# box quadratic metadata


def test_box_quadratic_optimum_is_exact():
    problem = build_box_quadratic(3, 1, seed=5)
    assert problem.feasible(problem.x_star)
    assert problem.global_cost(problem.x_star) == pytest.approx(problem.f_star, abs=1e-12)
    np.testing.assert_allclose(problem.grad(problem.x_star), 0.0, atol=1e-12)
    # no feasible point does better (sampled certificate)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        x = rng.uniform(-1.0, 1.0, size=problem.total_dim)
        assert problem.global_cost(x) >= problem.f_star - 1e-12


def test_box_quadratic_constants_dominate_samples():
    problem = build_box_quadratic(3, 2, seed=8)
    meta = problem.meta
    rng = np.random.default_rng(9)
    for _ in range(500):
        x = rng.uniform(-1.0, 1.0, size=problem.total_dim)
        rows = problem.local_grads(x)
        assert np.linalg.norm(rows, axis=1).max() <= meta["lipschitz"] + 1e-9
        assert np.linalg.norm(x) <= meta["outer_radius"] + 1e-9
        assert problem.global_cost(x) - problem.f_star <= meta["gap_max"] + 1e-9
        assert 0.5 * np.sum((problem.x_star - x) ** 2) <= meta["breg_diameter"] + 1e-9


def test_box_quadratic_breg_diameter_matches_vertex_enumeration():
    # 0.5||x* - x||^2 is convex, so its max over the box sits at a vertex.
    problem = build_box_quadratic(2, 2, seed=12)
    d = problem.total_dim
    best = 0.0
    for mask in range(2**d):
        vertex = np.array([1.0 if mask >> k & 1 else -1.0 for k in range(d)])
        best = max(best, 0.5 * np.sum((problem.x_star - vertex) ** 2))
    assert problem.meta["breg_diameter"] == pytest.approx(best, rel=1e-12)


def test_trig_sum_lower_bound_and_constants():
    problem = build_trig_sum(3, 2, seed=10)
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.normal(0.0, 3.0, size=problem.total_dim)
        costs = problem.local_costs(x)
        assert np.all(costs >= 0.0)
        rows = problem.local_grads(x)
        assert np.linalg.norm(rows, axis=1).max() <= problem.meta["lipschitz"] + 1e-9


# ---------------------------------------------------------------------------
# centralized solver


def _assert_first_order_optimal(inst, x, f, seed, samples=3000):
    """g.(v - x) >= 0 and f(v) >= f, up to rounding, at sampled feasible v."""
    problem = routing_problem(inst)
    g = problem.grad(x)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        v = sample_feasible_reduced(inst, rng).ravel()
        assert float(np.dot(g, v - x)) >= -1e-7
        assert problem.global_cost(v, check=False) >= f - 1e-9


def test_solver_recovers_analytic_optimum():
    for n, dim, seed in [(4, 2, 12), (1, 1, 3), (3, 5, 7), (12, 3, 8), (40, 2, 9)]:
        problem = build_box_quadratic(n, dim, seed=seed)
        res = centralized_solve(problem, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, problem.x_star, atol=1e-8)
        assert res.f == pytest.approx(problem.f_star, abs=1e-12)


def test_solver_uniform_split_optimum():
    # Identical quadratic routes: the uniform split is optimal and the
    # system cost there is sum of squared quarter-loads.
    inst = _hand_instance(
        traffic=np.array([1.0, 1.0]),
        quad=np.zeros(4),
        lin=np.ones(4),
        offset=np.zeros(4),
    )
    problem = routing_problem(inst)
    res = centralized_solve(problem, tol=1e-10)
    assert res.converged
    # f = (1/n) sum_r q_r^2 with q_r = (v1r + v2r); optimum splits evenly
    assert res.f == pytest.approx(0.5, abs=1e-8)
    np.testing.assert_allclose(reduced_to_alloc(inst, res.x.reshape(2, 3)), 0.25, atol=1e-6)


def test_solver_optimality_certificate_on_random_instance():
    inst = build_routing_instance(1, 2, seed=14)
    res = centralized_solve(routing_problem(inst), tol=1e-10)
    assert res.converged
    _assert_first_order_optimal(inst, res.x, res.f, seed=15)


@settings(max_examples=30, deadline=None)
@given(
    groups=st.integers(1, 5),
    per_group=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_converges_on_small_routing_instances(groups, per_group, seed):
    inst = build_routing_instance(groups, per_group, seed=seed)
    res = centralized_solve(routing_problem(inst), tol=1e-10)
    assert res.converged and res.residual <= 1e-10
    _assert_first_order_optimal(inst, res.x, res.f, seed=seed, samples=300)


def test_oracle_solves_routing_instance_plain_gradient_stalled_on(tmp_path):
    # Unaccelerated projected gradient stalled at residual 2.4e-8 on this
    # instance and spent all 200,000 iterations, so `zfo oracle` exited 4.
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 1, "agents_per_group": 1, "seed": 4},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "delta": 0.02, "horizon": 10},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "solve.json"
    assert main(["oracle", "--config", str(cfg), "--tol", "1e-10", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["converged"] is True
    assert result["residual"] <= 1e-10
    inst = build_routing_instance(1, 1, seed=4)
    _assert_first_order_optimal(inst, np.array(result["x"]), result["f"], seed=4)


@pytest.mark.parametrize(
    "groups, per_group, seed, budget",
    # unaccelerated projected gradient took 12,198 and 4,695 iterations
    [(2, 3, 1, 1_000), (40, 5, 0, 2_500)],
)
def test_solver_iteration_count_stays_accelerated(groups, per_group, seed, budget):
    problem = routing_problem(build_routing_instance(groups, per_group, seed=seed))
    res = centralized_solve(problem, tol=1e-10)
    assert res.converged
    assert res.n_iter <= budget


def test_solver_reports_non_convergence():
    problem = routing_problem(build_routing_instance(2, 2, seed=16))
    res = centralized_solve(problem, max_iter=1, tol=1e-14)
    assert not res.converged
    with pytest.raises(OracleError):
        centralized_solve(problem, max_iter=1, tol=1e-14, require_convergence=True)


def test_estimate_constants_positive_and_deterministic():
    problem = routing_problem(build_routing_instance(2, 2, seed=21))
    g1, l1 = estimate_constants(problem, n_samples=100, seed=3)
    g2, l2 = estimate_constants(problem, n_samples=100, seed=3)
    assert g1 == g2 and l1 == l2
    assert g1 > 0 and l1 > 0


def test_problem_validates_set_dimensions():
    from zfo.geometry import Box
    from zfo.problems import Problem

    with pytest.raises(ConfigurationError):
        Problem(
            name="bad",
            dims=[2],
            sets=[Box([-1.0], [1.0])],
            local_costs=lambda x, check=True: np.zeros(1),
        )
