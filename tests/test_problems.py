"""Problem-construction tests: hand-computed routing costs, gradient
checks against central finite differences, reparameterization round
trips, dependence detection, the routing constants, and the centralized
reference solver."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfo.cli import main
from zfo.errors import ConfigurationError, OracleError
from zfo.geometry import Box, ConvexSet, WholeSpace
from zfo.network import CommGraph, network_stats
from zfo.planner import constants_for
from zfo.problems import (
    Problem,
    RoutingInstance,
    alloc_to_reduced,
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    centralized_solve,
    eval_allocation,
    reduced_to_alloc,
    routing_affected_sets,
    routing_problem,
)
from zfo.runner import metrics_snapshot
from test_runner import _mixed_problem


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def sample_feasible_reduced(inst: RoutingInstance, rng: np.random.Generator) -> np.ndarray:
    """Uniform allocation per agent (flat Dirichlet) in reduced coords."""
    n, k = inst.routes.shape
    cuts = np.sort(rng.random((n, k - 1)), axis=1)
    v = np.diff(np.concatenate([np.zeros((n, 1)), cuts, np.ones((n, 1))], axis=1), axis=1)
    return alloc_to_reduced(inst, v)


def _local_grads(problem, x, step=1e-5):
    """Per-agent gradients (n, D) of the local costs at a flat point x, by
    central differences in one stacked `local_costs` call."""
    steps = step * np.eye(x.size)
    costs = problem.local_costs(np.concatenate((x + steps, x - steps)))
    plus, minus = costs[: x.size], costs[x.size :]
    return ((plus - minus) / (2.0 * step)).T


def _routing_local_grads(inst, x):
    """Per-agent gradients (n, D) of the routing costs at a reduced point x
    (n, k - 1), or a stack of them (B, n, D) at points (B, n, k - 1).

    With r = R_j[p], d f_i / d v_j(p) = t_i [i = j] c_r(q_r)
    + t_i t_j v_i(r) c_r'(q_r), where v_i(r) = 0 off agent i's routes; the
    reduced coordinates drop each agent's last route, whose fraction is one
    minus the others.  The gradient is quadratic in x.
    """
    n, k = inst.routes.shape
    x = np.asarray(x, dtype=float)
    stacked = x.ndim == 3
    head = x.reshape(-1, n, k - 1) + 1.0 / k
    v = np.concatenate([head, 1.0 - head.sum(axis=-1, keepdims=True)], axis=-1)
    t = inst.traffic
    incidence = np.eye(inst.n_routes)[inst.routes]  # (n, k, m)
    loads = np.einsum("bnk,nkm->bm", v * t[:, None], incidence)
    unit = (inst.quad * loads + inst.lin) * loads + inst.offset
    slope = inst.lin + 2.0 * inst.quad * loads
    share = np.einsum("bnk,nkm->bnm", v, incidence)  # v_i(r)
    full = (t[:, None, None] * t[None, :, None] * share[:, :, inst.routes]
            * slope[:, inst.routes][:, None])
    full[:, np.arange(n), np.arange(n)] += t[:, None] * unit[:, inst.routes]
    grads = (full[..., :-1] - full[..., -1:]).reshape(-1, n, n * (k - 1))
    return grads if stacked else grads[0]


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
    # the engine's one-pass closure and the reference evaluation agree bit for bit,
    # up to the benchmark's 40 x 5, whose allocation is written column by column
    rng = np.random.default_rng(1)
    for groups, per, seed in ((1, 1, 0), (2, 3, 1), (3, 2, 5), (10, 6, 0), (40, 5, 0)):
        inst = build_routing_instance(groups, per, seed=seed)
        problem = routing_problem(inst)
        k = inst.routes_per_agent
        vertices = alloc_to_reduced(inst, np.eye(k)[rng.integers(0, k, inst.n_agents)])
        points = [sample_feasible_reduced(inst, rng) for _ in range(200)] + [vertices]
        for x in points:
            expected, _ = eval_allocation(inst, reduced_to_alloc(inst, x))
            np.testing.assert_array_equal(problem.local_costs(x.ravel()), expected)


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
    costs = problem.local_costs(xs)
    assert costs.shape == (rows, problem.n)
    for r in range(rows):
        np.testing.assert_array_equal(costs[r], problem.local_costs(xs[r]))
    grads = problem.grad(xs)
    assert grads.shape == (rows, problem.total_dim)
    for r in range(rows):
        np.testing.assert_array_equal(grads[r], problem.grad(xs[r]))

    # cost closures judge nothing; the guard names the agent pushed out of its set
    r, agent = rng.integers(rows), rng.integers(problem.n)
    bad = xs.copy()
    bad[r, problem.offsets[agent]] = 10.0
    pushed_out = None if isinstance(problem.sets[agent], WholeSpace) else agent
    assert problem.first_infeasible(problem.blocks(bad[r])) == pushed_out
    np.testing.assert_array_equal(problem.local_costs(bad)[r], problem.local_costs(bad[r]))
    # a NaN lies outside every set, the whole space's too
    bad[r, problem.offsets[agent]] = np.nan
    assert problem.first_infeasible(problem.blocks(bad[r])) == agent


def test_first_infeasible_names_the_agent_whose_block_holds_a_nan():
    problem = build_trig_sum(3, 2, seed=0)
    for agent in range(3):
        x = np.zeros((3, 2))
        x[agent, 1] = np.nan
        assert problem.first_infeasible(x) == agent
    assert problem.first_infeasible(np.zeros((3, 2))) is None


class _Disc(ConvexSet):
    """The unit disc: a set with no group key of its own."""

    dim = 2

    def project_batch(self, ys):
        return ys / np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)


def test_equal_sets_share_a_group_and_other_sets_stand_alone():
    # two WholeSpace(2) objects and the equal Box(-inf, inf) are one group; a
    # ConvexSet subclass without a group key is a group per object
    disc = _Disc()
    sets = [WholeSpace(2), disc, Box([-np.inf] * 2, [np.inf] * 2), _Disc(), WholeSpace(2), disc]
    problem = Problem("p", [2] * 6, sets, lambda flat: np.zeros(6))
    assert [g.members.tolist() for g in problem.groups] == [[0, 2, 4], [1, 5], [3]]


class _Drifting(Box):
    """A box whose projection lands 10 past it: equal bounds, other operations."""

    def project_batch(self, ys):
        return super().project_batch(ys) + 10.0


def test_a_set_subclass_never_shares_the_group_of_its_base_set():
    # the group's first set serves every member, so the subclass needs its own group
    sets = [Box([-1.0], [1.0]), _Drifting([-1.0], [1.0])]
    problem = Problem("p", [1, 1], sets, lambda flat: np.zeros(2))
    assert [g.members.tolist() for g in problem.groups] == [[0], [1]]
    np.testing.assert_array_equal(problem.project_feasible(np.zeros(2)), [0.0, 10.0])


@pytest.mark.parametrize(
    "problem",
    [routing_problem(build_routing_instance(2, 3, seed=1)), build_box_quadratic(4, 2, seed=0),
     build_trig_sum(4, 2, seed=1)],
    ids=["routing", "box_quadratic", "trig_sum"],
)
def test_the_benchmark_builders_make_one_set_group(problem):
    assert len(problem.groups) == 1


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
    fun = problem.global_cost
    np.testing.assert_allclose(problem.grad(x), _fd_grad(fun, x), rtol=1e-5, atol=1e-7)


def test_routing_local_grads_match_finite_differences():
    # the test oracle: the costs are cubic, so central differences are exact
    # up to h^2 quad and rounding
    inst = build_routing_instance(2, 2, seed=9)
    problem = routing_problem(inst)
    rng = np.random.default_rng(11)
    x = sample_feasible_reduced(inst, rng) * 0.8
    rows = _routing_local_grads(inst, x)
    for i in range(problem.n):
        fun_i = lambda z: float(problem.local_costs(z)[i])
        np.testing.assert_allclose(rows[i], _fd_grad(fun_i, x.ravel()), rtol=1e-5, atol=1e-7)


def test_local_grads_mean_equals_global_gradient():
    inst = build_routing_instance(3, 2, seed=12)
    problem = routing_problem(inst)
    x = sample_feasible_reduced(inst, np.random.default_rng(13))
    np.testing.assert_allclose(
        _routing_local_grads(inst, x).mean(axis=0), problem.grad(x.ravel()), atol=1e-12
    )


def test_box_quadratic_gradients():
    problem = build_box_quadratic(3, 2, seed=1)
    x = np.random.default_rng(2).uniform(-0.5, 0.5, size=6)
    fun = problem.global_cost
    np.testing.assert_allclose(problem.grad(x), _fd_grad(fun, x), rtol=1e-6, atol=1e-8)


def test_trig_sum_gradients():
    problem = build_trig_sum(2, 2, seed=3)
    x = np.random.default_rng(4).normal(size=4)
    fun = problem.global_cost
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
    base = problem.local_costs(x)
    for l in range(problem.n):
        bump = x.copy()
        bump[problem.offsets[l]] += 1e-4
        delta = np.abs(problem.local_costs(bump) - base)
        for i in range(problem.n):
            if l in affected[i]:
                assert delta[i] > 1e-10, (i, l)
            else:
                assert delta[i] == 0.0, (i, l)


@settings(max_examples=40, deadline=None)
@given(
    groups=st.integers(1, 8),
    per_group=st.integers(1, 6),
    layout_seed=st.integers(0, 2**32 - 1),
    shuffled=st.booleans(),
)
def test_affected_sets_equal_the_pairwise_definition(groups, per_group, layout_seed, shuffled):
    inst = build_routing_instance(groups, per_group, seed=0)
    if shuffled:  # any k distinct routes per agent, not only the group layout
        rng = np.random.default_rng(layout_seed)
        routes = np.stack([rng.choice(inst.n_routes, 4, replace=False) for _ in inst.groups])
        inst = dataclasses.replace(inst, routes=routes)
    route_sets = [set(r) for r in inst.routes.tolist()]
    expected = [
        frozenset(j for j in range(inst.n_agents) if route_sets[i] & route_sets[j])
        for i in range(inst.n_agents)
    ]
    assert routing_affected_sets(inst) == expected
    problem = routing_problem(inst)
    assert problem.affected == expected
    assert [g.members.tolist() for g in problem.groups] == [list(range(inst.n_agents))]


# ---------------------------------------------------------------------------
# routing constants


def _routing_test_points(inst, rng, count):
    """Dirichlet points, vertices, edge midpoints, and for each route the
    vertex that puts every one of its users on it."""
    n, k = inst.routes.shape
    eye = np.eye(k)
    points = [sample_feasible_reduced(inst, rng) for _ in range(count)]
    for _ in range(count):
        a = rng.integers(0, k, n)
        b = (a + rng.integers(1, k, n)) % k
        points.append(alloc_to_reduced(inst, eye[a]))
        points.append(alloc_to_reduced(inst, 0.5 * (eye[a] + eye[b])))
    for r in range(inst.n_routes):
        on = inst.routes == r
        points.append(alloc_to_reduced(inst, eye[np.where(on.any(axis=1), on.argmax(axis=1), 0)]))
    return points


@settings(max_examples=40, deadline=None)
@example(groups=1, per_group=1, seed=0)
@example(groups=2, per_group=3, seed=1)
@given(groups=st.integers(1, 4), per_group=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_routing_constants_bound_gradients_gaps_and_distances(groups, per_group, seed):
    inst = build_routing_instance(groups, per_group, seed=seed)
    problem = routing_problem(inst)
    meta = problem.meta
    solved = centralized_solve(problem, tol=1e-10)
    assert solved.converged
    points = _routing_test_points(inst, np.random.default_rng(seed), 10)
    grads = [_routing_local_grads(inst, x) for x in points]
    for x, g in zip(points, grads):
        flat = x.ravel()
        assert np.linalg.norm(g, axis=1).max() <= meta["lipschitz"] + 1e-9
        assert np.linalg.norm(flat) <= meta["outer_radius"] + 1e-9
        assert problem.global_cost(flat) - solved.f <= meta["gap_max"] + 1e-9
        assert 0.5 * np.sum((solved.x - flat) ** 2) <= meta["breg_diameter"] + 1e-9
    for a in range(len(points) - 1):
        dg = np.linalg.norm(grads[a + 1] - grads[a], axis=1).max()
        assert dg <= meta["smoothness"] * np.linalg.norm(points[a + 1] - points[a]) + 1e-9
    # the gradient is quadratic, so central differences give each Hessian
    # exactly, up to rounding, at any step
    dim = problem.total_dim
    steps = 0.5 * np.eye(dim).reshape(dim, *points[0].shape)
    for x in points:
        diff = _routing_local_grads(inst, x + steps) - _routing_local_grads(inst, x - steps)
        hessians = diff.transpose(1, 2, 0)  # (n, D, D), one column per step
        assert np.linalg.norm(hessians, 2, axis=(1, 2)).max() <= meta["smoothness"] + 1e-9


def test_routing_constants_cover_the_vertex_the_sampled_estimate_missed():
    # README's instance: six agents all on route 3 reach a gradient norm of
    # 52.85, which the sampled estimate (G = 15.39) understated
    inst = build_routing_instance(2, 3, seed=1)
    vertex = alloc_to_reduced(inst, (inst.routes == 3).astype(float))
    norm = np.linalg.norm(_routing_local_grads(inst, vertex), axis=1).max()
    assert norm == pytest.approx(52.85, abs=5e-3)
    assert norm <= routing_problem(inst).meta["lipschitz"]


def test_routing_constants_refuse_negative_coefficients():
    with pytest.raises(ConfigurationError, match="non-negative traffic and coefficients"):
        routing_problem(_hand_instance(lin=np.array([0.0, -1.0, 0.0, 0.0])))


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
        rows = _local_grads(problem, x)
        np.testing.assert_allclose(rows.mean(axis=0), problem.grad(x), atol=1e-8)
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
        rows = _local_grads(problem, x)
        np.testing.assert_allclose(rows.mean(axis=0), problem.grad(x), atol=1e-8)
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
        assert problem.global_cost(v) >= f - 1e-9


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


@pytest.mark.parametrize("groups, per_group, seed", [(10, 6, 0), (10, 6, 1), (40, 5, 2)])
def test_solver_converged_point_is_stationary_by_the_step_one_residual(groups, per_group, seed):
    # a line search slack below f's rounding collapsed the step until the
    # projection returned its input bitwise, so the residual read 0 at points
    # whose step-1 residual was 7.8e-10, 7.7e-9 and 1.8e-9
    problem = routing_problem(build_routing_instance(groups, per_group, seed=seed))
    res = centralized_solve(problem, tol=1e-10)
    assert res.converged
    moved = problem.project_feasible(res.x - problem.grad(res.x)) - res.x
    assert float(np.linalg.norm(moved)) <= 1e-10


# The grid the solver's constants were chosen on: routing groups x agents per
# group, instance seeds 0-5.
_SOLVER_GRID = [
    (groups, per_group, seed)
    for groups, per_group in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (5, 3), (10, 6), (40, 5), (20, 2)]
    for seed in range(6)
]


@pytest.mark.parametrize("groups, per_group, seed", _SOLVER_GRID)
def test_solver_certifies_the_point_it_returns(groups, per_group, seed):
    # the certificate at the extrapolated point alone returned points whose
    # step-1 residual was up to 1.16e-10 (1x2 seed 2, 3x2 seed 2, 10x6 seed 5,
    # 20x2 seed 1)
    problem = routing_problem(build_routing_instance(groups, per_group, seed=seed))
    res = centralized_solve(problem, tol=1e-10)
    assert res.converged and res.residual <= 1e-10
    moved = problem.project_feasible(res.x - problem.grad(res.x)) - res.x
    assert float(np.linalg.norm(moved)) <= 1e-10


@pytest.mark.parametrize(
    "problem",
    [build_box_quadratic(3, 2, seed=0), routing_problem(build_routing_instance(2, 3, seed=1))],
    ids=["box_quadratic", "routing"],
)
def test_solver_safeguard_refuses_an_ascent_direction(problem):
    # with the gradient's sign flipped every step climbs f; without the
    # safeguard the curvature step certified a maximizer in 9 iterations
    # (box: f = 4.22 against f(x0) = 0.337; routing: 17.4 against 1.69)
    flipped = dataclasses.replace(problem, grad=lambda x: -problem.grad(x))
    f0 = problem.global_cost(problem.project_feasible(np.zeros(problem.total_dim)))
    res = centralized_solve(flipped, max_iter=2000, tol=1e-10)
    assert not res.converged
    assert res.f == pytest.approx(f0, rel=1e-8)
    with pytest.raises(OracleError):
        centralized_solve(flipped, max_iter=2000, tol=1e-10, require_convergence=True)


@pytest.mark.parametrize("per_group, calls", [(1, 50), (2, 37)])
def test_solver_takes_no_gradient_twice_in_a_row(per_group, calls):
    # routing 1x1 refuses 4 steps at beta = 0, after each of which the next
    # gradient point is the same x; on routing 1x2 a return check at x+ fails
    # and theta restarts, so the next gradient point is x+, whose gradient
    # the check took
    problem = routing_problem(build_routing_instance(1, per_group, seed=2))
    points = []

    def grad(x):
        points.append(np.array(x, copy=True))
        return problem.grad(x)

    res = centralized_solve(dataclasses.replace(problem, grad=grad), tol=1e-10)
    assert res.converged and len(points) == calls
    assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
    assert res.x.tobytes() == centralized_solve(problem, tol=1e-10).x.tobytes()


def test_solver_reports_non_convergence():
    problem = routing_problem(build_routing_instance(2, 2, seed=16))
    res = centralized_solve(problem, max_iter=1, tol=1e-14)
    assert not res.converged
    with pytest.raises(OracleError):
        centralized_solve(problem, max_iter=1, tol=1e-14, require_convergence=True)


def test_solver_refuses_a_problem_without_gradient():
    # the solver needs the analytic gradient of f; nothing else stands in for it
    problem = dataclasses.replace(build_box_quadratic(2, 1, seed=0), grad=None)
    with pytest.raises(ConfigurationError, match="^centralized solve needs a gradient$"):
        centralized_solve(problem)


@pytest.mark.parametrize(
    "problem",
    [build_box_quadratic(3, 2, seed=0), routing_problem(build_routing_instance(2, 3, seed=1)),
     dataclasses.replace(_mixed_problem(), meta={"lipschitz": 1.0, "smoothness": 1.0})],
    ids=["box_quadratic", "routing", "mixed"],
)
def test_flat_vector_of_the_wrong_length_is_refused_with_its_shape(problem):
    # one check in `blocks`, ahead of any NumPy broadcast or reshape
    stats = network_stats(CommGraph.complete(problem.n), dims=problem.dims)
    D = problem.total_dim
    calls = [
        problem.blocks,
        problem.feasible,
        problem.project_feasible,
        lambda x: metrics_snapshot(problem, x, 0),
        lambda x: constants_for(problem, stats, x0=x),
    ]
    for bad in (np.zeros(D - 1), np.zeros(D + 1), np.zeros((1, D))):
        for call in calls:
            with pytest.raises(ConfigurationError) as info:
                call(bad)
            assert str(info.value) == f"expected a flat vector of length {D}, got shape {bad.shape}"


def test_problem_validates_set_dimensions():
    from zfo.geometry import Box
    from zfo.problems import Problem

    with pytest.raises(ConfigurationError):
        Problem(
            name="bad",
            dims=[2],
            sets=[Box([-1.0], [1.0])],
            local_costs=lambda x: np.zeros(1),
        )


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: Problem("p", [1, 2], [WholeSpace(1)], lambda flat: flat),
         "dims and sets must align"),
        (lambda: build_box_quadratic(2, 1, seed=0, center_scale=1.5),
         "need 0 < center_scale < half_width for an interior optimum"),
        (lambda: build_routing_instance(0, 2, seed=0),
         "n_groups must be an integer >= 1, got 0"),
        (lambda: Problem("p", [0], [WholeSpace(1)], lambda flat: flat),
         "agent 1's dimension must be an integer >= 1, got 0"),
        (lambda: Problem("p", [1, 2], [WholeSpace(1), WholeSpace(3)], lambda flat: flat),
         "agent 2's dimension 2 is not its set's 3"),
        (lambda: build_box_quadratic(3, 0, 0),
         "dim_per_agent must be an integer >= 1, got 0"),
        (lambda: build_box_quadratic(3, 2, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: build_trig_sum(3, 2, seed="a"), "seed must be an integer >= 0, got 'a'"),
        (lambda: build_box_quadratic(True, 1, 0), "agent count n must be an integer >= 1, got True"),
    ],
    ids=["dims_sets", "center_scale", "no_groups", "zero_dim", "dim_mismatch", "no_coordinates",
         "negative_seed", "text_seed", "bool_count"],
)
def test_problem_refusals_name_the_input(make, named):
    with pytest.raises(ConfigurationError) as info:
        make()
    assert str(info.value) == named


@pytest.mark.parametrize("build", [build_box_quadratic, build_trig_sum])
def test_every_agent_shares_one_all_agents_set(build):
    # n copies of one n-element set would be O(n^2) Python objects
    problem = build(5, 2, seed=0)
    assert problem.affected[0] == frozenset(range(5))
    assert all(s is problem.affected[0] for s in problem.affected)
