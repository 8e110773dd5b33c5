"""Engine tests: determinism, invariants, metrics, traces, and summaries."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from zfo.agents import SwarmTables
from zfo.errors import (
    AssumptionViolation,
    ConfigurationError,
    DomainError,
    OracleError,
    ProtocolViolation,
)
from zfo.geometry import Box, ShiftedSimplex, WholeSpace
from zfo.network import BernoulliDrops, CommGraph, NoDelay, network_stats, shortest_path_lengths
from zfo.planner import constants_for, plan
from zfo.problems import (
    Problem,
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    routing_problem,
)
import zfo.runner
from test_geometry import count_membership_passes
from zfo.runner import (
    TRACE_COLUMNS,
    RunConfig,
    metrics_snapshot,
    run,
    summary_dict,
    write_trace_csv,
)


def _quadratic_config(**overrides) -> RunConfig:
    problem = build_box_quadratic(3, 2, seed=0)
    graph = CommGraph.path(3)
    base = dict(
        problem=problem,
        graph=graph,
        eta=2e-3,
        u=1e-3,
        delta=0.01,
        horizon=60,
        seed=11,
        metric_every=20,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# determinism and boundary behavior
# ---------------------------------------------------------------------------


def test_identical_seed_gives_bitwise_identical_traces():
    t1 = run(_quadratic_config())
    t2 = run(_quadratic_config())
    assert t1.x_final.tobytes() == t2.x_final.tobytes()
    assert t1.x_ergodic.tobytes() == t2.x_ergodic.tobytes()
    assert [r["f"] for r in t1.rows] == [r["f"] for r in t2.rows]
    assert t1.gap_ergodic == t2.gap_ergodic
    assert t1.grad_sq_mean_ergodic == t2.grad_sq_mean_ergodic


def test_different_seed_changes_trajectory():
    t1 = run(_quadratic_config())
    t2 = run(_quadratic_config(seed=12))
    assert t1.x_final.tobytes() != t2.x_final.tobytes()


def test_horizon_equal_staleness_bound_gives_one_ergodic_sample():
    problem = build_box_quadratic(3, 1, seed=1)
    graph = CommGraph.path(3)
    bound = network_stats(graph, 0).staleness_bound
    trace = run(
        RunConfig(problem=problem, graph=graph, eta=1e-3, u=1e-3, horizon=bound, seed=0)
    )
    assert trace.samples == 1
    collected = trace.x_ergodic
    # with exactly one sample the ergodic point is that round's state
    rows_final = trace.rows[-1]
    assert rows_final["t"] == bound
    assert np.allclose(collected, trace.x_final)


def _assert_traces_bitwise_equal(a, b):
    for f in dataclasses.fields(a):
        if f.name == "wall_time":
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), f.name
        else:
            assert va == vb, f.name


@pytest.mark.parametrize("lossy", [True, False])
def test_draw_block_size_never_changes_a_value(lossy, monkeypatch):
    # 61 rounds: neither a one-round nor a 7-round block divides the horizon
    if lossy:
        config = _quadratic_config(delay=BernoulliDrops(0.3, declared_delta=3), sigma=0.05)
    else:
        problem = routing_problem(build_routing_instance(2, 3, seed=1))
        config = RunConfig(
            problem=problem, graph=CommGraph.complete(problem.n), eta=0.02, u=2e-3,
            delta=0.05, horizon=60, seed=5, metric_every=20,
        )
    p = config.problem
    round_floats = p.n * p.d_max + (2 * p.n if config.sigma > 0 else 0)
    expected = run(config)
    for budget in (1, 8 * round_floats - 1):  # blocks of 1 round, then of 7
        monkeypatch.setattr(zfo.runner, "_BLOCK_FLOATS", budget)
        _assert_traces_bitwise_equal(run(config), expected)


def test_peak_memory_does_not_grow_with_the_horizon():
    import tracemalloc

    # 4,000 floats a round: a horizon's worth of draws would take 12.8 MB at
    # 400 rounds and 1.3 MB at 40, while the draw blocks stay 1 MiB at both
    problem = build_box_quadratic(2, 2000, seed=0)
    peaks = []
    for horizon in (40, 400):
        config = RunConfig(
            problem=problem, graph=CommGraph.path(2), eta=1e-2, u=1e-3, delta=0.05,
            sigma=0.01, horizon=horizon, metric_every=1000,
        )
        tracemalloc.start()
        try:
            run(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**18  # a quarter of the 1 MiB budget


def test_ergodic_average_matches_probe_recomputation():
    window = []
    bound = network_stats(CommGraph.path(3), 0).staleness_bound

    def probe(view):
        if view.t >= bound:
            window.append(view.x[view.dim_mask].copy())

    trace = run(_quadratic_config(probe=probe))
    assert trace.samples == len(window)
    np.testing.assert_allclose(trace.x_ergodic, np.mean(window, axis=0), atol=1e-15)


def test_ergodic_gradient_mean_matches_probe_recomputation():
    problem = build_box_quadratic(3, 2, seed=0)
    bound = network_stats(CommGraph.path(3), 0).staleness_bound
    acc = []

    def probe(view):
        if view.t >= bound:
            g = problem.grad(view.x[view.dim_mask])
            acc.append(float(np.dot(g, g)))

    trace = run(_quadratic_config(probe=probe))
    assert trace.grad_sq_mean_ergodic == pytest.approx(np.mean(acc), rel=1e-12)


# ---------------------------------------------------------------------------
# per-round invariants, re-checked independently through a probe
# ---------------------------------------------------------------------------


def test_step_bound_and_feasibility_every_round():
    problem = build_box_quadratic(3, 2, seed=2)
    graph = CommGraph.ring(3)
    delta, u, eta = 0.05, 2e-3, 5e-3

    def probe(view):
        for i, s in enumerate(problem.sets):
            xi = view.x[i, : view.dims[i]]
            zi = view.z[i, : view.dims[i]]
            gi = view.gradient[i, : view.dims[i]]
            ni = view.x_next[i, : view.dims[i]]
            assert s.shrink(delta).contains(xi, 1e-9)
            assert s.contains(xi + u * zi, 1e-9)
            assert s.contains(xi - u * zi, 1e-9)
            assert np.linalg.norm(ni - xi) <= eta * np.linalg.norm(gi) + 1e-9

    trace = run(
        RunConfig(
            problem=problem,
            graph=graph,
            eta=eta,
            u=u,
            delta=delta,
            horizon=80,
            seed=3,
            probe=probe,
        )
    )
    assert trace.step_bound_max_excess <= 1e-9
    assert trace.feasibility_violations == 0
    assert trace.feasibility_checks == 81


def test_stamps_equal_hop_distance_with_no_drops():
    problem = build_box_quadratic(5, 1, seed=4)
    graph = CommGraph.random_connected(5, seed=9)
    dist = shortest_path_lengths(graph)

    def probe(view):
        stamps = view.tables.stamps
        for i in range(5):
            for j in range(5):
                if view.t >= dist[i, j]:
                    assert stamps[i, j] == view.t - dist[i, j]
                else:
                    assert stamps[i, j] == -1

    run(
        RunConfig(
            problem=problem, graph=graph, eta=0.0, u=1e-3, horizon=12, seed=5, probe=probe
        )
    )


def test_quotient_values_travel_with_stamps():
    problem = build_box_quadratic(4, 1, seed=6)
    graph = CommGraph.path(4)
    dist = shortest_path_lengths(graph)
    quotient_log: list[np.ndarray] = []

    def probe(view):
        quotient_log.append(view.quotients.copy())
        stamps = view.tables.stamps
        values = view.tables.quotients
        for i in range(4):
            for j in range(4):
                s = stamps[i, j]
                if s >= 0:
                    assert values[i, j] == quotient_log[s][j]

    run(
        RunConfig(
            problem=problem, graph=graph, eta=1e-3, u=1e-3, horizon=10, seed=7, probe=probe
        )
    )
    assert len(quotient_log) == 11
    assert dist.max() == 3


# ---------------------------------------------------------------------------
# staleness measurement and drops
# ---------------------------------------------------------------------------


def test_no_delay_run_is_assumption_clean():
    trace = run(_quadratic_config())
    assert trace.delta_hat == 0
    assert trace.assumption_clean
    assert trace.stale_max_overall == network_stats(CommGraph.path(3), 0).staleness_bound


def test_drops_raise_measured_extra_staleness():
    config = _quadratic_config(
        delay=BernoulliDrops(0.6, declared_delta=1), horizon=120, seed=21
    )
    trace = run(config)
    assert trace.delta_hat > 1
    assert not trace.assumption_clean
    # declared bound enters the planner-facing staleness bound
    assert trace.staleness_bound == network_stats(CommGraph.path(3), 1).staleness_bound


def test_generous_declared_delta_stays_clean():
    config = _quadratic_config(
        delay=BernoulliDrops(0.2, declared_delta=40), horizon=120, seed=22
    )
    trace = run(config)
    assert trace.delta_hat <= 40
    assert trace.assumption_clean


def test_strict_staleness_aborts_on_violation():
    config = _quadratic_config(
        delay=BernoulliDrops(0.6, declared_delta=0),
        horizon=120,
        seed=21,
        strict_staleness=True,
    )
    with pytest.raises(ProtocolViolation, match="extra staleness"):
        run(config)


def test_history_window_overrun_aborts():
    config = _quadratic_config(
        delay=BernoulliDrops(0.97, declared_delta=0),
        horizon=400,
        seed=23,
        history_slack=1,
    )
    with pytest.raises(ProtocolViolation, match="history window"):
        run(config)


# ---------------------------------------------------------------------------
# estimator modes
# ---------------------------------------------------------------------------


def _routing_setup():
    instance = build_routing_instance(2, 2, seed=3)
    problem = routing_problem(instance)
    graph = CommGraph.path(4)
    return instance, problem, graph


def _asymmetric_setup():
    """Agent 2 affects every cost, agents 1 and 3 only their own, on a path."""

    def local_costs(flat):
        x = np.asarray(flat, dtype=float)
        f = [(x[..., 0] + x[..., 1] - 1.0) ** 2, (x[..., 1] - 0.5) ** 2, (x[..., 1] - x[..., 2]) ** 2]
        return np.stack(f, axis=-1)

    affected = [frozenset({0}), frozenset({0, 1, 2}), frozenset({2})]
    problem = Problem(
        name="asymmetric", dims=[1, 1, 1], sets=[WholeSpace(1)] * 3,
        local_costs=local_costs, affected=affected,
    )
    return None, problem, CommGraph.path(3)


def test_dependence_mode_equals_masked_full_mode():
    # agent i's block of the gradient of f sums the columns j in A_i, the
    # costs agent i affects, with full and with reduced tables.  Routing's
    # sets are symmetric; the asymmetric run is frozen (eta = 0), so full
    # mode walks the same states as dependence mode.
    for setup, eta in ((_routing_setup, 1e-3), (_asymmetric_setup, 0.0)):
        _, problem, graph = setup()
        n = problem.n
        aff = np.zeros((n, n), dtype=bool)
        for i, costs in enumerate(problem.affected):
            aff[i, list(costs)] = True

        z_log: dict[int, np.ndarray] = {}
        masked: list[np.ndarray] = []

        def probe_full(view):
            z_log[view.t] = view.z.copy()
            stamps = view.tables.stamps
            values = view.tables.quotients
            g = np.zeros_like(view.gradient)
            for i in range(n):
                for j in range(n):
                    s = stamps[i, j]
                    if s >= 0 and aff[i, j]:
                        g[i] += values[i, j] * z_log[s][i]
            masked.append(g / n)

        common = dict(problem=problem, graph=graph, eta=eta, u=1e-3, delta=0.02, horizon=25, seed=9)
        run(RunConfig(mode="full", probe=probe_full, **common))
        for reduced in (False, True):
            dep_gradients: list[np.ndarray] = []
            trace = run(
                RunConfig(
                    mode="dependence", reduced_tables=reduced,
                    probe=lambda view: dep_gradients.append(view.gradient.copy()), **common,
                )
            )
            assert len(masked) == len(dep_gradients) == 26
            for got, want in zip(dep_gradients, masked):
                np.testing.assert_allclose(got, want, atol=1e-12)
            assert trace.delta_hat == 0 and trace.assumption_clean
            if reduced:
                assert trace.payload_columns == [len(costs) for costs in problem.affected]


def test_reduced_tables_payload_and_compatibility():
    _, problem, graph = _routing_setup()
    trace = run(
        RunConfig(
            problem=problem,
            graph=graph,
            eta=1e-3,
            u=1e-3,
            delta=0.02,
            horizon=20,
            seed=4,
            mode="dependence",
            reduced_tables=True,
        )
    )
    expected_columns = [
        sum(1 for j in range(problem.n) if i in problem.affected[j]) for i in range(problem.n)
    ]
    assert trace.payload_columns == expected_columns
    assert trace.payload_floats_per_round == sum(
        graph.degree(i) * 2 * c for i, c in enumerate(expected_columns)
    )


_EVERY = frozenset({0, 1, 2})


@pytest.mark.parametrize(
    "affected, named",
    [
        ([frozenset({0, -1}), _EVERY, _EVERY], "affected set of agent 1 out of range"),
        ([_EVERY, frozenset({0, 2}), _EVERY], "agent 2 must belong to its own affected set"),
        ([_EVERY], "affected sets must have one entry per agent"),
        ([frozenset({0, 3}), _EVERY, _EVERY], "affected set of agent 1 out of range"),
    ],
    ids=["wraps", "leaves_out_own", "one_for_all", "past_n"],
)
def test_malformed_dependence_sets_are_refused_where_they_are_read(monkeypatch, affected, named):
    # the dependence modes judge the sets before any table is built; full
    # mode never reads them, so the same problem runs there
    problem = dataclasses.replace(build_box_quadratic(3, 1, seed=0), affected=affected)
    common = dict(problem=problem, graph=CommGraph.path(3), eta=1e-2, u=1e-3, horizon=50, seed=0)
    assert np.isfinite(run(RunConfig(**common)).f_final)

    def no_tables(*args, **kwargs):
        raise AssertionError("tables built before the sets were judged")

    monkeypatch.setattr(zfo.runner, "SwarmTables", no_tables)
    for reduced in (False, True):
        with pytest.raises(ConfigurationError) as info:
            run(RunConfig(mode="dependence", reduced_tables=reduced, **common))
        assert str(info.value) == named


def test_reduced_tables_assemble_with_no_second_mask(monkeypatch):
    # the tables track exactly the dependence mask, so assembly is handed
    # none; full tables in dependence mode are handed the mask
    problem = routing_problem(build_routing_instance(6, 1, seed=0))
    graph = _dependence_graph(problem)
    masks = []
    assemble = SwarmTables.assemble

    def recording(tables, use_mask=None):
        masks.append(use_mask)
        return assemble(tables, use_mask)

    monkeypatch.setattr(SwarmTables, "assemble", recording)
    common = dict(problem=problem, graph=graph, eta=1e-3, u=1e-3, delta=0.02, horizon=10,
                  mode="dependence")
    run(RunConfig(reduced_tables=True, **common))
    assert len(masks) == 11 and all(mask is None for mask in masks)
    masks.clear()
    run(RunConfig(**common))
    tracked = np.zeros((problem.n, problem.n), dtype=bool)
    for i, costs in enumerate(problem.affected):
        tracked[i, list(costs)] = True
    assert len(masks) == 11
    for mask in masks:
        np.testing.assert_array_equal(mask, tracked)


def test_reduced_tables_stale_by_distances_inside_the_trackers():
    # Agent 5 does not track column 1, so on the 5-cycle column 1 reaches
    # agent 4 in 3 hops through agents 3 and 2, not in 2 through agent 5.
    problem = build_trig_sum(5, 1, seed=0)
    affected = [frozenset(range(5))] * 5
    affected[0], affected[4] = frozenset({0, 1, 2, 3}), frozenset({1, 2, 3, 4})
    problem = dataclasses.replace(problem, affected=affected)
    common = dict(problem=problem, graph=CommGraph.ring(5), eta=1e-2, u=1e-3, horizon=30)
    full = run(RunConfig(**common))
    assert (full.staleness_bound, full.stale_max_overall, full.delta_hat) == (2, 2, 0)
    assert full.assumption_clean
    for strict in (False, True):
        reduced = run(
            RunConfig(mode="dependence", reduced_tables=True, strict_staleness=strict, **common)
        )
        assert (reduced.staleness_bound, reduced.stale_max_overall, reduced.delta_hat) == (3, 3, 0)
        assert reduced.assumption_clean


def _dependence_graph(problem: Problem) -> CommGraph:
    """The graph linking each agent to the agents whose costs it affects."""
    edges = [(i, j) for i, costs in enumerate(problem.affected) for j in costs if i < j]
    return CommGraph(problem.n, edges)


def test_reduced_tables_bound_counts_only_tracked_distances():
    # routing 6 x 1 over its own dependence graph, a path of 6: every tracked
    # entry is 1 hop away, so B = 1 where the diameter is 5, and every round
    # from t = 1 enters the ergodic window
    problem = routing_problem(build_routing_instance(6, 1, seed=0))
    graph = _dependence_graph(problem)
    assert graph.edges == [(i, i + 1) for i in range(5)]
    common = dict(problem=problem, graph=graph, eta=1e-3, u=1e-3, delta=0.02, horizon=40)
    trace = run(RunConfig(mode="dependence", reduced_tables=True, **common))
    assert (trace.staleness_bound, trace.stale_max_overall, trace.delta_hat) == (1, 1, 0)
    assert trace.samples == 40
    # full tables track the ends' columns 5 hops apart
    assert run(RunConfig(mode="dependence", **common)).staleness_bound == 5


def test_reduced_tables_window_holds_at_the_tracked_bound():
    # 40 x 5 routing over its dependence graph (diameter 39) with drops: the
    # tracked entries are at most 1 hop apart, so B = 1 + 3 and the rings hold
    # 4 + 32 rounds; the oldest used entry stays well inside them
    problem = routing_problem(build_routing_instance(40, 5, seed=0))
    trace = run(
        RunConfig(
            problem=problem, graph=_dependence_graph(problem), eta=1e-3, u=4e-3, delta=0.10,
            sigma=0.1, horizon=400, delay=BernoulliDrops(0.1, 3), seed=7, mode="dependence",
            reduced_tables=True, metric_every=400,
        )
    )
    assert trace.staleness_bound == 4 and trace.samples == 397
    assert trace.stale_max_overall < 36 and trace.assumption_clean


def test_disconnected_graph_refused_in_every_mode():
    # each half's tracker sets are connected, so only the graph check refuses
    problem = build_trig_sum(4, 1, seed=0)
    halves = [frozenset({0, 1})] * 2 + [frozenset({2, 3})] * 2
    problem = dataclasses.replace(problem, affected=halves)
    common = dict(problem=problem, graph=CommGraph(4, [(0, 1), (2, 3)]), eta=1e-2, u=1e-3, horizon=10)
    for mode, reduced in (("full", False), ("dependence", False), ("dependence", True)):
        with pytest.raises(AssumptionViolation, match="disconnected"):
            run(RunConfig(mode=mode, reduced_tables=reduced, **common))


def test_full_mode_payload_tracks_every_column():
    trace = run(_quadratic_config(horizon=10))
    assert trace.payload_columns == [3, 3, 3]
    assert trace.payload_floats_per_round == (1 + 2 + 1) * 2 * 3


def _grad_sq_reference(config: RunConfig):
    """Run `config` with a probe that takes ‖∇f‖² at every round's state;
    return the trace and the mean over t >= staleness_bound, added in round
    order, and the gradient calls made by the run."""
    problem = config.problem
    per_round, calls = [], []

    def grad(flat):
        calls.append(np.shape(flat))
        return problem.grad(flat)

    def probe(view):
        g = problem.grad(problem.flat(view.x))
        per_round.append(float(np.dot(g, g)))

    traced = dataclasses.replace(problem, grad=grad)
    config = dataclasses.replace(config, problem=traced, probe=probe)
    trace = run(config)
    acc = 0.0
    for value in per_round[trace.staleness_bound :]:
        acc += value
    return trace, acc / trace.samples, calls


def test_grad_sq_mean_settled_in_blocks_equals_per_round_sum():
    # 32 agents, 96 floats a state: blocks of 42 states, 4 full ones and a part
    problem = routing_problem(build_routing_instance(4, 8, seed=2))
    rows = 4096 // problem.total_dim
    config = RunConfig(
        problem=problem, graph=CommGraph.complete(problem.n), eta=1e-2, u=1e-3, delta=0.05,
        horizon=190, metric_every=1000,
    )
    trace, expected, calls = _grad_sq_reference(config)
    assert trace.samples > 3 * rows and trace.samples % rows != 0
    assert trace.grad_sq_mean_ergodic == expected
    settles = [shape for shape in calls if len(shape) == 2]
    assert settles == [(rows, problem.total_dim)] * (trace.samples // rows) + [
        (trace.samples % rows, problem.total_dim)
    ]


def test_grad_sq_mean_settles_one_state_at_a_time_past_4096_floats():
    problem = build_box_quadratic(2, 2050, seed=0)
    config = RunConfig(problem=problem, graph=CommGraph.path(2), eta=1e-2, u=1e-3, horizon=6)
    trace, expected, calls = _grad_sq_reference(config)
    assert trace.grad_sq_mean_ergodic == expected
    assert [shape for shape in calls if len(shape) == 2] == [(1, 4100)] * trace.samples


def test_grad_sq_untracked_runs_no_settle():
    config = _quadratic_config(track_gradients=False)
    trace, _, calls = _grad_sq_reference(config)
    assert trace.grad_sq_mean_ergodic is None
    # only the cadence rows take a gradient; the final state's is the last row's
    assert calls == [(config.problem.total_dim,)] * len(trace.rows)


@pytest.mark.parametrize("analytic", [True, False], ids=["grad", "no_grad"])
def test_final_values_are_the_last_cadence_row(analytic):
    # the last round is always a cadence row, taken at x_final
    config = _quadratic_config(horizon=61, delay=BernoulliDrops(0.2, 2))
    if not analytic:
        config = dataclasses.replace(config, problem=dataclasses.replace(config.problem, grad=None))
    trace = run(config)
    last = trace.rows[-1]
    assert last["t"] == 61 and last["grad_estimated"] is not analytic
    assert (trace.f_final, trace.gap_final) == (last["f"], last["gap"])
    assert trace.f_final == config.problem.global_cost(trace.x_final)
    if analytic:
        assert trace.grad_sq_final == last["grad_sq"]
    else:
        # the row holds the finite-difference estimate; the summary reports none
        assert trace.grad_sq_final is None and math.isfinite(last["grad_sq"])


def test_probe_receives_one_round_view_for_the_whole_run():
    views, x_next = [], []

    def probe(view):
        assert isinstance(view, zfo.runner.RoundView) and view.t == len(views)
        for f in dataclasses.fields(zfo.runner.RoundView):
            assert getattr(view, f.name) is not None, f.name
        if x_next:
            np.testing.assert_array_equal(view.x, x_next[-1])
        views.append(view)
        x_next.append(view.x_next.copy())

    run(_quadratic_config(horizon=30, delay=BernoulliDrops(0.2, 2), probe=probe))
    assert len(views) == 31 and all(view is views[0] for view in views)


def test_reduced_tables_refused_without_dependence_mode():
    _, problem, graph = _routing_setup()
    with pytest.raises(ConfigurationError, match="dependence"):
        run(
            RunConfig(
                problem=problem,
                graph=graph,
                eta=1e-3,
                u=1e-3,
                horizon=10,
                mode="full",
                reduced_tables=True,
            )
        )


def test_reduced_tables_refused_on_incompatible_graph():
    # three groups with a sliding route overlap: groups 0 and 2 share no
    # routes, so a star centered on a group-2 agent leaves group-0 columns
    # with a disconnected tracker set
    instance = build_routing_instance(3, 2, seed=3)
    problem = routing_problem(instance)
    graph = CommGraph(6, [(4, 0), (4, 1), (4, 2), (4, 3), (4, 5)])
    with pytest.raises(ConfigurationError, match="compatible"):
        run(
            RunConfig(
                problem=problem,
                graph=graph,
                eta=1e-3,
                u=1e-3,
                delta=0.02,
                horizon=10,
                mode="dependence",
                reduced_tables=True,
            )
        )


# ---------------------------------------------------------------------------
# convergence sanity (full quantitative checks live in the acceptance suite)
# ---------------------------------------------------------------------------


def test_planned_run_reduces_gap():
    problem = build_box_quadratic(3, 1, seed=0)
    graph = CommGraph.path(3)
    stats = network_stats(graph, 0, dims=problem.dims)
    constants = constants_for(problem, stats)
    p = plan(constants, 1.5, "convex-noiseless")
    x0 = np.full(problem.total_dim, 0.9)
    start_gap = problem.global_cost(x0) - problem.f_star
    trace = run(
        RunConfig(
            problem=problem,
            graph=graph,
            eta=p.eta,
            u=p.u,
            delta=p.delta,
            horizon=min(p.horizon, 4000),
            seed=1,
            x0=x0,
            metric_every=1000,
        )
    )
    assert trace.gap_ergodic < 0.5 * start_gap
    assert trace.gap_final < start_gap


def test_unconstrained_problem_runs_without_feasibility_notes():
    problem = build_trig_sum(3, 2, seed=1)
    graph = CommGraph.ring(3)
    trace = run(
        RunConfig(problem=problem, graph=graph, eta=1e-2, u=1e-2, horizon=50, seed=2)
    )
    assert trace.cap_projections == 0
    assert trace.fallback_projections == 0
    assert not any("smoothing radius" in note for note in trace.notes)
    assert trace.gap_final is None  # no recorded optimum for this family


# ---------------------------------------------------------------------------
# metrics and IO
# ---------------------------------------------------------------------------


def test_metrics_snapshot_at_known_minimizer():
    problem = build_box_quadratic(3, 2, seed=0)
    row = metrics_snapshot(problem, problem.x_star, 7)
    assert row["t"] == 7
    assert row["gap"] == pytest.approx(0.0, abs=1e-12)
    assert row["grad_sq"] == pytest.approx(0.0, abs=1e-12)
    assert row["feasible"]
    assert not row["grad_estimated"]


def test_metrics_snapshot_finite_differences_agree_with_analytic():
    problem = build_trig_sum(2, 2, seed=3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=problem.total_dim)
    analytic = problem.grad(x)
    # independent finite-difference oracle
    fd = np.zeros_like(x)
    h = 1e-5
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fd[k] = (problem.global_cost(x + e) - problem.global_cost(x - e)) / (2 * h)
    np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-8)
    row = metrics_snapshot(problem, x, 0)
    assert row["grad_sq"] == pytest.approx(float(np.dot(analytic, analytic)), rel=1e-9)


def test_finite_difference_path_without_analytic_gradient():
    analytic = build_trig_sum(2, 2, seed=3)
    problem = dataclasses.replace(analytic, grad=None)
    x = np.random.default_rng(0).normal(size=problem.total_dim)
    row = metrics_snapshot(problem, x, 0)
    assert row["grad_estimated"] is True
    g = analytic.grad(x)
    assert row["grad_sq"] == pytest.approx(float(np.dot(g, g)), rel=1e-6)
    trace = run(RunConfig(problem=problem, graph=CommGraph.path(2), eta=1e-3, u=1e-3,
                          horizon=10, metric_every=5))
    assert "no analytic gradient available; cadence rows use finite differences" in trace.notes
    assert trace.grad_sq_final is None
    assert trace.grad_sq_mean_ergodic is None


def test_metrics_snapshot_flags_infeasible_state():
    problem = build_box_quadratic(2, 1, seed=0)
    row = metrics_snapshot(problem, np.array([2.0, 0.0]), 0)
    assert not row["feasible"]


def test_metrics_snapshot_refuses_half_of_the_signed_action_check():
    problem = build_box_quadratic(2, 1, seed=0)
    x = np.zeros(problem.total_dim)
    for half in (dict(u=1e-3), dict(z_flat=np.ones(problem.total_dim))):
        with pytest.raises(ConfigurationError, match="both u and z_flat"):
            metrics_snapshot(problem, x, 0, **half)


@pytest.mark.parametrize("case", ["routing", "finite_differences"])
def test_cadence_rows_equal_metrics_snapshot(case):
    # each row's diagnostics, and the guard's verdict, bit for bit as the
    # public snapshot at the round's state and perturbation
    if case == "routing":
        config = _shared_stack_case("routing")  # cap projections
    else:
        problem = dataclasses.replace(build_trig_sum(2, 2, seed=3), grad=None)
        config = RunConfig(problem=problem, graph=CommGraph.path(2), eta=1e-3, u=1e-3,
                           delta=0.0, horizon=30, seed=5, metric_every=10)
    problem, states = config.problem, {}

    def probe(view):
        if view.t % config.metric_every == 0 or view.t == config.horizon:
            states[view.t] = (problem.flat(view.x).copy(), problem.flat(view.z).copy())

    trace = run(dataclasses.replace(config, probe=probe))
    if case == "routing":
        assert trace.cap_projections > 0
    assert [row["t"] for row in trace.rows] == list(states)
    for row in trace.rows:
        x, z = states[row["t"]]
        want = metrics_snapshot(problem, x, row["t"], config.delta, config.u, z)
        for key in ("f", "gap", "grad_sq", "grad_estimated", "feasible"):
            assert repr(row[key]) == repr(want[key]), (row["t"], key)
        assert row["grad_estimated"] == (case == "finite_differences")


def test_trace_csv_roundtrip(tmp_path):
    trace = run(_quadratic_config())
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert tuple(header) == TRACE_COLUMNS
    assert len(body) == len(trace.rows)
    assert float(body[0][1]) == trace.rows[0]["f"]
    assert int(body[-1][0]) == 60


def test_summary_dict_is_json_ready_and_echoes_config():
    config = _quadratic_config(echo={"version": 1, "anything": [1, 2, 3]})
    trace = run(config)
    summary = summary_dict(trace, config)
    encoded = json.dumps(summary)
    decoded = json.loads(encoded)
    assert decoded["config"] == {"version": 1, "anything": [1, 2, 3]}
    assert decoded["feasibility"]["violations"] == 0
    assert decoded["staleness"]["assumption_clean"] is True
    assert decoded["samples"] == trace.samples


def test_summary_without_echo_describes_run():
    config = _quadratic_config()
    trace = run(config)
    summary = summary_dict(trace, config)
    assert summary["config"]["problem"] == "box_quadratic"
    assert summary["config"]["graph"]["edges"] == [[1, 2], [2, 3]]
    described = json.loads(json.dumps(summary["config"]))
    assert described["strict_staleness"] is False
    assert described["history_slack"] == 32
    assert described["track_gradients"] is True
    assert described["horizon"] == 60 and described["seed"] == 11


def test_custom_problem_with_vector_only_closures_runs():
    # the engine calls `local_costs` and `grad` with the vector alone
    centers = np.array([[0.4, -0.3, 0.2], [0.1, 0.5, -0.6], [-0.2, 0.0, 0.3]])
    problem = Problem(
        name="vector_only",
        dims=[1, 1, 1],
        sets=[Box([-1.0], [1.0])] * 3,
        local_costs=lambda flat: 0.5 * ((np.asarray(flat)[..., None, :] - centers) ** 2).sum(-1),
        grad=lambda flat: np.asarray(flat) - centers.mean(axis=0),
    )
    trace = run(RunConfig(problem=problem, graph=CommGraph.path(3), eta=0.05, u=1e-3, horizon=40))
    assert len(trace.rows) > 1 and all(row["feasible"] for row in trace.rows)
    assert trace.f_final < problem.global_cost(np.zeros(3))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_validation_errors():
    problem = build_box_quadratic(3, 1, seed=0)
    graph = CommGraph.path(3)
    ok = dict(problem=problem, graph=graph, eta=1e-3, u=1e-3, horizon=10)
    with pytest.raises(ConfigurationError, match="u must be > 0"):
        run(RunConfig(**{**ok, "u": 0.0}))
    with pytest.raises(ConfigurationError, match="eta"):
        run(RunConfig(**{**ok, "eta": -1.0}))
    with pytest.raises(ConfigurationError, match="delta"):
        run(RunConfig(**{**ok, "delta": 1.0}))
    with pytest.raises(ConfigurationError, match="mode"):
        run(RunConfig(**{**ok, "mode": "partial"}))
    with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
        run(RunConfig(**{**ok, "seed": -1}))
    with pytest.raises(ConfigurationError, match="staleness bound"):
        run(RunConfig(**{**ok, "horizon": 1}))
    with pytest.raises(ConfigurationError, match="agents"):
        run(RunConfig(**{**ok, "graph": CommGraph.path(4)}))
    with pytest.raises(ConfigurationError, match=r"^x0: expected a flat vector of length 3, got shape \(5,\)$"):
        run(RunConfig(**{**ok, "x0": np.zeros(5)}))
    anonymous = dataclasses.replace(problem, affected=None)
    with pytest.raises(ConfigurationError, match="dependence"):
        run(RunConfig(**{**ok, "mode": "dependence", "problem": anonymous}))
    # non-finite numbers would run as a noiseless run or fail later as a
    # misleading oracle or domain error; the field is named instead
    for name, value in (("sigma", math.nan), ("eta", math.nan), ("eta", math.inf),
                        ("u", math.inf), ("u", math.nan)):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value}$"):
            run(RunConfig(**{**ok, name: value}))


def test_integer_options_refuse_non_integral_values():
    # truncated, metric_every = 2.5 would write rows at t = 0, 5 and 10, and
    # seed = 1.7 would run and report seed 1
    for name, value in (("horizon", 10.5), ("seed", 1.7), ("metric_every", 2.5),
                        ("history_slack", 2.5), ("seed", math.nan), ("horizon", math.inf)):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got {value}$"):
            run(_quadratic_config(**{name: value}))
    # integral floats keep working
    trace = run(_quadratic_config(horizon=10.0, seed=11.0, metric_every=5.0, history_slack=4.0))
    assert [row["t"] for row in trace.rows] == [0, 5, 10]
    assert trace.seed == 11 and trace.x_final.tobytes() == run(
        _quadratic_config(horizon=10, metric_every=5, history_slack=4)
    ).x_final.tobytes()


def test_horizon_beyond_int32_stamps_is_refused_before_any_round():
    rounds = []
    config = _quadratic_config(horizon=2**30, probe=lambda view: rounds.append(view.t))
    with pytest.raises(ConfigurationError, match=r"horizon must be below 2\*\*30 = 1073741824"):
        run(config)
    assert rounds == []
    zfo.runner._validate(dataclasses.replace(config, horizon=2**30 - 1))  # the largest accepted


def test_a_horizon_below_the_staleness_bound_is_refused_before_the_tables(monkeypatch):
    # the refusal needs only the bound; the (n, n) stamps and the rings are not built
    built = []

    class CountingTables(SwarmTables):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(zfo.runner, "SwarmTables", CountingTables)
    config = _quadratic_config(delay=BernoulliDrops(0.3, 4), horizon=5)  # path of 3: bound 2 + 4
    with pytest.raises(
        ConfigurationError,
        match="^horizon 5 is below the staleness bound 6; no round would enter the ergodic window$",
    ):
        run(config)
    assert built == []
    run(dataclasses.replace(config, horizon=6))
    assert len(built) == 1


class _StopAfterRoundZero(Exception):
    pass


def test_a_horizon_past_the_int16_stamps_starts_at_int32():
    # on a path of 2 (max_lag 1) int16 stamps hold horizons up to 32,764;
    # the probe reads round 0's dtype and stops the run
    dtypes = []

    def probe(view):
        dtypes.append(view.tables.stamps.dtype)
        raise _StopAfterRoundZero

    problem = build_box_quadratic(2, 1, seed=0)
    for horizon in (32_764, 32_765):
        config = RunConfig(
            problem=problem, graph=CommGraph.path(2), eta=1e-3, u=1e-3, delta=0.01,
            delay=BernoulliDrops(0.3, 2), horizon=horizon, probe=probe,
        )
        with pytest.raises(_StopAfterRoundZero):
            run(config)
    assert dtypes == [np.int16, np.int32]


def test_routing_lossy_run_keeps_int16_stamps():
    # the 40 x 5 routing instance with lossy links gossips int16 stamps
    problem = routing_problem(build_routing_instance(40, 5, seed=0))
    graph = CommGraph.random_connected(problem.n, seed=1, max_degree=4)
    dtypes = set()
    run(
        RunConfig(
            problem=problem, graph=graph, eta=1e-3, u=4e-3, delta=0.1,
            delay=BernoulliDrops(0.1, 3), horizon=30, metric_every=100,
            probe=lambda view: dtypes.add(view.tables.stamps.dtype),
        )
    )
    assert dtypes == {np.dtype(np.int16)}


def test_x0_outside_feasible_set_is_projected_with_note():
    problem = build_box_quadratic(3, 1, seed=0)
    graph = CommGraph.path(3)
    trace = run(
        RunConfig(
            problem=problem,
            graph=graph,
            eta=1e-3,
            u=1e-3,
            horizon=5,
            x0=np.array([5.0, -5.0, 0.0]),
        )
    )
    assert any("projected" in note for note in trace.notes)


@pytest.mark.parametrize(
    "build", [build_box_quadratic, build_trig_sum], ids=["box_quadratic", "trig_sum"]
)
def test_non_finite_x0_is_refused_before_round_0_naming_the_agent(build):
    # in a box and in the whole space alike, naming the agent whose block holds it
    problem = build(3, 2, seed=0)
    for value in (np.nan, np.inf, -np.inf):
        x0 = np.zeros(problem.total_dim)
        x0[4] = value  # agent 3's block
        config = RunConfig(
            problem=problem, graph=CommGraph.path(3), eta=1e-3, u=1e-3, horizon=5, x0=x0
        )
        with pytest.raises(ConfigurationError, match=r"^x0: agent 3 has a non-finite entry$"):
            run(config)


def test_a_state_outside_its_set_is_refused_by_the_sampler_naming_agent_and_round():
    class Drifting(Box):
        """A box whose projection lands outside it."""

        def project_batch(self, ys):
            return super().project_batch(ys) + 10.0

    problem = Problem(
        "drift", [1, 1, 1], [Box([-1.0], [1.0]), Drifting([-2.0], [2.0]), Box([-1.0], [1.0])],
        local_costs=lambda flat: np.asarray(flat, dtype=float) ** 2,
    )
    config = RunConfig(problem=problem, graph=CommGraph.path(3), eta=1e-3, u=1e-3, horizon=5)
    with pytest.raises(DomainError, match=(
        r"^agent 2 is outside its feasible set at round 0, so no perturbation can be sampled there$"
    )):
        run(config)


def test_run_refuses_problems_above_the_coordinate_ceiling():
    config = RunConfig(
        problem=Problem("wide", [8193], [WholeSpace(8193)], lambda flat: np.zeros(1)),
        graph=CommGraph.path(1), eta=1e-3, u=1e-3, horizon=5,
    )
    with pytest.raises(ConfigurationError, match=(
        r"^problem with n = 1 and D = 8193 coordinates exceeds the ceiling of 8192 "
    )):
        run(config)


def test_the_initial_point_note_is_membership_in_the_shrunken_set():
    # routing 2x3 at delta = 0.05: each shrunken set is {w >= 0, sum w <= 0.95}
    # with w = y + 0.2375; the note fires when an agent's block of x0 lies
    # more than 1e-9 (Euclidean) from it, and names the first such agent
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    shrunk = [problem.sets[0].shrink(0.05)]
    face = np.full(3, 0.95 / 3.0) - 0.2375  # on the face sum w = 0.95
    normal = np.ones(3) / np.sqrt(3.0)

    def initial_notes(block):
        x0 = np.zeros(problem.total_dim)
        x0[6:9] = block  # agent 3, 0-based 2
        trace = run(RunConfig(problem=problem, graph=CommGraph.complete(6), eta=0.02, u=1e-3,
                              delta=0.05, horizon=5, x0=x0))
        notes = [note for note in trace.notes if note.startswith("initial point")]
        assert bool(notes) == (problem.first_infeasible(problem.blocks(x0), shrunk) == 2)
        return notes

    assert initial_notes(np.zeros(3)) == []
    assert initial_notes(face + 5e-10 * normal) == []
    # a vertex of the unshrunken simplex (w = 0) moves 0.0125 sqrt(3)
    assert initial_notes(np.full(3, -0.25)) == [
        "initial point was projected into the shrunken feasible set (agent 3 moved 2.165e-02)"
    ]
    # 1.5e-9 out of the face: under 1e-9 in every coordinate, not in norm
    (note,) = initial_notes(face + 1.5e-9 * normal)
    assert note.endswith("(agent 3 moved 1.500e-09)")


def test_smoothing_radius_hypothesis_note():
    problem = build_box_quadratic(3, 1, seed=0)
    graph = CommGraph.path(3)
    trace = run(
        RunConfig(
            problem=problem, graph=graph, eta=1e-3, u=0.5, delta=0.01, horizon=5
        )
    )
    assert any("smoothing radius" in note for note in trace.notes)


def test_feasibility_guard_names_agent_and_round(monkeypatch):
    # a sampler that returns an oversized draw for agent 4 at round 7 must be
    # caught by the engine's own per-round check, not by the cost oracle
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    sample = zfo.runner.constrain_perturbation_batch
    rounds = []

    def oversized(set_, xs, zhat, u, stats=None, signed=None):
        z = np.array(sample(set_, xs, zhat, u, stats, signed=signed))
        rounds.append(len(rounds))
        if rounds[-1] == 7:
            z[3] = 10.0 / u
        return z

    monkeypatch.setattr(zfo.runner, "constrain_perturbation_batch", oversized)
    config = RunConfig(
        problem=problem, graph=CommGraph.complete(6), eta=1e-2, u=1e-3, delta=0.05, horizon=20
    )
    with pytest.raises(DomainError, match=r"^agent 4 would act outside its feasible set at round 7$"):
        run(config)
    assert rounds == list(range(8))


@pytest.mark.parametrize(
    "problem, u",
    [
        (routing_problem(build_routing_instance(2, 3, seed=1)), 2e-2),
        (build_box_quadratic(4, 2, seed=0), 5e-2),
    ],
    ids=["routing", "box_quadratic"],
)
def test_feasibility_guard_checks_the_samplers_output_itself(problem, u, monkeypatch):
    # a sampler whose draws are ten times too long: the guard must find the
    # first agent they take outside its set, not trust the sampler's verdict
    assert len(problem.groups) == 1  # one sampler call a round, rows in agent order
    sample = zfo.runner.constrain_perturbation_batch
    rounds, first_bad = [], []

    def tenfold(set_, xs, zhat, u, stats=None, signed=None):
        z = 10.0 * np.asarray(sample(set_, xs, zhat, u, stats, signed=signed))
        ok = set_.contains_batch(np.concatenate((xs + u * z, xs - u * z)), 1e-9)
        ok = ok.reshape(2, -1).all(axis=0)
        if not ok.all() and not first_bad:
            first_bad.append((int(np.argmin(ok)) + 1, len(rounds)))
        rounds.append(len(rounds))
        return z

    monkeypatch.setattr(zfo.runner, "constrain_perturbation_batch", tenfold)
    config = RunConfig(
        problem=problem, graph=CommGraph.complete(problem.n), eta=1e-2, u=u, delta=0.05, horizon=50
    )
    with pytest.raises(DomainError) as caught:
        run(config)
    agent, t = first_bad[0]
    assert str(caught.value) == f"agent {agent} would act outside its feasible set at round {t}"
    assert rounds == list(range(t + 1))


def _shared_stack_case(name: str) -> RunConfig:
    """Routing 2x3 (one group; u large enough for cap projections) or the
    mixed problem (four gathered groups of mixed dimensions)."""
    if name == "routing":
        problem = routing_problem(build_routing_instance(2, 3, seed=1))
        return RunConfig(problem=problem, graph=CommGraph.complete(6), eta=0.02, u=0.05,
                         delta=0.05, horizon=60, seed=3, metric_every=20)
    problem = _mixed_problem()
    return RunConfig(problem=problem, graph=CommGraph.ring(7), eta=0.05, u=0.3, delta=0.05,
                     horizon=60, seed=4, metric_every=20,
                     x0=np.linspace(-2.0, 2.0, problem.total_dim))


@pytest.mark.parametrize("case", ["routing", "mixed"])
def test_a_sampler_cannot_write_into_its_draw(case, monkeypatch):
    # the draws handed to the sampler are read-only, so the signed stack built
    # from them before the call cannot go stale behind the sampler's back
    config = _shared_stack_case(case)
    def scribble(set_, xs, zhat, u, stats=None, signed=None):
        zhat[0] = 0.0
        return zhat

    monkeypatch.setattr(zfo.runner, "constrain_perturbation_batch", scribble)
    with pytest.raises(ValueError, match="read-only"):
        run(config)


@pytest.mark.parametrize("case", ["routing", "mixed"])
def test_a_returned_copy_of_the_draws_changes_no_value(case, monkeypatch):
    # a sampler that hands back equal copies takes the engine's rebuild path
    # (z scattered from the copies, the signed stack rebuilt from z) in every
    # round: its run must equal the one that shares the draws and the stack
    config = _shared_stack_case(case)
    def record(config):
        rows = []

        def probe(view):
            rows.append([np.array(a) for a in (view.z, view.f_plus, view.f_minus, view.quotients,
                                                view.tables.stamps, view.gradient, view.x_next)])

        return run(dataclasses.replace(config, probe=probe)), rows

    expected, expected_rows = record(config)
    assert expected.cap_projections > 0
    sample = zfo.runner.constrain_perturbation_batch

    def copying(set_, xs, zhat, u, stats=None, signed=None):
        return np.array(sample(set_, xs, zhat, u, stats, signed=signed))

    monkeypatch.setattr(zfo.runner, "constrain_perturbation_batch", copying)
    trace, rows = record(config)
    _assert_traces_bitwise_equal(trace, expected)
    assert len(rows) == len(expected_rows)
    for got, want in zip(rows, expected_rows):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("excess, far, agent", [(1e-6, None, 2), (1.5e-9, 4, 4)],
                         ids=["state_outside", "action_outside"])
def test_the_guard_settles_a_state_with_one_verdict(excess, far, agent, monkeypatch):
    # one row's sum is past the shrunken cap by more than the tolerance, so the
    # closed-form test cannot settle the state: the row is outside, or within
    # 1e-9 of the set while another agent's signed actions leave it; either
    # way the state gets one verdict and one per-row pass
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    (group,) = problem.groups
    shrunk_set = group.set.shrink(0.05)
    w = np.full((problem.n, group.dim), shrunk_set.scale / group.dim)
    w[2, 0] += excess
    x = w + shrunk_set.shift
    z = 1e-3 * np.random.default_rng(0).standard_normal(x.shape)
    if far is not None:
        z[far] = [50.0, -50.0, 0.0]
    signed = x + z * np.array([[[1e-2]], [[-1e-2]]])
    passes = count_membership_passes(monkeypatch, x)
    assert problem.first_infeasible(x, [shrunk_set], signed) == agent
    assert passes == {"membership": 1, "per_row": 1}


def test_the_guard_keeps_its_own_membership_tests(monkeypatch):
    # the sampler tests the round's signed stack once, and the guard tests the
    # state and that stack again: 3 calls a round; a cadence row takes the
    # guard's verdict, so none may be dropped or duplicated
    membership = ShiftedSimplex.membership
    calls = []

    def counting(self, ys, tol=1e-9):
        calls.append(tol)
        return membership(self, ys, tol)

    monkeypatch.setattr(ShiftedSimplex, "membership", counting)
    problem = routing_problem(build_routing_instance(2, 3, seed=1))
    horizon, every = 50, 20
    trace = run(
        RunConfig(problem=problem, graph=CommGraph.complete(6), eta=0.02, u=1e-3, delta=0.05,
                  horizon=horizon, seed=2, metric_every=every)
    )
    assert trace.cap_projections == 0
    assert len(trace.rows) == 4  # rounds 0, 20, 40 and 50
    assert len(calls) == 3 * (horizon + 1)
    assert set(calls) == {1e-9}  # the sampler judges at the guard's tolerance


@pytest.mark.parametrize(
    "problem, delta",
    [(build_trig_sum(4, 2, seed=1), 0.0), (build_box_quadratic(4, 2, seed=0), 0.01)],
    ids=["trig_sum", "box_quadratic"],
)
def test_non_finite_cost_names_agent_and_round(problem, delta):
    # agent 3's first observation in round 5 is NaN: the run must stop there,
    # not finish with f_final = nan or fail a later feasibility check
    finished = []

    def local_costs(flat):
        costs = np.array(problem.local_costs(flat), dtype=float)
        if len(finished) == 5:
            costs[..., 2] = np.nan
        return costs

    config = RunConfig(
        problem=dataclasses.replace(problem, local_costs=local_costs),
        graph=CommGraph.ring(4),
        eta=1e-2,
        u=1e-3,
        delta=delta,
        horizon=20,
        probe=lambda view: finished.append(view.t),
    )
    with pytest.raises(
        AssumptionViolation, match=r"^agent 3 observed a non-finite cost at round 5$"
    ):
        run(config)
    assert finished == [0, 1, 2, 3, 4]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_step_bound_guard_rejects_overflowed_step(monkeypatch):
    # an infinite gradient entry for agent 3 at round 5 sends its unconstrained
    # step to infinity: the step-bound excess is inf - inf = NaN and must fail
    assemble = SwarmTables.assemble
    calls = []

    def overflowing(self, *args):
        gradient = assemble(self, *args)
        calls.append(len(calls))
        if calls[-1] == 5:
            gradient[2, 0] = np.inf
        return gradient

    monkeypatch.setattr(SwarmTables, "assemble", overflowing)
    config = RunConfig(
        problem=build_trig_sum(4, 2, seed=1), graph=CommGraph.ring(4), eta=1e-2, u=1e-3, horizon=20
    )
    with pytest.raises(OracleError, match=r"at round 5 \(excess nan\)"):
        run(config)


# ---------------------------------------------------------------------------
# block layout and set groups of a mixed problem
# ---------------------------------------------------------------------------


def _mixed_problem() -> Problem:
    """Box (dim 2), simplex (dim 3 and dim 1) and free (dim 2) blocks.

    Equal sets are separate objects at non-consecutive agents, so the set
    groups gather their rows and the flat vector is a masked gather.
    """
    sets = [
        Box([-1.0, -0.5], [1.0, 0.5]),
        ShiftedSimplex(3, shift=-0.25),
        ShiftedSimplex(1, shift=-0.7, scale=1.5),
        Box([-1.0, -0.5], [1.0, 0.5]),
        WholeSpace(2),
        ShiftedSimplex(3, shift=-0.25),
        ShiftedSimplex(1, shift=-0.7, scale=1.5),
    ]
    dims = [s.dim for s in sets]
    centers = np.random.default_rng(0).uniform(-1.5, 1.5, size=(len(sets), sum(dims)))

    def local_costs(flat):
        diff = np.asarray(flat, dtype=float)[..., None, :] - centers
        return 0.5 * np.einsum("...j,...j->...", diff, diff)

    return Problem(
        name="mixed",
        dims=dims,
        sets=sets,
        local_costs=local_costs,
        grad=lambda flat: np.asarray(flat, dtype=float) - centers.mean(axis=0),
    )


def _scalar_blocks(problem, flat):
    return [
        (s, flat[lo:hi]) for s, lo, hi in zip(problem.sets, problem.offsets[:-1], problem.offsets[1:])
    ]


def test_mixed_sets_batched_paths_match_per_agent_sets():
    problem = _mixed_problem()
    assert [g.members.tolist() for g in problem.groups] == [[0, 3], [1, 5], [2, 6], [4]]
    assert not any(isinstance(g.index[0], slice) for g in problem.groups[:3])
    assert not problem.dim_mask.all()
    rng = np.random.default_rng(1)

    # projection and membership against the per-agent scalar forms
    for _ in range(50):
        y = rng.normal(0.0, 1.0, problem.total_dim)
        np.testing.assert_array_equal(problem.flat(problem.blocks(y)), y)
        got = problem.project_feasible(y)
        for (s, got_block), (_, y_block) in zip(_scalar_blocks(problem, got), _scalar_blocks(problem, y)):
            np.testing.assert_array_equal(got_block, s.project(y_block))
        assert problem.feasible(got)
        for candidate in (y, 0.5 * y, got):
            assert problem.feasible(candidate) == all(
                s.contains(b) for s, b in _scalar_blocks(problem, candidate)
            )

    # the cadence feasibility flag: state in the shrunken sets, x +/- u z in the sets
    delta, u = 0.1, 0.5
    x = 0.5 * problem.project_feasible(rng.normal(0.0, 1.0, problem.total_dim))
    z = 1e-3 * rng.normal(size=problem.total_dim)
    assert metrics_snapshot(problem, x, 0, delta=delta)["feasible"]
    assert metrics_snapshot(problem, x, 0, delta=delta, u=u, z_flat=z)["feasible"]
    x_edge = x.copy()
    x_edge[problem.offsets[3]] = 0.95  # agent 4: inside its box, outside the shrunken box
    assert not metrics_snapshot(problem, x_edge, 0, delta=delta)["feasible"]
    assert metrics_snapshot(problem, x_edge, 0)["feasible"]
    z_far = z.copy()
    z_far[problem.offsets[6]] = 4.0  # agent 7: x +/- u z leaves its 1-D simplex
    assert not metrics_snapshot(problem, x, 0, delta=delta, u=u, z_flat=z_far)["feasible"]
    z_free = z.copy()
    z_free[problem.offsets[4]] = 1e6  # agent 5 is unconstrained
    assert metrics_snapshot(problem, x, 0, delta=delta, u=u, z_flat=z_free)["feasible"]

    # a short run on a ring passes every per-round guard
    horizon = 40
    trace = run(
        RunConfig(
            problem=problem, graph=CommGraph.ring(7), eta=0.05, u=1e-3, delta=0.05,
            horizon=horizon, seed=4, metric_every=10, x0=np.linspace(-2.0, 2.0, problem.total_dim),
        )
    )
    assert trace.feasibility_checks == horizon + 1
    assert all(row["feasible"] for row in trace.rows)


def test_the_signed_stack_follows_the_returned_draws():
    # round 0 of a mixed run: a box draw and a 3-D and a 1-D simplex draw get
    # the cap, so the sampler counts them and rebuilds those groups' rows of the
    # signed stack; the guard and the observations then read x ± u z of the returned z
    problem = _mixed_problem()
    u = 0.05
    config = RunConfig(
        problem=problem, graph=CommGraph.ring(7), eta=0.05, u=u, delta=0.05, horizon=5, seed=3,
        x0=np.linspace(-2.0, 2.0, problem.total_dim),
    )
    state = zfo.runner._Round(config)
    state.t = 0
    state.sample()
    raw = state._draws[0]
    assert (state.z[[0, 3]] != raw[[0, 3]]).any()  # a box draw clipped
    assert (state.z[[1, 5]] != raw[[1, 5]]).any() and (state.z[[2, 6]] != raw[[2, 6]]).any()
    assert state._stats.projections == 4
    expected = state.x + state.z * np.array([[[u]], [[-u]]])
    assert state._signed is not None
    assert state._signed.tobytes() == expected.tobytes()


def test_box_runs_count_every_capped_draw(monkeypatch):
    # the run's cap count is the number of draws the sampler handed back changed
    sampler, changed = zfo.runner.constrain_perturbation_batch, []

    def counted(set_, xs, zhat, u, stats=None, **kwargs):
        got = sampler(set_, xs, zhat, u, stats, **kwargs)
        changed.append(int((got != zhat).any(axis=1).sum()))
        return got

    monkeypatch.setattr(zfo.runner, "constrain_perturbation_batch", counted)
    trace = run(_quadratic_config(eta=0.05, u=0.5, delta=0.1, horizon=200, seed=0))
    assert trace.cap_projections == sum(changed) == 89
    assert trace.fallback_projections == 0


@pytest.mark.parametrize(
    "edit, named",
    [
        (dict(sigma=-0.1), "noise level sigma must be >= 0, got -0.1"),
        (dict(metric_every=0), "metric_every must be >= 1"),
        (dict(history_slack=0), "history_slack must be >= 1"),
        (dict(horizon=-1), "horizon must be >= 0, got -1"),
    ],
    ids=["sigma", "metric_every", "history_slack", "horizon"],
)
def test_run_option_refusals_name_the_option(edit, named):
    with pytest.raises(ConfigurationError) as info:
        run(_quadratic_config(**edit))
    assert str(info.value) == named

