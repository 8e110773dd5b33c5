"""Network tests; distances are cross-checked against an independent
Floyd-Warshall oracle."""
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfo.errors import AssumptionViolation, ConfigurationError
from zfo.network import (
    BernoulliDrops,
    CommGraph,
    DelayModel,
    NoDelay,
    check_compatibility,
    dependence_mask,
    network_stats,
    require_connected,
    shortest_path_lengths,
)


def _floyd_warshall(n, edges):
    inf = 10**9
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j in edges:
        d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return np.array(d)


# ---------------------------------------------------------------------------
# graphs and distances


def test_path_graph_distances():
    g = CommGraph.path(3)
    want = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    np.testing.assert_array_equal(shortest_path_lengths(g), want)


@pytest.mark.parametrize("seed", range(5))
def test_distances_match_floyd_warshall(seed):
    g = CommGraph.random_connected(12, seed=seed)
    np.testing.assert_array_equal(
        shortest_path_lengths(g), _floyd_warshall(g.n, g.edges)
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "path", "ring", "complete"]),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    max_degree=st.integers(2, 6),
)
def test_distances_match_floyd_warshall_on_drawn_graphs(kind, n, seed, max_degree):
    if kind == "random":
        g = CommGraph.random_connected(n, seed=seed, max_degree=max_degree)
    else:
        g = getattr(CommGraph, kind)(n)
    np.testing.assert_array_equal(shortest_path_lengths(g), _floyd_warshall(g.n, g.edges))


def test_random_graph_refuses_degree_and_edge_counts_it_cannot_honour():
    with pytest.raises(ConfigurationError, match="^max_degree must be >= 2 for n >= 3, got 1$"):
        CommGraph.random_connected(6, seed=0, max_degree=1)
    with pytest.raises(ConfigurationError, match="^extra_edges must be an integer >= 0, got -3$"):
        CommGraph.random_connected(6, seed=0, extra_edges=-3)
    # two agents form a path whatever the degree bound
    assert CommGraph.random_connected(2, seed=0, max_degree=1).edges == [(0, 1)]
    g = CommGraph.random_connected(6, seed=0, extra_edges=0, max_degree=2)
    assert g.edge_count == 6 and all(g.degree(i) == 2 for i in range(6))


def test_random_graph_refuses_chord_counts_it_cannot_place():
    # 6 nodes under max_degree 4 admit 6 chords; seed 0's greedy draw stalls
    # at 5, which it used to return for 6 and for 100 asked alike
    with pytest.raises(ConfigurationError, match="^extra_edges = 100 exceeds the 6 chords"):
        CommGraph.random_connected(6, seed=0, extra_edges=100)
    with pytest.raises(ConfigurationError, match="^extra_edges = 6, but the draw placed 5$"):
        CommGraph.random_connected(6, seed=0, extra_edges=6)
    # the free vertex pairs cap the count too: a 4-cycle leaves 2
    with pytest.raises(ConfigurationError, match="^extra_edges = 3 exceeds the 2 chords"):
        CommGraph.random_connected(4, seed=0, extra_edges=3, max_degree=6)
    with pytest.raises(ConfigurationError, match="^extra_edges = 1 exceeds the 0 chords that 2 nodes"):
        CommGraph.random_connected(2, seed=0, extra_edges=1)
    assert CommGraph.random_connected(6, seed=0, extra_edges=5).edge_count == 11
    # the default stays "up to": capped by the budget, never refused
    assert CommGraph.random_connected(6, seed=0, max_degree=2).edge_count == 6
    assert CommGraph.random_connected(6, seed=0).edge_count == 9
    assert CommGraph.random_connected(200, seed=1).edge_count == 300


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 16),
    seed=st.integers(0, 2**32 - 1),
    max_degree=st.integers(2, 6),
    extra=st.integers(0, 20),
)
def test_random_graph_places_an_explicit_count_in_full_or_refuses(n, seed, max_degree, extra):
    try:
        g = CommGraph.random_connected(n, seed=seed, extra_edges=extra, max_degree=max_degree)
    except ConfigurationError as exc:
        assert str(exc).startswith(f"extra_edges = {extra}")
        return
    assert g.edge_count == n + extra
    assert max(g.degree(i) for i in range(n)) <= max_degree
    # one draw sequence: of this graph and the default one, either holds the other
    default = CommGraph.random_connected(n, seed=seed, max_degree=max_degree)
    smaller, larger = sorted((set(g.edges), set(default.edges)), key=len)
    assert smaller <= larger


def test_neighbor_matrix_pads_with_the_vertex_itself():
    g = CommGraph(4, [(0, 1), (0, 2), (0, 3)])
    np.testing.assert_array_equal(
        g.neighbor_matrix(), [[1, 2, 3], [0, 1, 1], [0, 2, 2], [0, 3, 3]]
    )
    np.testing.assert_array_equal(CommGraph(1, []).neighbor_matrix(), [[0]])


def test_disconnected_graph_raises():
    g = CommGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(AssumptionViolation, match="disconnected"):
        shortest_path_lengths(g)
    # the first unreachable pair in row-major order is named
    with pytest.raises(AssumptionViolation, match="between vertices 1 and 3$"):
        shortest_path_lengths(g)
    with pytest.raises(AssumptionViolation, match="between vertices 1 and 4$"):
        shortest_path_lengths(CommGraph(5, [(0, 1), (1, 2), (2, 4)]))


def _bfs_per_source(graph, within=None):
    """Hops from each source by a plain queue over `graph.neighbors`,
    entering only vertices `within` allows; -1 where none leads."""
    dist = np.full((graph.n, graph.n), -1)
    for s in range(graph.n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors[u]:
                if dist[s, w] < 0 and (within is None or within[s, w]):
                    dist[s, w] = dist[s, u] + 1
                    queue.append(w)
    return dist


@st.composite
def _sweep_case(draw):
    """A graph (path, ring, complete, random, or any edge set, often
    disconnected) and no mask or a drawn `within` mask."""
    kind = draw(st.sampled_from(["path", "ring", "complete", "random", "edges"]))
    n = draw(st.integers(2 if kind == "edges" else 1, 40))
    if kind == "random":
        g = CommGraph.random_connected(
            n, seed=draw(st.integers(0, 2**32 - 1)), max_degree=draw(st.integers(2, 8))
        )
    elif kind == "edges":
        ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        pairs = draw(st.lists(ends, max_size=2 * n))
        g = CommGraph(n, [(i, (i + k) % n) for i, k in pairs])
    else:
        g = getattr(CommGraph, kind)(n)
    density = draw(st.sampled_from([None, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return g, None if density is None else rng.random((n, n)) < density


@settings(max_examples=250, deadline=None)
@given(_sweep_case())
def test_sweep_matches_a_per_source_bfs(case):
    g, within = case
    want = _bfs_per_source(g, within)
    if within is not None:
        got = shortest_path_lengths(g, within)
    elif (want < 0).any():
        # the first unreached pair in row-major order, which starts at vertex 1
        i, j = np.argwhere(want < 0)[0]
        message = f"no path between vertices {i + 1} and {j + 1}$"
        with pytest.raises(AssumptionViolation, match=message):
            shortest_path_lengths(g)
        with pytest.raises(AssumptionViolation, match=message):
            require_connected(g)
        return
    else:
        got = shortest_path_lengths(g)
        require_connected(g)
    # row-major like the sums over it, whose rounding follows the memory order
    assert got.dtype == np.int32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def test_ring_diameter():
    stats = network_stats(CommGraph.ring(6))
    assert stats.diameter == 3
    assert stats.staleness_bound == 3


@pytest.mark.parametrize("n", [3, 8, 20])
def test_random_connected_graph_degrees_and_determinism(n):
    g1 = CommGraph.random_connected(n, seed=7)
    g2 = CommGraph.random_connected(n, seed=7)
    assert g1.edges == g2.edges
    degrees = [g1.degree(i) for i in range(n)]
    assert min(degrees) >= 2
    assert max(degrees) <= 4
    shortest_path_lengths(g1)  # connected: must not raise


# ---------------------------------------------------------------------------
# delay statistics


def test_stats_path3_frozen_values():
    # Ordered-pair squared distances on the 3-path sum to 12.
    stats = network_stats(CommGraph.path(3), delta=0)
    assert stats.b_bar == pytest.approx(np.sqrt(12.0 / 9.0), rel=1e-15)
    assert stats.b_frak == pytest.approx(stats.b_bar, rel=1e-12)  # unit dims
    assert stats.staleness_bound == 2
    assert stats.diameter == 2


def test_stats_add_a_delay_beyond_the_int32_distances():
    # the hops are int32; delta is added in int64, as `zfo stats --delta` allows
    delta = 3_000_000_000
    stats = network_stats(CommGraph.path(3), delta=delta)
    assert stats.distances.dtype == np.int32
    assert stats.staleness_bound == delta + 2
    shifted = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int64) + delta
    assert stats.b_bar == float(np.sqrt((shifted.astype(float) ** 2).sum() / 9))


def test_stats_path3_dimension_weighted():
    # dims (3, 1, 2): weighted sum = 3*5 + 1*2 + 2*5 = 27, n*d = 18.
    stats = network_stats(CommGraph.path(3), delta=0, dims=[3, 1, 2])
    assert stats.b_frak == pytest.approx(np.sqrt(27.0 / 18.0), rel=1e-15)
    assert stats.b_bar == pytest.approx(np.sqrt(12.0 / 9.0), rel=1e-15)


def test_stats_include_extra_delay():
    # Single edge with delta = 1: (0+1)^2 * 2 + (1+1)^2 * 2 = 10 over n^2 = 4.
    stats = network_stats(CommGraph.complete(2), delta=1)
    assert stats.b_bar == pytest.approx(np.sqrt(10.0) / 2.0, rel=1e-15)
    assert stats.staleness_bound == 2
    assert stats.delta == 1


def test_equal_dims_collapse_weighted_stat():
    g = CommGraph.random_connected(9, seed=3)
    stats = network_stats(g, delta=2, dims=np.full(9, 4.0))
    assert stats.b_frak == pytest.approx(stats.b_bar, rel=1e-12)


def test_negative_delta_rejected():
    with pytest.raises(ConfigurationError):
        network_stats(CommGraph.path(2), delta=-1)


def test_non_integral_delta_rejected():
    # delta = 1.5 would record delta = 1 and B = 4 but weigh b_bar by 1.5
    with pytest.raises(ConfigurationError, match="^extra delay bound must be an integer >= 0, got 1.5$"):
        network_stats(CommGraph.path(4), 1.5)
    with pytest.raises(ConfigurationError, match="^declared extra delay must be an integer >= 0, got 2.5$"):
        BernoulliDrops(0.1, 2.5)
    assert network_stats(CommGraph.path(4), 1.0).b_bar == network_stats(CommGraph.path(4), 1).b_bar
    assert BernoulliDrops(0.1, 2.0).declared_delta == 2


# ---------------------------------------------------------------------------
# edge-list parsing


def test_edge_list_round_trip():
    g = CommGraph.from_edge_list_text("1 2\n2 3\n# comment\n\n3 4\n")
    assert g.n == 4
    assert g.edges == [(0, 1), (1, 2), (2, 3)]


def test_edge_list_rejects_zero_index():
    with pytest.raises(ConfigurationError, match="1-indexed"):
        CommGraph.from_edge_list_text("0 1\n")


def test_edge_list_rejects_malformed_line():
    with pytest.raises(ConfigurationError, match="line 2"):
        CommGraph.from_edge_list_text("1 2\n1 2 3\n")


def test_self_loop_rejected():
    with pytest.raises(ConfigurationError, match="self-loop"):
        CommGraph(3, [(0, 0)])


# ---------------------------------------------------------------------------
# drop models


def test_no_delay_never_drops():
    assert NoDelay().drop_mask(np.random.default_rng(0), (10,)) is None


def test_no_delay_is_the_loss_free_bernoulli_model():
    model = NoDelay()
    assert isinstance(model, BernoulliDrops) and repr(model) == "NoDelay()"
    assert (model.p, model.declared_delta, model.lossless) == (0.0, 0, True)
    assert BernoulliDrops(0.0, 3).lossless and not BernoulliDrops(0.1, 0).lossless
    assert not DelayModel.lossless


def test_bernoulli_drop_rate_matches_probability():
    model = BernoulliDrops(p=0.3, declared_delta=5)
    mask = model.drop_mask(np.random.default_rng(12), (20_000,))
    rate = float(mask.mean())
    sigma = np.sqrt(0.3 * 0.7 / 20_000)
    assert abs(rate - 0.3) < 4 * sigma


def test_bernoulli_zero_probability_is_no_drop():
    assert BernoulliDrops(p=0.0, declared_delta=2).drop_mask(
        np.random.default_rng(0), (5,)
    ) is None


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ConfigurationError):
        BernoulliDrops(p=1.0, declared_delta=0)


# ---------------------------------------------------------------------------
# dependence compatibility


def test_star_with_private_center_is_incompatible():
    # Leaves depend on each other but the relaying center tracks only
    # itself, so leaf columns cannot cross it.
    g = CommGraph(3, [(0, 1), (1, 2)])
    affected = [{0, 2}, {1}, {2}]
    report = check_compatibility(g, affected)
    assert not report.compatible
    assert (1, 2, 0) in report.witnesses


def test_path_with_tracking_center_is_compatible():
    g = CommGraph(3, [(0, 1), (1, 2)])
    affected = [{0}, {0, 1, 2}, {2}]
    report = check_compatibility(g, affected)
    assert report.compatible
    assert report.witnesses == []


def test_full_dependence_always_compatible():
    g = CommGraph.random_connected(10, seed=5)
    affected = [set(range(10)) for _ in range(10)]
    assert check_compatibility(g, affected).compatible


def test_chained_groups_on_ordered_path_compatible():
    # Three groups of two agents on a path, each group overlapping the
    # next: shortest paths only cross agents tracking the column.
    g = CommGraph.path(6)
    groups = [0, 0, 1, 1, 2, 2]
    affected = []
    for i in range(6):
        gi = groups[i]
        affected.append({j for j in range(6) if abs(groups[j] - gi) <= 1})
    assert check_compatibility(g, affected).compatible


def _reference_compatibility(graph, affected):
    """Per-column breadth-first search inside each column's trackers, with
    witnesses walked along full-graph shortest paths: (distances, compatible,
    witnesses) as `check_compatibility` defines them."""
    n = graph.n
    full_dist = _floyd_warshall(n, graph.edges)
    distances = np.full((n, n), -1, dtype=np.int64)
    witnesses = []
    for j in range(n):
        trackers = {r for r in range(n) if j in affected[r]}
        reach = {j}
        frontier = [j]
        hops = 0
        while frontier:
            distances[frontier, j] = hops
            hops += 1
            nxt = []
            for v in frontier:
                for w in graph.neighbors[v]:
                    w = int(w)
                    if w in trackers and w not in reach:
                        reach.add(w)
                        nxt.append(w)
            frontier = nxt
        for l in sorted(trackers - reach):
            v = l  # the first non-tracker on a shortest l-to-j path
            while j in affected[v]:
                v = next(int(w) for w in graph.neighbors[v] if full_dist[w, j] == full_dist[v, j] - 1)
            witnesses.append((v, j, l))
    return distances, not witnesses, witnesses


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    max_degree=st.integers(2, 6),
    kind=st.sampled_from(["random", "path", "ring", "complete"]),
    data=st.data(),
)
def test_masked_sweep_matches_per_column_reference(n, seed, max_degree, kind, data):
    if kind == "random":
        g = CommGraph.random_connected(n, seed=seed, max_degree=max_degree)
    else:
        g = getattr(CommGraph, kind)(n)
    # each agent affects itself and a drawn set: from none to every other agent
    affected = [data.draw(st.sets(st.integers(0, n - 1))) | {i} for i in range(n)]
    report = check_compatibility(g, affected)
    distances, compatible, witnesses = _reference_compatibility(g, affected)
    np.testing.assert_array_equal(report.distances, distances)
    assert report.compatible == compatible
    assert report.witnesses == witnesses


def test_masked_sweep_keeps_unreachable_entries_at_minus_one():
    # within[s, v] lets v relay for source s: on the path 1 - 2 - 3 with agent
    # 2 closed to source 1, source 1 reaches nothing, and nothing raises
    within = np.ones((3, 3), dtype=bool)
    within[0, 1] = False
    np.testing.assert_array_equal(
        shortest_path_lengths(CommGraph.path(3), within),
        [[0, -1, -1], [1, 0, 1], [2, 1, 0]],
    )


def test_dependence_mask_marks_each_agents_set():
    every = frozenset(range(4))
    affected = [every, {1, 0, 2}, every, [3, 2]]
    mask = dependence_mask(affected, 4)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, [[j in s for j in range(4)] for s in affected])
    np.testing.assert_array_equal(check_compatibility(CommGraph.path(4), affected).tracked, mask)
    # agents sharing one set object share its conversion, not their own-agent test
    with pytest.raises(ConfigurationError, match="^agent 3 must belong to its own affected set$"):
        dependence_mask([frozenset({0, 1})] * 3, 3)


def test_affected_must_contain_self():
    g = CommGraph.path(2)
    with pytest.raises(ConfigurationError):
        check_compatibility(g, [{1}, {1}])


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: CommGraph(0, []), "vertex count n must be an integer >= 1, got 0"),
        (lambda: CommGraph(3, [(0, 5)]), "edge (1, 6) outside 1..3"),
        (lambda: CommGraph.from_edge_list_text("1 2\n2 x\n"), "edge list line 2: non-integer vertex"),
        (lambda: CommGraph.from_edge_list_text("# no edges\n"), "edge list is empty"),
        (lambda: network_stats(CommGraph.path(3), 0, dims=[1, 2]),
         "dims must have one entry per agent"),
        (lambda: network_stats(CommGraph.path(3), 0, dims=[1, 1.5, 1]),
         "agent 2 has dimension 1.5, not a positive integer"),
        (lambda: check_compatibility(CommGraph.path(3), [{0}, {1}]),
         "affected sets must have one entry per agent"),
        (lambda: check_compatibility(CommGraph.path(3), [{0}, {1}, {2, 7}]),
         "affected set of agent 3 out of range"),
        (lambda: CommGraph.path(2.5), "vertex count n must be an integer >= 1, got 2.5"),
        (lambda: CommGraph.random_connected(5, seed=-1), "seed must be an integer >= 0, got -1"),
        (lambda: CommGraph.random_connected(5, 0, max_degree="x"),
         "max_degree must be an integer >= 0, got 'x'"),
    ],
    ids=["no_vertex", "edge_range", "edge_text", "no_edges", "dims_shape", "dims_fraction",
         "affected_length", "affected_range", "path_fraction", "negative_seed", "text_degree"],
)
def test_network_refusals_name_the_input(make, named):
    with pytest.raises(ConfigurationError) as info:
        make()
    assert str(info.value) == named

