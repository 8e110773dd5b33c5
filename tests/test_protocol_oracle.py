"""Gossip protocol checked against an independent flood-fill oracle.

The oracle tracks, for every (receiver, column) pair, the newest round
stamp that could have reached the receiver: each round an agent restamps
its own column with the current round and otherwise keeps the max of its
previous entry and its neighbors' previous entries.  With loss-free
links the engine's tables must reproduce this exactly, round by round.

A loss-free delay model takes the closed form (stamp = t - distance) and
never merges; a model that delivers everything but is not flagged
loss-free gossips.  The oracle checks both, and a property test holds the
two paths bitwise equal on random graphs, modes and horizons.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfo.network import BernoulliDrops, CommGraph, DelayModel, NoDelay
from zfo.problems import build_box_quadratic
from zfo.runner import RunConfig, run


class _DeliverAll(DelayModel):
    """Drops nothing, but is not flagged loss-free: runs take the merge."""

    def __init__(self, declared_delta: int = 0):
        self.declared_delta = declared_delta

    def drop_mask(self, rng, shape):
        return None


def _connected_graphs(n):
    """Yield every connected labeled undirected graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) == n:
            yield edges


def _flood_stamps(adj, n, horizon):
    """Oracle: stamps[t][i][j] after round t's merge, init -1."""
    table = -np.ones((n, n), dtype=np.int64)
    out = []
    for t in range(horizon + 1):
        table[np.arange(n), np.arange(n)] = t
        if t > 0:
            merged = table.copy()
            for i in range(n):
                for k in adj[i]:
                    merged[i] = np.maximum(merged[i], prev[k])
            table = merged
        prev = table.copy()
        out.append(table.copy())
    return out


def test_exhaustive_small_graphs_match_flood_oracle():
    _check_small_graphs_against_flood_oracle(NoDelay())


def test_exhaustive_small_graphs_match_flood_oracle_through_the_merge():
    _check_small_graphs_against_flood_oracle(_DeliverAll())


def _check_small_graphs_against_flood_oracle(delay):
    horizon = 8
    total = 0
    for n in (2, 3, 4):
        problem = build_box_quadratic(n, 1, seed=n)
        for edges in _connected_graphs(n):
            graph = CommGraph(n, edges)
            adj = [list(graph.neighbors[i]) for i in range(n)]
            expected = _flood_stamps(adj, n, horizon)
            seen = []

            def probe(view):
                seen.append(view.tables.stamps.copy())

            run(
                RunConfig(
                    problem=problem,
                    graph=graph,
                    eta=0.0,
                    u=1e-3,
                    horizon=horizon,
                    seed=1,
                    delay=delay,
                    probe=probe,
                )
            )
            assert len(seen) == horizon + 1
            for t in range(horizon + 1):
                np.testing.assert_array_equal(seen[t], expected[t])
            total += 1
    # 1 + 4 + 38 connected labeled graphs on 2..4 vertices
    assert total == 43


def test_oracle_init_and_self_column():
    # spot-check the oracle itself on a path of 3: stamps are t - distance
    adj = [[1], [0, 2], [1]]
    out = _flood_stamps(adj, 3, 5)
    dist = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    for t, table in enumerate(out):
        want = np.where(t >= dist, t - dist, -1)
        np.testing.assert_array_equal(table, want)


@st.composite
def _gossip_case(draw):
    """A random connected graph of 2-9 agents (a random tree plus chords),
    a table mode, dependence sets, and a horizon that wraps the ring of
    `staleness bound + slack` rounds."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    graph = CommGraph(n, sorted(edges))
    mode = draw(st.sampled_from(["full", "dependence", "reduced"]))
    problem = build_box_quadratic(n, 1, seed=draw(st.integers(0, 3)))
    if mode != "full":
        # column j's trackers grow from j one random neighbor at a time: a
        # connected set, so reduced tables are compatible, and columns
        # often travel farther inside their trackers than in the graph
        affected = [{i} for i in range(n)]
        for j in range(n):
            trackers = {j}
            for _ in range(draw(st.integers(0, n - 1))):
                frontier = {int(w) for v in trackers for w in graph.neighbors[v]} - trackers
                if not frontier:
                    break
                trackers.add(draw(st.sampled_from(sorted(frontier))))
            for r in trackers:
                affected[r].add(j)
        problem = dataclasses.replace(problem, affected=[frozenset(a) for a in affected])
    declared = draw(st.integers(0, 2))
    slack = draw(st.integers(1, 4))
    return dict(
        problem=problem,
        graph=graph,
        eta=draw(st.sampled_from([0.0, 1e-2])),
        u=1e-3,
        delta=0.05,
        sigma=draw(st.sampled_from([0.0, 0.1])),
        horizon=n + declared + draw(st.integers(0, 4 * (n + slack))),
        mode="full" if mode == "full" else "dependence",
        reduced_tables=mode == "reduced",
        history_slack=slack,
        strict_staleness=True,
        seed=draw(st.integers(0, 2**16)),
    ), declared


def _trace_and_rounds(config):
    rounds = []

    def probe(view):
        tables = view.tables
        rounds.append((tables.stamps.copy(), tables.quotients, view.gradient.copy()))

    trace = run(dataclasses.replace(config, probe=probe))
    fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    del fields["wall_time"]
    return fields, rounds


# The 5-cycle where agent 5 does not track column 1: column 1 reaches
# agent 4 in 3 hops inside its trackers, against 2 in the graph.
_CYCLE_AFFECTED = [frozenset({0, 1, 2, 3})] + [frozenset(range(5))] * 3 + [frozenset({1, 2, 3, 4})]
_CYCLE_CASE = dict(
    problem=dataclasses.replace(build_box_quadratic(5, 1, seed=0), affected=_CYCLE_AFFECTED),
    graph=CommGraph.ring(5),
    eta=1e-2,
    u=1e-3,
    delta=0.05,
    horizon=30,
    mode="dependence",
    reduced_tables=True,
    history_slack=1,
    strict_staleness=True,
)


@settings(max_examples=100, deadline=None)
@given(case=_gossip_case(), bernoulli=st.booleans())
@example(case=(_CYCLE_CASE, 1), bernoulli=True)
def test_closed_form_tables_equal_the_merge(case, bernoulli):
    common, declared = case
    closed = BernoulliDrops(0.0, declared) if bernoulli else NoDelay()
    merge = _DeliverAll(closed.declared_delta)
    assert closed.lossless and not merge.lossless
    closed_fields, closed_rounds = _trace_and_rounds(RunConfig(delay=closed, **common))
    merge_fields, merge_rounds = _trace_and_rounds(RunConfig(delay=merge, **common))
    assert closed_fields.keys() == merge_fields.keys()
    for name, value in closed_fields.items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == merge_fields[name].tobytes(), name
        else:
            assert value == merge_fields[name], name
    assert len(closed_rounds) == len(merge_rounds) == common["horizon"] + 1
    for closed_round, merge_round in zip(closed_rounds, merge_rounds):
        for a, b in zip(closed_round, merge_round):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
