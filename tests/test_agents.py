"""Protocol-state tests.

The vectorized SwarmTables engine is cross-checked round for round
against the transparent per-agent reference in `protocol_reference.py`,
which the first half of this file pins down on its own.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protocol_reference import (
    InfoTable,
    PerturbationHistory,
    assemble_gradient,
    local_quotient,
    merge_tables,
)
from zfo.agents import MAX_ROUNDS, SwarmTables
from zfo.errors import ConfigurationError, ProtocolViolation
from zfo.network import CommGraph

# The largest horizon of int16 tables with max_lag 0: every stamp plus its
# offset stays below the int16 untracked offset, 32767, less one.
_NARROW_LAST = int(np.iinfo(np.int16).max) - 2


def test_local_quotient_frozen_example():
    assert local_quotient(1.2, 0.8, 0.1) == pytest.approx(2.0)


def test_local_quotient_rejects_bad_radius():
    with pytest.raises(ConfigurationError):
        local_quotient(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# perturbation history


def test_history_round_trip():
    h = PerturbationHistory(capacity=4, dim=2)
    h.store(0, np.array([1.0, 2.0]))
    h.store(1, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(h.lookup(0), [1.0, 2.0])
    np.testing.assert_array_equal(h.lookup(1), [3.0, 4.0])


def test_history_never_heard_is_zero():
    h = PerturbationHistory(capacity=3, dim=2)
    np.testing.assert_array_equal(h.lookup(-1), [0.0, 0.0])


def test_history_eviction_raises():
    h = PerturbationHistory(capacity=2, dim=1)
    for t in range(4):
        h.store(t, np.array([float(t)]))
    np.testing.assert_array_equal(h.lookup(3), [3.0])
    with pytest.raises(ProtocolViolation, match="staleness"):
        h.lookup(1)


def test_history_unstored_round_raises():
    h = PerturbationHistory(capacity=3, dim=1)
    with pytest.raises(ProtocolViolation):
        h.lookup(0)


# ---------------------------------------------------------------------------
# per-agent tables


def test_record_own_and_tracking():
    t = InfoTable.full(3)
    t.record_own(1, 2.5, 7)
    assert t.quotients[1] == 2.5
    assert t.stamps[1] == 7
    assert t.tracks(2)
    reduced = InfoTable([0, 2])
    assert not reduced.tracks(1)
    with pytest.raises(KeyError):
        reduced.index_of(1)


def test_merge_adopts_strictly_newer():
    own = InfoTable.full(2)
    own.stamps[1] = 0
    own.quotients[1] = 1.0
    incoming = InfoTable.full(2)
    incoming.stamps[1] = 2
    incoming.quotients[1] = 5.0
    merge_tables(own, [(1, incoming)])
    assert own.stamps[1] == 2
    assert own.quotients[1] == 5.0


def test_merge_stamp_tie_keeps_incumbent():
    own = InfoTable.full(2)
    own.stamps[1] = 2
    own.quotients[1] = 1.0
    incoming = InfoTable.full(2)
    incoming.stamps[1] = 2
    incoming.quotients[1] = 9.0
    merge_tables(own, [(1, incoming)])
    assert own.quotients[1] == 1.0


def test_merge_sender_tie_goes_to_lowest_id():
    own = InfoTable.full(3)
    own.stamps[2] = 1
    a = InfoTable.full(3)
    a.stamps[2] = 3
    a.quotients[2] = 7.0
    b = InfoTable.full(3)
    b.stamps[2] = 3
    b.quotients[2] = 9.0
    # passed out of order on purpose; merge sorts by sender id
    merge_tables(own, [(2, b), (0, a)])
    assert own.quotients[2] == 7.0


def test_merge_highest_stamp_beats_sender_order():
    own = InfoTable.full(3)
    a = InfoTable.full(3)
    a.stamps[2] = 3
    a.quotients[2] = 7.0
    b = InfoTable.full(3)
    b.stamps[2] = 4
    b.quotients[2] = 9.0
    merge_tables(own, [(0, a), (2, b)])
    assert own.stamps[2] == 4
    assert own.quotients[2] == 9.0


def test_merge_respects_column_intersection():
    own = InfoTable([0, 1])
    own.stamps[1] = 0
    own.quotients[1] = 1.0
    incoming = InfoTable([0, 2])  # does not track column 1
    incoming.stamps[:] = 5
    incoming.quotients[:] = 8.0
    merge_tables(own, [(2, incoming)])
    assert own.stamps[1] == 0
    assert own.quotients[1] == 1.0


# ---------------------------------------------------------------------------
# assembly


def test_assemble_gradient_frozen_example():
    # Two agents, scalar block. Own history: z(0) = 0.5, z(1) = -1.
    # Table: quotients (2, 4) stamped (1, 0).
    # Estimate = (2 * z(1) + 4 * z(0)) / 2 = 0.
    h = PerturbationHistory(capacity=4, dim=1)
    h.store(0, np.array([0.5]))
    h.store(1, np.array([-1.0]))
    table = InfoTable.full(2)
    table.quotients[:] = [2.0, 4.0]
    table.stamps[:] = [1, 0]
    np.testing.assert_allclose(assemble_gradient(table, h, 2), [0.0])


def test_assemble_gradient_skips_never_heard():
    h = PerturbationHistory(capacity=4, dim=1)
    h.store(0, np.array([0.5]))
    table = InfoTable.full(2)
    table.quotients[:] = [3.0, 4.0]
    table.stamps[:] = [-1, 0]
    np.testing.assert_allclose(assemble_gradient(table, h, 2), [1.0])


# ---------------------------------------------------------------------------
# vectorized state


def test_swarm_requires_own_column_tracked():
    tracked = np.ones((2, 2), dtype=bool)
    tracked[0, 0] = False
    with pytest.raises(ConfigurationError):
        SwarmTables(2, tracked, 1, 1)


@pytest.mark.parametrize(
    "edit, named",
    [
        (dict(tracked=np.ones((3, 2), dtype=bool)), "tracked mask must be (n, n)"),
        (dict(distances=np.full((3, 3), -1)), "distances must be (n, n) and >= 0"),
        (dict(distances=np.zeros((3, 2), dtype=int)), "distances must be (n, n) and >= 0"),
    ],
    ids=["tracked_shape", "negative_distances", "distances_shape"],
)
def test_swarm_refusals_name_the_input(edit, named):
    args = {"n": 3, "tracked": np.ones((3, 3), dtype=bool), "headroom": 2, "d_max": 1, **edit}
    with pytest.raises(ConfigurationError) as info:
        SwarmTables(**args)
    assert str(info.value).startswith(named)


def test_swarm_staleness_semantics():
    s = SwarmTables(2, np.ones((2, 2)), 4, 1)
    s.record_own(3, np.array([1.0, 2.0]), np.zeros((2, 1)))
    stale = s.staleness(3)
    assert stale[0, 0] == 0
    assert stale[0, 1] == 4  # never heard reads t + 1


@pytest.mark.parametrize(
    "horizon, dtype", [(_NARROW_LAST, np.int16), (MAX_ROUNDS - 1, np.int32)]
)
def test_swarm_reads_past_the_int16_range_on_int16_and_int32_tables(horizon, dtype):
    # a ring of 65536 rounds, whose slot mask int16 cannot hold
    s = SwarmTables(2, np.ones((2, 2)), 40_000, 1, horizon=horizon)
    assert s.stamps.dtype == dtype
    t = _NARROW_LAST
    s.record_own(t, np.array([1.0, 2.0]), np.ones((2, 1)))
    np.testing.assert_array_equal(s.quotients, [[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(s.assemble(), [[0.5], [1.0]])
    # ages past the int16 range
    later = t + 40_000
    stale = s.staleness(later)
    assert stale.dtype == np.intp
    np.testing.assert_array_equal(stale, [[40_000, later + 1], [later + 1, 40_000]])
    assert (stale + 2**40).min() == 2**40 + 40_000


@pytest.mark.parametrize(
    "horizon, lag, dtype",
    [
        (_NARROW_LAST, 0, np.int16),
        (_NARROW_LAST + 1, 0, np.int32),
        (_NARROW_LAST - 3, 3, np.int16),
        (_NARROW_LAST - 2, 3, np.int32),
        (40_000, 40_000, np.int32),
    ],
)
def test_swarm_stamp_dtype_is_fixed_by_the_horizon(horizon, lag, dtype):
    # at round `horizon` every stamp plus its offset is horizon + lag, the
    # largest sum the tables hold; the round after it is refused
    distances = np.array([[0, lag], [lag, 0]])
    s = SwarmTables(2, np.ones((2, 2)), 1, 1, distances, horizon=horizon)
    assert s.stamps.dtype == dtype
    s.record_own(horizon, np.ones(2), np.ones((2, 1)))
    s.merge_from(s.snapshot(), np.array([[1], [0]]))
    assert s.stamps.dtype == dtype
    np.testing.assert_array_equal(s.stamps, np.full((2, 2), horizon))
    assert s.ages() == (0, 0)
    with pytest.raises(
        ProtocolViolation, match=f"^round {horizon + 1} is past the tables' horizon {horizon}$"
    ):
        s.record_own(horizon + 1, np.ones(2), np.ones((2, 1)))


@pytest.mark.parametrize("horizon", [_NARROW_LAST, MAX_ROUNDS - 1])
def test_swarm_untracked_offsets_keep_their_sentinel_whatever_the_distance_dtype(horizon):
    # int16 distances must not wrap an untracked entry's offset: stamp -1
    # plus a wrapped offset would read as the largest extra delay
    distances = np.zeros((2, 2), dtype=np.int16)
    s = SwarmTables(2, np.eye(2, dtype=bool), 1, 1, distances, horizon=horizon)
    s.record_own(0, np.ones(2), np.ones((2, 1)))
    assert s.ages() == (0, 0)


def _overrun_tables():
    """Two agents and a ring of 2 rounds: at round 2 each holds the other's
    quotient of round 0, whose slot round 2 has reused."""
    s = SwarmTables(2, np.ones((2, 2)), 2, 1)
    nb = np.array([[1], [0]])
    s.record_own(0, np.array([1.0, 2.0]), np.ones((2, 1)))
    snapshot = s.snapshot()
    s.record_own(1, np.array([1.0, 2.0]), np.ones((2, 1)))
    s.merge_from(snapshot, nb, np.ones((2, 1), dtype=bool))  # round 1's messages are lost
    s.record_own(2, np.array([1.0, 2.0]), np.ones((2, 1)))  # evicts round 0
    assert s.stamps[0, 1] == -1
    s.merge_from(snapshot, nb)  # round 0's tables, delivered late
    assert s.stamps[0, 1] == 0
    return s


def test_swarm_assemble_detects_window_overrun():
    with pytest.raises(ProtocolViolation, match="staleness"):
        _overrun_tables().assemble()


def test_swarm_assemble_window_check_follows_use_mask():
    s = _overrun_tables()
    own_only = np.eye(2, dtype=bool)
    # the evicted entries are outside the mask: own quotients (1, 2) times z = 1, over n = 2
    np.testing.assert_array_equal(s.assemble(own_only), [[0.5], [1.0]])
    use = own_only.copy()
    use[1, 0] = True
    with pytest.raises(
        ProtocolViolation,
        match="^agent 2 references round 0 for column 1, which left the history window; "
        "the staleness bound was exceeded$",
    ):
        s.assemble(use)


def _count_window_checks(s):
    """Count the rounds in which `assemble` runs the history-window check."""
    counter = [0]
    check = s._check_window

    def counting(*args, **kwargs):
        counter[0] += 1
        return check(*args, **kwargs)

    s._check_window = counting
    return counter


def test_swarm_never_heard_entry_takes_exact_path_without_raising():
    # agent 1 never hears agent 2 (every message is lost): at round
    # t >= capacity the oldest tracked stamp is -1, so the check runs
    s = SwarmTables(2, np.ones((2, 2)), 2, 1)
    checks = _count_window_checks(s)
    nb = np.array([[1], [0]])
    snapshot = None
    for t in range(5):
        s.record_own(t, np.array([1.0, 2.0]), np.ones((2, 1)))
        if snapshot is not None:
            s.merge_from(snapshot, nb, np.array([[True], [False]]))
        snapshot = s.snapshot()
        grad = s.assemble()
    assert s.stamps[0, 1] == -1 and s.oldest_stamp() == -1
    assert checks[0] == 3  # rounds 2, 3 and 4
    np.testing.assert_array_equal(grad, [[0.5], [1.5]])


def test_swarm_window_check_skipped_while_every_stamp_is_in_the_ring():
    s = SwarmTables(3, np.ones((3, 3)), 3, 1)
    checks = _count_window_checks(s)
    nb = _neighbor_matrix(CommGraph.complete(3))
    snapshot = None
    for t in range(8):
        s.record_own(t, np.ones(3), np.ones((3, 1)))
        if snapshot is not None:
            s.merge_from(snapshot, nb)
        snapshot = s.snapshot()
        s.assemble()
    assert checks[0] == 0
    assert s.oldest_stamp() == 6


def _late_delivery(lag, capacity):
    """Two agents and every message lost until round 3 + lag, when round
    3's tables arrive: each then holds the other's quotient of age `lag`."""
    s = SwarmTables(2, np.ones((2, 2)), capacity, 1)
    nb = np.array([[1], [0]])
    lost = np.ones((2, 1), dtype=bool)
    for t in range(3 + lag + 1):
        s.record_own(t, np.array([1.0, 2.0]), np.ones((2, 1)))
        if t == 3:
            late = s.snapshot()
        if t > 0:
            s.merge_from(s.snapshot(), nb, lost)
    s.merge_from(late, nb)
    assert s.oldest_stamp() == 3
    return s


@pytest.mark.parametrize("lag", [2, 3, 4, 5])
def test_swarm_window_check_fires_from_capacity_rounds_old(lag):
    # rings of 4, 4 and 8 rounds: the check fires from `capacity` rounds
    # old, also while the ring still holds the stamped round
    for capacity in (3, 4, 5):
        s = _late_delivery(lag, capacity)
        own_only = np.eye(2, dtype=bool)
        # own quotients (1, 2) times z = 1, over n = 2, whatever the other entry's age
        np.testing.assert_array_equal(s.assemble(own_only), [[0.5], [1.0]])
        if lag < capacity:
            np.testing.assert_array_equal(s.assemble(), [[1.5], [1.5]])
            np.testing.assert_array_equal(s.quotients, [[1.0, 2.0], [1.0, 2.0]])
            continue
        np.testing.assert_array_equal(s.quotients, [[1.0, 0.0], [0.0, 2.0]])
        use = own_only.copy()
        use[0, 1] = True
        with pytest.raises(
            ProtocolViolation,
            match="^agent 1 references round 3 for column 2, which left the history window; "
            "the staleness bound was exceeded$",
        ):
            s.assemble(use)


def test_swarm_untracked_entries_stay_never_heard():
    # on a path 1 - 2 - 3, the middle agent tracks every column; the ends
    # track only their own, so they never adopt what the middle relays
    tracked = np.eye(3, dtype=bool)
    tracked[1] = True
    s = SwarmTables(3, tracked, 4, 1)
    nb = _neighbor_matrix(CommGraph.path(3))
    rng = np.random.default_rng(3)
    snapshot = None
    for t in range(10):
        s.record_own(t, np.ones(3), np.ones((3, 1)))
        if snapshot is not None:
            s.merge_from(snapshot, nb, rng.random(nb.shape) < 0.3)
        snapshot = s.snapshot()
    assert (s.stamps[1] >= 0).all()
    np.testing.assert_array_equal(s.stamps[~tracked], -1)
    assert s.oldest_stamp() == s.stamps[tracked].min()


def test_swarm_reduced_tables_read_nothing_untracked_after_the_ring_wraps():
    # on a path 1 - 2 - 3 the ends track only their own column; over 10
    # rounds the ring of 4 wraps, so the slot of stamp -1 holds rounds 3
    # and 7, yet untracked entries add nothing and read 0.  From round 1
    # every tracked entry is heard, so only the reduced-table rule zeroes
    # them.
    tracked = np.eye(3, dtype=bool)
    tracked[1] = True
    s = SwarmTables(3, tracked, 3, 1)
    nb = _neighbor_matrix(CommGraph.path(3))
    for t in range(10):
        s.merge_from(s.stamps, nb)
        s.record_own(t, np.array([1.0, 2.0, 4.0]) * (t + 1), np.ones((3, 1)))
        assert s.oldest_stamp() >= 0 or t == 0
        q = s.quotients
        np.testing.assert_array_equal(q[~tracked], 0.0)
        np.testing.assert_array_equal(np.diag(q), np.array([1.0, 2.0, 4.0]) * (t + 1))
        grad = s.assemble()
        np.testing.assert_array_equal(grad[[0, 2], 0], np.array([1.0, 4.0]) * (t + 1) / 3)
    # the middle agent hears both ends one round late
    np.testing.assert_array_equal(grad[1], [(1.0 * 9 + 2.0 * 10 + 4.0 * 9) / 3])


def test_swarm_ring_memory_is_linear_in_capacity():
    # a ring of 3000 rounds holds O(capacity) entries, rounded up to 4096
    tracemalloc.start()
    try:
        s = SwarmTables(3, np.ones((3, 3)), 3000, 1)
        for t in range(3005):
            s.record_own(t, np.ones(3), np.ones((3, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# cross-check: vectorized engine vs per-agent reference


def _neighbor_matrix(graph):
    max_deg = max(graph.degree(i) for i in range(graph.n))
    nb = np.tile(np.arange(graph.n)[:, None], (1, max_deg))
    for i in range(graph.n):
        nb[i, : graph.degree(i)] = graph.neighbors[i]
    return nb


def _run_reference(graph, tracked_sets, values, z_rows, drops, use_sets, start=0):
    """Per-agent protocol simulation of the quotients `values` (T, n) and
    perturbations `z_rows` (T, n, d) of rounds start, ..., start + T - 1;
    returns the stamps, the quotients, the gradients and the gradients
    over the columns in `use_sets` of every round."""
    T, n, d = z_rows.shape
    tables = [InfoTable(sorted(tracked_sets[i])) for i in range(n)]
    histories = [PerturbationHistory(capacity=T + 1, dim=d) for _ in range(n)]
    outbox = None
    rounds = []
    for t in range(T):
        for i in range(n):
            histories[i].store(start + t, z_rows[t, i])
            tables[i].record_own(i, float(values[t, i]), start + t)
        if outbox is not None:
            for i in range(n):
                received = []
                for pos, k in enumerate(graph.neighbors[i]):
                    if drops is not None and drops[t, i, pos]:
                        continue
                    received.append((int(k), outbox[int(k)]))
                merge_tables(tables[i], received)
        outbox = [tables[i].copy() for i in range(n)]
        stamps = np.full((n, n), -1, dtype=np.int64)
        quots = np.zeros((n, n))
        grads = np.zeros((n, d))
        used_grads = np.zeros((n, d))
        for i in range(n):
            for pos, j in enumerate(tables[i].columns):
                stamps[i, j] = tables[i].stamps[pos]
                quots[i, j] = tables[i].quotients[pos]
            grads[i] = assemble_gradient(tables[i], histories[i], n)
            used_grads[i] = assemble_gradient(tables[i], histories[i], n, use_sets[i])
        rounds.append((stamps, quots, grads, used_grads))
    return rounds


def _use_sets(rng, n):
    """A random column set per agent that always holds its own column."""
    return [{i} | set(np.flatnonzero(rng.random(n) < 0.5).tolist()) for i in range(n)]


def _mask(sets, n):
    mask = np.zeros((n, n), dtype=bool)
    for i, s in enumerate(sets):
        mask[i, sorted(s)] = True
    return mask


def _check_swarm_against_reference(
    graph, tracked_sets, values, z_rows, drops, use_sets, start=0, narrow=False
):
    """Run SwarmTables on the reference's inputs from round `start`, with
    int16 stamps when the last round is at most _NARROW_LAST (`narrow`)
    and int32 ones otherwise, and compare stamps, the derived quotients,
    the ages, the gradients and the gradients over the columns in
    `use_sets` every round.  Its rings hold one round more than the
    oldest entry the reference ever holds, so they wrap once the rounds
    outnumber them."""
    T, n, d = z_rows.shape
    reference = _run_reference(graph, tracked_sets, values, z_rows, drops, use_sets, start)
    oldest_ages = [t - int(s[s >= 0].min()) for t, (s, *_) in enumerate(reference, start)]
    capacity = 1 + max(oldest_ages)
    tracked = _mask(tracked_sets, n)
    use_mask = _mask(use_sets, n)
    nb = _neighbor_matrix(graph)
    dtype = np.int16 if narrow else np.int32
    horizon = start + T - 1 if narrow else MAX_ROUNDS - 1
    swarm = SwarmTables(n, tracked, capacity, d, horizon=horizon)
    snapshot = None
    for t in range(start, start + T):
        swarm.record_own(t, values[t - start], z_rows[t - start])
        if snapshot is not None:
            # drops hit pads too, as in the engine; the reference ignores them
            swarm.merge_from(snapshot, nb, None if drops is None else drops[t - start])
        snapshot = swarm.snapshot()
        ref_stamps, ref_quots, ref_grads, ref_used_grads = reference[t - start]
        assert swarm.stamps.dtype == dtype
        np.testing.assert_array_equal(swarm.stamps, ref_stamps)
        np.testing.assert_array_equal(swarm.quotients, ref_quots)
        # every distance is 0, so the extra delay is the oldest tracked age
        age = t - int(ref_stamps[tracked].min())
        assert swarm.ages() == (age, age)
        np.testing.assert_allclose(swarm.assemble(), ref_grads, atol=1e-14)
        np.testing.assert_allclose(swarm.assemble(use_mask), ref_used_grads, atol=1e-14)
    return capacity


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def _swarm_matches_reference_on_drawn_cases(reduced, with_drops, data):
    """Random connected graphs of 2-9 agents, random tracked sets (when
    `reduced`), drop rates up to 0.5 (when `with_drops`), random quotients
    and random assembly masks, with rings that wrap, on int32 tables and
    on int16 ones from round 0 or up to the last round they hold."""
    n = data.draw(st.integers(2, 9), label="n")
    graph = CommGraph.random_connected(
        n, seed=data.draw(st.integers(0, 2**32 - 1)), max_degree=data.draw(st.integers(2, 8))
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    T = data.draw(st.integers(6, 30), label="T")
    narrow = data.draw(st.booleans(), label="narrow")
    start = data.draw(st.sampled_from([0, _NARROW_LAST - T + 1]), label="start")
    d = data.draw(st.integers(1, 3), label="d")
    if reduced:
        tracked_sets = [{i} | set(np.flatnonzero(rng.random(n) < 0.5).tolist()) for i in range(n)]
    else:
        tracked_sets = [set(range(n)) for _ in range(n)]
    drops = None
    if with_drops:
        rate = data.draw(st.floats(0.0, 0.5), label="drop rate")
        drops = rng.random(size=(T, n, max(graph.degree(i) for i in range(n)))) < rate
    values = rng.normal(size=(T, n))
    z_rows = rng.normal(size=(T, n, d))
    _check_swarm_against_reference(
        graph, tracked_sets, values, z_rows, drops, _use_sets(rng, n), start, narrow
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("with_drops", [False, True])
def test_swarm_tables_match_reference(seed, reduced, with_drops):
    rng = np.random.default_rng(1000 + seed)
    graph = CommGraph.random_connected(6, seed=seed)
    n, T, d = 6, 12, 2
    max_deg = _neighbor_matrix(graph).shape[1]

    if reduced:
        tracked_sets = []
        for i in range(n):
            extras = rng.choice(n, size=3, replace=False)
            tracked_sets.append({i} | {int(e) for e in extras})
    else:
        tracked_sets = [set(range(n)) for _ in range(n)]

    z_rows = rng.normal(size=(T, n, d))
    drops = rng.random(size=(T, n, max_deg)) < 0.35 if with_drops else None
    values = np.arange(1.0, n + 1) + 0.1 * np.arange(T)[:, None]

    # int32 tables; int16 ones from round 0; int16 ones up to their last round
    start, narrow = ((0, False), (0, True), (_NARROW_LAST - T + 1, True))[seed]
    capacity = _check_swarm_against_reference(
        graph, tracked_sets, values, z_rows, drops, _use_sets(rng, n), start, narrow
    )
    assert capacity < T  # the rings wrapped
    _swarm_matches_reference_on_drawn_cases(reduced, with_drops)


def test_no_drop_staleness_equals_distance():
    # With no drops information is exactly as old as the hop distance.
    graph = CommGraph.path(3)
    nb = _neighbor_matrix(graph)
    T = 6
    swarm = SwarmTables(3, np.ones((3, 3)), T, 1)
    snapshot = None
    for t in range(T):
        swarm.record_own(t, np.zeros(3), np.zeros((3, 1)))
        if snapshot is not None:
            swarm.merge_from(snapshot, nb)
        snapshot = swarm.snapshot()
    dist = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    np.testing.assert_array_equal(swarm.stamps, (T - 1) - dist)
