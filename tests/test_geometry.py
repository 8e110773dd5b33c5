"""Geometry tests.

Projection expectations are checked against an independent grid-refinement
oracle that only uses the raw constraint definitions of each set, never the
production projection code.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zfo.geometry
from zfo.errors import ConfigurationError, DomainError
from zfo.geometry import (
    Ball,
    Box,
    Intersection,
    SampleStats,
    ShiftedSimplex,
    WholeSpace,
    constrain_perturbation_batch,
)


# ---------------------------------------------------------------------------
# independent oracle: grid-refined projection using raw constraints


def _raw_member(set_, v, tol=1e-12):
    """Membership straight from the constraint definitions."""
    if isinstance(set_, WholeSpace):
        return True
    if isinstance(set_, Box):
        return bool(np.all(v >= set_.lower - tol) and np.all(v <= set_.upper + tol))
    if isinstance(set_, Ball):
        return float(np.linalg.norm(v - set_.center)) <= set_.radius + tol
    if isinstance(set_, ShiftedSimplex):
        w = v - set_.shift
        return bool(np.all(w >= -tol) and w.sum() <= set_.scale + tol)
    if isinstance(set_, Intersection):
        return all(_raw_member(m, v, tol) for m in set_.members)
    raise TypeError(set_)


def _grid_project(set_, y, lo, hi, rounds=8, pts=15):
    """Brute-force projection: refine a grid around the running best."""
    y = np.asarray(y, dtype=float)
    lo = np.full(set_.dim, float(lo))
    hi = np.full(set_.dim, float(hi))
    best, best_d = None, np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], pts) for k in range(set_.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, set_.dim)
        for v in mesh:
            if _raw_member(set_, v, tol=1e-9) :
                d = np.linalg.norm(v - y)
                if d < best_d:
                    best, best_d = v, d
        span = (hi - lo) / (pts - 1)
        lo = best - 1.5 * span
        hi = best + 1.5 * span
    return best


# ---------------------------------------------------------------------------
# projections


def test_box_projection_clamps():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_allclose(box.project(np.array([3.0, -1.0])), [1.0, 0.0])
    np.testing.assert_allclose(box.project(np.array([0.5, 1.5])), [0.5, 1.5])


def test_ball_projection_scales_radially():
    ball = Ball([1.0, 0.0], 2.0)
    np.testing.assert_allclose(ball.project(np.array([5.0, 0.0])), [3.0, 0.0])
    inside = np.array([0.5, 0.5])
    np.testing.assert_allclose(ball.project(inside), inside)


def test_ball_projection_returns_interior_rows_unchanged():
    # center + (y - center) rounds differently from y for most rows, so the
    # interior rows must bypass the radial formula to come back bit for bit
    ball = Ball([0.1, -0.2, 0.3], 0.8)
    ys = np.random.default_rng(0).normal(0.0, 0.3, size=(10_000, 3))
    inside = np.linalg.norm(ys - ball.center, axis=1) <= ball.radius
    assert inside.sum() > 5_000 and (~inside).any()
    out = ball.project_batch(ys)
    assert np.array_equal(out[inside], ys[inside])
    assert np.all(np.linalg.norm(out[~inside] - ball.center, axis=1) <= ball.radius * (1 + 1e-15))
    assert out is not ys


def test_simplex_projection_matches_grid_oracle_frozen_case():
    # Oracle-derived: projecting (0.8, 0.8) onto {v >= 0, sum v <= 1}
    # lands on the diagonal face at (0.5, 0.5).
    simplex = ShiftedSimplex(2)
    got = simplex.project(np.array([0.8, 0.8]))
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_simplex_projection_matches_grid_oracle_random(seed):
    rng = np.random.default_rng(seed)
    set_ = ShiftedSimplex(3, shift=-np.array([0.2, 0.3, 0.1]), scale=0.8)
    y = rng.normal(0.0, 0.8, size=3)
    got = set_.project(y)
    want = _grid_project(set_, y, -1.5, 1.5)
    assert np.linalg.norm(got - want) < 2e-3  # grid resolution limit
    # optimality certificate: <y - p, v - p> <= 0 for feasible v
    for _ in range(200):
        w = rng.random(3)
        v = set_.shift + set_.scale * w / max(w.sum(), 1.0)
        assert float(np.dot(y - got, v - got)) <= 1e-9


def test_intersection_projection_certified_hand_case():
    # Ball(0,1) cap Box([0.5,-2],[2,2]): nearest point to (2, 0) is (1, 0).
    inter = Intersection([Ball([0.0, 0.0], 1.0), Box([0.5, -2.0], [2.0, 2.0])])
    got = inter.project(np.array([2.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-8)


@pytest.mark.parametrize("seed", range(3))
def test_intersection_projection_optimality_certificate(seed):
    # The projection p of y is the unique feasible point satisfying
    # <y - p, v - p> <= 0 for every feasible v; check that variational
    # inequality (and plain distance dominance) on sampled feasible points.
    rng = np.random.default_rng(100 + seed)
    inter = Intersection([Ball([0.1, -0.1], 0.9), Box([-0.5, -1.0], [0.6, 1.0])])
    y = rng.normal(0.0, 1.2, size=2)
    got = inter.project(y)
    assert all(_raw_member(m, got, tol=1e-9) for m in inter.members)
    vs = rng.uniform([-0.5, -1.0], [0.6, 1.0], size=(50_000, 2))
    feasible = vs[np.linalg.norm(vs - np.array([0.1, -0.1]), axis=1) <= 0.9]
    assert len(feasible) > 1000
    inner = (feasible - got) @ (y - got)
    assert float(inner.max()) <= 1e-8
    dists = np.linalg.norm(feasible - y, axis=1)
    assert np.linalg.norm(got - y) <= float(dists.min()) + 1e-6


def test_project_batch_is_an_idempotent_nonexpansive_projection():
    _projection_properties()


@st.composite
def _projection_case(draw):
    """A box, ball or simplex (random shift and scale) and rows around it."""
    kind = draw(st.sampled_from(["box", "ball", "simplex"]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "box":
        lower = rng.normal(0.0, 1.0, dim)
        set_ = Box(lower, lower + rng.uniform(0.0, 2.0, dim))
        center = lower
    elif kind == "ball":
        center = rng.normal(0.0, 1.0, dim)
        set_ = Ball(center, rng.uniform(0.01, 2.0))
    else:
        set_ = ShiftedSimplex(dim, rng.normal(0.0, 1.0, dim), rng.uniform(0.01, 2.0))
        center = set_.shift
    spread = draw(st.sampled_from([0.01, 1.0, 10.0]))
    return set_, center + rng.normal(0.0, spread, (16, dim))


@settings(max_examples=300, deadline=None)
@given(_projection_case())
def _projection_properties(case):
    set_, ys = case
    proj = set_.project_batch(ys)
    # idempotent
    np.testing.assert_allclose(set_.project_batch(proj), proj, rtol=0.0, atol=1e-12)
    # non-expansive, on the pairs (row k, row k + 8)
    gap = np.linalg.norm(ys[:8] - ys[8:], axis=1)
    assert np.all(np.linalg.norm(proj[:8] - proj[8:], axis=1) <= gap + 1e-12)
    # lands in the set, by the set's own test and by its raw constraints (the
    # former projects with the code under test, so it cannot see a wrong projection)
    assert set_.contains_batch(proj, 1e-9).all()
    assert all(_raw_member(set_, p, tol=1e-9) for p in proj)


# ---------------------------------------------------------------------------
# membership


def test_contains_uses_euclidean_distance_tolerance():
    box = Box([-1.0], [1.0])
    assert box.contains(np.array([1.0 + 5e-10]), tol=1e-9)
    assert not box.contains(np.array([1.0 + 5e-9]), tol=1e-9)


def test_contains_batch_matches_distance_definition():
    _contains_batch_matches_definition()


def test_contains_batch_rejects_far_rows_without_trusting_the_projection(monkeypatch):
    # a projection that leaves over-cap rows alone would certify them itself
    def orthant_only(w, cap):
        return np.maximum(w, 0.0)

    monkeypatch.setattr(zfo.geometry, "_project_orthant_cap", orthant_only)
    set_ = ShiftedSimplex(3, shift=-0.25, scale=0.8)
    ys = set_.shift + np.array([[0.4, 0.6, 0.6], [0.1, 0.2, 0.3]])  # sums 2 * scale, 0.6
    np.testing.assert_array_equal(set_.contains_batch(ys, 1e-9), [False, True])
    assert not set_.contains(ys[0], 1e-9)


@st.composite
def _membership_case(draw):
    """A box, ball or simplex, a tolerance, rows around its boundary, and
    rows inside it.

    Besides scattered rows, every row outside the set is also placed at
    distance tol * (1 -/+ 1e-6), 0.5 tol and 2 tol along its outward
    normal, and its projection (a boundary point) is kept as a row too.
    The inside rows are those projections and the midpoints between them
    and an interior anchor.
    """
    kind = draw(st.sampled_from(["box", "ball", "simplex"]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if kind == "box":
        lower = rng.normal(0.0, size, dim)
        set_ = Box(lower, lower + rng.uniform(0.0, 2.0 * size, dim))
        center, anchor = lower, 0.5 * (set_.lower + set_.upper)
    elif kind == "ball":
        center = rng.normal(0.0, size, dim)
        set_ = Ball(center, rng.uniform(0.01, 2.0) * size)
        anchor = center
    else:
        set_ = ShiftedSimplex(dim, -rng.uniform(0.0, size, dim), rng.uniform(0.01, 2.0) * size)
        center, anchor = set_.shift, set_.shift + set_.scale / (dim + 1)
    tol = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
    spread = draw(st.sampled_from([0.01, 1.0, 100.0]))
    ys = center + rng.normal(0.0, spread * size, (12, dim))
    proj = set_.project_batch(ys)
    away = np.linalg.norm(ys - proj, axis=1)
    out = away > 0.0
    normal = (ys[out] - proj[out]) / away[out, None]
    rows = [ys, proj]
    for factor in (1.0 - 1e-6, 1.0 + 1e-6, 0.5, 2.0):
        rows.append(proj[out] + factor * tol * normal)
    inside = np.concatenate([proj, 0.5 * (proj + anchor)])
    return set_, np.concatenate(rows), inside, tol


@settings(max_examples=300, deadline=None)
@given(_membership_case())
def _contains_batch_matches_definition(case):
    set_, ys, inside, tol = case
    for rows in (ys, inside):
        expected = np.linalg.norm(rows - set_.project_batch(rows), axis=-1) <= tol
        np.testing.assert_array_equal(set_.contains_batch(rows, tol), expected)


@st.composite
def _contains_all_case(draw):
    """A membership case's set, or the whole space or an intersection of the
    set with a ball around it; rows that are all inside, boundary rows, or
    rows around the boundary; stacked 2-D or 3-D; and a tolerance below or
    above the set's `_inside_slack`, or the case's own."""
    set_, ys, inside, tol = draw(_membership_case())
    wrap = draw(st.sampled_from(["none", "whole", "intersection"]))
    if wrap == "whole":
        set_ = WholeSpace(set_.dim)
    elif wrap == "intersection":
        center = inside.mean(axis=0)
        radius = float(np.linalg.norm(inside - center, axis=1).max()) + 1.0
        set_ = Intersection([set_, Ball(center, radius)])
    pick = draw(st.sampled_from(["inside", "boundary", "around"]))
    rows = {"inside": inside, "boundary": inside[: len(inside) // 2], "around": ys}[pick]
    rows = rows[: 2 * (len(rows) // 2)]
    if draw(st.booleans()):
        rows = rows.reshape(2, -1, set_.dim)
    slack = set_._inside_slack
    tol = draw(st.sampled_from([tol, 0.5 * slack, 2.0 * slack]))
    return set_, rows, tol


@settings(max_examples=300, deadline=None)
@given(_contains_all_case())
def test_contains_all_is_the_conjunction_of_contains_batch(case):
    set_, rows, tol = case
    expected = bool(set_.contains_batch(rows.reshape(-1, set_.dim), tol).all())
    assert set_.contains_all(rows, tol) == expected


@pytest.mark.parametrize(
    "set_",
    [Box([-1.0, -0.5], [1.0, 0.5]), ShiftedSimplex(2, shift=-1.0 / 3.0), WholeSpace(2)],
    ids=["box", "simplex", "whole"],
)
def test_contains_all_settles_plainly_inside_points_in_closed_form(set_, monkeypatch):
    def per_row(*args, **kwargs):
        raise AssertionError("per-row membership test called")

    monkeypatch.setattr(type(set_), "contains_batch", per_row)
    points = np.random.default_rng(3).uniform(-0.1, 0.1, (2, 3, 4, 2))
    assert set_.contains_all(points, 1e-9)
    assert set_.contains_all(points[0, 0], 1e-9)


# ---------------------------------------------------------------------------
# shrink


def test_shrink_box():
    box = Box([-1.0], [1.0]).shrink(0.1)
    np.testing.assert_allclose(box.lower, [-0.9])
    np.testing.assert_allclose(box.upper, [0.9])


def test_shrink_requires_origin_interior():
    with pytest.raises(ConfigurationError):
        Box([0.0], [1.0]).shrink(0.1)  # origin on the boundary
    with pytest.raises(ConfigurationError):
        Ball([2.0], 1.0).shrink(0.2)
    Box([0.0], [1.0]).shrink(0.0)  # identity shrink never needs interiority


def test_shrink_simplex_is_set_scaling():
    # y in (1-delta)*X  iff  y/(1-delta) in X
    set_ = ShiftedSimplex(3, shift=-0.25)
    shrunk = set_.shrink(0.2)
    rng = np.random.default_rng(11)
    for _ in range(300):
        y = rng.normal(0.0, 0.4, size=3)
        a = shrunk.contains(y, tol=1e-12)
        b = set_.contains(y / 0.8, tol=1e-12 / 0.8)
        assert a == b


def test_shrink_whole_space_identity():
    ws = WholeSpace(4)
    assert ws.shrink(0.3) is ws


def test_shrink_rejects_bad_delta():
    with pytest.raises(ConfigurationError):
        Box([-1.0], [1.0]).shrink(1.0)
    with pytest.raises(ConfigurationError):
        Box([-1.0], [1.0]).shrink(-0.1)


# ---------------------------------------------------------------------------
# radii


def test_inner_outer_radius_box():
    box = Box([-0.5, -2.0], [1.5, 1.0])
    assert box.inner_radius() == pytest.approx(0.5)
    assert box.outer_radius() == pytest.approx(np.sqrt(1.5**2 + 2.0**2))


def test_inner_outer_radius_ball():
    ball = Ball([0.3, 0.4], 1.0)
    assert ball.inner_radius() == pytest.approx(0.5)
    assert ball.outer_radius() == pytest.approx(1.5)


def test_inner_radius_simplex_centered():
    # Re-centered simplex over m = 4 routes (3 free coordinates):
    # min(1/m, (1/m)/sqrt(dim)) = 1/(m*sqrt(m-1)).
    m = 4
    set_ = ShiftedSimplex(m - 1, shift=-1.0 / m)
    assert set_.inner_radius() == pytest.approx(1.0 / (m * np.sqrt(m - 1)))


def test_outer_radius_simplex_is_max_vertex_norm():
    set_ = ShiftedSimplex(2, shift=np.array([-0.2, -0.4]), scale=0.9)
    verts = [set_.shift.copy()]
    for k in range(2):
        v = set_.shift.copy()
        v[k] += set_.scale
        verts.append(v)
    assert set_.outer_radius() == pytest.approx(max(np.linalg.norm(v) for v in verts))


def test_intersection_inner_radius_is_min():
    inter = Intersection([Ball([0.0, 0.0], 1.0), Box([-0.4, -2.0], [0.7, 2.0])])
    assert inter.inner_radius() == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# perturbation sampling


def test_box_perturbation_clamps_to_margin():
    # At x = 0.8 inside [0, 1] with u = 0.1 the symmetric cap is
    # [-2, 2]: a raw draw of 5 must come back as exactly 2.
    box = Box([0.0], [1.0])
    z = constrain_perturbation_batch(box, np.array([[0.8]]), np.array([[5.0]]), 0.1)
    np.testing.assert_allclose(z, [[2.0]])
    assert box.contains(np.array([0.8]) + 0.1 * z[0], tol=1e-12)


def test_whole_space_perturbation_is_raw_gaussian():
    raw = np.random.default_rng(5).standard_normal((4, 3))
    z = constrain_perturbation_batch(WholeSpace(3), np.full((4, 3), 1e6), raw, 0.01)
    np.testing.assert_array_equal(z, raw)


def test_sample_perturbation_requires_feasible_base_point():
    rng = np.random.default_rng(0)
    cases = [
        (Box([0.0], [1.0]), [[0.5], [2.0]]),
        (Ball([0.0, 0.0], 1.0), [[0.0, 0.0], [1.5, 0.0]]),
        (ShiftedSimplex(2, shift=-0.25), [[0.0, 0.0], [0.9, 0.9]]),
        (
            Intersection([Ball([0.0, 0.0], 1.0), Box([-0.8, -0.8], [0.8, 0.8])]),
            [[0.0, 0.0], [0.9, 0.0]],
        ),
    ]
    for set_, xs in cases:
        xs = np.array(xs)
        for u in (1e-6, 0.1):  # the draws pass the fast path, or they do not
            zhat = rng.standard_normal(xs.shape)
            with pytest.raises(DomainError, match="outside the set"):
                constrain_perturbation_batch(set_, xs, zhat, u)
            constrain_perturbation_batch(set_, xs[:1], zhat[:1], u)
    # membership is up to distance 1e-9, as for `contains`
    box = Box([0.0], [1.0])
    z = constrain_perturbation_batch(box, np.array([[1.0 + 5e-10]]), np.array([[1.0]]), 0.1)
    np.testing.assert_array_equal(z, [[0.0]])
    with pytest.raises(DomainError):
        constrain_perturbation_batch(box, np.array([[1.0 + 5e-9]]), np.array([[1.0]]), 0.1)


@pytest.mark.parametrize(
    "set_,x",
    [
        (Box([-1.0, -1.0], [1.0, 1.0]), np.array([0.97, -0.99])),
        (Ball([0.0, 0.0], 1.0), np.array([0.69, 0.69])),
        (ShiftedSimplex(3, shift=-0.25), np.array([0.2, -0.2, 0.0])),
        (
            Intersection([Ball([0.0, 0.0], 1.0), Box([-0.8, -0.8], [0.8, 0.8])]),
            np.array([0.78, 0.1]),
        ),
    ],
)
def test_sampled_perturbations_keep_both_actions_feasible(set_, x):
    rng = np.random.default_rng(42)
    u = 0.05
    assert set_.contains(x, tol=1e-9)
    raw = rng.standard_normal((200, set_.dim))
    zs = constrain_perturbation_batch(set_, np.tile(x, (200, 1)), raw, u)
    for z in zs:
        assert set_.contains(x + u * z, tol=1e-9)
        assert set_.contains(x - u * z, tol=1e-9)


def test_sampled_perturbation_is_identity_deep_inside():
    # Far from the boundary the cap is inactive and z equals the raw draw.
    set_ = ShiftedSimplex(3, shift=-0.25)
    raws = np.random.default_rng(9).standard_normal((50, 3))
    stats = SampleStats()
    z = constrain_perturbation_batch(set_, np.zeros((50, 3)), raws, 1e-4, stats)
    np.testing.assert_array_equal(z, raws)
    assert stats.projections == 0


def test_bisection_fallback_returns_feasible_scaling(monkeypatch):
    # Force the fallback with a cap projection that returns the raw draw.
    monkeypatch.setattr(zfo.geometry, "_project_symmetric_cap", lambda set_, x, zhat, u: zhat)
    set_ = ShiftedSimplex(2, shift=-1.0 / 3.0)
    x = np.array([0.6, -0.3])
    assert set_.contains(x, tol=1e-9)
    stats = SampleStats()
    zhat = np.array([40.0, -25.0])
    z = constrain_perturbation_batch(set_, x[None, :], zhat[None, :], 0.05, stats=stats)[0]
    assert stats.fallbacks == 1
    assert set_.contains(x + 0.05 * z, tol=1e-9)
    assert set_.contains(x - 0.05 * z, tol=1e-9)
    # fallback shrinks the raw draw radially
    cross = z[0] * zhat[1] - z[1] * zhat[0]
    assert abs(cross) < 1e-9


def test_constrain_perturbation_batch_rows_match_single_rows():
    set_ = ShiftedSimplex(3, shift=-0.25)
    rng = np.random.default_rng(21)
    xs = np.tile(np.array([0.2, -0.2, 0.0]), (30, 1))
    zh = rng.standard_normal((30, 3)) * 3.0
    stats = SampleStats()
    batch = constrain_perturbation_batch(set_, xs, zh, 0.05, stats)
    assert 0 < stats.projections < 30
    for row in range(30):
        single = constrain_perturbation_batch(set_, xs[row : row + 1], zh[row : row + 1], 0.05)
        np.testing.assert_array_equal(batch[row], single[0])


def test_constrain_perturbation_batch_box_closed_form():
    box = Box([0.0, -1.0], [1.0, 1.0])
    xs = np.array([[0.8, 0.0], [0.05, 0.9]])
    zh = np.array([[5.0, 0.3], [-2.0, 4.0]])
    got = constrain_perturbation_batch(box, xs, zh, 0.1)
    np.testing.assert_allclose(got, [[2.0, 0.3], [-0.5, 1.0]])
