"""Geometry tests.

Projection expectations are checked against an independent grid-refinement
oracle that only uses the raw constraint definitions of each set, never the
production projection code.
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zfo.geometry
from zfo.errors import ConfigurationError, DomainError
from zfo.geometry import (
    Box,
    SampleStats,
    ShiftedSimplex,
    WholeSpace,
    _COLUMN_SUM_ROWS,
    _column_sums,
    row_summer,
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
    if isinstance(set_, ShiftedSimplex):
        w = v - set_.shift
        return bool(np.all(w >= -tol) and w.sum() <= set_.scale + tol)
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


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -np.inf, np.inf, 1e308, -5e-324])


@settings(max_examples=300, deadline=None)
@given(
    bounds=st.lists(st.tuples(_EDGE_FLOATS | st.floats(-10, 10), _EDGE_FLOATS), min_size=1,
                    max_size=4),
    data=st.data(),
)
def test_box_projection_is_np_clip_bit_for_bit(bounds, data):
    # signed zeros, infinite bounds and NaN rows included
    lower, upper = np.array([sorted(b) for b in bounds]).T
    points = _EDGE_FLOATS | st.floats(-20, 20) | st.just(np.nan)
    ys = np.array(data.draw(st.lists(st.lists(points, min_size=len(bounds), max_size=len(bounds)),
                                     min_size=1, max_size=5)))
    got, want = Box(lower, upper).project_batch(ys), np.clip(ys, lower, upper)
    if len(bounds) > 1:
        assert got.tobytes() == want.tobytes()
    else:
        # np.clip treats one-coordinate bounds as scalars and then keeps the
        # point's zero at an equal zero bound, where it otherwise returns the
        # bound's, as the two ufuncs always do; the values are equal
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == np.clip(ys, np.repeat(lower, len(ys)).reshape(ys.shape),
                                        np.repeat(upper, len(ys)).reshape(ys.shape)).tobytes()


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


def test_project_batch_is_an_idempotent_nonexpansive_projection():
    _projection_properties()


@st.composite
def _projection_case(draw):
    """A box or simplex (random shift and scale) and rows around it."""
    kind = draw(st.sampled_from(["box", "simplex"]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "box":
        lower = rng.normal(0.0, 1.0, dim)
        set_ = Box(lower, lower + rng.uniform(0.0, 2.0, dim))
        center = lower
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
    """A box or simplex, a tolerance, rows around its boundary, and
    rows inside it.

    Besides scattered rows, every row outside the set is also placed at
    distance tol * (1 -/+ 1e-6), 0.5 tol and 2 tol along its outward
    normal, and its projection (a boundary point) is kept as a row too.
    The inside rows are those projections and the midpoints between them
    and an interior anchor.
    """
    kind = draw(st.sampled_from(["box", "simplex"]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if kind == "box":
        lower = rng.normal(0.0, size, dim)
        set_ = Box(lower, lower + rng.uniform(0.0, 2.0 * size, dim))
        center, anchor = lower, 0.5 * (set_.lower + set_.upper)
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
    """A membership case's set, or the whole space; rows that are all
    inside, boundary rows, or rows around the boundary, repeated often
    enough for the simplex test to sum them as columns or not; stacked 2-D
    or 3-D; and a tolerance below or above the set's `_inside_slack`, or
    the case's own."""
    set_, ys, inside, tol = draw(_membership_case())
    wrap = draw(st.sampled_from(["none", "whole"]))
    if wrap == "whole":
        set_ = WholeSpace(set_.dim)
    pick = draw(st.sampled_from(["inside", "boundary", "around"]))
    rows = {"inside": inside, "boundary": inside[: len(inside) // 2], "around": ys}[pick]
    if wrap == "none":
        rows = np.tile(rows, (draw(st.sampled_from([1, 40])), 1))
    rows = rows[: 2 * (len(rows) // 2)]
    if draw(st.booleans()):
        rows = rows.reshape(2, -1, set_.dim)
    slack = set_._inside_slack
    tol = draw(st.sampled_from([tol, 0.5 * slack, 2.0 * slack]))
    return set_, rows, tol


@settings(max_examples=300, deadline=None)
@given(_contains_all_case())
def test_contains_all_is_the_conjunction_of_contains_batch(case):
    # and `membership` is "all inside" only when every row passes, else the row verdicts
    set_, rows, tol = case
    flat = rows.reshape(-1, set_.dim)
    verdicts = np.linalg.norm(flat - set_.project_batch(flat), axis=-1) <= tol
    np.testing.assert_array_equal(set_.contains_batch(rows, tol), verdicts.reshape(rows.shape[:-1]))
    assert set_.contains_all(rows, tol) == bool(verdicts.all())
    got = set_.membership(rows, tol)
    if got is None:
        assert verdicts.all()
    else:
        np.testing.assert_array_equal(got, verdicts)


@st.composite
def _simplex_face_case(draw):
    """A shifted simplex, a tolerance, and rows on and near its faces: the
    projections of scattered rows (on a face up to rounding), moved by a
    few units of rounding and by fractions and multiples of `tol`, repeated
    often enough for the membership tests to sum them as columns or not."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    set_ = ShiftedSimplex(dim, -rng.uniform(0.0, size, dim), rng.uniform(0.01, 2.0) * size)
    tol = draw(st.sampled_from([1e-12, 1e-9]))
    faces = set_.project_batch(set_.shift + rng.normal(0.0, size, (8, dim)))
    steps = np.concatenate([
        np.spacing(np.abs(faces) + set_.scale) * rng.integers(-4, 5, faces.shape),
        tol * rng.choice([0.01, 0.5, 0.99, 1.01, 3.0], (8, 1)) * rng.normal(0.0, 1.0, (8, dim)),
    ])
    rows = np.concatenate([faces, np.concatenate([faces, faces]) + steps])
    rows = np.tile(rows, (draw(st.sampled_from([1, 40])), 1))
    return set_, rng.permutation(rows), tol


@settings(max_examples=300, deadline=None)
@given(_simplex_face_case())
def test_simplex_verdicts_near_the_faces_equal_the_distance_definition(case):
    set_, rows, tol = case
    expected = np.linalg.norm(rows - set_.project_batch(rows), axis=-1) <= tol
    np.testing.assert_array_equal(set_.contains_batch(rows, tol), expected)
    assert set_.contains_all(rows, tol) == bool(expected.all())
    for part in (rows[:4], rows[4:]):
        assert set_.contains_all(part, tol) == bool(set_.contains_batch(part, tol).all())


def test_simplex_rows_a_rounding_step_outside_are_settled_without_projecting(monkeypatch):
    set_ = ShiftedSimplex(4, shift=-0.2, scale=0.9)
    faces = set_.project_batch(set_.shift + np.random.default_rng(5).normal(0.0, 1.0, (6, 4)))
    w = faces - set_.shift
    w[:, 0] += set_.scale - w.sum(axis=1) + np.spacing(set_.scale)  # sums just past the cap
    w[0, 1] = -np.spacing(1.0)  # and an entry just below 0
    rows = w + set_.shift
    assert ((rows - set_.shift).sum(axis=1) > set_.scale).any()

    def refuse(*args, **kwargs):
        raise AssertionError("projection called")

    monkeypatch.setattr(zfo.geometry, "_project_orthant_cap", refuse)
    assert set_.contains_all(rows, 1e-12)
    assert set_.contains_batch(rows, 1e-12).all()


@pytest.mark.parametrize("rows", [6, 400])
def test_simplex_contains_all_sees_one_point_over_the_cap(rows):
    # every entry of w = y - shift is positive, so only the sum gives the point away,
    # with few points and with enough for the sums to run as column adds
    set_ = ShiftedSimplex(3, shift=-0.25, scale=1.0)
    ys = np.full((rows, 3), 0.0)  # w = 0.25 each, sum 0.75
    ys[-1] = [-0.05, 0.05, 0.35]  # w sums to 1.1
    assert set_.contains_all(ys[:-1], 1e-9)
    assert not set_.contains_all(ys, 1e-9)
    assert not set_.contains_all(ys.reshape(2, -1, 3), 1e-9)


@pytest.mark.parametrize(
    "set_",
    [Box([-1.0, -0.5], [1.0, 0.5]), ShiftedSimplex(2, shift=-1.0 / 3.0), WholeSpace(2)],
    ids=["box", "simplex", "whole"],
)
def test_contains_all_settles_plainly_inside_points_in_closed_form(set_, monkeypatch):
    def per_row(*args, **kwargs):
        raise AssertionError("per-row membership test called")

    monkeypatch.setattr(type(set_), "project_batch", per_row)
    monkeypatch.setattr(type(set_), "_finish_contains", per_row)
    points = np.random.default_rng(3).uniform(-0.1, 0.1, (2, 3, 4, 2))
    assert set_.membership(points, 1e-9) is None
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
        ShiftedSimplex(2, shift=0.1).shrink(0.2)  # origin outside
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


def test_whole_space_is_the_unbounded_box():
    # its verdicts, projections, radius and group are those of Box(-inf, inf):
    # every finite point is inside, and a NaN coordinate is not
    ws, box = WholeSpace(2), Box([-np.inf] * 2, [np.inf] * 2)
    assert isinstance(ws, Box) and ws.group_key() == box.group_key()
    ys = np.array([[1e300, -3.0], [0.0, 0.0], [np.nan, 0.0], [0.0, np.nan]])
    for set_ in (ws, box):
        np.testing.assert_array_equal(set_.contains_batch(ys), [True, True, False, False])
        np.testing.assert_array_equal(set_.project_batch(ys), ys)
        assert set_.contains_all(ys[:2]) and not set_.contains_all(ys)
        assert set_.inner_radius() == np.inf
    assert not ws.contains([np.nan, 0.0])


@pytest.mark.parametrize(
    "set_, huge_inside",
    [
        (WholeSpace(2), [True] * 4),
        (Box([-1.0, 0.0], [1.0, np.inf]), [False, True, False, False]),
        (Box([-1.0, -1.0], [1.0, 1.0]), [False] * 4),
        (ShiftedSimplex(2, shift=-0.25), [False] * 4),
    ],
    ids=["whole", "half_open", "bounded", "simplex"],
)
def test_non_finite_and_huge_points_get_verdicts_without_warnings(set_, huge_inside):
    # the verdicts never compute inf - inf nor square a huge gap, whose
    # RuntimeWarnings the block turns into errors; a huge point is a member
    # exactly where the projection leaves it in place
    finite = np.array([[0.5, 0.3], [-5.0, 3.0], [2.0, -1e3], [0.0, 0.0], [1.0 + 5e-10, 0.0]])
    huge = np.array([[1e200, 0.0], [0.0, 1e200], [-1e200, 0.0], [0.0, -1e200]])
    bad = np.array([[np.inf, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0, -np.inf], [np.nan, 0.0],
                    [0.0, np.nan]])
    definition = np.linalg.norm(finite - set_.project_batch(finite), axis=-1) <= 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = set_.contains_batch(np.concatenate([finite, huge, bad]))
        np.testing.assert_array_equal(
            got, np.concatenate([definition, huge_inside, np.zeros(len(bad), bool)])
        )
        np.testing.assert_array_equal(set_.membership(bad), np.zeros(len(bad), bool))
        for row, inside in zip(np.concatenate([huge, bad]), huge_inside + [False] * len(bad)):
            assert set_.contains(row) is inside
            assert set_.contains_all(np.stack([np.zeros(2), row])) is inside
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert WholeSpace(2).contains([np.inf, 0.0]) is False


@pytest.mark.parametrize(
    "set_", [Box([0.0], [1.0]), WholeSpace(2), ShiftedSimplex(3)], ids=["box", "whole", "simplex"]
)
@pytest.mark.parametrize(
    "view, shape",
    [
        ("contains", lambda d: (d + 1,)),
        ("contains", lambda d: (d - 1,)),
        ("contains", lambda d: (1, d)),
        ("project", lambda d: (d + 1,)),
        ("project", lambda d: (1, d)),
        ("contains_batch", lambda d: (4, d + 1)),
        ("contains_all", lambda d: (2, 3, d + 1)),
        ("contains_all", lambda d: ()),
    ],
    ids=["contains_long", "contains_short", "contains_row", "project_long", "project_row",
         "contains_batch_long", "contains_all_long", "contains_all_scalar"],
)
def test_points_of_the_wrong_length_are_refused_naming_dim_and_shape(set_, view, shape):
    points = np.full(shape(set_.dim), 0.1)
    with pytest.raises(ConfigurationError) as info:
        getattr(set_, view)(points)
    name = type(set_).__name__
    assert str(info.value) == f"{name} of dim {set_.dim} got points of shape {points.shape}"


def test_shrink_rejects_bad_delta():
    with pytest.raises(ConfigurationError):
        Box([-1.0], [1.0]).shrink(1.0)
    with pytest.raises(ConfigurationError):
        Box([-1.0], [1.0]).shrink(-0.1)


# ---------------------------------------------------------------------------
# radii


def test_inner_radius_box():
    box = Box([-0.5, -2.0], [1.5, 1.0])
    assert box.inner_radius() == pytest.approx(0.5)


def test_inner_radius_simplex_centered():
    # Re-centered simplex over m = 4 routes (3 free coordinates):
    # min(1/m, (1/m)/sqrt(dim)) = 1/(m*sqrt(m-1)).
    m = 4
    set_ = ShiftedSimplex(m - 1, shift=-1.0 / m)
    assert set_.inner_radius() == pytest.approx(1.0 / (m * np.sqrt(m - 1)))


@st.composite
def _origin_interior_case(draw):
    """A box or a shifted simplex with the origin inside, the outward unit
    normals of its faces with their distances from the origin, and unit
    directions.  Every face lies at least 0.05 / sqrt(5) from the origin,
    which keeps a 1e-12 relative margin above the rounding of the constraints."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eye = np.eye(d)
    if draw(st.booleans()):
        lower, upper = -rng.uniform(0.05, 10.0, d), rng.uniform(0.05, 10.0, d)
        set_ = Box(lower, upper)
        normals, distances = np.concatenate([-eye, eye]), np.concatenate([-lower, upper])
    else:
        shift = -rng.uniform(0.05, 1.0, d)
        set_ = ShiftedSimplex(d, shift=shift, scale=-shift.sum() + rng.uniform(0.05, 2.0))
        normals = np.concatenate([-eye, np.ones((1, d)) / np.sqrt(d)])
        distances = np.append(-shift, (set_.scale + shift.sum()) / np.sqrt(d))
    directions = rng.normal(size=(16, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return set_, normals, distances, directions


@settings(max_examples=200, deadline=None)
@given(_origin_interior_case())
def test_inner_radius_is_the_largest_ball_inside(case):
    # the planner's only source of r: the ball of radius r lies inside the set
    # by its raw constraints, also toward the nearest face, and a point just
    # past r toward that face does not
    set_, normals, distances, directions = case
    r = set_.inner_radius()
    assert r == distances.min()
    nearest = normals[distances.argmin()]
    inside = r * (1.0 - 1e-12) * np.vstack([directions, nearest])
    assert all(_raw_member(set_, p, tol=0.0) for p in inside)
    outside = r * (1.0 + 1e-9) * nearest
    assert not _raw_member(set_, outside, tol=0.0)
    assert not set_.contains(outside, tol=0.0)


# ---------------------------------------------------------------------------
# perturbation sampling


def test_box_perturbation_clamps_to_margin():
    # At x = 0.8 inside [0, 1] with u = 0.1 the symmetric cap is
    # [-2, 2]: a raw draw of 5 must come back as exactly 2.
    box = Box([0.0], [1.0])
    z = constrain_perturbation_batch(box, np.array([[0.8]]), np.array([[5.0]]), 0.1)
    np.testing.assert_allclose(z, [[2.0]])
    assert box.contains(np.array([0.8]) + 0.1 * z[0], tol=1e-12)


def test_box_draws_within_their_margin_come_back_as_drawn():
    # margins at u = 0.25: (2, 4) for the first row, (1, 2) for the second
    box = Box([0.0, -1.0], [1.0, 1.0])
    xs = np.array([[0.5, 0.0], [0.75, 0.5]])
    zhat = np.array([[2.0, -3.0], [-1.0, 0.5]])
    zhat.flags.writeable = False
    assert constrain_perturbation_batch(box, xs, zhat, 0.25) is zhat
    past = np.array([[2.0, -3.0], [-1.5, 0.5]])
    got = constrain_perturbation_batch(box, xs, past, 0.25)
    assert got is not past
    np.testing.assert_array_equal(got, [[2.0, -3.0], [-1.0, 0.5]])


def test_whole_space_perturbation_is_raw_gaussian():
    raw = np.random.default_rng(5).standard_normal((4, 3))
    z = constrain_perturbation_batch(WholeSpace(3), np.full((4, 3), 1e6), raw, 0.01)
    np.testing.assert_array_equal(z, raw)


def test_sample_perturbation_requires_feasible_base_point():
    rng = np.random.default_rng(0)
    cases = [
        (Box([0.0], [1.0]), [[0.5], [2.0]]),
        (ShiftedSimplex(1, shift=-0.7, scale=1.5), [[0.0], [0.9]]),
        (ShiftedSimplex(2, shift=-0.25), [[0.0, 0.0], [0.9, 0.9]]),
        (WholeSpace(2), [[0.0, 0.0], [np.nan, 0.0]]),
    ]
    for set_, xs in cases:
        xs = np.array(xs)
        for u in (1e-6, 0.1):  # the draws pass the fast path, or they do not
            zhat = rng.standard_normal(xs.shape)
            with pytest.raises(DomainError, match="outside the set"):
                constrain_perturbation_batch(set_, xs, zhat, u)
            constrain_perturbation_batch(set_, xs[:1], zhat[:1], u)
    # membership is up to distance 1e-9, as for `contains`, and the capped
    # draw is certified at that tolerance too: no bisection fallback
    box = Box([0.0], [1.0])
    stats = SampleStats()
    z = constrain_perturbation_batch(box, np.array([[1.0 + 5e-10]]), np.array([[1.0]]), 0.1, stats)
    np.testing.assert_array_equal(z, [[0.0]])
    assert stats == SampleStats(fallbacks=0, projections=1)
    with pytest.raises(DomainError):
        constrain_perturbation_batch(box, np.array([[1.0 + 5e-9]]), np.array([[1.0]]), 0.1)


@pytest.mark.parametrize(
    "set_,x",
    [
        (Box([-1.0, -1.0], [1.0, 1.0]), np.array([0.97, -0.99])),
        (ShiftedSimplex(1, shift=-0.7, scale=1.5), np.array([0.78])),
        (ShiftedSimplex(3, shift=-0.25), np.array([0.2, -0.2, 0.0])),
        (ShiftedSimplex(2, shift=-1.0 / 3.0), np.array([0.6, -0.3])),
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
    for set_ in (Box([-1.0, -1.0], [1.0, 1.0]), ShiftedSimplex(2, shift=-1.0 / 3.0)):
        monkeypatch.setattr(type(set_), "_symmetric_cap", lambda self, xs, zs, u: zs)
        x = np.array([0.6, -0.3])
        assert set_.contains(x, tol=1e-9)
        stats = SampleStats()
        zhat = np.array([40.0, -25.0])
        z = constrain_perturbation_batch(set_, x[None, :], zhat[None, :], 0.05, stats=stats)[0]
        assert stats.fallbacks == stats.projections == 1
        assert set_.contains(x + 0.05 * z, tol=1e-9)
        assert set_.contains(x - 0.05 * z, tol=1e-9)
        # fallback shrinks the raw draw radially
        cross = z[0] * zhat[1] - z[1] * zhat[0]
        assert abs(cross) < 1e-9


@pytest.mark.parametrize(
    "set_",
    [
        ShiftedSimplex(3, shift=-2.5e3, scale=1e4),
        ShiftedSimplex(3, shift=-2.5e5, scale=1e6),
        Box([-1e6] * 3, [1e6] * 3),
    ],
    ids=["simplex_1e4", "simplex_1e6", "box_1e6"],
)
def test_closed_form_caps_of_large_sets_need_no_fallback(set_):
    # the caps' rounding grows with the set's coordinates; at up to 1e6 it
    # stays inside the one tolerance, so no capped row takes the bisection
    rng = np.random.default_rng(0)
    if isinstance(set_, Box):
        xs = rng.uniform(set_.lower, set_.upper, (5000, 3))
    else:
        xs = rng.dirichlet(np.ones(4), 5000)[:, :3] * set_.scale + set_.shift
    zhat = rng.standard_normal(xs.shape)
    u = 0.3 * set_.inner_radius()
    stats = SampleStats()
    z = constrain_perturbation_batch(set_, xs, zhat, u, stats)
    assert stats.projections > 1000 and stats.fallbacks == 0
    assert set_.contains_all(xs + u * z) and set_.contains_all(xs - u * z)


def count_membership_passes(monkeypatch, points):
    """Count the simplex's verdicts (`membership` calls) and per-row passes
    (`_finish_contains`) over data that shares memory with `points`."""
    passes = {"membership": 0, "per_row": 0}
    membership, finish = ShiftedSimplex.membership, ShiftedSimplex._finish_contains

    def counted(kind, method):
        def wrapper(self, ys, *args):
            passes[kind] += np.shares_memory(ys, points)
            return method(self, ys, *args)

        return wrapper

    monkeypatch.setattr(ShiftedSimplex, "membership", counted("membership", membership))
    monkeypatch.setattr(ShiftedSimplex, "_finish_contains", counted("per_row", finish))
    return passes


def test_the_sampler_settles_its_signed_stack_with_one_verdict(monkeypatch):
    # the first draw needs the cap, the second is plainly inside: the stack of
    # signed actions gets one verdict and one per-row pass
    set_ = ShiftedSimplex(2, shift=-1.0 / 3.0)
    xs = np.array([[0.6, -0.3], [0.0, 0.0]])
    zhat = np.array([[40.0, -25.0], [0.1, 0.2]])
    u = 0.05
    signed = xs + zhat * np.array([[[u]], [[-u]]])
    passes = count_membership_passes(monkeypatch, signed)
    stats = SampleStats()
    z = constrain_perturbation_batch(set_, xs, zhat, u, stats, signed=signed)
    assert passes == {"membership": 1, "per_row": 1}
    assert stats.projections == 1
    np.testing.assert_array_equal(z[1], zhat[1])


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
    stats = SampleStats()
    got = constrain_perturbation_batch(box, xs, zh, 0.1, stats)
    np.testing.assert_allclose(got, [[2.0, 0.3], [-0.5, 1.0]])
    assert stats.projections == 2 and stats.fallbacks == 0


def _cap_bounds(set_, x, u):
    """S(x, u) of a shifted simplex from its definition: with w = x - shift,
    both x +/- u z keep w +/- u z >= 0 and sum(w) +/- u sum(z) <= scale,
    so |z| <= m and |sum z| <= c."""
    w = x - set_.shift
    return np.maximum(w, 0.0) / u, max(set_.scale - w.sum(), 0.0) / u


def _reference_cap(set_, x, zhat, u):
    """The projection of `zhat` onto S(x, u): the box clip, and where that
    leaves the slab, the clip of zhat shifted by the lam that puts the sum
    on the slab's face, found by 200 bisection steps on lam."""
    m, c = _cap_bounds(set_, x, u)
    z = np.clip(zhat, -m, m)
    if abs(z.sum()) <= c:
        return z
    s = np.sign(z.sum())
    lo, hi = 0.0, float(np.abs(zhat).max())  # at hi every clipped entry is <= 0 <= c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(s * zhat - mid, -m, m).sum() > c:
            lo = mid
        else:
            hi = mid
    return s * np.clip(s * zhat - 0.5 * (lo + hi), -m, m)


@st.composite
def _cap_case(draw):
    """A shifted simplex of dim 1 to 6 with a random dyadic shift and scale
    (so its vertices are exact), points inside it, on its faces and at its
    vertices, a radius u and draws over several decades."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([2.0**-10, 1.0, 2.0**10]))
    shift, scale = size * rng.integers(-128, 128, dim) / 64, size * rng.integers(1, 128) / 64
    set_ = ShiftedSimplex(dim, shift, scale)
    weights = rng.dirichlet(np.ones(dim + 1), 12)  # the last weight is the slack below the cap
    faces = rng.random((4, dim + 1)) < 0.5
    faces[np.arange(4), rng.integers(0, dim + 1, 4)] = False  # a weight stays
    weights[4:8][faces] = 0.0
    weights[8:] = np.eye(dim + 1)[rng.integers(0, dim + 1, 4)]  # vertices
    weights /= weights.sum(axis=1, keepdims=True)
    xs = set_.shift + set_.scale * weights[:, :dim]
    u = size * draw(st.sampled_from([1e-4, 1e-2, 1.0]))
    zhat = rng.normal(0.0, 1.0, (12, dim)) * 10.0 ** rng.uniform(-2.0, 3.0, (12, 1))
    return set_, xs, zhat, u


@settings(max_examples=300, deadline=None)
@given(_cap_case())
def test_symmetric_cap_is_the_projection_onto_the_cap(case):
    set_, xs, zhat, u = case
    got = set_._symmetric_cap(xs, zhat, u)
    assert got.shape == zhat.shape
    for x, zh, z in zip(xs, zhat, got):
        tol = 2e-15 * max(1.0, float(np.abs(zh).max()))
        m, c = _cap_bounds(set_, x, u)
        assert np.abs(z - _reference_cap(set_, x, zh, u)).max() <= tol
        assert max(float(np.max(np.abs(z) - m)), abs(z.sum()) - c) <= tol
        if _at_vertex(m, c):
            assert np.abs(z).max() <= tol
    # the vertices are exact, so each of the last four rows has S = {0}
    assert all(_at_vertex(*_cap_bounds(set_, x, u)) for x in xs[8:])
    # draws already in S come back as drawn (a zero may change its sign)
    inner = 0.5 * got
    inside = [
        bool(np.all(np.abs(z) <= m)) and abs(z.sum()) <= c
        for z, (m, c) in zip(inner, (_cap_bounds(set_, x, u) for x in xs))
    ]
    assert any(inside)
    np.testing.assert_array_equal(set_._symmetric_cap(xs, inner, u)[inside], inner[inside])


def _at_vertex(m, c):
    """Whether S(x, u) = {0}: x at the vertex shift (m = 0), or at one where
    the slab is flat (c = 0) and the box leaves one coordinate free."""
    return np.count_nonzero(m) == 0 or (c == 0.0 and np.count_nonzero(m) == 1)


@st.composite
def _signed_stack_case(draw):
    """A box or simplex, points in it (on its boundary, inside, or
    mixed), draws long enough to need the cap projection, and whether the
    cap projection is disabled so that the bisection fallback runs."""
    kind = draw(st.sampled_from(["box", "simplex"]))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "box":
        lower = rng.normal(0.0, 1.0, dim)
        set_ = Box(lower, lower + rng.uniform(0.1, 2.0, dim))
        inner = 0.5 * (set_.lower + set_.upper)
    else:
        set_ = ShiftedSimplex(dim, rng.normal(0.0, 1.0, dim), rng.uniform(0.1, 2.0))
        inner = set_.shift + set_.scale / (dim + 1)
    edge = set_.project_batch(inner + rng.normal(0.0, 2.0, (12, dim)))
    depth = draw(st.sampled_from([0.0, 0.5, 1.0]))  # boundary, halfway, center
    xs = edge + depth * (inner - edge)
    u = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    zhat = rng.normal(0.0, 1.0, (12, dim)) * rng.choice([0.1, 1.0, 10.0], (12, 1))
    return set_, xs, zhat, u, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(_signed_stack_case())
def test_sampler_given_the_signed_stack_returns_what_it_returns_alone(case):
    set_, xs, zhat, u, no_cap = case
    zhat.flags.writeable = False  # the sampler never writes to its draws
    stack = xs + zhat * np.array([[[u]], [[-u]]])
    # the stack holds the rows of (xs + u zhat, xs - u zhat) bit for bit
    pair = np.concatenate((xs + u * zhat, xs - u * zhat))
    assert stack.reshape(-1, set_.dim).tobytes() == pair.tobytes()
    with pytest.MonkeyPatch.context() as patch:
        if no_cap:
            patch.setattr(ShiftedSimplex, "_symmetric_cap", lambda self, xs, zs, u: zs)
        alone, shared = SampleStats(), SampleStats()
        want = constrain_perturbation_batch(set_, xs, zhat, u, alone)
        got = constrain_perturbation_batch(set_, xs, zhat, u, shared, signed=stack)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (shared.projections, shared.fallbacks) == (alone.projections, alone.fallbacks)
    assert (got is zhat) == (want is zhat)


# ---------------------------------------------------------------------------
# per-row sums


_SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-308, 1e300, -1.7e308]


@st.composite
def _row_sum_case(draw):
    """An array of rows of d entries, d from 1 to 9, with a row count on
    either side of the column-sum crossover, as (rows, d) or (2, rows, d),
    contiguous or a strided view, holding normal values of magnitudes from
    1e-300 to 1e300 and some of ±0, ±inf, NaN and subnormals."""
    d = draw(st.integers(1, 9))
    rows = draw(st.sampled_from([1, 6, 12, 39, 40, 80, 81, 160, 200, 400]))
    shape = (rows, d) if draw(st.booleans()) else (2, rows, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    view = draw(st.sampled_from(["contiguous", "columns", "rows"]))
    full = shape[:-1] + (d + 1,) if view == "columns" else shape
    if view == "rows":
        full = shape[:-2] + (2 * rows, d)
    a = rng.standard_normal(full) * 10.0 ** rng.integers(-300, 301, full)
    special = rng.random(full) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    a[special] = rng.choice(_SPECIAL_VALUES, int(special.sum()))
    if view == "columns":
        a = a[..., :-1]
    elif view == "rows":
        a = a[..., ::2, :]
    assert a.shape == shape
    return a


@settings(max_examples=400, deadline=None)
@given(_row_sum_case())
def test_row_sums_are_the_bits_of_add_reduce_but_for_zero_and_nan_signs(a):
    d = a.shape[-1]
    summer = row_summer(a.size // d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.add.reduce(a, axis=-1)
        chosen = summer(a, a.ndim - 1)
        columns = _column_sums(a) if 2 <= d < 8 else want
        if 2 <= d < 8:
            kept = _column_sums(a, -1, keepdims=True)
            assert kept.shape == want.shape + (1,) and kept.tobytes() == columns.tobytes()
    # bit for bit, except that a row of -0.0 may sum to -0.0 (NumPy: +0.0)
    # and a row of several NaNs to another of them
    exempt = np.logical_and.reduce((a == 0.0) & np.signbit(a), axis=-1) | np.isnan(want)
    for sums in (chosen, columns):
        assert sums.shape == want.shape
        np.testing.assert_array_equal(sums, want)  # NaN where NaN
        assert sums[~exempt].tobytes() == want[~exempt].tobytes()
    # the columns are added only below 8 entries, and only for enough rows
    pays = 2 <= d < 8 and a.size >= _COLUMN_SUM_ROWS * (d - 1) * d
    assert (summer is _column_sums) == pays


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: WholeSpace(0), "dim must be an integer >= 1, got 0"),
        (lambda: Box([0.0, 0.0], [1.0]), "box bounds must be 1-d arrays of equal length"),
        (lambda: Box([[0.0]], [[1.0]]), "box bounds must be 1-d arrays of equal length"),
        (lambda: Box([0.0, 2.0], [1.0, 1.0]), "box requires lower <= upper"),
        (lambda: Box([0.0, np.nan], [1.0, 1.0]), "box requires lower <= upper"),
        (lambda: ShiftedSimplex(0), "dim must be an integer >= 1, got 0"),
        (lambda: ShiftedSimplex(2, scale=-1.0), "simplex scale must be > 0, got -1.0"),
        (lambda: constrain_perturbation_batch(Box([-1.0], [1.0]), np.zeros((1, 1)),
                                              np.zeros((1, 1)), 0.0),
         "perturbation radius u must be positive"),
    ],
    ids=["free_dim", "box_lengths", "box_rank", "box_order", "box_nan", "simplex_dim",
         "simplex_scale", "sampler_u"],
)
def test_set_refusals_name_the_input(make, named):
    with pytest.raises(ConfigurationError) as info:
        make()
    assert str(info.value) == named

