"""Feasible-set geometry: membership, projections, shrinking, and
constrained perturbation sampling.

All sets are closed convex subsets of R^dim, and every set operation
works on rows (one point per row): boxes, the whole space (the box with
bounds -inf and +inf, whose members are the finite points) and shifted
simplices.  Projections are exact (closed form); none iterates.  Each
set's `group_key` says which sets are equal, so no other module tests
a set's type.

Perturbation sampling projects a standard normal draw onto the
symmetric feasibility cap

    S(x, u) = (1/u)(X - x)  intersect  -(1/u)(X - x),

so that both x + u z and x - u z stay inside X for every returned z.
Boxes and simplices define that projection in closed form: for a box the
cap is a box (all of R^dim in the whole space), and for the simplex a box
cut by a slab on sum(z).

Every verdict on "inside", the sampler's and the engine guard's alike, is
Euclidean distance at most `DEFAULT_TOL` = 1e-9 to the set.  It is absolute:
it covers the caps' rounding for set coordinates up to about 1e6, and at
1e7 a simplex's caps start to fail it and fall back to bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, require_count, require_number, require_positive

DEFAULT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
# Rows per added column from which `_column_sums` beats
# np.add.reduce(a, axis=-1) on a C-contiguous (rows, d) array.  Each column
# add is one ufunc call of about 1 µs, while the strided reduction costs
# about 0.01 µs per entry (2 vCPUs, NumPy 2.4.6, timeit minima, µs,
# np.add.reduce against the column adds):
#   (400, 3) 11.6 against 3.9;  (200, 3) 6.3 against 2.9;  (64, 3) 3.5 against 2.9;
#   (12, 3) 2.3 against 2.8;  (6, 3) 2.0 against 2.8;
#   (2, 200, 3) 11.0 against 5.5;  (2, 6, 3) 2.4 against 4.6.
# The columns win from under 10 rows at d = 2, about 40 at d = 3, 100 at
# d = 5 and 150 at d = 7; 40 (d - 1) rows keeps clear of each crossover.
_COLUMN_SUM_ROWS = 40


@dataclass
class SampleStats:
    """Counters a caller can thread through sampling calls."""

    fallbacks: int = 0
    projections: int = 0


class ConvexSet:
    """Base class. A subclass defines the exact row-wise `project_batch`
    and, where it has a closed form, `membership`, the one verdict on a
    point set; `contains_batch`, `contains_all` and `contains` are views
    of `membership`, and `project` is `project_batch`'s one-row case.  The
    views refuse points whose last axis is not `dim` long.  A set the
    sampler perturbs in defines `_symmetric_cap`.  `group_key` decides
    which sets are equal, so their agents share calls."""

    dim: int

    def project_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def membership(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray | None:
        """The membership up to Euclidean distance `tol` of the points of
        `ys` (any leading shape, points along the last axis): None only when
        every point is inside, else the verdicts on the points as rows, in
        their C order.  Here by the definition ||y - P(y)|| <= tol; a set's
        closed form gives the same verdicts with at most one per-row pass,
        so a caller settles a point set with one call."""
        rows = np.reshape(ys, (-1, self.dim))
        return np.linalg.norm(rows - self.project_batch(rows), axis=-1) <= tol

    def contains_batch(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """`membership`'s verdicts, in the shape of the points of `ys`."""
        ys = self._points(ys)
        ok = self.membership(ys, tol)
        return np.ones(ys.shape[:-1], bool) if ok is None else ok.reshape(ys.shape[:-1])

    def contains_all(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Whether every point of `ys` (as for `membership`) is a member up to `tol`."""
        ok = self.membership(self._points(ys), tol)
        return ok is None or bool(ok.all())

    def contains(self, y: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Membership of one point up to Euclidean distance `tol`."""
        return self.contains_all(self._points(y, one=True), tol)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Projection of one point."""
        return self.project_batch(self._points(y, one=True)[None, :])[0]

    def _points(self, ys, one: bool = False) -> np.ndarray:
        """`ys` as floats, refused unless its last axis (its shape, if `one`) is `dim` long."""
        ys = np.asarray(ys, dtype=float)
        if (ys.shape if one else ys.shape[-1:]) != (self.dim,):
            name = type(self).__name__
            raise ConfigurationError(f"{name} of dim {self.dim} got points of shape {ys.shape}")
        return ys

    # Largest distance between a row that passes a set's closed-form
    # membership test and its computed projection (rounding only).
    _inside_slack = 0.0

    def _finish_contains(
        self, ys: np.ndarray, inside: np.ndarray, gap: np.ndarray, size: np.ndarray, tol: float
    ) -> np.ndarray:
        """Complete a closed-form membership verdict on the rows of `ys`.

        `inside` marks the rows that satisfy the set's defining
        inequalities; their projection is the row itself up to
        `_inside_slack`, so they are members whenever `tol` covers that.
        A set may also mark rows that a closed-form upper bound on their
        distance certifies; such a bound, with its rounding, exceeds
        `_inside_slack`, so it never certifies a row below that.

        `gap` is a closed-form lower bound on each row's distance to the
        set and `size` bounds the magnitudes it was computed from: a row
        whose gap exceeds `tol` by more than the rounding of both the gap
        and the projection is rejected without projecting it, so a faulty
        projection cannot certify it.  Every other row gets the defining
        test ||y - P(y)|| <= tol, which makes the verdict equal to
        `ConvexSet.membership`'s row by row.
        """
        if tol < self._inside_slack:
            inside[:] = False
        rest = np.flatnonzero(~inside & (gap - _rounding(self.dim) * size <= tol))
        inside[rest] = ConvexSet.membership(self, ys[rest], tol)
        return inside

    def _symmetric_cap(self, xs: np.ndarray, zs: np.ndarray, u: float) -> np.ndarray:
        """Row k of `zs` projected onto the symmetric cap S(xs[k], u), for
        rows of `xs` in the set."""
        raise NotImplementedError

    def shrink(self, delta: float) -> "ConvexSet":
        """Return (1 - delta) * set (the set scaled toward the origin)."""
        raise NotImplementedError

    def inner_radius(self) -> float:
        """Largest r with r * unit_ball contained in the set; <= 0 when
        the origin is not interior."""
        raise NotImplementedError

    def group_key(self):
        """Sets with equal keys are equal and run the same operations, so a
        key begins with the set's type; by default a set equals only itself."""
        return ("unique", id(self))

    def _require_origin_interior(self) -> None:
        if not (self.inner_radius() > 0.0):
            raise ConfigurationError(
                f"{type(self).__name__}: shrinking requires the origin in the "
                "interior of the set"
            )


class Box(ConvexSet):
    """Axis-aligned box {lower <= y <= upper}."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ConfigurationError("box bounds must be 1-d arrays of equal length")
        if not np.all(self.lower <= self.upper):
            raise ConfigurationError("box requires lower <= upper")
        self.dim = self.lower.size
        # the bounds clamped to the finite floats: no infinite point lies
        # between them, and a point's difference to them is never inf - inf
        self._low, self._high = np.nan_to_num(self.lower), np.nan_to_num(self.upper)

    def project_batch(self, ys):
        # np.clip's Python wrapper costs more than the two ufuncs it computes
        return np.minimum(np.maximum(np.asarray(ys, dtype=float), self.lower), self.upper)

    def membership(self, ys, tol=DEFAULT_TOL):
        if tol >= 0.0 and ((ys >= self._low) & (ys <= self._high)).all():
            return None
        # a finite point's difference to its clip to the clamped bounds is
        # y - clip(y) bit for bit; an infinite or NaN point's is not finite
        rows = np.reshape(ys, (-1, self.dim))
        gaps = rows - np.clip(rows, self._low, self._high)
        # a row is at least its largest gap away, so one beyond tol is out
        # before its squares can overflow
        near = np.maximum.reduce(np.abs(gaps), axis=-1) <= tol
        near[near] = np.linalg.norm(gaps[near], axis=-1) <= tol
        return near

    def _symmetric_cap(self, xs, zs, u):
        # S(x, u) is the box |z| <= m, m the room to the nearer bound over u
        m = np.maximum(np.minimum(self.upper - xs, xs - self.lower), 0.0) / u
        return np.clip(zs, -m, m)

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        self._require_origin_interior()
        s = 1.0 - delta
        return Box(s * self.lower, s * self.upper)

    def inner_radius(self):
        return float(min(np.min(-self.lower), np.min(self.upper)))

    def group_key(self):
        return (type(self), self.lower.tobytes(), self.upper.tobytes())

    def __repr__(self):
        return f"Box(lower={self.lower!r}, upper={self.upper!r})"


class WholeSpace(Box):
    """Unconstrained R^dim: the box with bounds -inf and +inf, whose members
    are the finite points."""

    def __init__(self, dim: int):
        dim = require_count("dim", dim, 1)
        super().__init__(np.full(dim, -np.inf), np.full(dim, np.inf))

    def shrink(self, delta):
        _check_delta(delta)
        return self

    def group_key(self):
        # its operations are the box's (its `shrink` returns an equal set),
        # so it groups with an equal Box
        return (Box, self.lower.tobytes(), self.upper.tobytes())

    def __repr__(self):
        return f"WholeSpace(dim={self.dim})"


class ShiftedSimplex(ConvexSet):
    """Scaled and shifted capped simplex

        {y : y - shift >= 0,  sum(y - shift) <= scale}.

    With shift = -(1/m) * ones and scale = 1 this is the standard
    simplex re-centered so the uniform point sits at the origin (one
    coordinate dropped). Scaling the whole set by (1 - delta) keeps the
    same representation, which is why `scale` is carried explicitly.
    """

    def __init__(self, dim: int, shift=None, scale: float = 1.0):
        self.dim = dim = require_count("dim", dim, 1)
        shift = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float)
        self.shift = np.broadcast_to(shift, (dim,)).astype(float)
        self.scale = require_positive("simplex scale", scale)
        self._size = self.scale + float(np.abs(self.shift).sum())
        # an inside row projects to (y - shift) + shift: two roundings
        self._inside_slack = 2.0 * _EPS * (2.0 * self.scale + float(np.linalg.norm(self.shift)))
        self._column_entries = _column_entries(self.dim)

    def project_batch(self, ys):
        w = np.asarray(ys, dtype=float) - self.shift
        return _project_orthant_cap(w, self.scale) + self.shift

    def membership(self, ys, tol=DEFAULT_TOL):
        # the same `w` and sums project_batch tests: points with w >= 0 and
        # sum(w) <= scale are left in place by the orthant-cap projection
        w = ys - self.shift
        # the size test inline, as this runs three times a round at any n
        if w.size >= self._column_entries:
            # the verdict is over all points, so they may stand as the rows of one block
            w = w.reshape(-1, self.dim)
            row_sums = _column_sums
        else:
            row_sums = np.add.reduce
        sums = row_sums(w, -1)
        if (tol >= self._inside_slack and np.minimum.reduce(w, axis=None, initial=0.0) >= 0.0
                and np.maximum.reduce(sums, axis=None, initial=0.0) <= self.scale):
            return None
        w, sums = w.reshape(-1, self.dim), sums.reshape(-1)
        far = ~np.isfinite(sums)
        if far.any():  # outside the bounded set; the bounds below would take inf - inf
            verdicts = np.zeros(sums.shape, bool)
            rest = self.membership(np.reshape(ys, (-1, self.dim))[~far], tol)
            verdicts[~far] = True if rest is None else rest
            return verdicts
        lows = np.minimum.reduce(w, axis=-1)
        size = row_sums(np.abs(w), -1) + self._size
        # rows in the set, and rows a rounding step outside a face, which
        # the distance bound certifies
        inside = ((lows >= 0.0) & (sums <= self.scale)) | (self._reach(sums, lows, size) <= tol)
        if tol >= self._inside_slack and inside.all():
            return None
        # a row is at least as far as from the orthant and from the half-space sum(v) <= scale
        gap = np.maximum(-lows, (sums - self.scale) / np.sqrt(self.dim))
        return self._finish_contains(np.reshape(ys, (-1, self.dim)), inside, gap, size, tol)

    def _reach(self, sums, lows, size):
        """An upper bound on the distance to the set of points whose
        `w = y - shift` has these sums and minima, plus the rounding of
        the bound and of the projection (`size` bounds the magnitudes).
        Clipping the negative entries (each at most `a = max(0, -min w)`)
        moves a point at most sqrt(d) a and raises its sum by at most d a;
        scaling the clipped point v into the cap then moves it
        ||v|| (1 - scale / sum v) <= sum v - scale, as ||v|| <= sum v for
        v >= 0.  Both steps end in the set, so the bound trusts no projection."""
        a = np.maximum(-lows, 0.0)
        over = np.maximum(sums - self.scale + self.dim * a, 0.0)
        return np.sqrt(self.dim) * a + over + _rounding(self.dim) * size

    def _symmetric_cap(self, xs, zs, u):
        # with w = x - shift, S(x, u) is the box |z| <= m = w / u cut by the
        # slab |sum z| <= c = (scale - sum w) / u
        w = xs - self.shift
        m = np.maximum(w, 0.0) / u
        c = np.maximum(self.scale - w.sum(axis=1), 0.0) / u
        z = np.clip(zs, -m, m)
        sums = z.sum(axis=1)
        over = np.flatnonzero(np.abs(sums) > c)
        if over.size == 0:
            return z
        # past the slab, the projection is s clip(s zs - lam, -m, m) with s
        # the sign of the clipped sum and lam >= 0 putting its sum on c.  That
        # sum falls piecewise linearly in lam, with kinks at s zs -/+ m, and
        # at lam = 0 it is |sums| > c: interpolate between the first kink
        # from 0 whose sum is at most c and the one before it
        s = np.sign(sums[over])[:, None]
        sz, m, c = s * zs[over], m[over], c[over, None]
        kinks = np.sort(np.concatenate((sz - m, sz + m, np.zeros_like(c)), axis=1))
        levels = np.clip(sz[:, None] - kinks[..., None], -m[:, None], m[:, None]).sum(axis=2)
        # a kink below 0 has a sum of at least |sums|, so `hi` >= 1 and the divisor is > 0
        hi = (levels <= c).argmax(axis=1)[:, None]
        k_lo, k_hi = np.take_along_axis(kinks, hi - 1, 1), np.take_along_axis(kinks, hi, 1)
        g_lo, g_hi = np.take_along_axis(levels, hi - 1, 1), np.take_along_axis(levels, hi, 1)
        lam = k_lo + (g_lo - c) * (k_hi - k_lo) / (g_lo - g_hi)
        z[over] = s * np.clip(sz - lam, -m, m)
        return z

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        self._require_origin_interior()
        s = 1.0 - delta
        return ShiftedSimplex(self.dim, s * self.shift, s * self.scale)

    def inner_radius(self):
        slack_sum = (self.scale + self.shift.sum()) / np.sqrt(self.dim)
        return float(min(np.min(-self.shift), slack_sum))

    def group_key(self):
        return (type(self), self.dim, self.shift.tobytes(), self.scale)

    def __repr__(self):
        return (
            f"ShiftedSimplex(dim={self.dim}, shift={self.shift!r}, "
            f"scale={self.scale})"
        )


# ---------------------------------------------------------------------------
# module-level helpers


def _rounding(dim: int) -> float:
    """Relative rounding of a closed-form distance bound and of a
    projection in `dim` coordinates, per unit of the magnitudes involved."""
    return 4.0 * (dim + 4) ** 1.5 * _EPS


def _column_entries(d: int) -> float:
    """Fewest entries of a (rows, d) array from which `_column_sums` beats
    np.add.reduce(a, axis=-1); infinite for one column and from 8, where
    NumPy sums pairwise and the column order would change the rounding."""
    return _COLUMN_SUM_ROWS * (d - 1) * d if 2 <= d < 8 else np.inf


def _column_sums(a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """np.add.reduce(a, axis, keepdims=keepdims) over the last axis (at
    least 2 wide; `axis` must name it), by adding the columns from left to
    right; it takes np.add.reduce's arguments so that a caller may hold
    either function.  NumPy reduces fewer than 8 entries in that order too,
    from +0.0, so the result is np.add.reduce's bit for bit but for the
    sign of a zero or a NaN: a row of -0.0 sums to -0.0 here and +0.0
    there, and a row of several NaNs may come out as another of them
    (tests/test_geometry.py checks this against the installed NumPy).  The
    callers compare, offset or take roots of the sums, where neither shows.
    Fastest on a 2-d array: a third axis costs each column add about 1 µs."""
    out = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        out += a[..., j]
    return out[..., None] if keepdims else out


def row_summer(rows: int, d: int):
    """np.add.reduce, or `_column_sums` where that is faster on (rows, d)
    arrays: the per-row sum for a caller whose shape is fixed, called as
    `sums(a, axis)` with the last axis."""
    return _column_sums if rows * d >= _column_entries(d) else np.add.reduce


def _check_delta(delta: float) -> None:
    if not (0.0 <= require_number("shrink factor delta", delta) < 1.0):
        raise ConfigurationError(f"shrink factor delta must lie in [0, 1), got {delta!r}")


def _project_scaled_simplex(w: np.ndarray, cap: float) -> np.ndarray:
    """Project rows of w onto {v >= 0, sum(v) = cap} (sort algorithm)."""
    d = w.shape[1]
    srt = np.sort(w, axis=1)[:, ::-1]
    # the threshold of the j + 1 largest entries: (their sum - cap) / (j + 1)
    means = (np.add.accumulate(srt, axis=1) - cap) / np.arange(1, d + 1)
    # tau is the threshold at the last j whose entry exceeds it
    rho = (d - 1) - (srt > means)[:, ::-1].argmax(axis=1)
    tau = means[np.arange(len(w)), rho]
    return np.maximum(w - tau[:, None], 0.0)


def _project_orthant_cap(w: np.ndarray, cap: float) -> np.ndarray:
    """Project rows of w onto {v >= 0, sum(v) <= cap}."""
    v = np.maximum(w, 0.0)
    over = np.add.reduce(v, axis=1) > cap
    if np.logical_or.reduce(over):
        v[over] = _project_scaled_simplex(w[over], cap)
    return v


# ---------------------------------------------------------------------------
# constrained perturbation sampling


def constrain_perturbation_batch(
    set_: ConvexSet,
    xs: np.ndarray,
    zhat: np.ndarray,
    u: float,
    stats: SampleStats | None = None,
    *,
    signed: np.ndarray | None = None,
) -> np.ndarray:
    """Project each raw draw `zhat[k]` onto the symmetric cap S(xs[k], u), so
    that xs[k] + u z and xs[k] - u z both lie in `set_`.

    A draw that already keeps both signed actions feasible comes back as
    drawn.  The others get the set's closed-form cap projection
    (`_symmetric_cap`), in one call, and one membership verdict at the
    guard's `DEFAULT_TOL` certifies both signed actions of each; a failing
    row falls back to a radial bisection of its draw (both counted in `stats`).
    When no draw needs projecting (always, at finite points of the whole
    space), the function returns `zhat` itself.  It never writes to `zhat`.

    `signed` is the stack of both signed actions of the draws, shape
    `(2, len(xs), dim)`, equal bit for bit to `xs + zhat * [[[u]], [[-u]]]`
    (block 0 at xs + u zhat, block 1 at xs - u zhat).  A caller that holds
    it passes it in; by default the function builds it.

    Pre: every row of `xs` belongs to `set_`. Raises DomainError otherwise.
    """
    if u <= 0:
        raise ConfigurationError("perturbation radius u must be positive")
    # both signed actions in one membership test: x + u z, then x - u z
    if signed is None:
        signed = xs + zhat * np.array([[[u]], [[-u]]])
    ok = set_.membership(signed)
    if ok is None or ok.all():
        return zhat
    # x is the midpoint of x + u z and x - u z: rows passing both are members
    rows = np.flatnonzero(~ok.reshape(2, -1).all(axis=0))
    if not set_.contains_all(xs[rows]):
        raise DomainError("cannot sample a perturbation at a point outside the set")
    stats = SampleStats() if stats is None else stats
    stats.projections += len(rows)
    z = set_._symmetric_cap(xs[rows], zhat[rows], u)
    ok = set_.membership(xs[rows] + z * np.array([[[u]], [[-u]]]))
    if ok is not None:
        for k in np.flatnonzero(~ok.reshape(2, -1).all(axis=0)):
            stats.fallbacks += 1
            z[k] = _bisect_feasible(set_, xs[rows[k]], zhat[rows[k]], u)
    out = zhat.copy()
    out[rows] = z
    return out


def _bisect_feasible(set_, x, zhat, u):
    """Shrink zhat radially until both signed actions are feasible.

    Feasibility of x +/- u*s*zhat is monotone in s because S(x, u) is
    convex, symmetric, and contains the origin.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        uz = u * (mid * zhat)
        if set_.contains_all(np.stack((x + uz, x - uz))):
            lo = mid
        else:
            hi = mid
    return lo * zhat
