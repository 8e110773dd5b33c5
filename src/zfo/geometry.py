"""Feasible-set geometry: membership, projections, shrinking, and
constrained perturbation sampling.

All sets are closed convex subsets of R^dim, and every set operation
works on rows (one point per row). Projections are exact (closed form)
for boxes, Euclidean balls, shifted simplices, and the whole space;
intersections fall back to Dykstra's alternating projections with a
post-hoc certificate.

Perturbation sampling projects a standard normal draw onto the
symmetric feasibility cap

    S(x, u) = (1/u)(X - x)  intersect  -(1/u)(X - x),

so that both x + u z and x - u z stay inside X for every returned z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, OracleError

DEFAULT_TOL = 1e-9
_CERT_TOL = 1e-12  # feasibility certificate for sampled perturbations
_DYKSTRA_SWEEPS = 500
_EPS = float(np.finfo(float).eps)


@dataclass
class SampleStats:
    """Counters a caller can thread through sampling calls."""

    fallbacks: int = 0
    projections: int = 0


class ConvexSet:
    """Base class. A subclass defines the exact row-wise `project_batch` and,
    where one exists, a closed-form `contains_batch` with the same verdicts;
    the one-point `project` and `contains` are their one-row cases, and
    `contains_all` is their conjunction over many points, which a subclass
    settles in closed form (`_all_inside`) when every point is plainly
    inside."""

    dim: int
    bounded: bool = True

    def project_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains_batch(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Row-wise membership up to Euclidean distance `tol`."""
        diff = ys - self.project_batch(ys)
        return np.linalg.norm(diff, axis=-1) <= tol

    def project(self, y: np.ndarray) -> np.ndarray:
        """Projection of one point."""
        return self.project_batch(np.asarray(y, dtype=float)[None, :])[0]

    def contains(self, y: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Membership of one point up to Euclidean distance `tol`."""
        return bool(self.contains_batch(np.asarray(y, dtype=float)[None, :], tol)[0])

    def contains_all(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Whether every point of `ys` (any leading shape, points along the
        last axis) is a member up to `tol`: the verdict of `contains_batch`
        on the points as rows, all of them, without per-row work when
        `_all_inside` settles it."""
        if self._all_inside(ys, tol):
            return True
        return bool(self.contains_batch(np.reshape(ys, (-1, self.dim)), tol).all())

    def _all_inside(self, ys: np.ndarray, tol: float) -> bool:
        """A closed-form test, true only when `contains_batch` passes every
        point of `ys` (any leading shape); False when it cannot tell."""
        return False

    # Largest distance between a row that passes a set's closed-form
    # membership test and its computed projection (rounding only).
    _inside_slack = 0.0

    def _finish_contains(
        self, ys: np.ndarray, inside: np.ndarray, gap: np.ndarray, size: np.ndarray, tol: float
    ) -> np.ndarray:
        """Complete a closed-form membership verdict.

        `inside` marks the rows that satisfy the set's defining
        inequalities; their projection is the row itself up to
        `_inside_slack`, so they are members whenever `tol` covers that.
        `gap` is a closed-form lower bound on each row's distance to the
        set and `size` bounds the magnitudes it was computed from: a row
        whose gap exceeds `tol` by more than the rounding of both the gap
        and the projection is rejected without projecting it, so a faulty
        projection cannot certify it.  Every other row gets the defining
        test ||y - P(y)|| <= tol, which makes the verdict equal to
        `ConvexSet.contains_batch` row by row.
        """
        if tol < self._inside_slack:
            inside[:] = False
        elif inside.all():
            return inside
        rounding = 4.0 * (self.dim + 4) ** 1.5 * _EPS
        rest = np.flatnonzero(~inside & (gap - rounding * size <= tol))
        inside[rest] = ConvexSet.contains_batch(self, ys[rest], tol)
        return inside

    def shrink(self, delta: float) -> "ConvexSet":
        """Return (1 - delta) * set (the set scaled toward the origin)."""
        raise NotImplementedError

    def inner_radius(self) -> float:
        """Largest r with r * unit_ball contained in the set; <= 0 when
        the origin is not interior."""
        raise NotImplementedError

    def outer_radius(self) -> float:
        """max ||y|| over the set (an upper bound for intersections)."""
        raise NotImplementedError

    def _require_origin_interior(self) -> None:
        if not (self.inner_radius() > 0.0):
            raise ConfigurationError(
                f"{type(self).__name__}: shrinking requires the origin in the "
                "interior of the set"
            )


class WholeSpace(ConvexSet):
    """Unconstrained R^dim."""

    bounded = False

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigurationError("dim must be >= 1")
        self.dim = int(dim)

    def project_batch(self, ys):
        return np.asarray(ys, dtype=float).copy()

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        return np.ones(ys.shape[0], dtype=bool)

    def _all_inside(self, ys, tol):
        return True

    def shrink(self, delta):
        _check_delta(delta)
        return self

    def inner_radius(self):
        return np.inf

    def outer_radius(self):
        return np.inf

    def __repr__(self):
        return f"WholeSpace(dim={self.dim})"


class Box(ConvexSet):
    """Axis-aligned box {lower <= y <= upper}."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ConfigurationError("box bounds must be 1-d arrays of equal length")
        if np.any(self.lower > self.upper):
            raise ConfigurationError("box requires lower <= upper")
        self.dim = self.lower.size

    def project_batch(self, ys):
        return np.clip(np.asarray(ys, dtype=float), self.lower, self.upper)

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        ys = np.asarray(ys, dtype=float)
        if self._all_inside(ys, tol):
            return np.ones(ys.shape[0], dtype=bool)
        # per coordinate, the larger excess over a bound is |y - clip(y)|
        # bit for bit when positive, so the norm is that of ys - clip(ys)
        excess = np.maximum(ys - self.upper, self.lower - ys)
        return np.linalg.norm(np.maximum(excess, 0.0), axis=1) <= tol

    def _all_inside(self, ys, tol):
        return tol >= 0.0 and np.maximum(ys - self.upper, self.lower - ys).max(initial=0.0) <= 0.0

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        self._require_origin_interior()
        s = 1.0 - delta
        return Box(s * self.lower, s * self.upper)

    def inner_radius(self):
        return float(min(np.min(-self.lower), np.min(self.upper)))

    def outer_radius(self):
        return float(np.sqrt(np.sum(np.maximum(self.lower**2, self.upper**2))))

    def __repr__(self):
        return f"Box(lower={self.lower!r}, upper={self.upper!r})"


class Ball(ConvexSet):
    """Euclidean ball {||y - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")
        self.dim = self.center.size
        self._size = self.radius + float(np.abs(self.center).sum())

    def project_batch(self, ys):
        # rows inside the ball come back unchanged, so the projection is
        # exact on the set; only the rows outside are pulled to the sphere
        out = np.array(ys, dtype=float)
        diff = out - self.center
        norms = np.linalg.norm(diff, axis=1)
        over = norms > self.radius
        if over.any():
            out[over] = self.center + diff[over] * (self.radius / norms[over])[:, None]
        return out

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        # the same norms project_batch compares with the radius; a row's
        # distance to the ball is its norm less the radius
        ys = np.asarray(ys, dtype=float)
        norms = np.linalg.norm(ys - self.center, axis=1)
        return self._finish_contains(
            ys, norms <= self.radius, norms - self.radius, norms + self._size, tol
        )

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        self._require_origin_interior()
        s = 1.0 - delta
        return Ball(s * self.center, s * self.radius)

    def inner_radius(self):
        return float(self.radius - np.linalg.norm(self.center))

    def outer_radius(self):
        return float(self.radius + np.linalg.norm(self.center))

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius})"


class ShiftedSimplex(ConvexSet):
    """Scaled and shifted capped simplex

        {y : y - shift >= 0,  sum(y - shift) <= scale}.

    With shift = -(1/m) * ones and scale = 1 this is the standard
    simplex re-centered so the uniform point sits at the origin (one
    coordinate dropped). Scaling the whole set by (1 - delta) keeps the
    same representation, which is why `scale` is carried explicitly.
    """

    def __init__(self, dim: int, shift=None, scale: float = 1.0):
        if dim < 1:
            raise ConfigurationError("dim must be >= 1")
        self.dim = int(dim)
        if shift is None:
            shift = np.zeros(dim)
        self.shift = np.broadcast_to(np.asarray(shift, dtype=float), (dim,)).astype(float)
        self.scale = float(scale)
        if self.scale <= 0:
            raise ConfigurationError("simplex scale must be positive")
        self._size = self.scale + float(np.abs(self.shift).sum())
        # an inside row projects to (y - shift) + shift: two roundings
        self._inside_slack = 2.0 * _EPS * (2.0 * self.scale + float(np.linalg.norm(self.shift)))

    def project_batch(self, ys):
        w = np.asarray(ys, dtype=float) - self.shift
        return _project_orthant_cap(w, self.scale) + self.shift

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        ys = np.asarray(ys, dtype=float)
        if self._all_inside(ys, tol):
            return np.ones(ys.shape[0], dtype=bool)
        w = ys - self.shift
        sums = w.sum(axis=1)
        lows = w.min(axis=1)
        inside = (lows >= 0.0) & (sums <= self.scale)
        # a row is at least as far as from the orthant and from the half-space sum(v) <= scale
        gap = np.maximum(-lows, (sums - self.scale) / np.sqrt(self.dim))
        size = np.abs(w).sum(axis=1) + self._size
        return self._finish_contains(ys, inside, gap, size, tol)

    def _all_inside(self, ys, tol):
        # the same `w` and sums project_batch tests: points with w >= 0 and
        # sum(w) <= scale are left in place by the orthant-cap projection
        if tol < self._inside_slack:
            return False
        w = ys - self.shift
        return w.min(initial=0.0) >= 0.0 and w.sum(axis=-1).max(initial=0.0) <= self.scale

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

    def outer_radius(self):
        base = float(np.dot(self.shift, self.shift))
        vertex = base + 2.0 * self.scale * self.shift + self.scale**2
        return float(np.sqrt(max(base, float(np.max(vertex)))))

    def __repr__(self):
        return (
            f"ShiftedSimplex(dim={self.dim}, shift={self.shift!r}, "
            f"scale={self.scale})"
        )


class Intersection(ConvexSet):
    """Intersection of convex sets; projection via Dykstra's algorithm."""

    def __init__(self, members, tol: float = 1e-10):
        members = list(members)
        if not members:
            raise ConfigurationError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ConfigurationError("intersection members must share a dimension")
        self.members = members
        self.dim = members[0].dim
        self.tol = float(tol)

    @property
    def bounded(self):
        return any(m.bounded for m in self.members)

    def _in_members(self, ys, tol):
        return np.logical_and.reduce([m.contains_batch(ys, tol) for m in self.members])

    def project_batch(self, ys):
        out = np.array(ys, dtype=float)
        rows = np.flatnonzero(~self._in_members(out, _CERT_TOL))
        for row in rows:
            out[row] = _dykstra([m.project for m in self.members], out[row], self.tol)
        if not self._in_members(out[rows], DEFAULT_TOL).all():
            raise OracleError(
                "alternating-projection oracle failed to certify a point in "
                f"the intersection after {_DYKSTRA_SWEEPS} sweeps"
            )
        return out

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        return Intersection([m.shrink(delta) for m in self.members], self.tol)

    def inner_radius(self):
        return float(min(m.inner_radius() for m in self.members))

    def outer_radius(self):
        # min over members is a valid upper bound on max ||y||.
        return float(min(m.outer_radius() for m in self.members))

    def __repr__(self):
        return f"Intersection({self.members!r})"


# ---------------------------------------------------------------------------
# module-level helpers


def _check_delta(delta: float) -> None:
    if not (0.0 <= delta < 1.0):
        raise ConfigurationError(f"shrink factor must lie in [0, 1), got {delta}")


def _project_scaled_simplex(w: np.ndarray, cap: float) -> np.ndarray:
    """Project rows of w onto {v >= 0, sum(v) = cap} (sort algorithm)."""
    srt = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(srt, axis=1) - cap
    counts = np.arange(1, w.shape[1] + 1)
    cond = srt - css / counts > 0
    rho = w.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(w.shape[0]), rho] / (rho + 1)
    return np.maximum(w - tau[:, None], 0.0)


def _project_orthant_cap(w: np.ndarray, cap: float) -> np.ndarray:
    """Project rows of w onto {v >= 0, sum(v) <= cap}."""
    v = np.maximum(w, 0.0)
    over = v.sum(axis=1) > cap
    if over.any():
        v[over] = _project_scaled_simplex(w[over], cap)
    return v


def _dykstra(projectors, y, tol):
    """Dykstra's alternating projections onto the intersection of the
    projectors' sets. Returns the last iterate (caller certifies)."""
    x = np.asarray(y, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    for _ in range(_DYKSTRA_SWEEPS):
        shift = 0.0
        for idx, proj in enumerate(projectors):
            w = x + corrections[idx]
            x_new = proj(w)
            corrections[idx] = w - x_new
            shift = max(shift, float(np.linalg.norm(x_new - x)))
            x = x_new
        if shift <= tol:
            break
    return x


# ---------------------------------------------------------------------------
# constrained perturbation sampling


def constrain_perturbation_batch(
    set_: ConvexSet,
    xs: np.ndarray,
    zhat: np.ndarray,
    u: float,
    stats: SampleStats | None = None,
) -> np.ndarray:
    """Project each raw draw `zhat[k]` onto the symmetric cap S(xs[k], u), so
    that xs[k] + u z and xs[k] - u z both lie in `set_`.

    A draw that already keeps both signed actions feasible comes back as
    drawn; the others get the Dykstra cap projection, certified, with a
    radial bisection of the draw as the fallback (both counted in `stats`).

    Pre: every row of `xs` belongs to `set_`. Raises DomainError otherwise.
    """
    if u <= 0:
        raise ConfigurationError("perturbation radius u must be positive")
    if isinstance(set_, WholeSpace):
        return zhat
    if isinstance(set_, Box):  # closed form: S(x, u) is itself a box
        room = np.minimum(set_.upper - xs, xs - set_.lower)
        if room.min(initial=0.0) < 0.0:
            _require_members(set_, xs)
        margin = np.maximum(room / u, 0.0)
        return np.clip(zhat, -margin, margin)
    # both signed actions in one membership test: rows x + u z, then x - u z
    uz = u * zhat
    signed = np.concatenate((xs + uz, xs - uz))
    if set_.contains_all(signed, _CERT_TOL):
        return zhat
    ok = set_.contains_batch(signed, _CERT_TOL)
    # x is the midpoint of x + u z and x - u z: rows passing both are members
    rows = np.flatnonzero(~ok.reshape(2, -1).all(axis=0))
    _require_members(set_, xs[rows])
    stats = SampleStats() if stats is None else stats
    out = zhat.copy()
    for row in rows:
        x = xs[row]
        stats.projections += 1
        z = _project_symmetric_cap(set_, x, zhat[row], u)
        if not _signed_feasible(set_, x, u * z):
            stats.fallbacks += 1
            z = _bisect_feasible(set_, x, zhat[row], u)
        out[row] = z
    return out


def _require_members(set_, xs):
    if not set_.contains_batch(xs, DEFAULT_TOL).all():
        raise DomainError("cannot sample a perturbation at a point outside the set")


def _signed_feasible(set_, x, uz):
    return bool(set_.contains_batch(np.stack((x + uz, x - uz)), _CERT_TOL).all())


def _project_symmetric_cap(set_, x, zhat, u):
    """Dykstra on the pair C = (X - x)/u and -C."""

    def proj_fwd(p):
        return (set_.project(x + u * p) - x) / u

    def proj_bwd(p):
        return (x - set_.project(x - u * p)) / u

    return _dykstra([proj_fwd, proj_bwd], zhat, 1e-10)


def _bisect_feasible(set_, x, zhat, u, n_steps: int = 60):
    """Shrink zhat radially until both signed actions are feasible.

    Feasibility of x +/- u*s*zhat is monotone in s because S(x, u) is
    convex, symmetric, and contains the origin.
    """
    lo, hi = 0.0, 1.0
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        if _signed_feasible(set_, x, u * (mid * zhat)):
            lo = mid
        else:
            hi = mid
    return lo * zhat
