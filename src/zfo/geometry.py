"""Feasible-set geometry: membership, projections, shrinking, and
constrained perturbation sampling.

All sets are closed convex subsets of R^dim. Projections are exact
(closed form) for boxes, Euclidean balls, shifted simplices, and the
whole space; intersections fall back to Dykstra's alternating
projections with a post-hoc certificate.

Perturbation sampling draws a standard normal and projects it onto the
symmetric feasibility cap

    S(x, u) = (1/u)(X - x)  intersect  -(1/u)(X - x),

so that both x + u z and x - u z stay inside X for every returned z.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, OracleError

DEFAULT_TOL = 1e-9
_CERT_TOL = 1e-12  # feasibility certificate for sampled perturbations
_EPS = float(np.finfo(float).eps)


@dataclass
class SampleStats:
    """Counters a caller can thread through sampling calls."""

    fallbacks: int = 0
    projections: int = 0


class ConvexSet:
    """Base class. Subclasses provide exact `project` / `project_batch`."""

    dim: int
    bounded: bool = True

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_batch(self, ys: np.ndarray) -> np.ndarray:
        # Default: row-by-row. Subclasses override with vector forms.
        return np.stack([self.project(row) for row in ys])

    def contains(self, y: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Membership up to Euclidean distance `tol`."""
        y = np.asarray(y, dtype=float)
        return float(np.linalg.norm(y - self.project(y))) <= tol

    def contains_batch(self, ys: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Row-wise membership up to Euclidean distance `tol`."""
        diff = ys - self.project_batch(ys)
        return np.linalg.norm(diff, axis=-1) <= tol

    # Largest distance between a row that passes a set's closed-form
    # membership test and its computed projection (rounding only).
    _inside_slack = 0.0

    def _finish_contains(self, ys: np.ndarray, inside: np.ndarray, tol: float) -> np.ndarray:
        """Complete a closed-form membership verdict.

        `inside` marks the rows that satisfy the set's defining
        inequalities; their projection is the row itself up to
        `_inside_slack`, so they are members whenever `tol` covers that.
        Every other row gets the defining test ||y - P(y)|| <= tol, which
        makes the verdict equal to `ConvexSet.contains_batch` row by row.
        """
        if tol < self._inside_slack:
            inside[:] = False
        elif inside.all():
            return inside
        rest = np.flatnonzero(~inside)
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

    def project(self, y):
        return np.asarray(y, dtype=float).copy()

    def project_batch(self, ys):
        return np.asarray(ys, dtype=float).copy()

    def contains(self, y, tol=DEFAULT_TOL):
        return True

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        return np.ones(ys.shape[0], dtype=bool)

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

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lower, self.upper)

    def project_batch(self, ys):
        return np.clip(np.asarray(ys, dtype=float), self.lower, self.upper)

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        # clipping returns a row inside the box unchanged: distance exactly 0
        ys = np.asarray(ys, dtype=float)
        inside = (ys >= self.lower) & (ys <= self.upper)
        if tol >= 0.0 and inside.all():
            return np.ones(ys.shape[0], dtype=bool)
        return self._finish_contains(ys, inside.all(axis=1), tol)

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
        # an inside row projects to center + (y - center): two roundings
        self._inside_slack = 2.0 * _EPS * (2.0 * self.radius + float(np.linalg.norm(self.center)))

    def project(self, y):
        y = np.asarray(y, dtype=float)
        diff = y - self.center
        norm = float(np.linalg.norm(diff))
        if norm <= self.radius:
            return y.copy()
        return self.center + diff * (self.radius / norm)

    def project_batch(self, ys):
        diff = np.asarray(ys, dtype=float) - self.center
        norms = np.linalg.norm(diff, axis=1)
        scale = np.ones_like(norms)
        over = norms > self.radius
        scale[over] = self.radius / norms[over]
        return self.center + diff * scale[:, None]

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        # the same norms project_batch compares with the radius
        ys = np.asarray(ys, dtype=float)
        inside = np.linalg.norm(ys - self.center, axis=1) <= self.radius
        return self._finish_contains(ys, inside, tol)

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
        # an inside row projects to (y - shift) + shift: two roundings
        self._inside_slack = 2.0 * _EPS * (2.0 * self.scale + float(np.linalg.norm(self.shift)))

    def project(self, y):
        return self.project_batch(np.asarray(y, dtype=float)[None, :])[0]

    def project_batch(self, ys):
        w = np.asarray(ys, dtype=float) - self.shift
        return _project_orthant_cap(w, self.scale) + self.shift

    def contains_batch(self, ys, tol=DEFAULT_TOL):
        # the same `w` and row sums project_batch tests: rows with w >= 0
        # and sum(w) <= scale are left in place by the orthant-cap projection
        ys = np.asarray(ys, dtype=float)
        w = ys - self.shift
        sums = w.sum(axis=1)
        if (
            tol >= self._inside_slack
            and w.min(initial=0.0) >= 0.0
            and sums.max(initial=0.0) <= self.scale
        ):
            return np.ones(ys.shape[0], dtype=bool)
        inside = (w.min(axis=1) >= 0.0) & (sums <= self.scale)
        return self._finish_contains(ys, inside, tol)

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

    def __init__(self, members, n_sweeps: int = 500, tol: float = 1e-10):
        members = list(members)
        if not members:
            raise ConfigurationError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ConfigurationError("intersection members must share a dimension")
        self.members = members
        self.dim = members[0].dim
        self.n_sweeps = int(n_sweeps)
        self.tol = float(tol)

    @property
    def bounded(self):
        return any(m.bounded for m in self.members)

    def project(self, y):
        y = np.asarray(y, dtype=float)
        if all(m.contains(y, _CERT_TOL) for m in self.members):
            return y.copy()
        x = _dykstra([m.project for m in self.members], y, self.n_sweeps, self.tol)
        if not all(m.contains(x, DEFAULT_TOL) for m in self.members):
            raise OracleError(
                "alternating-projection oracle failed to certify a point in "
                f"the intersection after {self.n_sweeps} sweeps"
            )
        return x

    def shrink(self, delta):
        _check_delta(delta)
        if delta == 0.0:
            return self
        return Intersection(
            [m.shrink(delta) for m in self.members], self.n_sweeps, self.tol
        )

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


def _dykstra(projectors, y, n_sweeps, tol):
    """Dykstra's alternating projections onto the intersection of the
    projectors' sets. Returns the last iterate (caller certifies)."""
    x = np.asarray(y, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    for _ in range(n_sweeps):
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


def sample_perturbation(
    set_: ConvexSet,
    x: np.ndarray,
    u: float,
    rng: np.random.Generator,
    stats: SampleStats | None = None,
    n_sweeps: int = 500,
) -> np.ndarray:
    """Draw z ~ N(0, I) projected onto the symmetric cap S(x, u), so that
    x + u z and x - u z both lie in `set_`.

    Pre: x must belong to `set_`. Raises DomainError otherwise.
    """
    zhat = rng.standard_normal(set_.dim)
    return constrain_perturbation(set_, np.asarray(x, dtype=float), zhat, u, stats, n_sweeps)


def constrain_perturbation(
    set_: ConvexSet,
    x: np.ndarray,
    zhat: np.ndarray,
    u: float,
    stats: SampleStats | None = None,
    n_sweeps: int = 500,
) -> np.ndarray:
    """Project a raw draw `zhat` onto S(x, u) (see sample_perturbation)."""
    if u <= 0:
        raise ConfigurationError("perturbation radius u must be positive")
    if isinstance(set_, WholeSpace):
        return zhat.copy()
    if not set_.contains(x, DEFAULT_TOL):
        raise DomainError("cannot sample a perturbation at a point outside the set")
    if isinstance(set_, Box):  # closed form: S(x, u) is itself a box
        margin = np.minimum(set_.upper - x, x - set_.lower) / u
        margin = np.maximum(margin, 0.0)
        return np.clip(zhat, -margin, margin)
    # Fast path: the raw draw already keeps both signed actions feasible.
    if set_.contains(x + u * zhat, _CERT_TOL) and set_.contains(x - u * zhat, _CERT_TOL):
        return zhat.copy()
    if stats is not None:
        stats.projections += 1
    z = _project_symmetric_cap(set_, x, zhat, u, n_sweeps)
    if set_.contains(x + u * z, _CERT_TOL) and set_.contains(x - u * z, _CERT_TOL):
        return z
    if stats is not None:
        stats.fallbacks += 1
    return _bisect_feasible(set_, x, zhat, u)


def constrain_perturbation_batch(
    set_: ConvexSet,
    xs: np.ndarray,
    zhat: np.ndarray,
    u: float,
    stats: SampleStats | None = None,
) -> np.ndarray:
    """Vectorized `constrain_perturbation` for rows sharing one set."""
    if u <= 0:
        raise ConfigurationError("perturbation radius u must be positive")
    if isinstance(set_, WholeSpace):
        return zhat
    if isinstance(set_, Box):
        margin = np.minimum(set_.upper - xs, xs - set_.lower) / u
        margin = np.maximum(margin, 0.0)
        return np.clip(zhat, -margin, margin)
    # both signed actions in one membership call: rows x + u z, then x - u z
    uz = u * zhat
    ok = set_.contains_batch(np.concatenate((xs + uz, xs - uz)), _CERT_TOL)
    if ok.all():
        return zhat
    ok = ok.reshape(2, -1).all(axis=0)
    out = zhat.copy()
    for row in np.flatnonzero(~ok):
        out[row] = constrain_perturbation(set_, xs[row], zhat[row], u, stats)
    return out


def _project_symmetric_cap(set_, x, zhat, u, n_sweeps):
    """Dykstra on the pair C = (X - x)/u and -C."""

    def proj_fwd(p):
        return (set_.project(x + u * p) - x) / u

    def proj_bwd(p):
        return (x - set_.project(x - u * p)) / u

    return _dykstra([proj_fwd, proj_bwd], zhat, n_sweeps, 1e-10)


def _bisect_feasible(set_, x, zhat, u, n_steps: int = 60):
    """Shrink zhat radially until both signed actions are feasible.

    Feasibility of x +/- u*s*zhat is monotone in s because S(x, u) is
    convex, symmetric, and contains the origin.
    """

    def ok(s):
        z = s * zhat
        return set_.contains(x + u * z, _CERT_TOL) and set_.contains(x - u * z, _CERT_TOL)

    lo, hi = 0.0, 1.0
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo * zhat
