"""Benchmark problems: per-agent cost structure, feasible sets, analytic
gradients, and a centralized reference solver.

A `Problem` couples n agents, each owning a block of the joint decision
vector and a private cost f_i over the *joint* vector; the system cost
is f = (1/n) sum_i f_i. The simulator only ever queries local costs at
joint actions, which is what makes the method model-free.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, OracleError, require_count, require_number
from .geometry import Box, ConvexSet, ShiftedSimplex, WholeSpace, row_summer

# The ceiling on a problem's total coordinates D, and so on its agent count
# n <= D (every agent has at least one coordinate).  A run's largest arrays
# are the (n, n) int32 hop distances, 4 n^2 bytes (8 n^2 where network_stats
# widens them to add delta), and the builders' (n, D) cost coefficients,
# 8 n D bytes; at the ceiling each is at most 8 * 8192^2 bytes = 512 MiB.  A
# dependence-mode run adds the sets' (n, n) bool mask, n^2 bytes = 64 MiB at
# the ceiling; the sets themselves hold O(n) indices when, as in the builders
# where every agent affects every cost, the agents share one set object.  The
# config parser checks a document's sizes against it before any builder runs,
# and `run` checks every problem.
MAX_COORDINATES = 8192

# Routes of each routing agent (group g uses 2g, ..., 2g + 3); its action
# has one reduced coordinate fewer.
ROUTES_PER_AGENT = 4


class _SetGroup:
    """Agents sharing one feasible set, processed in one batched call.

    `index` selects their blocks in an `(n, d_max)` block array: a view
    when the members are consecutive, else a gather by row.
    `signed_index` selects the same blocks in the stacked `(2, n, d_max)`
    signed actions.
    """

    def __init__(self, set_: ConvexSet, members: list[int]):
        self.set = set_
        self.dim = int(set_.dim)
        self.members = np.asarray(members, dtype=np.int64)
        if members == list(range(members[0], members[-1] + 1)):
            self.index = (slice(members[0], members[-1] + 1), slice(0, self.dim))
        else:
            self.index = (self.members, slice(0, self.dim))
        self.signed_index = (slice(None),) + self.index


@dataclass
class Problem:
    """n agents, each owning one block of the joint action and one set.

    Besides the flat joint vector, actions are laid out as an `(n, d_max)`
    block array, row i holding agent i's block zero-padded past its
    dimension (`dim_mask` marks the real entries).  `groups` collects the
    agents whose feasible sets are equal (equal `group_key()`), ordered by
    their first member, so every set operation is one batched call per group.

    `local_costs` and `grad` take one flat joint vector `(D,)`, returning
    `(n,)` costs and the `(D,)` gradient of f, or a stack of them `(R, D)`,
    returning `(R, n)` and `(R, D)`.  Row r of a stacked result is bitwise
    equal to the one-vector call on row r, so a caller may stack
    evaluations (the runner's two signed actions, its owed gradient norms)
    without changing a result.  Cost closures judge nothing: the runner's
    guard judges every action before it is observed, and `feasible` and
    `first_infeasible` give a verdict on request.
    """

    name: str
    dims: list[int]
    sets: list[ConvexSet]
    local_costs: Callable[[np.ndarray], np.ndarray]  # (D,) -> (n,); (R, D) -> (R, n)
    grad: Callable[[np.ndarray], np.ndarray] | None = None  # gradient of f; (R, D) -> (R, D)
    affected: list[frozenset[int]] | None = None  # A_i: agents whose costs agent i affects
    f_star: float | None = None
    x_star: np.ndarray | None = None
    f_lower: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.dims) != len(self.sets):
            raise ConfigurationError("dims and sets must align")
        for i, (d, s) in enumerate(zip(self.dims, self.sets)):
            d = require_count(f"agent {i + 1}'s dimension", d, 1)
            if d != s.dim:
                raise ConfigurationError(f"agent {i + 1}'s dimension {d} is not its set's {s.dim}")
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        dims = np.asarray(self.dims, dtype=np.int64)
        self.d_max = int(dims.max(initial=0))
        self.dim_mask = np.arange(self.d_max) < dims[:, None]
        self._uniform = bool(self.dim_mask.all())
        members: dict = {}
        for i, s in enumerate(self.sets):
            members.setdefault(s.group_key(), (s, []))[1].append(i)
        self.groups = [_SetGroup(s, agents) for s, agents in members.values()]

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(self.offsets[-1])

    def inner_radius(self) -> float | None:
        """The least of the sets' `inner_radius()`, None when one is infinite."""
        radii = [g.set.inner_radius() for g in self.groups]
        return min(radii) if np.isfinite(radii).all() else None

    def blocks(self, flat: np.ndarray) -> np.ndarray:
        """The `(n, d_max)` block array of a flat joint vector (a new array);
        anything but a `(D,)` vector is refused."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.total_dim,):
            raise ConfigurationError(
                f"expected a flat vector of length {self.total_dim}, got shape {flat.shape}"
            )
        if self._uniform:
            return flat.reshape(self.n, self.d_max).copy()
        out = np.zeros((self.n, self.d_max))
        out[self.dim_mask] = flat
        return out

    def flat(self, blocks: np.ndarray) -> np.ndarray:
        """The flat joint vector of a block array, or the `(R, D)` stack of a
        stack of block arrays `(R, n, d_max)` (a view when all dims are equal)."""
        if self._uniform:
            return blocks.reshape(blocks.shape[:-2] + (-1,))
        return blocks[..., self.dim_mask]

    def global_cost(self, flat: np.ndarray) -> float:
        costs = self.local_costs(flat)
        return float(np.add.reduce(costs) / len(costs))  # np.mean's sum and division

    def feasible(self, flat: np.ndarray) -> bool:
        return self.first_infeasible(self.blocks(flat)) is None

    def project_feasible(self, flat: np.ndarray) -> np.ndarray:
        return self.flat(self.project_blocks(self.blocks(flat)))

    def project_blocks(self, y: np.ndarray, sets: list[ConvexSet] | None = None) -> np.ndarray:
        """A new block array: `y` projected group by group onto `sets`, one
        set per group (by default the groups' own)."""
        if sets is None:
            sets = [g.set for g in self.groups]
        if len(sets) == 1:  # one set for every agent: its rows span the whole array
            return sets[0].project_batch(y)
        out = np.zeros(y.shape)
        for g, set_ in zip(self.groups, sets):
            out[g.index] = set_.project_batch(y[g.index])
        return out

    def first_infeasible(
        self,
        x: np.ndarray,
        sets: list[ConvexSet] | None = None,
        signed: np.ndarray | None = None,
    ) -> int | None:
        """The first agent (0-based; groups in order, then members) whose
        block of `x` leaves its group's set in `sets` (one per group, by
        default the groups' own) or, when `signed` holds the stacked
        `(x + u z, x - u z)`, whose signed actions leave its own set; None
        when every agent is feasible.  Each point set gets one `membership`
        verdict at `geometry.DEFAULT_TOL`, the one tolerance of a run."""
        if sets is None:
            sets = [g.set for g in self.groups]
        for g, set_ in zip(self.groups, sets):
            ok = set_.membership(x[g.index])
            if signed is not None:
                ok_signed = g.set.membership(signed[g.signed_index])
                if ok_signed is not None:
                    ok_signed = ok_signed.reshape(2, -1).all(axis=0)
                    ok = ok_signed if ok is None else ok & ok_signed
            if ok is not None and not ok.all():
                return int(g.members[int(np.argmax(~ok))])
        return None


def _require_sizes(n, dim_per_agent, seed) -> tuple[int, int, int]:
    """A builder's agent count and dimension (each >= 1) and seed (>= 0)."""
    return (require_count("agent count n", n, 1), require_count("dim_per_agent", dim_per_agent, 1),
            require_count("seed", seed))


# ---------------------------------------------------------------------------
# box-constrained quadratic


def build_box_quadratic(
    n: int,
    dim_per_agent: int,
    seed: int,
    half_width: float = 1.0,
    center_scale: float = 0.5,
) -> Problem:
    """f_i(x) = 0.5 ||x - c_i||^2 over per-agent boxes [-w, w]^d_i.

    Every constant the complexity bounds need is exact here, which is
    what makes this the calibration problem for bound checks.
    """
    n, dim_per_agent, seed = _require_sizes(n, dim_per_agent, seed)
    center_scale = require_number("center_scale", center_scale)
    if not (0 < center_scale < require_number("half_width", half_width)):
        raise ConfigurationError("need 0 < center_scale < half_width for an interior optimum")
    rng = np.random.default_rng(seed)
    d = n * dim_per_agent
    centers = rng.uniform(-center_scale, center_scale, size=(n, d))
    c_mean = centers.mean(axis=0)
    w = float(half_width)

    def local_costs(flat):
        flat = np.asarray(flat, dtype=float)
        # one (R n, d) einsum: its rows sum as the one-vector call's do
        diff = (flat[..., None, :] - centers).reshape(-1, d)
        return 0.5 * np.einsum("ij,ij->i", diff, diff).reshape(flat.shape[:-1] + (n,))

    def grad(flat):
        return np.asarray(flat, dtype=float) - c_mean

    f_star = float(0.5 * np.mean(np.sum(centers**2, axis=1)) - 0.5 * np.dot(c_mean, c_mean))
    # exact worst-case values over the box
    far_sq = np.maximum((-w - centers) ** 2, (w - centers) ** 2).sum(axis=1)
    lipschitz = float(np.sqrt(far_sq.max()))
    gap_max = float(0.5 * np.maximum((-w - c_mean) ** 2, (w - c_mean) ** 2).sum())
    sets = [Box(np.full(dim_per_agent, -w), np.full(dim_per_agent, w)) for _ in range(n)]
    return Problem(
        name="box_quadratic",
        dims=[dim_per_agent] * n,
        sets=sets,
        local_costs=local_costs,
        grad=grad,
        affected=[frozenset(range(n))] * n,  # one set object: every agent affects every cost
        f_star=f_star,
        x_star=c_mean.copy(),
        f_lower=f_star,
        meta={
            "lipschitz": lipschitz,
            "smoothness": 1.0,
            "outer_radius": w * np.sqrt(d),
            # exact max of 0.5||x* - x||^2 over the box: the optimum is
            # interior, so the farthest point flips every coordinate's sign
            "breg_diameter": float(0.5 * ((w + np.abs(c_mean)) ** 2).sum()),
            "gap_max": gap_max,
        },
    )


# ---------------------------------------------------------------------------
# smooth nonconvex trigonometric sum


def build_trig_sum(n: int, dim_per_agent: int, seed: int) -> Problem:
    """f_i(x) = sum_k a_ik (1 - cos(x_k - phi_ik)), unconstrained.

    Smooth and nonconvex with exact Lipschitz/smoothness constants
    (G = max_i ||a_i||, L = max_ik a_ik) and a global lower bound of 0.
    """
    n, dim_per_agent, seed = _require_sizes(n, dim_per_agent, seed)
    rng = np.random.default_rng(seed)
    d = n * dim_per_agent
    amps = rng.uniform(0.3, 1.0, size=(n, d))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, d))

    def local_costs(flat):
        flat = np.asarray(flat, dtype=float)
        return np.sum(amps * (1.0 - np.cos(flat[..., None, :] - phases)), axis=-1)

    def grad(flat):
        flat = np.asarray(flat, dtype=float)
        return (amps * np.sin(flat[..., None, :] - phases)).mean(axis=-2)

    return Problem(
        name="trig_sum",
        dims=[dim_per_agent] * n,
        sets=[WholeSpace(dim_per_agent) for _ in range(n)],
        local_costs=local_costs,
        grad=grad,
        affected=[frozenset(range(n))] * n,  # one set object: every agent affects every cost
        f_lower=0.0,
        meta={
            "lipschitz": float(np.linalg.norm(amps, axis=1).max()),
            "smoothness": float(amps.max()),
        },
    )


# ---------------------------------------------------------------------------
# congestion routing benchmark


@dataclass
class RoutingInstance:
    """Traffic-routing benchmark: agents split traffic over shared routes.

    Agents come in consecutive groups; group g (0-indexed) may use
    routes {2g, ..., 2g + 3}, so neighbouring groups share two routes
    and the number of routes is 2 * n_groups + 2. Route r has unit cost
    c_r(q) = quad_r q^2 + lin_r q + offset_r at total load q.
    """

    n_groups: int
    agents_per_group: int
    routes: np.ndarray  # (n, k) 0-based route ids
    traffic: np.ndarray  # (n,)
    quad: np.ndarray  # (m,)
    lin: np.ndarray  # (m,)
    offset: np.ndarray  # (m,)
    groups: np.ndarray  # (n,)

    @property
    def n_agents(self) -> int:
        return self.routes.shape[0]

    @property
    def routes_per_agent(self) -> int:
        return self.routes.shape[1]

    @property
    def n_routes(self) -> int:
        return 2 * self.n_groups + 2


def build_routing_instance(
    n_groups: int, agents_per_group: int, seed: int
) -> RoutingInstance:
    n_groups = require_count("n_groups", n_groups, 1)
    agents_per_group = require_count("agents_per_group", agents_per_group, 1)
    rng = np.random.default_rng(require_count("seed", seed))
    n = n_groups * agents_per_group
    m = 2 * n_groups + 2
    groups = np.repeat(np.arange(n_groups), agents_per_group)
    routes = np.stack([2 * g + np.arange(ROUTES_PER_AGENT) for g in groups])
    traffic = np.abs(rng.normal(1.0, np.sqrt(0.2), size=n))
    quad = np.abs(rng.normal(0.0, np.sqrt(0.8), size=m))
    lin = np.abs(rng.normal(0.0, np.sqrt(0.8), size=m))
    offset = np.abs(rng.normal(0.0, np.sqrt(0.8), size=m))
    return RoutingInstance(
        n_groups=n_groups,
        agents_per_group=agents_per_group,
        routes=routes,
        traffic=traffic,
        quad=quad,
        lin=lin,
        offset=offset,
        groups=groups,
    )


def eval_allocation(inst: RoutingInstance, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-agent costs and the system cost of a full allocation v (n, k).

    The system cost is computed independently in per-route form
    (1/n) sum_r q_r c_r(q_r); it equals the mean of the per-agent costs,
    the same sum in a different order.
    """
    v = np.asarray(v, dtype=float)
    m = inst.n_routes
    loads = np.bincount(
        inst.routes.ravel(), weights=(v * inst.traffic[:, None]).ravel(), minlength=m
    )
    unit = (inst.quad * loads + inst.lin) * loads + inst.offset
    per_agent = inst.traffic * np.einsum("ik,ik->i", v, unit[inst.routes])
    f_routes = float(np.dot(loads, unit)) / inst.n_agents
    return per_agent, f_routes


def reduced_to_alloc(inst: RoutingInstance, x: np.ndarray) -> np.ndarray:
    """Reduced coordinates (n, k-1) -> full allocation (n, k).

    The reduced block is the first k-1 route fractions re-centered so
    the uniform split maps to the origin; the dropped fraction is
    recovered from the unit sum.
    """
    k = inst.routes_per_agent
    x = np.asarray(x, dtype=float).reshape(inst.n_agents, k - 1)
    head = x + 1.0 / k
    return np.concatenate([head, 1.0 - head.sum(axis=1, keepdims=True)], axis=1)


def alloc_to_reduced(inst: RoutingInstance, v: np.ndarray) -> np.ndarray:
    k = inst.routes_per_agent
    v = np.asarray(v, dtype=float).reshape(inst.n_agents, k)
    return v[:, :-1] - 1.0 / k


def routing_affected_sets(inst: RoutingInstance) -> list[frozenset[int]]:
    """A_i = agents sharing at least one route with i (includes i): the union
    of the users of i's routes, read off the route incidence."""
    rows = inst.routes.tolist()
    users: list[list[int]] = [[] for _ in range(inst.n_routes)]
    for j, row in enumerate(rows):
        for r in row:
            users[r].append(j)
    return [frozenset().union(*(users[r] for r in row)) for row in rows]


class _StackedRoutes:
    """The routing coefficients of `rows` stacked copies of an instance.

    Copy r's route ids are offset by r * m, so one `bincount` loads every
    copy, each route's loads summed in the same order as for one copy; the
    per-agent traffic and the per-route coefficients are tiled to match.
    `head_sums` is the faster per-row sum for this many reduced actions.
    """

    def __init__(self, inst: RoutingInstance, rows: int):
        n, m = inst.n_agents, inst.n_routes
        self.routes = np.tile(inst.routes, (rows, 1)) + m * np.repeat(np.arange(rows), n)[:, None]
        self.route_ids = self.routes.ravel()
        self.traffic = np.tile(inst.traffic, rows)
        self.traffic_col = self.traffic[:, None]
        self.grad_scale = self.traffic_col / n
        self.quad, self.lin, self.offset = (
            np.tile(c, rows) for c in (inst.quad, inst.lin, inst.offset)
        )
        self.head_sums = row_summer(rows * n, inst.routes_per_agent - 1)


def routing_problem(inst: RoutingInstance) -> Problem:
    n = inst.n_agents
    k = inst.routes_per_agent
    dim = k - 1
    uniform = 1.0 / k
    stacks: dict[int, _StackedRoutes] = {}

    def allocation(flat):
        """The allocations v (R n, k) of the reduced actions, their route
        loads (R m,), the stacked coefficients and whether `flat` was a
        stack: reduced_to_alloc and the loads of eval_allocation, operation
        for operation."""
        flat = np.asarray(flat, dtype=float)
        stacked = flat.ndim > 1
        rows = flat.shape[0] if stacked else 1
        st = stacks.get(rows)
        if st is None:
            st = stacks[rows] = _StackedRoutes(inst, rows)
        head = flat.reshape(rows * n, dim) + uniform
        v = np.concatenate([head, 1.0 - st.head_sums(head, 1, keepdims=True)], axis=1)
        loads = np.bincount(
            st.route_ids, weights=(v * st.traffic_col).ravel(), minlength=st.quad.size
        )
        return v, loads, st, stacked

    def local_costs(flat):
        # eval_allocation(inst, reduced_to_alloc(inst, x))[0] of each row
        v, loads, st, stacked = allocation(flat)
        unit = (st.quad * loads + st.lin) * loads + st.offset
        costs = st.traffic * np.einsum("ik,ik->i", v, unit[st.routes])
        return costs.reshape(-1, n) if stacked else costs

    def grad(flat):
        v, loads, st, stacked = allocation(flat)
        marginal = st.offset + 2.0 * st.lin * loads + 3.0 * st.quad * loads**2
        mc = marginal[st.routes]  # (R n, k)
        g = st.grad_scale * (mc[:, :-1] - mc[:, -1:])
        return g.reshape(-1, n * dim) if stacked else g.ravel()

    return Problem(
        name="routing",
        dims=[dim] * n,
        sets=[ShiftedSimplex(dim, shift=-uniform)] * n,
        local_costs=local_costs,
        grad=grad,
        affected=routing_affected_sets(inst),
        f_lower=0.0,
        meta=_routing_constants(inst),
    )


def _routing_constants(inst: RoutingInstance) -> dict[str, float]:
    """Certified constants of the routing costs over the feasible set.

    Agent i ships t_i over k distinct routes R_i in shares v_i (a simplex
    point); route r carries q_r = sum_{j uses r} t_j v_j(r) at unit cost
    c_r(q) = a_r q^2 + b_r q + e_r, and f_i = t_i sum_{r in R_i} v_i(r) c_r(q_r).
    Reduced coordinates enter as v_j = M x_j + const, M = [I; -1^T].  With
    t, a, b, e >= 0, on the feasible set 0 <= q_r <= Lambda_r = sum_{j uses r}
    t_j, so c_r <= C_r = c_r(Lambda_r), 0 <= c_r' <= D_r = c_r'(Lambda_r) and
    c_r'' = 2 a_r.

    G.  With r = R_j[p], d f_i / d v_j(p) = t_i [j = i] c_r + t_i t_j v_i(r) c_r'
    >= 0 (v_i(r) = 0 off R_i).  For such a >= 0, ||M^T a||^2 =
    sum_{p<k} (a_p - a_k)^2 <= sum_p w_p a_p^2 with w = (1, ..., 1, k - 1).
    Summing the blocks j, with W_r = sum_{j uses r} w_{pos_j(r)} t_j^2:
    ||grad_x f_i||^2 <= t_i^2 sum_{r in R_i} [w c_r^2 + 2 w t_i v_i(r) c_r c_r'
    + v_i(r)^2 c_r'^2 W_r], w at r's position in R_i.  Raised to C and D, this
    is convex in v_i and peaks at a vertex, so G^2 is the max over agents i of
    t_i^2 [sum_{r in R_i} w C_r^2 + max_{r in R_i} (2 w t_i C_r D_r + D_r^2 W_r)].

    L.  f_i's Hessian in v couples two coordinates only on a common route, so
    it is block diagonal over routes.  Over the users of r in R_i (traffic
    vector tau, agent i's indicator e) the block is t_i [alpha (e tau^T +
    tau e^T) + beta tau tau^T], alpha = c_r', beta = 2 a_r v_i(r).  In the
    basis e, (tau - t_i e) / s of its range (s^2 = ||tau||^2 - t_i^2) it is
    t_i N, N = [[2 alpha t_i + beta t_i^2, (alpha + beta t_i) s],
    [(alpha + beta t_i) s, beta s^2]], whose norm is lambda_max(N), since Weyl
    gives lambda_max(N) >= alpha (t_i + ||tau||) >= -lambda_min(N).  It is
    nondecreasing in beta (tau tau^T is PSD) and in alpha (convex, with slope
    2 t_i or t_i + ||tau|| >= 0 at alpha = 0), so alpha = D_r and beta = 2 a_r
    bound it.  The x-Hessian is P^T H P with P = diag(M, ..., M) and
    ||P||^2 = ||I + 1 1^T|| = k.

    Geometry.  The reduced simplex has vertices e_a - 1/k (a < k - 1) and
    -1/k, so ||x_i||^2 <= (k^2 - k - 1) / k^2 and ||y_i - x_i||^2 <= min(2, k - 1)
    for feasible x, y; the latter bounds 1/2 ||x* - x||^2 by n min(2, k - 1) / 2.
    Gap: (1/n) sum_r Lambda_r C_r >= f >= (1/n) sum_i t_i min_{r in R_i} e_r.
    """
    routes, t = inst.routes, inst.traffic
    n, k = routes.shape
    if min(t.min(), inst.quad.min(), inst.lin.min(), inst.offset.min()) < 0:
        raise ConfigurationError("routing constants need non-negative traffic and coefficients")
    w = np.append(np.ones(k - 1), k - 1.0)
    ti = t[:, None]
    ids, m = routes.ravel(), inst.n_routes
    lam = np.bincount(ids, weights=np.repeat(t, k), minlength=m)
    weighted = np.bincount(ids, weights=(w * ti * ti).ravel(), minlength=m)  # W
    tau_sq = np.bincount(ids, weights=np.repeat(t * t, k), minlength=m)
    c_max = (inst.quad * lam + inst.lin) * lam + inst.offset
    d_max = inst.lin + 2.0 * inst.quad * lam
    c, d, W = c_max[routes], d_max[routes], weighted[routes]
    g_sq = t * t * ((w * c * c).sum(axis=1) + (2.0 * w * ti * c * d + d * d * W).max(axis=1))

    beta = 2.0 * inst.quad[routes]
    s_sq = np.maximum(tau_sq[routes] - ti * ti, 0.0)
    top = 2.0 * d * ti + beta * ti * ti
    off = (d + beta * ti) * np.sqrt(s_sq)
    bottom = beta * s_sq
    lam_max = 0.5 * (top + bottom) + np.sqrt((0.5 * (top - bottom)) ** 2 + off * off)

    f_max = float(np.dot(lam, c_max)) / n
    f_min = float(np.dot(t, inst.offset[routes].min(axis=1))) / n
    return {
        "lipschitz": float(np.sqrt(g_sq.max())),
        "smoothness": float(k * (ti * lam_max).max()),
        "outer_radius": float(np.sqrt(n * (k * k - k - 1.0)) / k),
        "breg_diameter": 0.5 * n * min(2, k - 1),
        "gap_max": f_max - f_min,
    }


# ---------------------------------------------------------------------------
# centralized reference solver


@dataclass
class SolveResult:
    x: np.ndarray
    f: float
    n_iter: int
    converged: bool
    residual: float


# The step rule's constants, chosen on a grid of 54 routing instances (1 to
# 200 agents, tol 1e-10; the table is in CHANGES.md), one at a time with the
# others fixed, by total iterations (the total time ranked them alike).
# Step growth per iteration: of {1.05, 1.1, 1.2}, 1.1 took 8,823 against 9,144
# and 9,414.  Slower growth regrows a halved step late; faster growth runs
# ahead of the curvature and is refused more often (63 against 56 times).
_STEP_GROWTH = 1.1

# The step is at most this share of the inverse local curvature
# ||y - y_prev|| / ||g(y) - g(y_prev)|| (Malitsky & Mishchenko 2020): of
# {0.35, 0.5, 0.7, 1}, 0.5 took 8,823 against 8,851, 8,846 and 38,120.
_CURVATURE_SHARE = 0.5

# The safeguard accepts x+ when f(x+) is at most the largest of the last this
# many accepted values, plus the slack below: of {1, 5, 10, 20}, 10 and 20
# took 8,823 against 10,197 and 9,128.  A window of 1, a monotone test,
# refused 157 steps against 56.
_WINDOW = 10

# The safeguard's slack: an absolute floor plus a few units of f's own
# rounding.  Below f's rounding, trial points near the optimum would fail on
# rounding alone and the step would collapse.
_SLACK_ABS = 1e-15
_SLACK_REL = 8.0 * float(np.finfo(float).eps)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


def centralized_solve(
    problem: Problem,
    x0: np.ndarray | None = None,
    max_iter: int = 200_000,
    tol: float = 1e-9,
    require_convergence: bool = False,
) -> SolveResult:
    """Accelerated projected gradient (FISTA) with a curvature step,
    a non-monotone safeguard and adaptive restart.

    Each iteration takes the gradient at the extrapolated point
    y = x + beta (x - x_prev), beta from the FISTA theta-sequence (Beck &
    Teboulle 2009), and steps to x+ = P(y - step g(y)).  The step is
    min(`_STEP_GROWTH` step, `_CURVATURE_SHARE` ||y - y_prev|| /
    ||g(y) - g(y_prev)||), the local curvature of the last two gradient
    points (Malitsky & Mishchenko 2020), so no iteration evaluates f(y).
    The one cost evaluation of an iteration is the safeguard's: x+ is
    accepted when f(x+) is at most the largest of the last `_WINDOW`
    accepted values, up to f's rounding; otherwise the step halves and
    momentum restarts from x.  Theta restarts at 1 (beta = 0) when the
    momentum points uphill, (y - x+).(x+ - x) > 0 (O'Donoghue & Candes 2015).

    Stops when the prox-gradient residual ||x+ - y|| / step at the point
    the gradient was taken falls below `tol` and, from one more gradient
    at x+, so does x+'s own residual ||P(x+ - s g(x+)) - x+|| / s at
    s = min(step, 1), which bounds its step-1 residual (the residual does
    not grow with s).  Returns the projection x+, which is always feasible.
    For convex problems the result is the global optimum; for nonconvex
    ones it is a stationary point.
    """
    if problem.grad is None:
        raise ConfigurationError("centralized solve needs a gradient")
    x = problem.project_feasible(np.zeros(problem.total_dim) if x0 is None else x0)
    accepted = deque([problem.global_cost(x)], maxlen=_WINDOW)  # f at the accepted points
    x_prev = x
    y_prev = g_prev = x_checked = g_checked = None
    theta = 1.0
    step = 1.0
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        y = x + beta * (x - x_prev) if beta > 0.0 else x
        # after a refused step at beta = 0, y is the last gradient point again;
        # after a failed check and a restart, it is the point the check took
        g = g_prev if y is y_prev else g_checked if y is x_checked else problem.grad(y)
        if y_prev is not None:
            step = min(step * _STEP_GROWTH, 1e6)
            dg = _norm(g - g_prev)
            if dg > 0.0:
                step = min(step, _CURVATURE_SHARE * _norm(y - y_prev) / dg)
        y_prev, g_prev = y, g
        x_new = problem.project_feasible(y - step * g)
        f_new = problem.global_cost(x_new)
        f_ref = max(accepted)
        if f_new > f_ref + _SLACK_ABS + _SLACK_REL * abs(f_ref):
            step *= 0.5
            if step < 1e-18:
                raise OracleError("line search collapsed; gradient may be wrong")
            theta, x_prev = 1.0, x
            continue
        diff = x_new - y
        residual = _norm(diff) / step
        if residual <= tol:
            s, x_checked, g_checked = min(step, 1.0), x_new, problem.grad(x_new)
            moved = problem.project_feasible(x_new - s * g_checked) - x_new
            residual = _norm(moved) / s
            if residual <= tol:
                return SolveResult(x=x_new, f=f_new, n_iter=it, converged=True, residual=residual)
        theta = 1.0 if float(np.dot(diff, x - x_new)) > 0.0 else theta_next
        x_prev, x = x, x_new
        accepted.append(f_new)
    result = SolveResult(x=x, f=accepted[-1], n_iter=it, converged=False, residual=residual)
    if require_convergence:
        raise OracleError(
            f"reference solver did not reach tolerance {tol} in {max_iter} "
            f"iterations (residual {residual:.3e})"
        )
    return result
