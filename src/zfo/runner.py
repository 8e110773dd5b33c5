"""Round-synchronous simulator for the zeroth-order feedback protocol.

Each round every agent, in lockstep: samples a feasibility-constrained
Gaussian perturbation, takes the two signed perturbed actions (all agents
synchronously), observes its own local cost twice, forms the difference
quotient, merges the info tables received from neighbors (sent at the end of
the previous round), sends its post-merge table, assembles its gradient block
from the freshest quotients paired with its own stored perturbations, and
performs a projected step on the shrunken feasible set.  When the delay
model is loss-free, the merged tables are known in closed form (each entry
is its hop distance old once heard), so they are written directly and no
table is gossiped.

The engine is vectorized across agents: all per-agent quantities live in
the problem's ``(n, d_max)`` block layout (rows zero-padded past each agent's
dimension), and each of the problem's set groups (agents whose feasible sets
are equal) is processed in one batched geometry call.

Randomness is drawn from per-agent streams keyed by ``(master seed, purpose,
agent id)``, so traces are a pure function of ``(config, seed)`` and do not
depend on scheduling or on table mode.  Diagnostic metrics (global cost,
optimality gap, gradient norms) use centralized information that no agent
sees; they never feed back into the protocol.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .agents import MAX_ROUNDS, SwarmTables, max_lag
from .errors import (
    AssumptionViolation, ConfigurationError, DomainError, OracleError, ProtocolViolation,
    require_count, require_flag, require_number, require_positive,
)
from .geometry import DEFAULT_TOL, SampleStats, constrain_perturbation_batch, row_summer
from .network import (
    CommGraph, DelayModel, NoDelay, check_compatibility, dependence_mask, require_connected,
    shortest_path_lengths,
)
from .planner import analysed_smoothing_range, averaged_rounds, in_analysed_range
from .problems import MAX_COORDINATES, Problem

__all__ = [
    "RunConfig",
    "RoundView",
    "RunTrace",
    "run",
    "metrics_snapshot",
    "write_trace_csv",
    "summary_dict",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("t", "f", "gap", "grad_sq", "stale_max", "feasible", "fallbacks")

_STEP_BOUND_TOL = 1e-9

# Stream purposes: every generator is seeded by (master seed, purpose, index).
_PURPOSE_PERTURBATION = 0
_PURPOSE_NOISE = 1
_PURPOSE_NETWORK = 2

# Floats of raw Gaussian draws materialized per refill: the perturbation
# block (rounds, n, d_max) and, under noise, the noise block (rounds, 2, n).
# A cap in floats, not rounds, keeps the blocks at 1 MiB however many agents
# a run has.  Each agent's streams are consumed in round order whatever the
# block size, so it decides when draws are made, never which.
_BLOCK_FLOATS = 1 << 17

# Floats of the states owed a gradient norm, settled in one stacked call.  A
# cap in floats, not rounds, keeps the buffer and the stacked call's
# temporaries small when a state is large.
_OWED_FLOATS = 4096

# Plain Python type of each scalar option's annotation (RunConfig.describe).
_PLAIN = {"float": float, "int": int, "str": str, "bool": bool}


def _stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(purpose), int(index)]))


@dataclass
class RunConfig:
    """Everything one simulated run needs.

    ``mode`` selects the estimator: ``"full"`` sums every tracked column,
    ``"dependence"`` sums only the columns of costs the agent actually
    affects (requires the problem to carry dependence sets, which the run
    judges with `network.dependence_mask` before it starts).
    ``reduced_tables`` additionally stops tracking and forwarding the other
    columns: the tables track exactly the sets' mask, so a column outside
    it is never heard and assembly needs no second mask.  This is sound
    only when the graph is compatible with the dependence sets; the run
    refuses to start otherwise.

    ``seed`` is the master seed of every random stream.  ``metric_every``
    sets the cadence of the trace rows: round 0, every ``metric_every``
    rounds, and the last round, whose row gives the final cost, gap and
    gradient norm.  ``probe`` receives the engine's round state after every
    round (see `RoundView`).  ``strict_staleness`` turns a measured extra
    delay above the delay model's declared bound into an abort instead of
    a flagged summary.  ``history_slack`` sets the capacity of the quotient
    and perturbation rings to the staleness bound plus the slack; a table
    entry older than that aborts the run with ``ProtocolViolation``.
    ``track_gradients=False`` turns off ``grad_sq_mean_ergodic``; otherwise
    the run keeps the states it owes a norm and settles them in blocks, one
    stacked ``grad`` call each, adding the norms in round order.

    The fields annotated ``float``, ``int``, ``str`` or ``bool`` are the
    scalar run options: the config parser reads them, with these
    defaults, and ``describe`` reports them.
    """

    problem: Problem
    graph: CommGraph
    eta: float
    u: float
    horizon: int
    delta: float = 0.0
    sigma: float = 0.0
    mode: str = "full"
    reduced_tables: bool = False
    delay: DelayModel = field(default_factory=NoDelay)
    seed: int = 0
    metric_every: int = 100
    x0: np.ndarray | None = None
    strict_staleness: bool = False
    history_slack: int = 32
    track_gradients: bool = True
    probe: Callable[["RoundView"], None] | None = None
    echo: dict | None = None  # round-trippable source config, echoed in summaries

    def describe(self) -> dict:
        """Best-effort JSON-able description (used when no echo is attached):
        the problem, dims, graph and delay, then every scalar option."""
        return {
            "problem": self.problem.name,
            "dims": [int(d) for d in self.problem.dims],
            "graph": {"n": self.graph.n, "edges": [[i + 1, j + 1] for i, j in self.graph.edges]},
            "delay": repr(self.delay),
            **{
                f.name: _PLAIN[f.type](getattr(self, f.name))
                for f in fields(self)
                if f.type in _PLAIN
            },
        }


@dataclass
class RunTrace:
    """Outputs of one run: cadence rows plus ergodic and protocol summaries."""

    rows: list[dict]
    x_final: np.ndarray
    x_ergodic: np.ndarray
    f_final: float
    f_ergodic: float
    gap_final: float | None
    gap_ergodic: float | None
    grad_sq_final: float | None
    grad_sq_mean_ergodic: float | None
    samples: int
    stale_max_overall: int
    delta_hat: int
    assumption_clean: bool
    staleness_bound: int
    feasibility_checks: int
    feasibility_violations: int
    cap_projections: int
    fallback_projections: int
    step_bound_max_excess: float
    payload_columns: list[int]
    payload_floats_per_round: int
    wall_time: float
    seed: int
    notes: tuple[str, ...]


def _finite_difference_gradient(problem: Problem, flat: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(flat)
    probe = flat.copy()
    for k in range(flat.size):
        probe[k] = flat[k] + step
        hi = problem.global_cost(probe)
        probe[k] = flat[k] - step
        lo = problem.global_cost(probe)
        probe[k] = flat[k]
        grad[k] = (hi - lo) / (2.0 * step)
    return grad


def metrics_snapshot(
    problem: Problem,
    flat: np.ndarray,
    t: int,
    delta: float = 0.0,
    u: float | None = None,
    z_flat: np.ndarray | None = None,
) -> dict:
    """Centralized diagnostics at one state: cost, gap, gradient, feasibility.

    The feasibility flag asserts ``x`` lies in every agent's shrunken set
    and, when ``u`` and ``z_flat`` are given (both or neither), that both
    signed perturbed actions are feasible in the unshrunken sets, all at
    the guard's `DEFAULT_TOL`.  Uses the analytic gradient when available,
    otherwise central finite differences (step 1e-5) with the estimate flagged.
    `run` computes its cadence rows' other fields the same way, and takes
    their ``feasible`` from the guard that passed the round.
    """
    if (u is None) != (z_flat is None):
        raise ConfigurationError("checking the signed actions needs both u and z_flat")
    flat = np.asarray(flat, dtype=float)
    x = problem.blocks(flat)
    signed = None if u is None else x + problem.blocks(z_flat) * np.array([[[u]], [[-u]]])
    row = _diagnostics(problem, flat, t)
    shrunk = [g.set.shrink(delta) for g in problem.groups]
    row["feasible"] = problem.first_infeasible(x, shrunk, signed) is None
    return row


def _diagnostics(problem: Problem, flat: np.ndarray, t: int) -> dict:
    """A trace row's cost, gap and gradient fields at the state `flat`."""
    f_value = problem.global_cost(flat)
    gap = None if problem.f_star is None else f_value - problem.f_star
    if problem.grad is not None:
        grad = problem.grad(flat)
        estimated = False
    else:
        grad = _finite_difference_gradient(problem, flat)
        estimated = True
    return {
        "t": int(t),
        "f": float(f_value),
        "gap": None if gap is None else float(gap),
        "grad_sq": float(np.dot(grad, grad)),
        "grad_estimated": estimated,
    }


def _validate(config: RunConfig) -> None:
    p, g = config.problem, config.graph
    if p.total_dim > MAX_COORDINATES:
        raise ConfigurationError(
            f"problem with n = {p.n} and D = {p.total_dim} coordinates exceeds the "
            f"ceiling of {MAX_COORDINATES} coordinates (problems.MAX_COORDINATES)"
        )
    if p.n != g.n:
        raise ConfigurationError(f"problem has {p.n} agents but the graph has {g.n} nodes")
    validate_options(config)
    if config.mode == "dependence" and p.affected is None:
        raise ConfigurationError("dependence mode needs the problem's dependence sets")


def validate_options(config) -> None:
    """The checks of `run` that read only the scalar run options, here the
    attributes of `config` (a `RunConfig`, or a namespace of the parsed
    options), so that a config parser makes them before it builds the
    problem and the graph.  Each option is a number, a count or a flag by
    the input rule of `errors.py`, and then in its range."""
    require_positive("smoothing radius u", config.u)
    require_positive("step size eta", config.eta, allow_zero=True)
    require_positive("noise level sigma", config.sigma, allow_zero=True)
    if not (0.0 <= require_number("shrinkage factor delta", config.delta) < 1.0):
        raise ConfigurationError(f"shrinkage factor delta must lie in [0, 1), got {config.delta}")
    for name, low in (("horizon", 0), ("seed", 0), ("metric_every", 1), ("history_slack", 1)):
        require_count(name, getattr(config, name), low)
    for name in ("reduced_tables", "strict_staleness", "track_gradients"):
        require_flag(name, getattr(config, name))
    if config.mode not in ("full", "dependence"):
        raise ConfigurationError(f"mode must be 'full' or 'dependence', got {config.mode!r}")
    if config.horizon >= MAX_ROUNDS:
        raise ConfigurationError(
            f"horizon must be below 2**30 = {MAX_ROUNDS} (table stamps are at most int32), "
            f"got {config.horizon}"
        )
    if config.reduced_tables and config.mode != "dependence":
        raise ConfigurationError("reduced_tables requires dependence mode")


class RoundView:
    """The engine's round state, advanced a round at a time by its phases and
    handed to the probe after each round's step.  Its public fields, named in
    ``FIELDS``: the round ``t``; the states ``x`` before and ``x_next`` after
    the step and the perturbations ``z``, all ``(n, d_max)`` blocks (``z`` may
    be a read-only view of the round's raw draws); each agent's costs
    ``f_plus`` at ``x + u z`` and ``f_minus`` at ``x - u z`` and its
    ``quotients``; the ``tables``, whose entry ages are ``tables.staleness(t)``;
    the assembled ``gradient`` blocks; the agents' ``dims`` and the blocks'
    ``dim_mask``.  One object serves the whole run and its fields are rebound
    every round: every field is working storage, so copy anything you keep.
    Every attribute lives in a slot, so a probe cannot add one.  The phases
    look module globals and methods up at each call, so a patched or traced
    one applies."""

    FIELDS = ("t", "x", "z", "f_plus", "f_minus", "quotients", "tables", "gradient", "x_next",
              "dims", "dim_mask")
    __slots__ = FIELDS + (
        "_config", "_problem", "_eta", "_u", "_horizon", "_metric_every", "_use_mask",
        "_declared_delta", "_bound", "_neighbors", "_gossip", "_shrunk", "_perturb_gens",
        "_noise_gens", "_net_gen", "_block_rounds", "_zhat", "_draws", "_noise", "_bi", "_stats",
        "_signs_u", "_signed", "_x_acc", "_owed", "_owed_count", "_stale_now", "_stale_max",
        "_delta_hat", "_grad_sq_acc", "_step_excess", "_flat", "_norm_sums", "_notes", "_rows",
    )

    def __init__(self, config: RunConfig):
        problem, graph = config.problem, config.graph
        n, d_max = problem.n, problem.d_max
        self._config, self._problem = config, problem
        self.dims = np.asarray(problem.dims, dtype=np.int64)
        self.dim_mask = problem.dim_mask
        self._eta, self._u, delta = config.eta, config.u, config.delta
        self._horizon, self._metric_every = int(config.horizon), config.metric_every
        self._notes: list[str] = []

        # A tracked entry (i, j) is at most its hop distance old plus the extra
        # delay, so the staleness bound is the largest tracked distance plus the
        # declared extra delay.  Reduced tables relay column j only through its
        # trackers, so their distances are taken inside each column's trackers.
        # Agent i's block of the gradient of f needs the costs i affects, A_i:
        # full tables hear every column and assembly masks them by A_i, while
        # reduced tables track only A_i, and an entry never heard sums nothing.
        self._use_mask = None
        if config.reduced_tables:
            require_connected(graph)
            report = check_compatibility(graph, problem.affected)
            if not report.compatible:
                raise ConfigurationError(
                    "reduced tables need a graph compatible with the dependence sets; "
                    f"blocking (tracker, non-tracker, column) triples: {report.witnesses[:5]}"
                )
            tracked, distances = report.tracked, report.distances
        else:
            tracked, distances = np.ones((n, n), dtype=bool), shortest_path_lengths(graph)
            if config.mode == "dependence":
                self._use_mask = dependence_mask(problem.affected, n)
        self._declared_delta = int(config.delay.declared_delta)
        self._bound = max_lag(distances, tracked) + self._declared_delta
        averaged_rounds(self._horizon, self._bound)  # refuses an empty window before the tables
        headroom = self._declared_delta + int(config.history_slack)
        self.tables = SwarmTables(
            n, tracked, headroom, d_max, distances, config.delay.lossless, self._horizon
        )
        # neighbours padded with the agent itself; a lone agent has none to hear
        self._neighbors = graph.neighbor_matrix()
        self._gossip = not self.tables.lossless and n > 1

        self._shrunk = [g.set.shrink(delta) for g in problem.groups]  # one per group
        inner_radius = problem.inner_radius()
        if inner_radius is not None:
            bound = analysed_smoothing_range(delta, inner_radius, problem.total_dim)
            if not in_analysed_range(self._u, bound):
                self._notes.append(
                    f"smoothing radius u = {self._u} exceeds the analyzed range "
                    f"delta * inner_radius / (3 sqrt(d)) = {bound}; "
                    "convergence guarantees may not apply"
                )

        seed, noisy = config.seed, config.sigma > 0
        self._perturb_gens = [_stream(seed, _PURPOSE_PERTURBATION, i) for i in range(n)]
        self._noise_gens = [_stream(seed, _PURPOSE_NOISE, i) for i in range(n)] if noisy else None
        self._net_gen = _stream(seed, _PURPOSE_NETWORK, 0)
        round_floats = n * d_max + (2 * n if noisy else 0)
        self._block_rounds = min(self._horizon + 1, max(1, _BLOCK_FLOATS // round_floats))
        self._zhat = np.zeros((self._block_rounds, n, d_max))
        # what the samplers see: a read-only view, so a draw handed back is unchanged
        self._draws = self._zhat.view()
        self._draws.flags.writeable = False
        self._noise = np.zeros((self._block_rounds, 2, n)) if noisy else None  # sigma-scaled

        try:
            x = problem.blocks(np.zeros(problem.total_dim) if config.x0 is None else config.x0)
        except ConfigurationError as exc:
            raise ConfigurationError(f"x0: {exc}") from None
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise ConfigurationError(f"x0: agent {int(np.argmin(finite)) + 1} has a non-finite entry")
        self.x = problem.project_blocks(x, self._shrunk)
        moved = np.linalg.norm(self.x - x, axis=1)  # membership's ||y - P(y)||, per agent
        for i in np.flatnonzero(moved > DEFAULT_TOL)[:1]:  # the first agent outside
            self._notes.append(
                f"initial point was projected into the shrunken feasible set "
                f"(agent {i + 1} moved {moved[i]:.3e})"
            )
        if problem.grad is None:
            self._notes.append("no analytic gradient available; cadence rows use finite differences")

        self._stats = SampleStats()
        self._signs_u = np.array([[[self._u]], [[-self._u]]])  # x + z * signs_u: (x + u z, x - u z)
        self._x_acc = np.zeros(problem.total_dim)
        track_grad = config.track_gradients and problem.grad is not None
        owed_rows = max(1, _OWED_FLOATS // problem.total_dim)
        self._owed = np.empty((owed_rows, problem.total_dim)) if track_grad else None
        self._owed_count = self._stale_max = self._delta_hat = 0
        self._grad_sq_acc = self._step_excess = 0.0
        # the step bound sums the squares of 2n rows of d_max
        self._norm_sums = row_summer(2 * n, d_max)
        self._rows: list[dict] = []

    def sample(self) -> None:
        """(1) Constrained Gaussian perturbations, from draws made in blocks of
        rounds.  The signed actions of the raw draws, x ± u z as (2, n, d_max),
        are stacked once for the samplers, the guard and `observe`.  When every
        group hands back the very draw it was given, `z` is the round's
        read-only draw block; otherwise `z` is a copy holding the returned
        rows, and the stack's rows of each such group are rebuilt from them."""
        t, x = self.t, self.x
        self._bi = bi = t % self._block_rounds
        if bi == 0:
            count = min(self._block_rounds, self._horizon + 1 - t)
            for i, d in enumerate(self.dims):
                self._zhat[:count, i, :d] = self._perturb_gens[i].standard_normal((count, d))
                if self._noise is not None:
                    draws = self._noise_gens[i].standard_normal((count, 2))
                    self._noise[:count, :, i] = self._config.sigma * draws
        raw, u, stats, signs_u = self._draws[bi], self._u, self._stats, self._signs_u
        self._signed = signed = x + raw * signs_u
        z = raw
        for g in self._problem.groups:
            draw = raw[g.index]
            if draw.flags.writeable:  # a gathered copy; views of raw are read-only
                draw.flags.writeable = False
            try:
                got = constrain_perturbation_batch(
                    g.set, x[g.index], draw, u, stats, signed=signed[g.signed_index]
                )
            except DomainError:  # a member's x lies outside its set: name the first
                agent = self._problem.first_infeasible(x)
                raise DomainError(
                    f"agent {agent + 1} is outside its feasible set at round {t}, "
                    "so no perturbation can be sampled there"
                ) from None
            if got is not draw:
                if z is raw:
                    z = raw.copy()
                z[g.index] = got
                signed[g.signed_index] = x[g.index] + got * signs_u
        self.z = z

    def guard(self) -> None:
        """Hard constraints: the state and both signed actions are feasible."""
        agent = self._problem.first_infeasible(self.x, self._shrunk, self._signed)
        if agent is not None:
            t = self.t
            raise DomainError(f"agent {agent + 1} would act outside its feasible set at round {t}")

    def observe(self) -> None:
        """(2)-(4) Every agent observes its cost at both signed actions, in one
        stacked call (row 0 at x + u z), and forms its difference quotient."""
        problem = self._problem
        costs = np.asarray(problem.local_costs(problem.flat(self._signed)), dtype=float)
        if self._noise is not None:
            costs = costs + self._noise[self._bi]
        f_plus, f_minus = costs
        self.f_plus, self.f_minus = f_plus, f_minus
        self.quotients = quotients = (f_plus - f_minus) / (2.0 * self._u)
        if not np.logical_and.reduce(np.isfinite(quotients)):
            bad = int(np.argmin(np.isfinite(quotients))) + 1
            raise AssumptionViolation(f"agent {bad} observed a non-finite cost at round {self.t}")

    def exchange(self) -> None:
        """(5)-(6) Merge the tables neighbours sent last round, then stamp the own
        entries; with no message lost, `record_own` writes them in closed form."""
        t, tables = self.t, self.tables
        if self._gossip and t > 0:
            drop = self._config.delay.drop_mask(self._net_gen, self._neighbors.shape)
            tables.merge_from(tables.stamps, self._neighbors, drop)
        tables.record_own(t, self.quotients, self.z)
        self._stale_now, extra = tables.ages()
        if extra > self._delta_hat:
            self._delta_hat = extra
            if self._config.strict_staleness and extra > self._declared_delta:
                raise ProtocolViolation(
                    f"measured extra staleness {extra} exceeds the declared bound "
                    f"{self._declared_delta} at round {t}"
                )
        self._stale_max = max(self._stale_max, self._stale_now)

    def step(self) -> None:
        """(7) Assemble the gradient blocks and take the projected step."""
        x, eta, n = self.x, self._eta, len(self.x)
        self.gradient = gradient = self.tables.assemble(self._use_mask)
        self.x_next = x_next = self._problem.project_blocks(x - eta * gradient, self._shrunk)
        # row norms of the step and of the gradient, in one pass
        pair = np.concatenate((x_next - x, gradient))
        norms = np.sqrt(self._norm_sums(pair * pair, 1))
        excess = float(np.maximum.reduce(norms[:n] - eta * norms[n:], initial=0.0))
        self._step_excess = max(self._step_excess, excess)
        # the bound scales with max(1, |x|): below the plain tolerance it cannot be
        # crossed; a NaN excess (an overflowed step and gradient) passes neither test
        if not excess <= _STEP_BOUND_TOL and not excess <= _STEP_BOUND_TOL * max(
            1.0, float(np.abs(x).max(initial=0.0))
        ):
            raise OracleError(
                f"projected step moved farther than the step bound allows at round {self.t} "
                f"(excess {excess:.3e}); projection output is not certified"
            )

    def account(self) -> None:
        """Ergodic sums over the rounds t >= B, and the cadence rows."""
        t, problem = self.t, self._problem
        self._flat = flat = problem.flat(self.x)
        if t >= self._bound:
            self._x_acc += flat
            owed = self._owed
            if owed is not None:
                owed[self._owed_count] = flat
                self._owed_count += 1
                if self._owed_count == len(owed):
                    self._settle()
        if t % self._metric_every == 0 or t == self._horizon:
            row = _diagnostics(problem, flat, t)
            row["feasible"] = True  # the guard passed this round's state and signed actions
            row["stale_max"] = self._stale_now
            row["fallbacks"] = self._stats.fallbacks
            self._rows.append(row)

    def _settle(self) -> None:
        """Add ‖∇f‖² at each owed state in round order: one stacked gradient
        call, then each (C-contiguous) row's dot product as the one-vector call's."""
        acc = self._grad_sq_acc
        for g in np.ascontiguousarray(self._problem.grad(self._owed[: self._owed_count])):
            acc += float(np.dot(g, g))
        self._grad_sq_acc, self._owed_count = acc, 0

    def trace(self, started: float) -> RunTrace:
        """The run's outputs after its last round.  That round is a cadence
        row taken at the final state, so the final values are read off it."""
        problem, config = self._problem, self._config
        if self._owed_count:
            self._settle()
        samples = averaged_rounds(self._horizon, self._bound)
        x_ergodic = self._x_acc / samples
        f_ergodic = problem.global_cost(x_ergodic)
        last = self._rows[-1]
        columns = self.tables.tracked.sum(axis=1)
        degrees = np.array([config.graph.degree(i) for i in range(problem.n)])
        return RunTrace(
            rows=self._rows,
            x_final=self._flat.copy(),
            x_ergodic=x_ergodic,
            f_final=last["f"],
            f_ergodic=float(f_ergodic),
            gap_final=last["gap"],
            gap_ergodic=None if problem.f_star is None else f_ergodic - problem.f_star,
            grad_sq_final=None if problem.grad is None else last["grad_sq"],
            grad_sq_mean_ergodic=None if self._owed is None else self._grad_sq_acc / samples,
            samples=samples,
            stale_max_overall=self._stale_max,
            delta_hat=self._delta_hat,
            assumption_clean=self._delta_hat <= self._declared_delta,
            staleness_bound=self._bound,
            feasibility_checks=self._horizon + 1,  # the guard raises: every round passed one
            feasibility_violations=0,
            cap_projections=self._stats.projections,
            fallback_projections=self._stats.fallbacks,
            step_bound_max_excess=self._step_excess,
            payload_columns=[int(c) for c in columns],
            payload_floats_per_round=2 * int(degrees @ columns),
            wall_time=time.perf_counter() - started,
            seed=int(config.seed),
            notes=tuple(self._notes),
        )


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run and return its trace.

    Each round runs the phases of one state object in order (sample, guard,
    observe, exchange, step, account), then hands it to the probe.

    Aborts with ``DomainError`` if any round would take an infeasible action
    (hard-constraint model), ``AssumptionViolation`` on a non-finite cost,
    and ``ProtocolViolation`` if a quotient's generation round has left the
    perturbation history window (the staleness bound plus slack was exceeded).
    """
    started = time.perf_counter()
    _validate(config)
    state = RoundView(config)
    probe = config.probe
    for t in range(state._horizon + 1):
        state.t = t
        state.sample()
        state.guard()
        state.observe()
        state.exchange()
        state.step()
        state.account()
        if probe is not None:
            probe(state)
        state.x = state.x_next
    return state.trace(started)


def write_trace_csv(trace: RunTrace, path) -> None:
    """Write the cadence rows as CSV with the documented column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace.rows:
            writer.writerow(
                [
                    row["t"],
                    repr(row["f"]),
                    "" if row["gap"] is None else repr(row["gap"]),
                    repr(row["grad_sq"]),
                    row["stale_max"],
                    int(row["feasible"]),
                    row["fallbacks"],
                ]
            )


def summary_dict(trace: RunTrace, config: RunConfig) -> dict:
    """JSON-able run summary: ergodic outputs, protocol health, config echo."""
    return {
        "version": 1,
        "seed": trace.seed,
        "samples": trace.samples,
        "f_final": trace.f_final,
        "f_ergodic": trace.f_ergodic,
        "gap_final": trace.gap_final,
        "gap_ergodic": trace.gap_ergodic,
        "grad_sq_final": trace.grad_sq_final,
        "grad_sq_mean_ergodic": trace.grad_sq_mean_ergodic,
        "x_final": [float(v) for v in trace.x_final],
        "x_ergodic": [float(v) for v in trace.x_ergodic],
        "staleness": {
            "bound": trace.staleness_bound,
            "max_observed": trace.stale_max_overall,
            "extra_observed": trace.delta_hat,
            "assumption_clean": trace.assumption_clean,
        },
        "feasibility": {
            "checks": trace.feasibility_checks,
            "violations": trace.feasibility_violations,
        },
        "projections": {
            "cap": trace.cap_projections,
            "fallbacks": trace.fallback_projections,
        },
        "step_bound_max_excess": trace.step_bound_max_excess,
        "payload": {
            "columns_per_agent": trace.payload_columns,
            "floats_per_round": trace.payload_floats_per_round,
        },
        "wall_time": trace.wall_time,
        "notes": list(trace.notes),
        "config": config.echo if config.echo is not None else config.describe(),
    }
