"""Round-synchronous simulator for the zeroth-order feedback protocol.

Each round every agent, in lockstep: samples a feasibility-constrained
Gaussian perturbation, takes the two signed perturbed actions (all agents
synchronously), observes its own local cost twice, forms the difference
quotient, merges the info tables received from neighbors (sent at the end of
the previous round), sends its post-merge table, assembles its gradient block
from the freshest quotients paired with its own stored perturbations, and
performs a projected step on the shrunken feasible set.

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

from .agents import MAX_ROUNDS, SwarmTables
from .errors import AssumptionViolation, ConfigurationError, DomainError, OracleError, ProtocolViolation
from .geometry import SampleStats, constrain_perturbation_batch
from .network import CommGraph, DelayModel, NoDelay, check_compatibility, shortest_path_lengths
from .problems import Problem

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

_FEASIBILITY_TOL = 1e-9
_STEP_BOUND_TOL = 1e-9

# Stream purposes: every generator is seeded by (master seed, purpose, index).
_PURPOSE_PERTURBATION = 0
_PURPOSE_NOISE = 1
_PURPOSE_NETWORK = 2

# Rounds of raw Gaussian draws materialized per refill.
_BLOCK_ROUNDS = 2048

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
    affects (requires the problem to carry dependence sets).
    ``reduced_tables`` additionally stops tracking and forwarding the other
    columns, which is sound only when the graph is compatible with the
    dependence sets; the run refuses to start otherwise.

    ``seed`` is the master seed of every random stream.  ``metric_every``
    sets the cadence of the trace rows (round 0, every ``metric_every``
    rounds, and the last round).  ``strict_staleness`` turns a measured
    extra delay above the delay model's declared bound into an abort
    instead of a flagged summary.  ``history_slack`` sets the capacity of
    the quotient and perturbation rings to the staleness bound plus the
    slack; a table entry older than that aborts the run with
    ``ProtocolViolation``.  ``track_gradients=False`` turns off the
    per-round ``‖∇f‖²`` accumulation behind ``grad_sq_mean_ergodic``; the
    run keeps the states it owes a norm and settles them in blocks, one
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
class RoundView:
    """Live references handed to a probe after the merge/assemble phase.

    Arrays are the engine's working storage: copy anything you keep.
    ``x`` is the round's pre-step state; ``x_next`` the post-step state.
    The age of every table entry is ``tables.staleness(t)``.
    """

    t: int
    x: np.ndarray
    z: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    quotients: np.ndarray
    tables: SwarmTables
    gradient: np.ndarray
    x_next: np.ndarray
    dims: np.ndarray
    dim_mask: np.ndarray


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
        hi = problem.global_cost(probe, check=False)
        probe[k] = flat[k] - step
        lo = problem.global_cost(probe, check=False)
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
    fd_step: float = 1e-5,
) -> dict:
    """Centralized diagnostics at one state: cost, gap, gradient, feasibility.

    The feasibility flag asserts ``x`` lies in every agent's shrunken set
    and, when ``u`` and ``z_flat`` are given, that both signed perturbed
    actions are feasible in the unshrunken sets (tolerance 1e-9).  Uses the
    problem's analytic gradient when available, otherwise central finite
    differences at ``fd_step`` with the estimate flagged.
    """
    flat = np.asarray(flat, dtype=float)
    f_value = problem.global_cost(flat, check=False)
    gap = None if problem.f_star is None else f_value - problem.f_star
    if problem.grad is not None:
        grad = problem.grad(flat)
        estimated = False
    else:
        grad = _finite_difference_gradient(problem, flat, fd_step)
        estimated = True
    x = problem.blocks(flat)
    signed = None
    if z_flat is not None and u is not None:
        signed = x + problem.blocks(z_flat) * np.array([[[u]], [[-u]]])
    shrunk = [(g, g.set.shrink(delta)) for g in problem.groups]
    feasible = _first_infeasible(shrunk, x, signed) is None
    return {
        "t": int(t),
        "f": float(f_value),
        "gap": None if gap is None else float(gap),
        "grad_sq": float(np.dot(grad, grad)),
        "grad_estimated": estimated,
        "feasible": bool(feasible),
    }


def _first_infeasible(shrunk, x: np.ndarray, signed: np.ndarray | None) -> int | None:
    """The first agent (0-based; groups in order, then members) whose state
    in `x` leaves its shrunken set or, when `signed` holds the stacked
    `(x + u z, x - u z)`, whose signed actions leave its set; None when
    every agent is feasible.  `shrunk` pairs each set group with its
    shrunken set.  `contains_all` clears a group whose points are all
    inside; the per-row verdicts run only for the others."""
    for g, shrunk_set in shrunk:
        if shrunk_set.contains_all(x[g.index], _FEASIBILITY_TOL) and (
            signed is None or g.set.contains_all(signed[g.signed_index], _FEASIBILITY_TOL)
        ):
            continue
        ok = shrunk_set.contains_batch(x[g.index], _FEASIBILITY_TOL)
        if signed is not None:
            ok_signed = g.set.contains_batch(
                signed[g.signed_index].reshape(-1, g.dim), _FEASIBILITY_TOL
            )
            ok = ok & ok_signed.reshape(2, -1).all(axis=0)
        if not ok.all():
            return int(g.members[int(np.argmax(~ok))])
    return None


def _add_grad_sq(problem: Problem, states: np.ndarray, acc: float) -> float:
    """`acc` plus ‖∇f‖² at each row of `states`, added in row order: one
    stacked gradient call, then each row's dot product as the one-vector
    call's (on C-contiguous rows, which `np.dot` rounds alike)."""
    for g in np.ascontiguousarray(problem.grad(states)):
        acc += float(np.dot(g, g))
    return acc


def _validate(config: RunConfig) -> None:
    p, g = config.problem, config.graph
    if p.n != g.n:
        raise ConfigurationError(f"problem has {p.n} agents but the graph has {g.n} nodes")
    if config.u <= 0:
        raise ConfigurationError(f"smoothing radius u must be > 0, got {config.u}")
    if config.eta < 0:
        raise ConfigurationError(f"step size eta must be >= 0, got {config.eta}")
    if not (0.0 <= config.delta < 1.0):
        raise ConfigurationError(f"shrinkage factor delta must lie in [0, 1), got {config.delta}")
    if config.sigma < 0:
        raise ConfigurationError(f"noise level sigma must be >= 0, got {config.sigma}")
    if config.mode not in ("full", "dependence"):
        raise ConfigurationError(f"mode must be 'full' or 'dependence', got {config.mode!r}")
    if config.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {config.seed}")
    if config.metric_every < 1:
        raise ConfigurationError("metric_every must be >= 1")
    if config.history_slack < 1:
        raise ConfigurationError("history_slack must be >= 1")
    if int(config.horizon) != config.horizon or config.horizon < 0:
        raise ConfigurationError(f"horizon must be a non-negative integer, got {config.horizon}")
    if config.horizon >= MAX_ROUNDS:
        raise ConfigurationError(
            f"horizon must be below 2**30 = {MAX_ROUNDS} (table stamps are int32), "
            f"got {config.horizon}"
        )
    if config.mode == "dependence" and p.affected is None:
        raise ConfigurationError("dependence mode needs the problem's dependence sets")
    if config.reduced_tables and config.mode != "dependence":
        raise ConfigurationError("reduced tables require dependence mode")


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run and return its trace.

    Aborts with ``DomainError`` if any round would take an infeasible action
    (hard-constraint model), ``AssumptionViolation`` on a non-finite cost,
    and ``ProtocolViolation`` if a quotient's generation round has left the
    perturbation history window (the staleness bound plus slack was exceeded).
    """
    started = time.perf_counter()
    _validate(config)
    problem, graph = config.problem, config.graph
    n, d_max = problem.n, problem.d_max
    dims = np.asarray(problem.dims, dtype=np.int64)
    eta, u, delta, sigma = config.eta, config.u, config.delta, config.sigma
    horizon = int(config.horizon)
    notes: list[str] = []

    # --- estimator masks and tables ---------------------------------------
    # A tracked entry (i, j) is at most its hop distance old plus the extra
    # delay.  Reduced tables relay column j only through its trackers, so
    # their distances are taken inside each column's tracker subgraph.
    distances = shortest_path_lengths(graph)
    aff_mask = None
    if config.mode == "dependence":
        # agent i's block of the gradient of f needs the costs i affects, A_i
        aff_mask = np.zeros((n, n), dtype=bool)
        for i, costs in enumerate(problem.affected):
            aff_mask[i, list(costs)] = True
    if config.reduced_tables:
        report = check_compatibility(graph, problem.affected)
        if not report.compatible:
            raise ConfigurationError(
                "reduced tables need a graph compatible with the dependence sets; "
                f"blocking (tracker, non-tracker, column) triples: {report.witnesses[:5]}"
            )
        tracked = aff_mask.copy()
        np.fill_diagonal(tracked, True)
        distances = np.where(tracked, report.distances, distances)
    else:
        tracked = np.ones((n, n), dtype=bool)
    declared_delta = int(config.delay.declared_delta)
    staleness_bound = int(distances.max()) + declared_delta
    if horizon < staleness_bound:
        raise ConfigurationError(
            f"horizon {horizon} is below the staleness bound {staleness_bound}; "
            "no round would enter the ergodic window"
        )

    # --- each set group with its shrunken set --------------------------------
    shrunk = [(g, g.set.shrink(delta)) for g in problem.groups]

    inner_radii = [g.set.inner_radius() for g in problem.groups]
    if all(np.isfinite(r) for r in inner_radii):
        hypothesis = delta * min(inner_radii) / (3.0 * np.sqrt(problem.total_dim))
        if u > hypothesis:
            notes.append(
                f"smoothing radius u = {u} exceeds the analyzed range "
                f"delta * inner_radius / (3 sqrt(d)) = {hypothesis}; "
                "convergence guarantees may not apply"
            )

    cap = staleness_bound + int(config.history_slack)
    swarm = SwarmTables(n, tracked, cap, d_max)
    use_mask = aff_mask if config.mode == "dependence" else None

    # --- neighbor matrix (rows padded with the agent itself) --------------
    max_deg = max(graph.degree(i) for i in range(n))
    neighbor_matrix = graph.neighbor_matrix()

    # --- random streams -----------------------------------------------------
    perturb_gens = [_stream(config.seed, _PURPOSE_PERTURBATION, i) for i in range(n)]
    noise_gens = (
        [_stream(config.seed, _PURPOSE_NOISE, i) for i in range(n)] if sigma > 0 else None
    )
    net_gen = _stream(config.seed, _PURPOSE_NETWORK, 0)
    block_rounds = min(horizon + 1, _BLOCK_ROUNDS)
    zhat_block = np.zeros((block_rounds, n, d_max))
    noise_block = np.zeros((block_rounds, 2, n)) if sigma > 0 else None

    def refill(start: int) -> None:
        count = min(block_rounds, horizon + 1 - start)
        for i in range(n):
            zhat_block[:count, i, : dims[i]] = perturb_gens[i].standard_normal((count, dims[i]))
            if noise_block is not None:
                noise_block[:count, :, i] = noise_gens[i].standard_normal((count, 2))

    # --- initial state -------------------------------------------------------
    x0 = np.zeros(problem.total_dim) if config.x0 is None else np.asarray(config.x0, dtype=float)
    if x0.shape != (problem.total_dim,):
        raise ConfigurationError(
            f"x0 must be a flat vector of length {problem.total_dim}, got shape {x0.shape}"
        )
    x = problem.blocks(x0)
    moved = 0.0
    for g, shrunk_set in shrunk:
        projected = shrunk_set.project_batch(x[g.index])
        moved = max(moved, float(np.abs(projected - x[g.index]).max(initial=0.0)))
        x[g.index] = projected
    if moved > _FEASIBILITY_TOL:
        notes.append(
            f"initial point was projected into the shrunken feasible set (moved {moved:.3e})"
        )

    # --- accumulators ---------------------------------------------------------
    stats = SampleStats()
    track_grad = config.track_gradients and problem.grad is not None
    x_acc = np.zeros(problem.total_dim)
    grad_sq_acc = 0.0
    owed_rows = max(1, _OWED_FLOATS // problem.total_dim)
    owed = np.empty((owed_rows, problem.total_dim)) if track_grad else None
    owed_count = 0
    samples = 0
    stale_max_overall = 0
    delta_hat = 0
    feasibility_checks = 0
    step_excess_max = 0.0
    rows_out: list[dict] = []
    x_final: np.ndarray | None = None
    prev_snapshot = None
    fd_noted = False

    # Staleness over tracked entries: the largest age t - stamp is t minus
    # the oldest stamp, and the largest extra delay (t - stamp) - distance is
    # t minus the smallest stamp + distance.  Untracked entries are pushed
    # out of the second minimum (the own column is always tracked); the sum
    # is written into a preallocated int32 buffer, so a round allocates no
    # table.
    extra_offsets = np.where(tracked, distances, MAX_ROUNDS).astype(np.int32)
    offset_stamps = np.empty((n, n), dtype=np.int32)

    signs_u = np.array([[[u]], [[-u]]])  # (x + u z, x - u z) = x + z * signs_u

    for t in range(horizon + 1):
        bi = t % block_rounds
        if bi == 0:
            refill(t)

        # (1) constrained Gaussian perturbations
        raw = zhat_block[bi]
        z = np.zeros((n, d_max))
        for g in problem.groups:
            z[g.index] = constrain_perturbation_batch(g.set, x[g.index], raw[g.index], u, stats)

        # hard-constraint checks: current state and both signed actions
        feasibility_checks += 1
        signed = x + z * signs_u  # (2, n, d_max): x + u z, then x - u z
        agent = _first_infeasible(shrunk, x, signed)
        if agent is not None:
            raise DomainError(f"agent {agent + 1} would act outside its feasible set at round {t}")

        # (2)-(3) synchronous signed actions; every agent observes its cost
        # at both, in one stacked call: row 0 at x + u z, row 1 at x - u z
        costs = np.asarray(problem.local_costs(problem.flat(signed), check=False), dtype=float)
        if sigma > 0:
            costs = costs + sigma * noise_block[bi]
        f_plus, f_minus = costs

        # (4) difference quotients, stamped with the current round
        quotients = (f_plus - f_minus) / (2.0 * u)
        if not np.isfinite(quotients).all():
            bad = int(np.argmin(np.isfinite(quotients))) + 1
            raise AssumptionViolation(f"agent {bad} observed a non-finite cost at round {t}")
        swarm.record_own(t, quotients, z)

        # (5) merge the tables neighbors sent at the end of the previous round
        if t > 0 and max_deg > 0:
            drop = config.delay.drop_mask(net_gen, (n, max_deg))
            swarm.merge_from(prev_snapshot, neighbor_matrix, drop)
        # (6) the post-merge snapshot is what everyone sends this round
        prev_snapshot = swarm.snapshot()

        oldest = swarm.oldest_stamp()
        stale_now = t - oldest
        stale_max_overall = max(stale_max_overall, stale_now)
        extra_now = t - int(np.add(swarm.stamps, extra_offsets, out=offset_stamps).min())
        if extra_now > delta_hat:
            delta_hat = extra_now
            if config.strict_staleness and delta_hat > declared_delta:
                raise ProtocolViolation(
                    f"measured extra staleness {delta_hat} exceeds the declared bound "
                    f"{declared_delta} at round {t}"
                )

        # (7) assemble gradient blocks and take the projected step
        gradient = swarm.assemble(use_mask, oldest)
        x_next = np.zeros((n, d_max))
        for g, shrunk_set in shrunk:
            x_next[g.index] = shrunk_set.project_batch(x[g.index] - eta * gradient[g.index])

        # row norms of the step and of the gradient, in one pass
        pair = np.concatenate((x_next - x, gradient))
        norms = np.sqrt((pair * pair).sum(axis=1))
        excess = float((norms[:n] - eta * norms[n:]).max(initial=0.0))
        step_excess_max = max(step_excess_max, excess)
        # the bound scales with max(1, |x|): below the plain tolerance it cannot be
        # crossed; a NaN excess (an overflowed step and gradient) passes neither test
        if not excess <= _STEP_BOUND_TOL and not excess <= _STEP_BOUND_TOL * max(
            1.0, float(np.abs(x).max(initial=0.0))
        ):
            raise OracleError(
                f"projected step moved farther than the step bound allows at round {t} "
                f"(excess {excess:.3e}); projection output is not certified"
            )

        flat = problem.flat(x)
        if t >= staleness_bound:
            x_acc += flat
            samples += 1
            if track_grad:
                owed[owed_count] = flat
                owed_count += 1
                if owed_count == owed_rows:
                    grad_sq_acc = _add_grad_sq(problem, owed, grad_sq_acc)
                    owed_count = 0

        if t == 0 or t % config.metric_every == 0 or t == horizon:
            row = metrics_snapshot(problem, flat, t, delta=delta, u=u, z_flat=problem.flat(z))
            if row["grad_estimated"] and not fd_noted:
                fd_noted = True
                notes.append(
                    "no analytic gradient available; cadence rows use finite differences"
                )
            row["stale_max"] = stale_now
            row["fallbacks"] = stats.fallbacks
            rows_out.append(row)
            if not row["feasible"]:
                raise DomainError(f"feasibility check failed at round {t}")

        if config.probe is not None:
            config.probe(
                RoundView(
                    t=t,
                    x=x,
                    z=z,
                    f_plus=f_plus,
                    f_minus=f_minus,
                    quotients=quotients,
                    tables=swarm,
                    gradient=gradient,
                    x_next=x_next,
                    dims=dims,
                    dim_mask=problem.dim_mask,
                )
            )

        if t == horizon:
            x_final = flat.copy()
        x = x_next

    if owed_count:
        grad_sq_acc = _add_grad_sq(problem, owed[:owed_count], grad_sq_acc)
    x_ergodic = x_acc / samples
    f_final = problem.global_cost(x_final, check=False)
    f_ergodic = problem.global_cost(x_ergodic, check=False)
    gap_final = None if problem.f_star is None else f_final - problem.f_star
    gap_ergodic = None if problem.f_star is None else f_ergodic - problem.f_star
    if problem.grad is not None:
        g_fin = problem.grad(x_final)
        grad_sq_final = float(np.dot(g_fin, g_fin))
    else:
        grad_sq_final = None

    payload_columns = [int(c) for c in tracked.sum(axis=1)]
    payload_floats = int(sum(graph.degree(i) * 2 * payload_columns[i] for i in range(n)))

    return RunTrace(
        rows=rows_out,
        x_final=x_final,
        x_ergodic=x_ergodic,
        f_final=float(f_final),
        f_ergodic=float(f_ergodic),
        gap_final=gap_final,
        gap_ergodic=gap_ergodic,
        grad_sq_final=grad_sq_final,
        grad_sq_mean_ergodic=(grad_sq_acc / samples) if track_grad else None,
        samples=samples,
        stale_max_overall=stale_max_overall,
        delta_hat=max(0, delta_hat),
        assumption_clean=max(0, delta_hat) <= declared_delta,
        staleness_bound=staleness_bound,
        feasibility_checks=feasibility_checks,
        feasibility_violations=0,
        cap_projections=stats.projections,
        fallback_projections=stats.fallbacks,
        step_bound_max_excess=step_excess_max,
        payload_columns=payload_columns,
        payload_floats_per_round=payload_floats,
        wall_time=time.perf_counter() - started,
        seed=int(config.seed),
        notes=tuple(notes),
    )


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
