"""Command-line interface.

Subcommands:
  run     execute one simulation from a JSON config; write trace CSV +
          summary JSON
  plan    compute certified parameters (eta, u, delta, horizon) for a
          target accuracy from a constants file
  stats   network statistics of an edge-list graph
  oracle  centralized reference solve of a configured problem
  sweep   repeat a run over many seeds, in parallel; write per-seed
          traces and an aggregate trajectory CSV over the seeds that
          finished; prints one line per seed as it finishes, with its
          run's wall time or its error; failed seeds are listed in
          failures.csv and the first one sets the exit code; files an
          earlier sweep left under these names are removed first

Exit codes: 0 success, 2 configuration error, 3 assumption/protocol
violation, 4 oracle non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np

from .config import OVERRIDES, SOLVE_TOL, apply_overrides, build_run_config, load_config
from .errors import AssumptionViolation, ConfigurationError, OracleError, ZfoError, require_count
from .network import CommGraph, network_stats
from .planner import REGIMES, ProblemConstants, plan, verify_plan
from .problems import centralized_solve
from .runner import run, summary_dict, write_trace_csv

def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, help="override step size")
    p.add_argument("--u", type=float, help="override smoothing radius")
    p.add_argument("--delta", type=float, help="override shrinkage factor")
    p.add_argument("--sigma", type=float, help="override observation noise level")
    p.add_argument("--horizon", type=int, help="override round count T")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--p-drop", type=float, dest="p_drop", help="override message drop probability")
    p.add_argument("--mode", choices=("full", "dependence"), help="override estimator mode")


def _collect_overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in OVERRIDES if getattr(args, k, None) is not None}


def _document(args: argparse.Namespace) -> dict:
    return apply_overrides(load_config(args.config), **_collect_overrides(args))


def _configure(args: argparse.Namespace):
    return build_run_config(_document(args))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config, _ = _configure(args)
    trace = run(config)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.csv")
    summary_path = os.path.join(args.out_dir, "summary.json")
    write_trace_csv(trace, trace_path)
    _write_json(summary_dict(trace, config), summary_path)
    gap = "n/a" if trace.gap_final is None else f"{trace.gap_final:.6g}"
    print(
        f"run complete: T={config.horizon} f_final={trace.f_final:.6g} gap_final={gap} "
        f"extra_staleness={trace.delta_hat} wrote {trace_path}, {summary_path}"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    constants = ProblemConstants.from_dict(load_config(args.constants))
    p = plan(constants, args.eps, args.regime)
    report = verify_plan(constants, args.eps, p)
    _write_json({"plan": p.as_dict(), "report": report.as_dict()}, args.out)
    if not report.satisfied:
        print("warning: plan does not satisfy its own conditions", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = CommGraph.from_edge_list_file(args.graph)
    dims = None
    if args.dims:
        try:
            dims = [int(v) for v in args.dims.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"--dims must be comma-separated integers: {exc}") from exc
    stats = network_stats(graph, args.delta, dims=dims)
    _write_json({**dataclasses.asdict(stats), "distances": stats.distances.tolist()}, args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    doc = _document(args)
    problem_doc = doc.get("problem")
    if isinstance(problem_doc, dict) and problem_doc.get("kind") == "routing":
        # the reference is solved once, below
        doc["problem"] = {**problem_doc, "solve": False}
    config, _ = build_run_config(doc)  # checks solve_tol also where solve is false
    tol = args.tol if args.tol is not None else float(doc["problem"].get("solve_tol", SOLVE_TOL))
    result = centralized_solve(
        config.problem, tol=tol, max_iter=args.max_iter, require_convergence=True
    )
    _write_json(
        {
            "f": result.f,
            "x": [float(v) for v in result.x],
            "n_iter": result.n_iter,
            "converged": result.converged,
            "residual": result.residual,
        },
        args.out,
    )
    return 0


def _trace_name(seed: int) -> str:
    return f"trace_seed{seed}.csv"


def _sweep_one(config, out_dir: str, seed: int) -> tuple[int, list[dict] | ZfoError, float]:
    """The seed with its cadence rows and its run's wall time, or with the
    error its run raised (and NaN)."""
    try:
        trace = run(dataclasses.replace(config, seed=seed))
    except ZfoError as exc:
        return seed, exc, float("nan")
    write_trace_csv(trace, os.path.join(out_dir, _trace_name(seed)))
    rows = [
        {"t": r["t"], "f": r["f"], "gap": r["gap"], "grad_sq": r["grad_sq"]}
        for r in trace.rows
    ]
    return seed, rows, trace.wall_time


_worker_sweep: tuple = ()  # (config, out_dir) in a sweep's pool worker


def _init_sweep_worker(config, out_dir: str) -> None:
    global _worker_sweep
    _worker_sweep = (config, out_dir)


def _sweep_worker(seed: int) -> tuple[int, list[dict] | ZfoError, float]:
    return _sweep_one(*_worker_sweep, seed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    require_count("--seeds", args.seeds, 1)
    require_count("--seed-base", args.seed_base)
    require_count("--workers", args.workers)
    config, _ = _configure(args)  # the seed only seeds the run: one build serves every seed
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.workers or cpus, cpus, args.seeds)  # 0 means every usable CPU
    os.makedirs(args.out_dir, exist_ok=True)
    seeds = [args.seed_base + k for k in range(args.seeds)]
    # an earlier sweep's files would contradict this one's: remove every file
    # this sweep may write, and no other
    for name in ("failures.csv", "aggregate.csv", *map(_trace_name, seeds)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out_dir, name))
    results = []

    def finish(seed: int, out: list[dict] | ZfoError, wall: float) -> None:
        """Report one seed as it finishes and keep its outcome."""
        if isinstance(out, ZfoError):
            print(f"seed {seed}: {type(out).__name__}: {out}", flush=True)
        else:
            print(f"seed {seed}: finished in {wall:.3f} s", flush=True)
        results.append((seed, out))

    if workers == 1:
        for seed in seeds:
            finish(*_sweep_one(config, args.out_dir, seed))
    else:
        # forked workers inherit the config: its problem's cost closures do not pickle
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_sweep_worker,
            initargs=(config, args.out_dir),
        ) as pool:
            for future in as_completed([pool.submit(_sweep_worker, seed) for seed in seeds]):
                finish(*future.result())
    results.sort(key=lambda item: item[0])
    failures = [(seed, out) for seed, out in results if isinstance(out, ZfoError)]
    finished = [(seed, out) for seed, out in results if not isinstance(out, ZfoError)]

    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    if finished:  # every seed runs one config, so every trace has the same cadence rows
        rounds = [row["t"] for row in finished[0][1]]
        _write_aggregate(agg_path, rounds, [rows for _, rows in finished])
    if not failures:
        print(f"sweep complete: {len(seeds)} seeds, aggregate at {agg_path}")
        return 0
    fail_path = os.path.join(args.out_dir, "failures.csv")
    with open(fail_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "error", "message"])
        for seed, exc in failures:
            writer.writerow([seed, type(exc).__name__, str(exc)])
    where = f", aggregate of the other {len(finished)} at {agg_path}" if finished else ""
    print(f"sweep: {len(failures)} of {len(seeds)} seeds failed, listed in {fail_path}{where}")
    seed, exc = failures[0]
    raise type(exc)(f"seed {seed}: {exc}")  # main turns the first failure into the exit code


def _write_aggregate(path: str, rounds: list[int], finished: list[list[dict]]) -> None:
    """Mean and standard deviation over the finished seeds at each cadence row."""
    has_gap = finished[0][0]["gap"] is not None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f_mean", "f_std", "gap_mean", "gap_std", "grad_sq_mean", "grad_sq_std"])
        for k, t in enumerate(rounds):
            fs = np.array([rows[k]["f"] for rows in finished])
            gs = np.array([rows[k]["grad_sq"] for rows in finished])
            row = [t, repr(float(fs.mean())), repr(float(fs.std()))]
            if has_gap:
                gaps = np.array([rows[k]["gap"] for rows in finished])
                row += [repr(float(gaps.mean())), repr(float(gaps.std()))]
            else:
                row += ["", ""]
            row += [repr(float(gs.mean())), repr(float(gs.std()))]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfo",
        description="Distributed zeroth-order feedback optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    p_run.add_argument("--config", required=True, help="path to JSON config")
    p_run.add_argument("--out-dir", default=".", help="directory for trace.csv and summary.json")
    _add_override_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="compute certified algorithm parameters")
    p_plan.add_argument(
        "--regime",
        required=True,
        choices=REGIMES,
    )
    p_plan.add_argument("--eps", required=True, type=float, help="target accuracy")
    p_plan.add_argument("--constants", required=True, help="path to problem-constants JSON")
    p_plan.add_argument("--out", help="write plan JSON here instead of stdout")
    p_plan.set_defaults(func=_cmd_plan)

    p_stats = sub.add_parser("stats", help="network statistics of an edge-list graph")
    p_stats.add_argument("--graph", required=True, help="path to edge-list file")
    p_stats.add_argument("--delta", type=int, default=0, help="declared extra delay bound")
    p_stats.add_argument("--dims", help="comma-separated per-agent dimensions")
    p_stats.add_argument("--out", help="write stats JSON here instead of stdout")
    p_stats.set_defaults(func=_cmd_stats)

    p_oracle = sub.add_parser("oracle", help="centralized reference solve")
    p_oracle.add_argument("--config", required=True, help="path to JSON config")
    p_oracle.add_argument(
        "--tol", type=float,
        help=f"residual tolerance (default: the document's solve_tol, else {SOLVE_TOL:g})",
    )
    p_oracle.add_argument("--max-iter", type=int, default=200_000, dest="max_iter")
    p_oracle.add_argument("--out", help="write solve JSON here instead of stdout")
    _add_override_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="run many seeds and aggregate")
    p_sweep.add_argument("--config", required=True, help="path to JSON config")
    p_sweep.add_argument("--seeds", required=True, type=int, help="number of seeds")
    p_sweep.add_argument("--seed-base", type=int, default=0, dest="seed_base")
    p_sweep.add_argument("--out-dir", default=".", help="directory for per-seed + aggregate CSVs")
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="parallel workers, capped at the usable CPUs (default 0: all of them)",
    )
    _add_override_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
