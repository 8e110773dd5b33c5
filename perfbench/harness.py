"""Workloads, output checks and metrics of the zfo benchmark.

All three workloads run the routing congestion benchmark, the paper's
headline problem, through zfo's public API or its CLI:

* `routing6-seeds` builds the acceptance-6 configuration (2 groups x 3
  agents, complete graph, no delay) once and runs several seeds back to
  back with `zfo.run`.  At n = 6 each round is bound by call overhead:
  simplex projections, local costs and the engine loop.
* `routing200-lossy` runs 40 groups x 5 agents on a random graph of
  degree at most 4 with Bernoulli message drops and noisy costs.  The
  gossip merge and the gradient assembly dominate its rounds, and the
  reference solve dominates its set-up.
* `routing6-sweep` runs `zfo sweep` over the `routing6-seeds` document
  with two workers; every seed rebuilds its configuration, and so
  re-solves the reference, inside a forked worker.

The benchmark's `--seed` picks the simulation seeds of each workload
from a pool of `SEED_POOL` seeds whose outputs are recorded in
`fingerprints.json` (regenerate it with `record.py`).  Each repetition
of a workload does the same work, and a run repeats it until the
requested seconds have passed; timings are medians over repetitions.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import zfo.cli
import zfo.config
import zfo.runner
from spans import Tracer, summarize

RECORD_PATH = Path(__file__).with_name("fingerprints.json")
SEED_POOL = 32
SWEEP_WORKERS = 2  # the CLI's default on the two-core machine the benchmark was sized on

# Reference optimum of the 2 x 3 routing instance with seed 1; it sets the
# acceptance-6 step size eta = 3e-2 / f*, and every build is checked against it.
ROUTING6_F_STAR = 1.2855077308970073

# End-to-end figures printed with every result but kept out of BENCHMARK.json's bounds:
# wall_s spans seconds-long units whose run-to-run spread on a shared host reached 0.24;
# rel_gap_final varies by about 30% between simulation seeds, so its spread over benchmark
# seeds is input noise (the fingerprints pin every output); error_rate is 0 on correct
# code and is carried by the result's `failed` / `attempted`.
REPORTED = ("wall_s", "rel_gap_final", "error_rate")

F_FINAL_RTOL = 1e-8
F_STAR_RTOL = 1e-9
STEP_EXCESS_LIMIT = 1e-9
AGGREGATE_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str  # workloads of one family share a config document and its fingerprints
    groups: int
    agents_per_group: int
    instance_seed: int
    graph: dict
    delay: dict
    eta: float
    u: float
    delta: float
    sigma: float
    horizon: int
    metric_every: int
    seeds: int  # seed runs per repetition
    chunk_rounds: int  # consecutive rounds per timing sample, about 50 ms of rounds
    setup_reps: int  # untraced builds whose median is setup_s
    gap_limit: float  # largest accepted final relative optimality gap
    sweep: bool = False


_ROUTING6 = dict(
    family="routing6",
    groups=2,
    agents_per_group=3,
    instance_seed=1,
    graph={"kind": "complete"},
    delay={"kind": "none"},
    eta=3e-2 / ROUTING6_F_STAR,
    u=2e-3,
    delta=0.05,
    sigma=0.0,
    horizon=2000,
    metric_every=500,
    seeds=4,
    chunk_rounds=128,
    setup_reps=3,
    gap_limit=0.02,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="routing6-seeds",
            **_ROUTING6,
        ),
        Workload(
            name="routing200-lossy",
            family="routing200-lossy",
            groups=40,
            agents_per_group=5,
            instance_seed=0,
            graph={"kind": "random", "seed": 1, "max_degree": 4},
            delay={"kind": "bernoulli", "p": 0.1, "delta": 3},
            eta=1e-3,
            u=4e-3,
            delta=0.10,
            sigma=0.1,
            horizon=1000,
            metric_every=100,
            seeds=1,
            chunk_rounds=8,
            setup_reps=1,
            gap_limit=0.5,
        ),
        Workload(
            name="routing6-sweep",
            sweep=True,
            **{**_ROUTING6, "setup_reps": 1},
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


def config_doc(w: Workload, sim_seed: int) -> dict:
    """The config document a `zfo run` user would write for this workload."""
    return {
        "version": 1,
        "problem": {
            "kind": "routing",
            "groups": w.groups,
            "agents_per_group": w.agents_per_group,
            "seed": w.instance_seed,
            "solve": True,
        },
        "graph": dict(w.graph),
        "delay": dict(w.delay),
        "params": {"eta": w.eta, "u": w.u, "delta": w.delta, "sigma": w.sigma,
                   "horizon": w.horizon},
        "seed": sim_seed,
        "metric_every": w.metric_every,
    }


def sim_seeds(w: Workload, seed: int) -> list[int]:
    """Simulation seeds of one benchmark seed: distinct pool members, or a
    consecutive block for the sweep's `--seed-base`."""
    rng = random.Random(f"{w.name}/{seed}")
    if w.sweep:
        base = rng.randrange(SEED_POOL - w.seeds + 1)
        return list(range(base, base + w.seeds))
    return rng.sample(range(SEED_POOL), w.seeds)


def real_slots(graph) -> np.ndarray:
    """(n, max_deg) mask of the engine's neighbour slots that hold a real neighbour."""
    degrees = np.array([graph.degree(i) for i in range(graph.n)])
    width = max(int(degrees.max()), 1)
    return np.arange(width)[None, :] < degrees[:, None]


# ---------------------------------------------------------------------------
# recorded outputs and checks


def load_record(path: Path = RECORD_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(trace) -> dict:
    return {
        "f_final": trace.f_final,
        "delta_hat": trace.delta_hat,
        "assumption_clean": trace.assumption_clean,
        "stale_max_overall": trace.stale_max_overall,
        "cap_projections": trace.cap_projections,
        "fallback_projections": trace.fallback_projections,
    }


def record_family(w: Workload) -> dict:
    """Run every pool seed of `w`'s document once and return its fingerprints."""
    config, _ = zfo.config.build_run_config(config_doc(w, 0))
    prints = {}
    for s in range(SEED_POOL):
        prints[str(s)] = fingerprint(zfo.runner.run(dataclasses.replace(config, seed=s)))
    return {"f_star": config.problem.f_star, "horizon": w.horizon, "seeds": prints}


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))


def _expected(record: dict, w: Workload, sim_seed: int) -> dict | None:
    family = record.get(w.family, {})
    if family.get("horizon") != w.horizon:
        return None
    return family["seeds"].get(str(sim_seed))


def check_f_star(f_star: float, record: dict, w: Workload) -> list[str]:
    want = record.get(w.family, {}).get("f_star")
    if want is None or not _close(f_star, want, F_STAR_RTOL):
        return [f"reference optimum {f_star!r} differs from the recorded {want!r}"]
    return []


def check_trace(w: Workload, trace, f_star: float, record: dict, sim_seed: int) -> list[str]:
    """Output checks of one library seed run."""
    bad = []
    rounds = w.horizon + 1
    if trace.feasibility_violations != 0:
        bad.append(f"{trace.feasibility_violations} feasibility violations")
    if trace.feasibility_checks != rounds:
        bad.append(f"{trace.feasibility_checks} feasibility checks for {rounds} rounds")
    if not trace.step_bound_max_excess <= STEP_EXCESS_LIMIT:
        bad.append(f"step bound exceeded by {trace.step_bound_max_excess!r}")
    rel_gap = trace.gap_final / f_star
    if not rel_gap < w.gap_limit:
        bad.append(f"relative gap {rel_gap!r} not below {w.gap_limit}")
    want = _expected(record, w, sim_seed)
    if want is None:
        return bad + [f"no recorded fingerprint for seed {sim_seed} at horizon {w.horizon}"]
    got = fingerprint(trace)
    if not _close(got["f_final"], want["f_final"], F_FINAL_RTOL):
        bad.append(f"f_final {got['f_final']!r} != recorded {want['f_final']!r}")
    for key in ("delta_hat", "assumption_clean", "stale_max_overall", "cap_projections",
                "fallback_projections"):
        if got[key] != want[key]:
            bad.append(f"{key} {got[key]!r} != recorded {want[key]!r}")
    return bad


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cadence(w: Workload) -> list[int]:
    return sorted(set(range(0, w.horizon + 1, w.metric_every)) | {w.horizon})


def check_sweep_seed(w: Workload, out: Path, sim_seed: int, record: dict) -> list[str]:
    """Output checks of one seed's trace CSV written by `zfo sweep`."""
    path = out / f"trace_seed{sim_seed}.csv"
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _read_csv(path)
    bad = []
    if [int(r["t"]) for r in rows] != cadence(w):
        bad.append("cadence rows differ from the configured metric_every")
    if any(r["feasible"] != "1" for r in rows):
        bad.append("a cadence row is infeasible")
    want = _expected(record, w, sim_seed)
    if want is None:
        return bad + [f"no recorded fingerprint for seed {sim_seed} at horizon {w.horizon}"]
    final = rows[-1]
    f_star = record[w.family]["f_star"]
    if not _close(float(final["f"]), want["f_final"], F_FINAL_RTOL):
        bad.append(f"final f {final['f']} != recorded {want['f_final']!r}")
    if not float(final["gap"]) / f_star < w.gap_limit:
        bad.append(f"relative gap {float(final['gap']) / f_star!r} not below {w.gap_limit}")
    if int(final["fallbacks"]) != want["fallback_projections"]:
        bad.append(f"fallbacks {final['fallbacks']} != recorded {want['fallback_projections']}")
    if max(int(r["stale_max"]) for r in rows) > want["stale_max_overall"]:
        bad.append("cadence staleness exceeds the recorded maximum")
    return bad


def check_aggregate(w: Workload, out: Path, seeds: list[int], record: dict) -> tuple[list[str], float]:
    """Check `aggregate.csv` against the per-seed traces; return the final relative gap."""
    path = out / "aggregate.csv"
    if not path.is_file():
        return ["aggregate.csv missing"], math.nan
    rows = _read_csv(path)
    bad = []
    if [int(r["t"]) for r in rows] != cadence(w):
        bad.append("aggregate rows differ from the cadence rounds")
    finals = []
    for s in seeds:
        seed_path = out / f"trace_seed{s}.csv"
        if seed_path.is_file():
            finals.append(_read_csv(seed_path)[-1])
    final = rows[-1]
    f_mean, gap_mean = float(final["f_mean"]), float(final["gap_mean"])
    if len(finals) == len(seeds):
        if not _close(f_mean, statistics.fmean(float(r["f"]) for r in finals), AGGREGATE_RTOL):
            bad.append("final f_mean disagrees with the per-seed traces")
        if not _close(gap_mean, statistics.fmean(float(r["gap"]) for r in finals), AGGREGATE_RTOL):
            bad.append("final gap_mean disagrees with the per-seed traces")
    f_star = f_mean - gap_mean
    bad += check_f_star(f_star, record, w)
    return bad, gap_mean / f_star


# ---------------------------------------------------------------------------
# running


class Tally:
    """Attempted and failed seed runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def _failure(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=-3)]


def _build(doc: dict):
    t0 = time.perf_counter()
    config, _ = zfo.config.build_run_config(doc)
    return config, time.perf_counter() - t0


class RoundClock:
    """Probe that stamps the end of every round of one run."""

    def __init__(self, rounds: int):
        self.stamps = np.zeros(rounds, dtype=np.int64)

    def __call__(self, view) -> None:
        self.stamps[view.t] = time.perf_counter_ns()

    def chunk_seconds(self, size: int) -> list[float]:
        """Durations of consecutive, non-overlapping chunks of `size` rounds."""
        ends = self.stamps[::size]
        return list(np.diff(ends) * 1e-9)


def _seed_runs(w, config, seeds, record, tally, chunks) -> tuple[float, list[float]]:
    """One repetition of the library workload: run every seed, then check it.

    Appends the durations of `w.chunk_rounds`-round chunks to `chunks`.
    """
    traces, clocks = {}, []
    t0 = time.perf_counter()
    for s in seeds:
        clocks.append(RoundClock(w.horizon + 1))
        try:
            traces[s] = zfo.runner.run(dataclasses.replace(config, seed=s, probe=clocks[-1]))
        except Exception as exc:  # a failed seed is counted, and the run goes on
            tally.check(f"seed {s}", _failure(exc))
    elapsed = time.perf_counter() - t0
    for clock in clocks:
        chunks.extend(clock.chunk_seconds(w.chunk_rounds))
    f_star = config.problem.f_star
    for s, trace in traces.items():
        tally.check(f"seed {s}", check_trace(w, trace, f_star, record, s))
    return elapsed, [trace.gap_final / f_star for trace in traces.values()]


def _sweep_once(w, doc_path, seeds, out, record, tally) -> tuple[float, float]:
    """One `zfo sweep` call; returns its wall time and final relative gap."""
    argv = ["sweep", "--config", str(doc_path), "--seeds", str(len(seeds)),
            "--seed-base", str(seeds[0]), "--out-dir", str(out),
            "--workers", str(SWEEP_WORKERS)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = zfo.cli.main(argv)
    except Exception as exc:
        tally.check("sweep", _failure(exc))
        return time.perf_counter() - t0, math.nan
    wall = time.perf_counter() - t0
    if code != 0:
        tally.check("sweep", [f"exit code {code}"])
        return wall, math.nan
    for s in seeds:
        tally.check(f"seed {s}", check_sweep_seed(w, out, s, record))
    bad, rel_gap = check_aggregate(w, out, seeds, record)
    tally.check("aggregate.csv", bad)
    return wall, rel_gap


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out: Path,
                 record: dict | None = None) -> dict:
    """Run one workload and return its report: metrics, checks and inputs."""
    record = load_record() if record is None else record
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    seeds = sim_seeds(w, seed)
    doc = config_doc(w, seeds[0])
    doc_path = out / "config.json"
    doc_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    tally = Tally()
    tracer = Tracer(spill_dir=out / "spill") if trace else None
    if tracer is not None:
        tracer.workload = w.name
        tracer.spill_dir.mkdir()

    setups = []
    try:
        if tracer is None:
            for _ in range(w.setup_reps):
                config, elapsed = _build(doc)
                setups.append(elapsed)
        else:
            with tracer.installed():
                config, elapsed = _build(doc)
            setups.append(elapsed)
    except Exception as exc:
        tally.check("build_run_config", _failure(exc))
        return {"tally": tally, "metrics": {}, "seeds": seeds}
    tally.check("reference optimum", check_f_star(config.problem.f_star, record, w))
    if tracer is not None:
        tracer.real_slots = real_slots(config.graph)

    plain, traced, gaps, chunks = [], [], [], []
    start = time.perf_counter()
    while True:
        if w.sweep:
            wall, rel_gap = _sweep_once(w, doc_path, seeds, out / f"rep{len(plain)}",
                                        record, tally)
            plain.append(wall)
            gaps = [rel_gap]
            if tracer is not None:
                with tracer.installed():
                    wall, _ = _sweep_once(w, doc_path, seeds, out / f"traced{len(traced)}",
                                          record, tally)
                traced.append(wall)
        else:
            elapsed, gaps = _seed_runs(w, config, seeds, record, tally, chunks)
            plain.append(elapsed)
            if tracer is not None:
                with tracer.installed():
                    elapsed, _ = _seed_runs(w, tracer.wrap_problem(config), seeds, record,
                                            tally, [])
                traced.append(elapsed)
        if tally.failures or time.perf_counter() - start >= seconds:
            break

    rounds = len(seeds) * (w.horizon + 1)
    report = {"tally": tally, "seeds": seeds, "repetitions": len(plain)}
    if tracer is None:
        setup_s = statistics.median(setups)
        run_s = statistics.median(plain)
        # Library rounds are timed in chunks of about 50 ms.  On a shared host whose speed
        # drifts between a fast and a slow state, the fastest chunk varied least between
        # runs: an interquartile range of 7-13% of the median over ten runs, against
        # 15-24% for whole-run times and for the median chunk.
        rate = rounds / run_s if w.sweep else w.chunk_rounds / min(chunks)
        report["metrics"] = {
            "setup_s": (setup_s, "s"),
            "seed_rounds_per_s": (rate, "rounds/s"),
            "peak_rss_mb": (peak_rss_mb(children=w.sweep), "MB"),
        }
        report["reported"] = {"wall_s": (run_s if w.sweep else setup_s + run_s, "s")}
        report["samples"] = {"setup_s": setups, "run_s": plain, "chunks": len(chunks)}
    else:
        summary = summarize(tracer.span_sets(out / "spans.npz"), main_pid=os.getpid())
        overhead = statistics.median(traced) / statistics.median(plain)
        report["metrics"] = layer_metrics(summary, overhead, traced_wall=sum(traced))
        report["round_identity"] = summary["identity"]
        tally.check("trace", _check_trace_summary(w, summary, len(traced)))
    # Reported beside the metrics but not bounded (see REPORTED).
    report.setdefault("reported", {}).update({
        "rel_gap_final": (statistics.fmean(gaps) if gaps else math.nan, "1"),
        "error_rate": (len(tally.failures) / max(tally.attempted, 1), "1"),
    })
    return report


def _check_trace_summary(w: Workload, summary: dict, traced_reps: int) -> list[str]:
    bad = []
    ident = summary["identity"]
    residual = abs(ident["self_s"] + ident["children_s"] - ident["total_s"])
    if not residual <= 1e-9 * max(ident["total_s"], 1.0):
        bad.append(f"runner.run self + children differs from its total by {residual!r} s")
    runs = summary["counts"]["runs"]
    if runs != traced_reps * w.seeds:
        bad.append(f"{runs} traced runs reached the tracer, expected {traced_reps * w.seeds}")
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summary: dict, overhead_ratio: float, traced_wall: float) -> dict:
    """Per-layer metrics of a traced run, from its span summary."""
    layers, counts, peaks = summary["layers"], summary["counts"], summary["peaks"]

    def calls(name, phase):
        return layers.get((name, phase), (0, 0.0, 0.0))[0]

    def total(name, phase):
        return layers.get((name, phase), (0, 0.0, 0.0))[1]

    def own(name, phase):
        return layers.get((name, phase), (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = counts["rounds"]
    setups = calls("config.build_run_config", "setup")
    per_round = {
        name: (ratio(own(name, "round"), rounds), "s/round")
        for name in ("geometry.contains_batch", "geometry.constrain_perturbation_batch",
                     "problems.local_costs", "runner.run", "runner.metrics_snapshot",
                     "agents.merge_from", "agents.assemble", "agents.snapshot",
                     "agents.staleness", "agents.record_own", "network.drop_mask")
    }
    metrics = {f"{name}.self_s": value for name, value in per_round.items()}
    worker = summary["worker"]
    all_phases = ("setup", "round", "other")
    csv_calls = sum(calls("runner.write_trace_csv", p) for p in all_phases)
    csv_total = sum(total("runner.write_trace_csv", p) for p in all_phases)
    metrics.update({
        "geometry.project_batch.round_s":
            (ratio(total("geometry.project_batch", "round"), rounds), "s/round"),
        "geometry.project_batch.calls_per_round":
            (ratio(calls("geometry.project_batch", "round"), rounds), "calls/round"),
        "geometry.contains_batch.calls_per_round":
            (ratio(calls("geometry.contains_batch", "round"), rounds), "calls/round"),
        "geometry.cap_projection_ratio":
            (ratio(counts["cap_projections"], counts["agent_rounds"]), "1"),
        "geometry.fallback_projections":
            (ratio(counts["fallback_projections"], counts["runs"]), "count/run"),
        "problems.local_costs.calls":
            (ratio(calls("problems.local_costs", "round"), rounds), "calls/round"),
        "agents.merge_from.bytes_computed": (ratio(counts["merge_bytes"], rounds), "B/round"),
        "agents.merge_adopted_ratio":
            (ratio(counts["merge_adopted"], counts["merge_candidates"]), "1"),
        "agents.stale_max": (peaks["stale_max"], "rounds"),
        "network.delivered_ratio": (ratio(counts["delivered"], counts["slots"]), "1"),
        "network.shortest_path_lengths.s":
            (ratio(total("network.shortest_path_lengths", "round"),
                   calls("network.shortest_path_lengths", "round")), "s/call"),
        "problems.centralized_solve.self_s":
            (ratio(own("problems.centralized_solve", "setup"), setups), "s/setup"),
        "problems.centralized_solve.iters":
            (ratio(counts["solve_iters"], counts["solve_calls"]), "iters/solve"),
        "geometry.project_batch.setup_s":
            (ratio(total("geometry.project_batch", "setup"), setups), "s/setup"),
        "geometry.project_batch.setup_calls":
            (ratio(calls("geometry.project_batch", "setup"), setups), "calls/setup"),
        "config.build_run_config.self_s":
            (ratio(own("config.build_run_config", "setup"), setups), "s/setup"),
        "cli.worker_busy_share": (ratio(worker["busy_s"], SWEEP_WORKERS * traced_wall), "1"),
        "cli.seed_setup_share": (ratio(worker["setup_s"], worker["busy_s"]), "1"),
        "runner.write_trace_csv.s": (ratio(csv_total, csv_calls), "s/call"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    })
    return metrics
