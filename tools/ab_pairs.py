"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W [--workload W2 ...] [--seed S] [--pairs N]
        [--json PATH]

Runs `python3 perfbench/run.py --workload W --seed S` inside each checkout,
N times each, as pairs whose first run alternates: the parent goes first in
even pairs, the change in odd ones.  Given several workloads, it runs each
one's pairs in turn and prints each one's table and verdicts.  Each run's last line of standard
output is its result, `{"correct", "attempted", "failed", "metrics"}`; a
run that crashes or whose last line is no such object (not JSON, or JSON
of another shape) counts as one failed operation and is not correct.

For every end-to-end metric it prints each side's median and quartiles
over its correct runs, the pairs the change won (ties count for neither),
and the median per-pair ratio change / parent - 1.  A metric's better
direction comes from the parent's `BENCHMARK.json`; the script refuses to
start (exit 2, naming the file or the workload) when that file is
unreadable, lists no `end_to_end` metric or lacks a requested workload.
The gain rule holds when the change won at least nine tenths of all pairs
run, its median is better than the parent's by more than the parent's
interquartile range, every run is correct and the change fails no larger
share of operations than the parent.  A pair with a run that is not correct is not a win.

Each metric also gets a no-regression verdict from its relative `bound`
in the parent's `BENCHMARK.json`: `unresolved` when either side's
interquartile range is wider than the bound times its median, unless
every change run is better than every parent run; otherwise `regressed`
when the change's median is worse than the parent's by more than the
bound times the parent's median, and `holds` when it is not.

With `--json PATH` it also writes the record of the runs to PATH: the
host's usable CPUs and its Python and NumPy versions, each checkout's
path as given and its `git rev-parse HEAD` (null outside git), the seed
and the pair count, and per workload each side's run results, in run
order, and each metric's summary.  It holds only the runs that were made.

The exit code is 1 when any run of any workload failed or reported
`correct: false`, else 0.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCH_COMMAND = [sys.executable, "perfbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="write the record of the runs to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        args.declared = _end_to_end(args.parent.resolve(), args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: its result line, or a failed result."""
    command = BENCH_COMMAND + ["--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not (isinstance(result, dict) and RESULT_KEYS <= result.keys()
            and isinstance(result["metrics"], dict)):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(name: str, parent: list, change: list, better: str | None,
              bound: float | None = None) -> dict:
    """The statistics of one metric over paired runs (`parent[i]` with
    `change[i]`), where None stands for a run with no correct value."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    out = {"metric": name, "better": better, "pairs": len(parent), "wins": None,
           "rule_holds": None, "parent": None, "change": None, "median_ratio": None,
           "bound": bound, "regression": None}
    correct = {side: [v for v in values if v is not None]
               for side, values in (("parent", parent), ("change", change))}
    for side, values in correct.items():
        if values:
            q1, med, q3 = quartiles(values)
            out[side] = [med, q1, q3]
    ratios = [c / p - 1.0 for p, c in pairs if p != 0]
    if ratios:
        out["median_ratio"] = statistics.median(ratios)
    if better in ("higher", "lower"):
        sign = 1.0 if better == "higher" else -1.0
        out["wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        out["rule_holds"] = False
        if out["wins"] >= 0.9 * len(parent):  # so both sides have values
            (p_med, p_q1, p_q3), c_med = out["parent"], out["change"][0]
            out["rule_holds"] = sign * (c_med - p_med) > p_q3 - p_q1
        if bound is not None and out["parent"] and out["change"]:
            out["regression"] = _regression(correct, sign, bound, out)
    return out


def _regression(correct: dict, sign: float, bound: float, out: dict) -> str:
    """The no-regression verdict of a metric with this relative bound."""
    if min(sign * c for c in correct["change"]) > max(sign * p for p in correct["parent"]):
        return "holds"  # every change run is better than every parent run
    for med, q1, q3 in (out["parent"], out["change"]):
        if q3 - q1 > bound * abs(med):
            return "unresolved"
    p_med, c_med = out["parent"][0], out["change"][0]
    return "regressed" if sign * (p_med - c_med) > bound * abs(p_med) else "holds"


def _end_to_end(parent: Path, workloads: list[str]) -> dict[str, dict]:
    """The end-to-end metrics the parent's `BENCHMARK.json` declares, by name.
    Raises ValueError when it cannot judge these workloads' runs."""
    path = parent / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        metrics = {m["name"]: m for m in spec.get("end_to_end", [])}
        names = {w["name"] for w in spec.get("workloads", [])}
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not metrics:
        raise ValueError(f"{path} lists no end_to_end metrics")
    missing = [w for w in workloads if w not in names]
    if missing:
        raise ValueError(f"{path} lists no workload {', '.join(missing)}")
    return metrics


def _fmt(stats: list | None) -> str:
    if stats is None:
        return "n/a"
    med, q1, q3 = stats
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def report(summary: dict) -> str:
    ratio = summary["median_ratio"]
    line = (f"{summary['metric']}: parent {_fmt(summary['parent'])}"
            f" -> change {_fmt(summary['change'])}"
            f", median pair ratio {'n/a' if ratio is None else f'{100 * ratio:+.1f}%'}")
    if summary["wins"] is None:
        return line + ", better direction unknown"
    verdict = "holds" if summary["rule_holds"] else "does not hold"
    line += (f", change better in {summary['wins']}/{summary['pairs']} pairs"
             f" ({summary['better']} is better); gain rule {verdict}")
    if summary["regression"] is None:
        return line
    bound = f"{100 * summary['bound']:g}%"
    return line + f"; no-regression verdict (bound {bound}): {summary['regression']}"


def compare(checkouts: dict[str, Path], declared: dict[str, dict], workload: str, seed: int,
            pairs: int) -> dict:
    """Run one workload's pairs and print its table: each side's results, in
    run order, and each metric's summary."""
    print(f"workload {workload}:", flush=True)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], workload, seed)
            results[side].append(result)
            values = {k: m["value"] for k, m in result.get("metrics", {}).items()}
            print(f"pair {i + 1} {side}: correct={result.get('correct')} {json.dumps(values)}",
                  flush=True)
    summaries = summarize_runs(results, declared)
    for summary in summaries.values():
        print(report(summary))
    incorrect, failed, attempted = _tally(results)
    print(f"runs not correct: parent {incorrect['parent']}, change {incorrect['change']};"
          f" failed operations: parent {failed['parent']}/{attempted['parent']},"
          f" change {failed['change']}/{attempted['change']}")
    return {"runs": results, "metrics": summaries}


def _tally(results: dict[str, list[dict]]) -> tuple[dict, dict, dict]:
    """Per side: the runs not correct, the failed operations and the attempted ones."""
    incorrect = {side: sum(not r.get("correct") for r in results[side]) for side in SIDES}
    failed = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    attempted = {side: sum(r["attempted"] for r in results[side]) for side in SIDES}
    return incorrect, failed, attempted


def summarize_runs(results: dict[str, list[dict]], declared: dict[str, dict]) -> dict[str, dict]:
    """Each metric's `summarize` dict over one workload's paired results, by name."""
    incorrect, failed, attempted = _tally(results)
    # the gain rule needs every run correct and no larger share of failed operations
    clean = not any(incorrect.values()) and (
        failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]
    )
    names = sorted(set().union(*(r.get("metrics", {}) for side in SIDES for r in results[side])))
    summaries = {}
    for name in names:
        values = {side: [r["metrics"][name]["value"]
                         if r.get("correct") and name in r.get("metrics", {}) else None
                         for r in results[side]] for side in SIDES}
        spec = declared.get(name, {})
        summary = summarize(name, values["parent"], values["change"], spec.get("better"),
                            spec.get("bound"))
        summary["rule_holds"] = summary["rule_holds"] and clean
        summaries[name] = summary
    return summaries


def _commit(checkout: Path) -> str | None:
    """`git rev-parse HEAD` in `checkout`, or None outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    given = {"parent": args.parent, "change": args.change}
    checkouts = {side: path.resolve() for side, path in given.items()}
    record = {
        "host": {"cpus_usable": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": importlib.metadata.version("numpy")},
        "checkouts": {side: {"path": str(given[side]), "commit": _commit(checkouts[side])}
                      for side in SIDES},
        "seed": args.seed,
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in args.workload:
        record["workloads"][workload] = compare(checkouts, args.declared, workload, args.seed,
                                                args.pairs)
        if args.json is not None:  # rewritten after each workload, so it holds the runs made
            args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = all(r.get("correct") for w in record["workloads"].values()
                  for side in SIDES for r in w["runs"][side])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
