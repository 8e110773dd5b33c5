"""The zfo benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run it from a checkout of the repository; it imports zfo from `src/`
next to this directory and writes only under `.bench_out/`.  With
`--trace 0` the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced
run instead.  The line before it is the full report: inputs, machine,
every metric with its unit, `error_rate` and any failed check.  The exit
code is 0 only when every seed run and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("routing6-seeds", "routing200-lossy", "routing6-sweep")


def machine() -> dict:
    """Where the numbers came from; the load averages show a noisy neighbour."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "zfo" / "__init__.py").is_file():
        print(f"zfo sources not found under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    load_start = os.getloadavg()[0]
    workload = harness.WORKLOADS[args.workload]
    out = OUT / f"{workload.name}-trace{args.trace}"
    report = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), out)
    tally = report.pop("tally")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in report.pop("metrics").items()}
    full = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), "load1_start": load_start, "load1_end": os.getloadavg()[0]},
        "metrics": metrics,
        **{name: {"value": value, "unit": unit}
           for name, (value, unit) in report.pop("reported", {}).items()},
        "failures": tally.failures,
        **report,
    }
    (out / "result.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(full))
    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
