"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once on a small routing instance, untraced and
traced, against fingerprints recorded in the test itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# instances whose reference solve takes well under a second
TINY = {
    "routing6-seeds": dict(instance_seed=0, horizon=30, metric_every=10, seeds=2, chunk_rounds=5),
    "routing200-lossy": dict(groups=3, agents_per_group=2, horizon=30, metric_every=10,
                             chunk_rounds=5),
    "routing6-sweep": dict(instance_seed=0, horizon=30, metric_every=10, seeds=2),
}


def tiny(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    return dataclasses.replace(w, family=f"tiny-{w.family}", setup_reps=1, gap_limit=10.0,
                               **TINY[name])


@pytest.fixture(scope="module")
def record() -> dict:
    families = {tiny(name).family: tiny(name) for name in TINY}
    return {family: harness.record_family(w) for family, w in families.items()}


def zfo_bindings() -> dict:
    """Every attribute of the loaded zfo modules and of the classes they define."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "zfo" or name.startswith("zfo.")):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("zfo"):
                for key, member in vars(value).items():
                    state[(name, attr, key)] = member
    return state


def run_tiny(name: str, trace: bool, record: dict) -> dict:
    out = ROOT / ".bench_out" / f"selftest-{name}-trace{int(trace)}"
    return harness.run_workload(tiny(name), seed=3, seconds=0, trace=trace, out=out,
                                record=record)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(name, trace, record):
    before = zfo_bindings()
    report = run_tiny(name, trace, record)
    after = zfo_bindings()
    assert report["tally"].failures == []
    assert report["reported"]["error_rate"][0] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value, unit = report["metrics"][m["name"]]
        assert NAME.match(m["name"]) and UNIT.match(unit)
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]
    # tracing leaves zfo exactly as it found it
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["routing6-seeds", "routing6-sweep"])
def test_corrupted_fingerprint_raises_error_rate(name, record):
    corrupted = json.loads(json.dumps(record))
    for entry in corrupted[tiny(name).family]["seeds"].values():
        entry["f_final"] *= 1.0 + 1e-6
    report = run_tiny(name, False, corrupted)
    assert report["reported"]["error_rate"][0] > 0
    assert any("f_final" in f or "final f" in f for f in report["tally"].failures)


def test_traced_round_phase_adds_up(record):
    report = run_tiny("routing200-lossy", True, record)
    ident = report["round_identity"]
    assert ident["total_s"] > 0
    assert math.isclose(ident["self_s"] + ident["children_s"], ident["total_s"], rel_tol=1e-9)


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    predicted = {name for row in predictions["layers"] for name in row["metrics"]}
    assert predicted == {m["name"] for m in BENCHMARK["per_layer"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert workloads == set(harness.WORKLOADS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]} | set(harness.REPORTED)
    for row in predictions["layers"]:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) <= workloads


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routing6-seeds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
