"""The engine reproduces the outputs the benchmark recorded.

Runs a few pool seeds of the benchmark's routing workloads at their
recorded horizon and checks them against `perfbench/fingerprints.json`
with the harness's own checks: `F_FINAL_RTOL` for `f_final` and exact
equality for the counts.  The record is only read.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import zfo.config  # noqa: E402
import zfo.runner  # noqa: E402


@pytest.mark.parametrize(
    "workload, seeds", [("routing6-seeds", (0, 9, 18, 31)), ("routing200-lossy", (9,))]
)
def test_runs_match_the_recorded_fingerprints(workload, seeds):
    w = harness.WORKLOADS[workload]
    record = harness.load_record()
    config, _ = zfo.config.build_run_config(harness.config_doc(w, seeds[0]))
    f_star = config.problem.f_star
    assert harness.check_f_star(f_star, record, w) == []
    for seed in seeds:
        trace = zfo.runner.run(dataclasses.replace(config, seed=seed))
        assert harness.check_trace(w, trace, f_star, record, seed) == [], f"seed {seed}"
