"""tools/ab_pairs.py, driven by a stub benchmark that prints canned results."""
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# Run i of a checkout prints its i-th result, or crashes without one; every
# run is logged with its arguments.
STUB = """
import json, sys
from pathlib import Path
here = Path.cwd()
runs = json.loads((here / "runs.json").read_text())
count = here / "count.txt"
i = int(count.read_text()) if count.exists() else 0
count.write_text(str(i + 1))
with open(here.parent / "log.txt", "a") as fh:
    fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
run = runs[i]
if run.get("crash"):
    sys.exit("crashed")
print("full report line")
if "last_line" in run:
    print(run["last_line"])
    sys.exit()
print(json.dumps({"correct": run.get("correct", True), "attempted": 4,
                  "failed": run.get("failed", 0),
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in run["metrics"].items()}}))
"""

STUB_WORKLOADS = ("w", "a", "b")


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A parent and a change checkout whose benchmark is the stub, fed the
    given runs; their `BENCHMARK.json` also declares the stub's workloads."""
    stub = tmp_path / "stub.py"
    stub.write_text(STUB, encoding="utf-8")
    monkeypatch.setattr(ab_pairs, "BENCH_COMMAND", [sys.executable, str(stub)])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec["workloads"] += [{"name": name} for name in STUB_WORKLOADS]
    spec = json.dumps(spec)

    def make(parent_runs, change_runs):
        for name, runs in (("parent", parent_runs), ("change", change_runs)):
            checkout = tmp_path / name
            checkout.mkdir()
            (checkout / "BENCHMARK.json").write_text(spec, encoding="utf-8")
            (checkout / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
        return str(tmp_path / "parent"), str(tmp_path / "change")

    return make


def _runs(rates, setups):
    return [{"metrics": {"seed_rounds_per_s": r, "setup_s": s}} for r, s in zip(rates, setups)]


def _line(out, metric):
    return next(line for line in out.splitlines() if line.startswith(metric + ":"))


def test_pairs_alternate_and_the_gain_rule_is_applied_per_metric(checkouts, tmp_path, capsys):
    parent, change = checkouts(
        _runs([100.0, 102.0, 98.0, 101.0], [1.0, 1.1, 0.9, 1.0]),
        _runs([110.0, 111.0, 109.0, 112.0], [1.2, 1.2, 1.3, 1.1]),
    )
    code = ab_pairs.main([parent, change, "--workload", "w", "--seed", "3", "--pairs", "4"])
    assert code == 0
    log = (tmp_path / "log.txt").read_text().splitlines()
    assert [line.split()[0] for line in log] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent"
    ]
    assert all(line.split()[1:] == ["--workload", "w", "--seed", "3"] for line in log)
    out = capsys.readouterr().out
    rate = _line(out, "seed_rounds_per_s")
    # parent quartiles of 98, 100, 101, 102 (inclusive method): 99.5 and 101.25
    assert "parent 100.5 [99.5, 101.25] -> change 110.5" in rate
    assert "median pair ratio +10.4%" in rate
    assert "change better in 4/4 pairs (higher is better); gain rule holds" in rate
    setup = _line(out, "setup_s")
    assert "change better in 0/4 pairs (lower is better); gain rule does not hold" in setup
    assert "runs not correct: parent 0, change 0; failed operations: parent 0/16" in out


def test_a_small_gap_fails_the_rule(checkouts, capsys):
    change_runs = _runs([101.5, 103.0, 99.0, 102.0], [1.0, 1.0, 1.0, 1.0])
    parent, change = checkouts(_runs([100.0, 102.0, 98.0, 101.0], [1.0, 1.0, 1.0, 1.0]),
                               change_runs)
    assert ab_pairs.main([parent, change, "--workload", "w", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    # the change wins every pair, but its median is 1.25 above the parent's: inside its IQR of 1.75
    assert "change better in 4/4 pairs (higher is better); gain rule does not hold" in _line(
        out, "seed_rounds_per_s")
    assert "change better in 0/4 pairs" in _line(out, "setup_s")  # ties count for neither side


def test_crashed_or_incorrect_change_runs_are_lost_pairs(checkouts, capsys):
    # 10 pairs, the change far ahead in all but a crashed run and an incorrect one:
    # 8 wins of the 10 pairs run, not of the 8 pairs with two values
    change_runs = _runs([200.0] * 10, [0.5] * 10)
    change_runs[3] = {"crash": True}
    change_runs[6]["correct"] = False
    parent, change = checkouts(_runs([100.0] * 10, [1.0] * 10), change_runs)
    assert ab_pairs.main([parent, change, "--workload", "w", "--pairs", "10"]) == 1
    out = capsys.readouterr().out
    rate = _line(out, "seed_rounds_per_s")
    assert "parent 100 [100, 100] -> change 200 [200, 200]" in rate  # over the correct runs
    assert "change better in 8/10 pairs (higher is better); gain rule does not hold" in rate
    assert "runs not correct: parent 0, change 2; failed operations: parent 0/40, change 1/37" in out


def test_a_last_line_that_is_no_result_object_is_a_failed_run(checkouts, capsys):
    # JSON, but not of a result's shape: each counts as one failed, incorrect run
    change_runs = _runs([200.0] * 5, [0.5] * 5)
    for k, line in enumerate(["null", "[1, 2]", '{"correct": true, "metrics": {}}', "7"]):
        change_runs[k] = {"last_line": line}
    parent, change = checkouts(_runs([100.0] * 5, [1.0] * 5), change_runs)
    assert ab_pairs.main([parent, change, "--workload", "w", "--pairs", "5"]) == 1
    out = capsys.readouterr().out
    assert "change better in 1/5 pairs (higher is better); gain rule does not hold" in _line(
        out, "seed_rounds_per_s")
    assert "runs not correct: parent 0, change 4; failed operations: parent 0/20, change 4/8" in out


def test_wins_are_counted_over_every_pair_run():
    # a run with no value of the metric is a pair the change did not win
    summary = ab_pairs.summarize("m", [100.0] * 10, [200.0] * 8 + [None] * 2, "higher")
    assert summary["wins"] == 8 and summary["pairs"] == 10
    assert summary["rule_holds"] is False
    assert ab_pairs.summarize("m", [100.0] * 10, [200.0] * 9 + [None], "higher")["rule_holds"]


def test_a_larger_share_of_failed_operations_fails_the_rule(checkouts, capsys):
    change_runs = _runs([200.0] * 10, [0.5] * 10)
    change_runs[0]["failed"] = 1  # a failed check in a run that still reports correct
    parent, change = checkouts(_runs([100.0] * 10, [1.0] * 10), change_runs)
    assert ab_pairs.main([parent, change, "--workload", "w", "--pairs", "10"]) == 0
    out = capsys.readouterr().out
    assert "change better in 10/10 pairs (higher is better); gain rule does not hold" in _line(
        out, "seed_rounds_per_s")
    assert "failed operations: parent 0/40, change 1/40" in out


def test_rejects_no_pairs():
    with pytest.raises(SystemExit):
        ab_pairs.main(["a", "b", "--workload", "w", "--pairs", "0"])


def test_each_metric_gets_a_no_regression_verdict_from_its_bound(checkouts, capsys):
    # bounds from BENCHMARK.json: 25% on the rate and on set-up, 10% on memory
    def runs(rates, setups, rss):
        return [{"metrics": {"seed_rounds_per_s": r, "setup_s": s, "peak_rss_mb": m}}
                for r, s, m in zip(rates, setups, rss)]

    parent, change = checkouts(
        runs([100.0, 102.0, 98.0, 101.0], [1.0, 1.1, 0.9, 1.0], [50.0, 50.1, 49.9, 50.0]),
        runs([70.0, 71.0, 69.0, 72.0], [1.0, 2.0, 0.5, 1.5], [50.2, 50.1, 50.0, 50.3]),
    )
    assert ab_pairs.main([parent, change, "--workload", "w", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    # the rate's median fell 29.5%, more than its bound, with both IQRs inside it
    assert _line(out, "seed_rounds_per_s").endswith(
        "; no-regression verdict (bound 25%): regressed")
    # the change's set-up IQR, 0.875 to 1.625, is wider than 25% of its median 1.25
    assert _line(out, "setup_s").endswith("; no-regression verdict (bound 25%): unresolved")
    # memory rose 0.3%, inside its 10% bound
    assert _line(out, "peak_rss_mb").endswith("; no-regression verdict (bound 10%): holds")


def test_a_change_better_in_every_run_holds_however_wide_the_spread():
    parent = [100.0, 40.0, 160.0, 100.0]  # IQR 85 to 115, wider than 25% of 100
    assert ab_pairs.summarize("m", parent, [170.0, 180.0, 190.0, 175.0], "higher",
                              0.25)["regression"] == "holds"
    assert ab_pairs.summarize("m", parent, [170.0, 180.0, 190.0, 160.0], "higher",
                              0.25)["regression"] == "unresolved"  # a tie with the parent's best
    assert ab_pairs.summarize("m", parent, [170.0] * 4, "higher")["regression"] is None  # no bound


def test_each_workload_runs_its_pairs_in_turn_and_prints_its_table(checkouts, tmp_path, capsys):
    # two pairs of workload a, then two of b; one crashed change run of b sets the exit code
    change_runs = _runs([110.0, 111.0, 90.0, 91.0], [1.0] * 4)
    change_runs[3] = {"crash": True}
    parent, change = checkouts(_runs([100.0, 101.0, 100.0, 101.0], [1.0] * 4), change_runs)
    code = ab_pairs.main([parent, change, "--workload", "a", "--workload", "b", "--pairs", "2"])
    assert code == 1
    log = (tmp_path / "log.txt").read_text().splitlines()
    assert [line.split()[2] for line in log] == ["a"] * 4 + ["b"] * 4
    out = capsys.readouterr().out
    table_a, table_b = out.split("workload a:\n")[1].split("workload b:\n")
    assert "change better in 2/2 pairs" in _line(table_a, "seed_rounds_per_s")
    assert "runs not correct: parent 0, change 0" in table_a
    assert "change better in 0/2 pairs" in _line(table_b, "seed_rounds_per_s")
    assert "runs not correct: parent 0, change 1" in table_b


@pytest.mark.parametrize(
    "spec, named",
    [
        (None, "cannot read"),
        ("{not json", "cannot read"),
        ('{"workloads": [{"name": "w"}], "end_to_end": []}', "no end_to_end metrics"),
        ('{"workloads": [{"name": "a"}], "end_to_end": [{"name": "m"}]}', "no workload w"),
    ],
    ids=["missing", "unreadable", "no_metrics", "no_workload"],
)
def test_refuses_to_start_without_the_parents_declaration(checkouts, tmp_path, capsys, spec,
                                                          named):
    parent, change = checkouts(_runs([100.0], [1.0]), _runs([100.0], [1.0]))
    declaration = Path(parent) / "BENCHMARK.json"
    if spec is None:
        declaration.unlink()
    else:
        declaration.write_text(spec, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        ab_pairs.main([parent, change, "--workload", "a", "--workload", "w", "--pairs", "1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert str(declaration.resolve()) in err and named in err
    assert not (tmp_path / "log.txt").exists()  # no benchmark run started


def test_the_json_record_round_trips_and_records_failed_runs(checkouts, tmp_path, capsys):
    # the change's second run of a crashes and its first of b reports incorrect
    change_runs = _runs([110.0, 111.0, 90.0, 91.0], [1.0] * 4)
    change_runs[1] = {"crash": True}
    change_runs[2]["correct"] = False
    parent, change = checkouts(_runs([100.0, 101.0, 100.0, 101.0], [1.0] * 4), change_runs)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "c"]):
        subprocess.run(git + args, cwd=change, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=change, check=True,
                          capture_output=True, text=True).stdout.strip()
    path = tmp_path / "record.json"
    code = ab_pairs.main([parent, change, "--workload", "a", "--workload", "b", "--pairs", "2",
                          "--seed", "5", "--json", str(path)])
    assert code == 1
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["host"]["python"] == platform.python_version()
    assert record["host"]["cpus_usable"] >= 1 and record["host"]["numpy"]
    assert record["checkouts"] == {"parent": {"path": parent, "commit": None},
                                   "change": {"path": change, "commit": head}}
    assert (record["seed"], record["pairs"], list(record["workloads"])) == (5, 2, ["a", "b"])
    declared = ab_pairs._end_to_end(Path(parent), ["a"])
    out = capsys.readouterr().out
    for workload in record["workloads"].values():
        assert [len(workload["runs"][side]) for side in ab_pairs.SIDES] == [2, 2]
        # the recorded runs alone give back the recorded summaries and the printed lines
        assert ab_pairs.summarize_runs(workload["runs"], declared) == workload["metrics"]
        for summary in workload["metrics"].values():
            assert ab_pairs.report(summary) in out
    runs_a, runs_b = (record["workloads"][w]["runs"]["change"] for w in ("a", "b"))
    assert runs_a[1] == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert runs_b[0]["correct"] is False and runs_b[0]["metrics"]["seed_rounds_per_s"]["value"] == 90.0
    assert record["workloads"]["b"]["metrics"]["seed_rounds_per_s"]["change"] == [91.0] * 3
