"""CLI and JSON-config tests: subcommands, exit codes, file artifacts."""

import argparse
import csv
import json
import math
import os
import re
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from zfo.cli import _add_override_flags, main
from zfo.config import OVERRIDES, apply_overrides, build_run_config, load_config
from zfo.errors import ConfigurationError, DomainError
from zfo.network import BernoulliDrops, CommGraph, NoDelay
from zfo.problems import build_trig_sum
from zfo.runner import run


def _base_doc() -> dict:
    return {
        "version": 1,
        "problem": {"kind": "box_quadratic", "agents": 3, "dim": 2, "seed": 0},
        "graph": {"kind": "path"},
        "params": {"eta": 2e-3, "u": 1e-3, "delta": 0.01, "horizon": 40},
        "seed": 5,
        "metric_every": 10,
    }


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_build_run_config_defaults_and_normalization():
    config, normalized = build_run_config(_base_doc())
    assert config.sigma == 0.0
    assert config.mode == "full"
    assert isinstance(config.delay, NoDelay)
    assert normalized["params"]["sigma"] == 0.0
    assert normalized["delay"] == {"kind": "none"}
    assert normalized["metric_every"] == 10
    # normalized document re-parses to an equivalent configuration
    config2, normalized2 = build_run_config(normalized)
    assert normalized2 == normalized
    assert config2.describe() == config.describe()


def test_unknown_fields_are_rejected_with_path():
    doc = _base_doc()
    doc["xo"] = [1.0]
    with pytest.raises(ConfigurationError, match="config: unknown field"):
        build_run_config(doc)
    doc = _base_doc()
    doc["params"]["stepsize"] = 1.0
    with pytest.raises(ConfigurationError, match="params: unknown field"):
        build_run_config(doc)
    doc = _base_doc()
    doc["problem"]["routes"] = 4
    with pytest.raises(ConfigurationError, match="problem: unknown field"):
        build_run_config(doc)


def test_type_errors_carry_field_paths():
    doc = _base_doc()
    doc["params"]["eta"] = "fast"
    with pytest.raises(ConfigurationError, match="params.eta: expected a number"):
        build_run_config(doc)
    doc = _base_doc()
    doc["params"]["horizon"] = 9.5
    with pytest.raises(ConfigurationError, match="params.horizon: expected an integer"):
        build_run_config(doc)
    doc = _base_doc()
    doc["x0"] = [0.0] * 5
    with pytest.raises(ConfigurationError, match="config.x0: expected 6 entries"):
        build_run_config(doc)
    doc = _base_doc()
    del doc["params"]["u"]
    with pytest.raises(ConfigurationError, match="params: missing required field 'u'"):
        build_run_config(doc)
    doc = _base_doc()
    doc["version"] = 2
    with pytest.raises(ConfigurationError, match="config.version"):
        build_run_config(doc)


def test_unknown_params_field_fails_before_the_reference_solve(monkeypatch):
    import zfo.config

    solve = zfo.config.centralized_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(zfo.config, "centralized_solve", counted)
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 3, "seed": 1},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "horizon": 30, "stepsize": 1.0},
    }
    with pytest.raises(ConfigurationError, match="params: unknown field"):
        build_run_config(doc)
    assert calls == []


@pytest.mark.parametrize(
    "argv, edit, named",
    [
        (["run"], {"params": {"u": 0.0}}, "smoothing radius u must be > 0, got 0.0"),
        (["run"], {"metric_every": 0}, "metric_every must be >= 1"),
        (["run"], {"mode": "bogus"}, "mode must be 'full' or 'dependence', got 'bogus'"),
        (["run"], {"history_slack": 0}, "history_slack must be >= 1"),
        (["run"], {"params": {"sigma": -1.0}}, "noise level sigma must be >= 0, got -1.0"),
        (["sweep", "--seeds", "2", "--workers", "-1"], {}, "--workers must be >= 0, got -1"),
    ],
    ids=["u", "metric_every", "mode", "history_slack", "sigma", "workers"],
)
def test_out_of_range_options_fail_before_the_reference_solve(
    tmp_path, monkeypatch, capsys, argv, edit, named
):
    import zfo.config

    solve = zfo.config.centralized_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(zfo.config, "centralized_solve", counted)
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 3, "seed": 1},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "horizon": 30, **edit.pop("params", {})},
        **edit,
    }
    out = tmp_path / "out"
    assert main([argv[0], "--config", _write(tmp_path, doc), "--out-dir", str(out), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"configuration error: {named}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"delay": {"kind": "bernoulli", "p": 1.5}},
         "delay.p: drop probability must lie in [0, 1)"),
        ({"delay": {"kind": "bernoulli", "p": 0.1, "delta": -1}},
         "delay.delta: declared extra delay must be >= 0"),
        ({"graph": {"kind": "random", "seed": 0, "max_degree": 1}},
         "graph.max_degree: must be >= 2"),
        ({"graph": {"kind": "edges", "edges": [[1, 7]]}},
         "graph.edges[0]: agent ids are 1-indexed and must lie in [1, 6]"),
        ({"x0": [0.5] * 5}, "config.x0: expected 18 entries, got 5"),
        ({"x0": "zeros"}, "config.x0: expected a list of numbers"),
    ],
    ids=["delay_p", "delay_delta", "max_degree", "edges", "x0_size", "x0_type"],
)
def test_bad_delay_graph_and_x0_fail_before_the_reference_solve(monkeypatch, edit, named):
    import zfo.config

    solve = zfo.config.centralized_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(zfo.config, "centralized_solve", counted)
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 3, "seed": 1},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "horizon": 30},
    }
    with pytest.raises(ConfigurationError) as info:
        build_run_config({**doc, **edit})
    assert str(info.value) == named
    assert calls == []
    config, _ = build_run_config(doc)
    assert calls == [1] and config.problem.f_star is not None


@pytest.mark.parametrize(
    "problem, named",
    [
        ({"kind": "box_quadratic", "agents": 10**20, "dim": 2}, "problem.agents: must be <= 8192"),
        ({"kind": "box_quadratic", "agents": 3, "dim": 10**20}, "problem.dim: must be <= 8192"),
        ({"kind": "routing", "groups": 10**20, "agents_per_group": 3},
         "problem.groups: must be <= 8192"),
        ({"kind": "routing", "groups": 2, "agents_per_group": 10**20},
         "problem.agents_per_group: must be <= 8192"),
        ({"kind": "box_quadratic", "agents": 10**6, "dim": 2}, "problem.agents: must be <= 8192"),
        ({"kind": "routing", "groups": 10**5, "agents_per_group": 3},
         "problem.groups: must be <= 8192"),
        ({"kind": "trig_sum", "agents": 100, "dim": 100},
         "problem: 100 agents of dim 100 make 10000 coordinates, above the ceiling of 8192"),
        ({"kind": "routing", "groups": 1000, "agents_per_group": 3},
         "problem: 3000 agents of dim 3 make 9000 coordinates, above the ceiling of 8192"),
    ],
    ids=["box_agents_1e20", "box_dim_1e20", "routing_groups_1e20", "routing_per_group_1e20",
         "box_agents_1e6", "routing_groups_1e5", "trig_coordinates", "routing_coordinates"],
)
def test_hostile_sizes_exit_2_before_any_builder_runs(tmp_path, monkeypatch, capsys, problem, named):
    import zfo.config

    called = []
    for name in ("build_box_quadratic", "build_trig_sum", "build_routing_instance",
                 "routing_problem", "centralized_solve"):
        def refuse(*args, _name=name, **kwargs):
            called.append(_name)
            raise AssertionError(f"{_name} ran on a document above the size ceiling")

        monkeypatch.setattr(zfo.config, name, refuse)
    cfg = _write(tmp_path, {**_base_doc(), "problem": problem})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {named}\n"
    assert called == []


def test_readme_config_example_lists_every_normalized_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file format", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    _, normalized = build_run_config(example)
    assert set(example) == set(normalized)
    assert set(example["params"]) == set(normalized["params"])


def test_graph_kinds_and_edge_validation(tmp_path):
    doc = _base_doc()
    doc["graph"] = {"kind": "edges", "edges": [[1, 2], [2, 3]]}
    config, _ = build_run_config(doc)
    assert config.graph.edges == [(0, 1), (1, 2)]
    doc["graph"] = {"kind": "edges", "edges": [[0, 2]]}
    with pytest.raises(ConfigurationError, match=r"graph.edges\[0\]"):
        build_run_config(doc)
    edge_file = tmp_path / "g.edges"
    edge_file.write_text("1 2\n2 3\n")
    doc["graph"] = {"kind": "file", "path": str(edge_file)}
    config, normalized = build_run_config(doc)
    assert config.graph.edges == [(0, 1), (1, 2)]
    # file graphs are inlined so the echo survives file moves
    assert normalized["graph"] == {"kind": "edges", "edges": [[1, 2], [2, 3]]}


def test_delay_parsing():
    doc = _base_doc()
    doc["delay"] = {"kind": "bernoulli", "p": 0.25, "delta": 7}
    config, normalized = build_run_config(doc)
    assert isinstance(config.delay, BernoulliDrops)
    assert config.delay.p == 0.25
    assert config.delay.declared_delta == 7
    assert normalized["delay"]["p"] == 0.25
    doc["delay"] = {"kind": "bernoulli", "p": 1.0}
    with pytest.raises(ConfigurationError, match="delay.p"):
        build_run_config(doc)


def test_routing_problem_config_attaches_reference_optimum():
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 2, "seed": 1},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "delta": 0.02, "horizon": 30},
    }
    config, _ = build_run_config(doc)
    assert config.problem.n == 4
    assert config.problem.f_star is not None
    doc["problem"]["solve"] = False
    config, _ = build_run_config(doc)
    assert config.problem.f_star is None


def test_apply_overrides():
    doc = apply_overrides(_base_doc(), eta=9e-4, horizon=99, p_drop=0.1, seed=3)
    assert doc["params"]["eta"] == 9e-4
    assert doc["params"]["horizon"] == 99
    assert doc["seed"] == 3
    assert doc["delay"] == {"kind": "bernoulli", "p": 0.1, "delta": 0}
    # p_drop keeps a previously declared extra-delay bound
    doc2 = apply_overrides(doc, p_drop=0.2)
    assert doc2["delay"] == {"kind": "bernoulli", "p": 0.2, "delta": 0}
    assert apply_overrides(doc, p_drop=0)["delay"] == {"kind": "none"}
    with pytest.raises(ConfigurationError, match="unknown override"):
        apply_overrides(doc, eps=0.1)


def test_override_flags_are_the_keys_apply_overrides_accepts():
    parser = argparse.ArgumentParser(add_help=False)
    _add_override_flags(parser)
    assert tuple(action.dest for action in parser._actions) == OVERRIDES
    values = {"mode": "dependence", "p_drop": 0.1}
    for key in OVERRIDES:
        assert apply_overrides(_base_doc(), **{key: values.get(key, 1)}) != _base_doc()


def test_p_drop_zero_keeps_the_declared_extra_delay(tmp_path):
    # --p-drop 0 on a document declaring delta = 3 runs as that document written with p = 0
    doc = {**_base_doc(), "delay": {"kind": "bernoulli", "p": 0.1, "delta": 3}}
    assert apply_overrides(doc, p_drop=0.0)["delay"] == {"kind": "bernoulli", "p": 0.0, "delta": 3}
    written = {**doc, "delay": {"kind": "bernoulli", "p": 0.0, "delta": 3}}
    runs = []
    for name, d, extra in (("overridden", doc, ["--p-drop", "0"]), ("written", written, [])):
        out = tmp_path / name
        cfg = _write(tmp_path, d, f"{name}.json")
        assert main(["run", "--config", cfg, "--out-dir", str(out), *extra]) == 0
        summary = json.loads((out / "summary.json").read_text())
        runs.append((summary["staleness"]["bound"], summary["samples"]))
    assert runs[0] == runs[1] == (5, 36)


def _edit(doc: dict, path: str, value) -> dict:
    """A copy of `doc` with the dotted field `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("problem", 5, "problem: expected an object, got int"),
        ("params.eta", float("inf"), "params.eta: must be finite"),
        ("strict_staleness", 1, "config.strict_staleness: expected true/false, got int"),
        ("mode", 3, "config.mode: expected a string, got int"),
        ("problem.kind", "lasso", "problem.kind: unknown problem kind 'lasso'"),
        ("graph.kind", "star", "graph.kind: unknown graph kind 'star'"),
        ("delay", {"kind": "gilbert"}, "delay.kind: unknown delay kind 'gilbert'"),
        ("graph", {"kind": "file", "path": "no-such.edges"},
         "graph.path: edge-list file not found: no-such.edges"),
        ("graph", {"kind": "edges", "edges": 5}, "graph.edges: expected a list of [a, b] pairs"),
        ("graph", {"kind": "edges", "edges": [[1, 2, 3]]}, "graph.edges[0]: expected a pair"),
        ("delay", {"kind": "bernoulli", "p": 0.1, "delta": -1},
         "delay.delta: declared extra delay must be >= 0"),
        ("x0", 0.5, "config.x0: expected a list of numbers"),
        # JSON's true equals 1 in Python, and 1.0 is no integer
        ("version", True, "config.version: expected an integer, got bool"),
        ("version", 1.0, "config.version: expected an integer, got float"),
    ],
    ids=["non_object", "non_finite", "non_bool", "non_string", "problem_kind", "graph_kind",
         "delay_kind", "graph_file", "edges_not_list", "edge_not_pair", "negative_delta",
         "x0_not_list", "version_bool", "version_float"],
)
def test_config_refusals_name_the_field(field, value, named):
    with pytest.raises(ConfigurationError) as info:
        build_run_config(_edit(_base_doc(), field, value))
    assert named in str(info.value)


def test_edge_list_files_are_read_alike_by_stats_and_config(tmp_path, capsys):
    good, bad = tmp_path / "good.edges", tmp_path / "bad.edges"
    good.write_text("1 2\n2 3\n")
    bad.write_text("1 2\n2 x\n")
    config, normalized = build_run_config(_edit(_base_doc(), "graph", {"kind": "file", "path": str(good)}))
    assert config.graph.edges == CommGraph.path(3).edges
    assert normalized["graph"] == {"kind": "edges", "edges": [[1, 2], [2, 3]]}
    assert main(["stats", "--graph", str(good)]) == 0
    assert json.loads(capsys.readouterr().out)["diameter"] == 2
    with pytest.raises(ConfigurationError, match=r"^graph\.path: edge list line 2: non-integer vertex$"):
        build_run_config(_edit(_base_doc(), "graph", {"kind": "file", "path": str(bad)}))
    assert main(["stats", "--graph", str(bad)]) == 2
    assert capsys.readouterr().err == "configuration error: edge list line 2: non-integer vertex\n"
    # files that cannot be read as text: a directory, and a byte that is not UTF-8
    folder, binary = tmp_path / "folder.edges", tmp_path / "binary.edges"
    folder.mkdir()
    binary.write_bytes(b"1 2\n2 \xff\n")
    for path in (folder, binary):
        with pytest.raises(ConfigurationError) as info:
            build_run_config(_edit(_base_doc(), "graph", {"kind": "file", "path": str(path)}))
        message = str(info.value).removeprefix("graph.path: ")
        assert message.startswith(f"cannot read edge-list file {path}: ")
        assert main(["stats", "--graph", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "edit, outcome",
    [
        # the rings were sized by the declared delay before the horizon was checked against it
        ({"delay": {"kind": "bernoulli", "p": 0.1, "delta": 10**20}}, 2),
        # a window of 2**40 rounds, where the run has 41: the rings hold 41
        ({"history_slack": 2**40}, 0),
    ],
    ids=["delta_1e20", "slack_2_40"],
)
def test_run_sized_rings_are_capped_at_the_horizon(tmp_path, capsys, edit, outcome):
    cfg = _write(tmp_path, {**_base_doc(), **edit})
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == outcome
    if outcome == 2:
        assert "below the staleness bound" in capsys.readouterr().err


def test_load_config_refuses_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,')
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: invalid JSON"):
        load_config(str(path))


def test_trig_sum_and_ring_from_a_document():
    doc = {**_base_doc(), "problem": {"kind": "trig_sum", "agents": 4, "dim": 2, "seed": 1},
           "graph": {"kind": "ring"}}
    config, normalized = build_run_config(doc)
    reference = build_trig_sum(4, 2, seed=1)
    flat = np.linspace(-1.0, 1.0, 8)
    assert config.problem.name == "trig_sum"
    assert config.problem.local_costs(flat).tobytes() == reference.local_costs(flat).tobytes()
    assert config.graph.edges == CommGraph.ring(4).edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert normalized["graph"] == {"kind": "ring"}


def test_x0_is_echoed_and_reruns_bit_for_bit():
    doc = {**_base_doc(), "x0": [0.5, -0.25, 0.0, 1, 0.75, -0.5]}
    config, normalized = build_run_config(doc)
    assert normalized["x0"] == [0.5, -0.25, 0.0, 1.0, 0.75, -0.5]
    config2, normalized2 = build_run_config(normalized)
    assert normalized2 == normalized
    first, second = run(config), run(config2)
    assert first.x_final.tobytes() == second.x_final.tobytes()
    assert first.rows == second.rows


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


def test_run_subcommand_writes_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, _base_doc())
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out-dir", str(out)])
    assert code == 0
    assert "run complete" in capsys.readouterr().out
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f", "gap", "grad_sq", "stale_max", "feasible", "fallbacks"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["staleness"]["assumption_clean"] is True
    # round-trip: the echoed config re-parses and re-runs identically
    config2, _ = build_run_config(summary["config"])
    from zfo.runner import run as engine_run

    trace2 = engine_run(config2)
    assert trace2.f_final == summary["f_final"]
    assert list(trace2.x_final) == summary["x_final"]


def test_run_subcommand_overrides_change_run(tmp_path):
    cfg = _write(tmp_path, _base_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out-dir", str(out2), "--horizon", "80"]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["config"]["params"]["horizon"] == 40
    assert s2["config"]["params"]["horizon"] == 80
    assert s1["x_final"] != s2["x_final"]


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    doc = _base_doc()
    doc["params"]["u"] = -1.0
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "argv, edit, named",
    [
        (["run", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
        (
            ["run"],
            {"problem": {"kind": "box_quadratic", "agents": 3, "dim": 2, "seed": -3}},
            "problem.seed: must be >= 0",
        ),
        (["run"], {"graph": {"kind": "random", "seed": -2}}, "graph.seed: must be >= 0"),
        (["sweep", "--seeds", "2", "--seed-base", "-1"], {}, "--seed-base must be >= 0, got -1"),
    ],
)
def test_negative_seeds_exit_2_naming_the_field(tmp_path, capsys, argv, edit, named):
    cfg = _write(tmp_path, {**_base_doc(), **edit})
    out = tmp_path / "out"
    assert main([argv[0], "--config", cfg, "--out-dir", str(out), *argv[1:]]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "graph, named",
    [
        ({"kind": "random", "seed": 0, "max_degree": 1}, "graph.max_degree: must be >= 2"),
        ({"kind": "random", "seed": 0, "max_degree": 0, "extra_edges": -2},
         "graph.extra_edges: must be >= 0"),
        # three agents form a triangle, which leaves no pair for a chord
        ({"kind": "random", "seed": 0, "extra_edges": 1},
         "graph.extra_edges: extra_edges = 1 exceeds the 0 chords"),
    ],
)
def test_random_graph_bounds_exit_2_naming_the_field(tmp_path, capsys, graph, named):
    cfg = _write(tmp_path, {**_base_doc(), "graph": graph})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigurationError, match=named):
        build_run_config({**_base_doc(), "graph": graph})


def test_exit_code_3_on_assumption_violation(tmp_path, capsys):
    doc = _base_doc()
    doc["params"]["horizon"] = 400
    doc["delay"] = {"kind": "bernoulli", "p": 0.6, "delta": 0}
    doc["strict_staleness"] = True
    doc["seed"] = 21
    cfg = _write(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "assumption violation" in capsys.readouterr().err


def test_exit_code_4_on_oracle_nonconvergence(tmp_path, capsys):
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 2, "seed": 0,
                     "solve": False},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "delta": 0.02, "horizon": 30},
    }
    cfg = _write(tmp_path, doc)
    assert main(["oracle", "--config", cfg, "--max-iter", "1", "--tol", "1e-14"]) == 4
    assert "oracle failure" in capsys.readouterr().err


def test_plan_subcommand(tmp_path, capsys):
    constants = {
        "n_agents": 3,
        "dim": 6,
        "lipschitz": 2.0,
        "smoothness": 4.0,
        "b_bar": 1.5,
        "b_frak": 1.5,
        "staleness_bound": 2,
        "sigma": 0.0,
        "outer_radius": 1.0,
        "inner_radius": 0.5,
        "breg_diameter": 2.0,
        "gap_max": 4.0,
    }
    # every regime the planner knows is reachable from the CLI; the
    # interior regime needs noisy observations and smoothness > 0
    for regime, sigma in (("convex-noiseless", 0.0), ("convex-noisy-interior", 0.5)):
        cpath = tmp_path / f"constants-{regime}.json"
        cpath.write_text(json.dumps({**constants, "sigma": sigma}))
        out = tmp_path / f"plan-{regime}.json"
        code = main([
            "plan", "--regime", regime, "--eps", "0.1",
            "--constants", str(cpath), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["plan"]["regime"] == regime
        assert doc["report"]["satisfied"] is True
        assert all(c["satisfied"] for c in doc["report"]["checks"])
        # stdout variant
        code = main(["plan", "--regime", regime, "--eps", "0.1",
                     "--constants", str(cpath)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"]["satisfied"] is True


def test_plan_subcommand_error_paths(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"n_agents": 2}))
    assert main(["plan", "--regime", "convex-noiseless", "--eps", "0.1",
                 "--constants", str(cpath)]) == 2
    assert "configuration error" in capsys.readouterr().err


_PLAN_CONSTANTS = {"n_agents": 3, "dim": 6, "lipschitz": 2.0, "smoothness": 4.0, "b_bar": 1.5,
                   "b_frak": 1.5, "staleness_bound": 2, "outer_radius": 1.0, "inner_radius": 0.5,
                   "breg_diameter": 2.0, "gap_max": 4.0}


@pytest.mark.parametrize(
    "argv, files, named",
    [
        (["plan", "--constants", "{tmp}/missing.json"], {}, "missing.json"),
        (["plan", "--constants", "{tmp}/c.json"], {"c.json": "{"}, "c.json: invalid JSON"),
        (["plan", "--constants", "{tmp}/c.json"], {"c.json": "5"},
         "c.json: expected an object, got int"),
        (["plan", "--constants", "{tmp}/c.json"],
         {"c.json": json.dumps({**_PLAN_CONSTANTS, "lipschitz": "a"})},
         "lipschitz must be a number, got 'a'"),
        (["plan", "--constants", "{tmp}/c.json"],
         {"c.json": json.dumps({**_PLAN_CONSTANTS, "n_agents": True})},
         "n_agents must be a positive integer, got True"),
        (["stats", "--graph", "{tmp}/missing.edges"], {}, "edge-list file not found"),
        (["stats", "--graph", "{tmp}/g.edges", "--dims", "1,a"], {"g.edges": "1 2\n"},
         "--dims must be comma-separated integers"),
        (["stats", "--graph", "{tmp}/g.edges", "--dims", "0,0,0"], {"g.edges": "1 2\n2 3\n"},
         "agent 1 has dimension 0, not a positive integer"),
        (["stats", "--graph", "{tmp}/g.edges", "--dims", "2,-1,1"], {"g.edges": "1 2\n2 3\n"},
         "agent 2 has dimension -1, not a positive integer"),
        (["sweep", "--config", "{tmp}/config.json", "--seeds", "0"],
         {"config.json": json.dumps(_base_doc())}, "--seeds must be >= 1"),
        # a directory, and a file that is not UTF-8 text
        (["plan", "--constants", "{tmp}/d"], {"d": None}, "cannot read file {tmp}/d: "),
        (["plan", "--constants", "{tmp}/c.json"], {"c.json": b"\xff{}"},
         "cannot read file {tmp}/c.json: not UTF-8 text"),
        (["run", "--config", "{tmp}/d"], {"d": None}, "cannot read file {tmp}/d: "),
        (["run", "--config", "{tmp}/config.json"], {"config.json": b'{"version": 1\xff}'},
         "cannot read file {tmp}/config.json: not UTF-8 text"),
        (["stats", "--graph", "{tmp}/d"], {"d": None}, "cannot read edge-list file {tmp}/d: "),
        (["stats", "--graph", "{tmp}/g.edges"], {"g.edges": b"1 2\n\xff"},
         "cannot read edge-list file {tmp}/g.edges: not UTF-8 text"),
    ],
    ids=["constants_missing", "constants_invalid_json", "constants_number", "lipschitz_string",
         "n_agents_bool", "graph_missing", "dims_malformed", "dims_zero", "dims_negative",
         "no_seeds", "constants_directory", "constants_not_utf8", "config_directory",
         "config_not_utf8", "graph_directory", "graph_not_utf8"],
)
def test_cli_refusals_exit_2_naming_the_input(tmp_path, capsys, argv, files, named):
    for name, content in files.items():  # None makes a directory
        if content is None:
            (tmp_path / name).mkdir()
        elif isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    if argv[0] == "plan":
        argv = ["plan", "--regime", "convex-noiseless", "--eps", "0.1", *argv[1:]]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named.replace("{tmp}", str(tmp_path)) in err


def test_stats_subcommand_matches_hand_value(tmp_path, capsys):
    gpath = tmp_path / "path3.edges"
    gpath.write_text("1 2\n2 3\n")
    assert main(["stats", "--graph", str(gpath), "--delta", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # sqrt(12/9): RMS over the ordered-pair hop matrix of a 3-path
    assert doc["b_bar"] == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-9)
    assert doc["b_bar"] == pytest.approx(1.15470, abs=5e-6)
    assert doc["diameter"] == 2
    assert doc["staleness_bound"] == 2
    assert doc["n"] == 3


def test_stats_subcommand_dims_weighting(tmp_path, capsys):
    gpath = tmp_path / "path2.edges"
    gpath.write_text("1 2\n")
    assert main(["stats", "--graph", str(gpath), "--dims", "1,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # receiver-weighted RMS: mean over j of dims-weighted column average
    dist = np.array([[0, 1], [1, 0]], dtype=float)
    dims = np.array([1.0, 3.0])
    want = math.sqrt(float((dist**2 * dims[:, None]).sum()) / (2 * dims.sum()))
    assert doc["b_frak"] == pytest.approx(want, rel=1e-12)


def test_oracle_subcommand(tmp_path):
    doc = {
        "version": 1,
        "problem": {"kind": "box_quadratic", "agents": 2, "dim": 2, "seed": 0},
        "graph": {"kind": "path"},
        "params": {"eta": 1e-3, "u": 1e-3, "horizon": 10},
    }
    cfg = _write(tmp_path, doc)
    out = tmp_path / "solve.json"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["converged"] is True
    from zfo.problems import build_box_quadratic

    problem = build_box_quadratic(2, 2, seed=0)
    assert result["f"] == pytest.approx(problem.f_star, abs=1e-8)


def test_oracle_solves_the_reference_once_at_tol(tmp_path, monkeypatch):
    import zfo.cli
    import zfo.config

    calls = []
    real = zfo.config.centralized_solve

    def counting(problem, **kwargs):
        calls.append(kwargs["tol"])
        return real(problem, **kwargs)

    monkeypatch.setattr(zfo.config, "centralized_solve", counting)
    monkeypatch.setattr(zfo.cli, "centralized_solve", counting)
    doc = {
        "version": 1,
        "problem": {"kind": "routing", "groups": 2, "agents_per_group": 3, "seed": 1,
                    "solve_tol": 1e-12},
        "graph": {"kind": "complete"},
        "params": {"eta": 1e-3, "u": 1e-3, "delta": 0.02, "horizon": 30},
    }
    cfg = _write(tmp_path, doc)
    out = tmp_path / "solve.json"
    assert main(["oracle", "--config", cfg, "--tol", "1e-9", "--out", str(out)]) == 0
    assert calls == [1e-9]
    result = json.loads(out.read_text())
    assert list(result) == ["f", "x", "n_iter", "converged", "residual"]
    assert result["converged"] is True
    assert result["residual"] <= 1e-9


def test_sweep_subcommand(tmp_path):
    doc = _base_doc()
    doc["params"]["horizon"] = 20
    doc["metric_every"] = 5
    cfg = _write(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", "1"]) == 0
    for seed in range(3):
        assert (out / f"trace_seed{seed}.csv").exists()
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f_mean", "f_std", "gap_mean", "gap_std",
                       "grad_sq_mean", "grad_sq_std"]
    assert [r[0] for r in rows[1:]] == ["0", "5", "10", "15", "20"]
    # aggregate matches a by-hand mean of the per-seed traces
    finals = []
    for seed in range(3):
        with open(out / f"trace_seed{seed}.csv", newline="") as fh:
            finals.append(float(list(csv.reader(fh))[-1][1]))
    assert float(rows[-1][1]) == pytest.approx(np.mean(finals), rel=1e-12)
    std = float(rows[-1][2])
    assert std == pytest.approx(np.std(finals), rel=1e-9, abs=1e-15)


def test_sweep_aggregate_leaves_the_gap_empty_without_a_reference(tmp_path):
    doc = {**_base_doc(), "metric_every": 5,
           "problem": {"kind": "routing", "groups": 2, "agents_per_group": 1, "solve": False},
           "params": {"eta": 1e-3, "u": 1e-3, "delta": 0.05, "horizon": 10}}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write(tmp_path, doc), "--seeds", "2",
                 "--out-dir", str(out), "--workers", "1"]) == 0
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "5", "10"]
    for row in rows[1:]:
        assert row[3:5] == ["", ""]
        assert all(math.isfinite(float(v)) for v in row[1:3] + row[5:])


def test_sweep_parallel_workers_match_serial(tmp_path):
    doc = _base_doc()
    doc["params"]["horizon"] = 20
    doc["metric_every"] = 10
    cfg = _write(tmp_path, doc)
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--seeds", "2", "--out-dir", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--seeds", "2", "--out-dir", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "aggregate.csv").read_text() == (out2 / "aggregate.csv").read_text()


def test_sweep_solves_the_reference_once(tmp_path, monkeypatch):
    import zfo.config

    doc = _base_doc()
    doc["problem"] = {"kind": "routing", "groups": 1, "agents_per_group": 3, "seed": 1}
    doc["params"]["horizon"] = 10
    cfg = _write(tmp_path, doc)
    solve = zfo.config.centralized_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(zfo.config, "centralized_solve", counted)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", "1"]) == 0
    assert len(calls) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv", "trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv"
    ]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the
    worker initializer and each submitted call in this process, so no
    worker is started."""

    created: list[int] = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        assert mp_context.get_start_method() == "fork"
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = Future()
        future.set_result(fn(item))
        return future


def test_sweep_workers_capped_at_usable_cpus(tmp_path, monkeypatch):
    doc = _base_doc()
    doc["params"]["horizon"] = 10
    cfg = _write(tmp_path, doc)
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_SerialPool, "created", [])
    out = str(tmp_path / "sweep")
    sweep = ["sweep", "--config", cfg, "--seeds", "4", "--out-dir", out]
    assert main(sweep + ["--workers", "5000"]) == 0
    assert main(sweep + ["--workers", "2"]) == 0
    assert main(sweep) == 0
    assert _SerialPool.created == [3, 2, 3]


def test_sweep_keeps_going_when_a_seed_fails(tmp_path, monkeypatch, capsys):
    import zfo.cli

    doc = _base_doc()
    doc["params"]["horizon"] = 10
    doc["metric_every"] = 5
    cfg = _write(tmp_path, doc)
    real_run = zfo.cli.run
    failing = {1}

    def flaky(config):
        if config.seed in failing:
            raise DomainError(f"agent 2 would act outside its feasible set at round {config.seed}")
        return real_run(config)

    monkeypatch.setattr("zfo.cli.run", flaky)
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in ("1", "2"):  # serial, and through the pool
        out = tmp_path / f"workers{workers}"
        sweep = ["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", workers]
        assert main(sweep) == 3  # DomainError's exit code
        assert "seed 1: agent 2 would act outside" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "failures.csv", "trace_seed0.csv", "trace_seed2.csv"
        ]
        with open(out / "failures.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["seed", "error", "message"],
                ["1", "DomainError", "agent 2 would act outside its feasible set at round 1"],
            ]
        # the aggregate averages the two seeds that finished
        finals = []
        for seed in (0, 2):
            with open(out / f"trace_seed{seed}.csv", newline="") as fh:
                finals.append(float(list(csv.reader(fh))[-1][1]))
        with open(out / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["0", "5", "10"]
        assert float(rows[-1][1]) == pytest.approx(np.mean(finals), rel=1e-12)

    # no seed finishes: no aggregate, every seed listed
    failing.update({0, 2})
    out = tmp_path / "none"
    assert main(["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", "1"]) == 3
    assert "seed 0:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["failures.csv"]
    with open(out / "failures.csv", newline="") as fh:
        assert [r[0] for r in csv.reader(fh)] == ["seed", "0", "1", "2"]


def test_sweep_reports_each_seed_as_it_finishes(tmp_path, monkeypatch, capsys):
    import time

    import zfo.cli

    doc = _base_doc()
    doc["params"]["horizon"] = 10
    cfg = _write(tmp_path, doc)
    real_run = zfo.cli.run

    def uneven(config):  # the forked workers inherit this patch
        if config.seed == 0:
            time.sleep(1.0)
        if config.seed == 2:
            raise DomainError("agent 2 would act outside its feasible set at round 3")
        return real_run(config)

    monkeypatch.setattr("zfo.cli.run", uneven)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        sweep = ["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", workers]
        assert main(sweep) == 3
        lines = capsys.readouterr().out.splitlines()
        # serially in seed order; with two workers, seed 0 finishes last
        order = [0, 1, 2] if workers == "1" else [1, 2, 0]
        assert [int(re.match(r"seed (\d+): ", line)[1]) for line in lines[:3]] == order
        by_seed = dict(zip(order, lines))
        for seed in (0, 1):
            assert re.fullmatch(rf"seed {seed}: finished in \d+\.\d{{3}} s", by_seed[seed])
        assert by_seed[2] == (
            "seed 2: DomainError: agent 2 would act outside its feasible set at round 3"
        )
        assert lines[3].startswith("sweep: 1 of 3 seeds failed") and len(lines) == 4


def test_sweep_clears_what_an_earlier_sweep_left(tmp_path, monkeypatch, capsys):
    import zfo.cli

    doc = _base_doc()
    doc["params"]["horizon"] = 10
    doc["metric_every"] = 5
    cfg = _write(tmp_path, doc)
    real_run = zfo.cli.run
    failing = set()

    def flaky(config):
        if config.seed in failing:
            raise DomainError(f"agent 1 would act outside its feasible set at round {config.seed}")
        return real_run(config)

    monkeypatch.setattr("zfo.cli.run", flaky)
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    traces = ["trace_seed0.csv", "trace_seed1.csv", "trace_seed2.csv"]
    for workers in ("1", "2"):  # serial, and through the pool
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        (out / "notes.txt").write_text("not the sweep's\n")
        sweep = ["sweep", "--config", cfg, "--seeds", "3", "--out-dir", str(out),
                 "--workers", workers]
        # each sweep leaves exactly its own outputs, whatever the one before left
        for fail, code, names in (
            (set(), 0, ["aggregate.csv", *traces]),
            ({0, 1, 2}, 3, ["failures.csv"]),
            ({1}, 3, ["aggregate.csv", "failures.csv", traces[0], traces[2]]),
            (set(), 0, ["aggregate.csv", *traces]),
        ):
            failing.clear()
            failing.update(fail)
            (out / traces[0]).write_text("stale\n")
            assert main(sweep) == code
            capsys.readouterr()
            assert sorted(p.name for p in out.iterdir()) == sorted(names + ["notes.txt"])
            if traces[0] in names:
                assert (out / traces[0]).read_text().startswith("t,f,gap")


def test_sweep_rejects_bad_worker_counts(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, _base_doc())
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    out = tmp_path / "sweep"
    sweep = ["sweep", "--config", cfg, "--seeds", "2", "--out-dir", str(out)]
    assert main(sweep + ["--workers", "-1"]) == 2
    assert "--workers must be >= 0" in capsys.readouterr().err
    assert not out.exists()
