"""CLI and JSON-config tests: subcommands, exit codes, file artifacts."""

import csv
import json
import math
import os

import numpy as np
import pytest

from zfo.cli import main
from zfo.config import apply_overrides, build_run_config, load_config
from zfo.errors import ConfigurationError
from zfo.network import BernoulliDrops, NoDelay


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


def test_workers_env_default(tmp_path, monkeypatch):
    doc = _base_doc()
    doc["params"]["horizon"] = 10
    cfg = _write(tmp_path, doc)
    monkeypatch.setenv("ZFO_WORKERS", "1")
    out = tmp_path / "env"
    assert main(["sweep", "--config", cfg, "--seeds", "2", "--out-dir", str(out)]) == 0
    assert (out / "aggregate.csv").exists()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the
    worker initializer and maps in this process, so no worker is started."""

    created: list[int] = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        assert mp_context.get_start_method() == "fork"
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_workers_capped_at_usable_cpus(tmp_path, monkeypatch):
    doc = _base_doc()
    doc["params"]["horizon"] = 10
    cfg = _write(tmp_path, doc)
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_SerialPool, "created", [])
    monkeypatch.delenv("ZFO_WORKERS", raising=False)
    out = str(tmp_path / "sweep")
    sweep = ["sweep", "--config", cfg, "--seeds", "4", "--out-dir", out]
    assert main(sweep + ["--workers", "5000"]) == 0
    assert main(sweep + ["--workers", "2"]) == 0
    assert main(sweep) == 0
    monkeypatch.setenv("ZFO_WORKERS", "5000")
    assert main(sweep) == 0
    assert _SerialPool.created == [3, 2, 3, 3]


def test_sweep_rejects_bad_worker_counts(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, _base_doc())
    monkeypatch.setattr("zfo.cli.ProcessPoolExecutor", _SerialPool)
    out = tmp_path / "sweep"
    sweep = ["sweep", "--config", cfg, "--seeds", "2", "--out-dir", str(out)]
    assert main(sweep + ["--workers", "-1"]) == 2
    assert "--workers must be >= 0" in capsys.readouterr().err
    for raw in ("two", "1.5", "-3"):
        monkeypatch.setenv("ZFO_WORKERS", raw)
        assert main(sweep) == 2
        assert "ZFO_WORKERS" in capsys.readouterr().err
    assert not out.exists()
