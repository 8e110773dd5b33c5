"""Versioned JSON experiment configuration.

A config document fully determines one simulation run: the problem
instance, the communication graph, algorithm parameters, the delay
model, and engine options.  Parsing is strict — unknown fields and type
mismatches are reported with their full field path so a typo cannot
silently change an experiment.  ``build_run_config`` also returns a
normalized copy of the document (defaults filled in, file-based graphs
inlined) that is echoed into run summaries and re-parses to an
equivalent configuration.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import types
from typing import Any

import numpy as np

from .errors import ConfigurationError, unreadable
from .network import BernoulliDrops, CommGraph, NoDelay
from .problems import (
    MAX_COORDINATES,
    ROUTES_PER_AGENT,
    Problem,
    build_box_quadratic,
    build_routing_instance,
    build_trig_sum,
    centralized_solve,
    routing_problem,
)
from .runner import RunConfig, validate_options

CONFIG_VERSION = 1

_PROBLEM_FIELDS = {
    "routing": {"kind", "groups", "agents_per_group", "seed", "solve", "solve_tol"},
    "box_quadratic": {"kind", "agents", "dim", "seed"},
    "trig_sum": {"kind", "agents", "dim", "seed"},
}
_GRAPH_FIELDS = {
    "path": {"kind"},
    "ring": {"kind"},
    "complete": {"kind"},
    "random": {"kind", "seed", "extra_edges", "max_degree"},
    "edges": {"kind", "edges"},
    "file": {"kind", "path"},
}
_DELAY_FIELDS = {
    "none": {"kind"},
    "bernoulli": {"kind", "p", "delta"},
}


def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_fields(doc: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(path, f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


def _get(doc: dict, field: str, path: str, *, required: bool = False, default=None):
    if field not in doc:
        if required:
            _fail(path, f"missing required field '{field}'")
        return default
    return doc[field]


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value):
        _fail(path, "must be finite")
    return value


def _as_int(value: Any, path: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if low is not None and value < low:
        _fail(path, f"must be >= {low}")
    if high is not None and value > high:
        _fail(path, f"must be <= {high}")
    return int(value)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


# The scalar run options are the RunConfig fields whose annotation has a
# parser here; their defaults are RunConfig's.  These five nest under
# "params", the rest sit at the top level.
_PARSERS = {"float": _as_number, "int": _as_int, "str": _as_str, "bool": _as_bool}
_PARAMS = ("eta", "u", "delta", "sigma", "horizon")
OVERRIDES = _PARAMS + ("seed", "p_drop", "mode")  # apply_overrides' keys, the CLI's flags
_OPTIONS = [f for f in dataclasses.fields(RunConfig) if f.type in _PARSERS]
_PARAM_OPTIONS = [f for f in _OPTIONS if f.name in _PARAMS]
_TOP_OPTIONS = [f for f in _OPTIONS if f.name not in _PARAMS]
_TOP_FIELDS = {"version", "problem", "graph", "params", "delay", "x0"}
_TOP_FIELDS |= {f.name for f in _TOP_OPTIONS}


def _read(doc: dict, fields: list[dataclasses.Field], path: str) -> dict:
    """Parse `fields` from `doc`; a field without a RunConfig default is required."""
    return {
        f.name: _PARSERS[f.type](
            _get(doc, f.name, path, required=f.default is dataclasses.MISSING, default=f.default),
            f"{path}.{f.name}",
        )
        for f in fields
    }


# ---------------------------------------------------------------------------
# loading and overrides
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    """Read a JSON file holding one object (a config document or a constants
    file); errors carry the file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(path, exc) from None
    return _require_mapping(doc, path)


def apply_overrides(doc: dict, **overrides) -> dict:
    """Return a copy of `doc` with command-line overrides folded in.

    Recognized keys (`OVERRIDES`): eta, u, delta, sigma, horizon (params),
    seed, mode, and p_drop (replaces the delay model, keeping any previously
    declared extra-delay bound; with p_drop = 0 and no bound it is "none").
    """
    doc = copy.deepcopy(doc)
    for key in _PARAMS:
        value = overrides.pop(key, None)
        if value is not None:
            doc.setdefault("params", {})[key] = value
    for key in ("seed", "mode"):
        value = overrides.pop(key, None)
        if value is not None:
            doc[key] = value
    p_drop = overrides.pop("p_drop", None)
    if p_drop is not None:
        declared = 0
        if isinstance(doc.get("delay"), dict):
            declared = doc["delay"].get("delta", 0)
        if p_drop == 0 and declared == 0:
            doc["delay"] = {"kind": "none"}
        else:
            doc["delay"] = {"kind": "bernoulli", "p": p_drop, "delta": declared}
    if overrides:
        raise ConfigurationError(f"unknown override(s): {sorted(overrides)}")
    return doc


# ---------------------------------------------------------------------------
# component builders
# ---------------------------------------------------------------------------


def build_problem(doc: dict, path: str = "problem") -> tuple[Problem, float | None]:
    """Build the problem without its reference solve; also return the
    tolerance to solve it to, None when its optimum is known or `solve`
    is false.  Sizes above `MAX_COORDINATES` are refused before any
    builder runs."""
    doc = _require_mapping(doc, path)
    kind = _as_str(_get(doc, "kind", path, required=True), f"{path}.kind")
    if kind not in _PROBLEM_FIELDS:
        _fail(f"{path}.kind", f"unknown problem kind '{kind}'; one of {sorted(_PROBLEM_FIELDS)}")
    _check_fields(doc, _PROBLEM_FIELDS[kind], path)
    seed = _as_int(_get(doc, "seed", path, default=0), f"{path}.seed", low=0)
    # each size is held to the coordinate ceiling alone, then their product
    high = MAX_COORDINATES
    if kind == "routing":
        groups = _as_int(_get(doc, "groups", path, required=True), f"{path}.groups", 1, high)
        per = _as_int(
            _get(doc, "agents_per_group", path, required=True), f"{path}.agents_per_group", 1, high
        )
        _check_coordinates(path, groups * per, ROUTES_PER_AGENT - 1)
        tol = None
        if _as_bool(_get(doc, "solve", path, default=True), f"{path}.solve"):
            tol = _as_number(_get(doc, "solve_tol", path, default=1e-10), f"{path}.solve_tol")
        return routing_problem(build_routing_instance(groups, per, seed=seed)), tol
    agents = _as_int(_get(doc, "agents", path, required=True), f"{path}.agents", 1, high)
    dim = _as_int(_get(doc, "dim", path, required=True), f"{path}.dim", 1, high)
    _check_coordinates(path, agents, dim)
    if kind == "box_quadratic":
        return build_box_quadratic(agents, dim, seed=seed), None
    return build_trig_sum(agents, dim, seed=seed), None


def _check_coordinates(path: str, agents: int, dim: int) -> None:
    """Refuse `agents` agents of `dim` coordinates each above the ceiling."""
    if agents * dim > MAX_COORDINATES:
        _fail(
            path,
            f"{agents} agents of dim {dim} make {agents * dim} coordinates, above the "
            f"ceiling of {MAX_COORDINATES}",
        )


def build_graph(doc: dict, n: int, path: str = "graph") -> tuple[CommGraph, dict]:
    """Build the communication graph; also return its normalized document.

    File-based graphs are inlined as explicit edge lists so that the
    echoed config stays valid after the original file moves.
    """
    doc = _require_mapping(doc, path)
    kind = _as_str(_get(doc, "kind", path, required=True), f"{path}.kind")
    if kind not in _GRAPH_FIELDS:
        _fail(f"{path}.kind", f"unknown graph kind '{kind}'; one of {sorted(_GRAPH_FIELDS)}")
    _check_fields(doc, _GRAPH_FIELDS[kind], path)
    if kind == "path":
        return CommGraph.path(n), dict(doc)
    if kind == "ring":
        return CommGraph.ring(n), dict(doc)
    if kind == "complete":
        return CommGraph.complete(n), dict(doc)
    if kind == "random":
        seed = _as_int(_get(doc, "seed", path, required=True), f"{path}.seed", low=0)
        kwargs = {}
        if "extra_edges" in doc:
            kwargs["extra_edges"] = _as_int(doc["extra_edges"], f"{path}.extra_edges", low=0)
        if "max_degree" in doc:
            low = 2 if n >= 3 else None  # a cycle through n >= 3 agents has degree 2
            kwargs["max_degree"] = _as_int(doc["max_degree"], f"{path}.max_degree", low=low)
        try:
            return CommGraph.random_connected(n, seed=seed, **kwargs), dict(doc)
        except ConfigurationError as exc:  # the other fields passed their checks above
            _fail(f"{path}.extra_edges", str(exc))
    if kind == "file":
        file_path = _as_str(_get(doc, "path", path, required=True), f"{path}.path")
        try:
            graph = CommGraph.from_edge_list_file(file_path, n=n)
        except ConfigurationError as exc:
            _fail(f"{path}.path", str(exc))
        return graph, {"kind": "edges", "edges": [[a + 1, b + 1] for a, b in graph.edges]}
    raw = _get(doc, "edges", path, required=True)
    if not isinstance(raw, list):
        _fail(f"{path}.edges", "expected a list of [a, b] pairs (1-indexed)")
    edges = []
    for k, pair in enumerate(raw):
        p = f"{path}.edges[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(p, "expected a pair [a, b]")
        a, b = _as_int(pair[0], p), _as_int(pair[1], p)
        if not (1 <= a <= n and 1 <= b <= n):
            _fail(p, f"agent ids are 1-indexed and must lie in [1, {n}]")
        edges.append((a - 1, b - 1))
    return CommGraph(n, edges), dict(doc)


def build_delay(doc: dict | None, path: str = "delay"):
    if doc is None:
        return NoDelay(), {"kind": "none"}
    doc = _require_mapping(doc, path)
    kind = _as_str(_get(doc, "kind", path, required=True), f"{path}.kind")
    if kind not in _DELAY_FIELDS:
        _fail(f"{path}.kind", f"unknown delay kind '{kind}'; one of {sorted(_DELAY_FIELDS)}")
    _check_fields(doc, _DELAY_FIELDS[kind], path)
    if kind == "none":
        return NoDelay(), {"kind": "none"}
    p = _as_number(_get(doc, "p", path, required=True), f"{path}.p")
    if not 0 <= p < 1:
        _fail(f"{path}.p", "drop probability must lie in [0, 1)")
    declared = _as_int(_get(doc, "delta", path, default=0), f"{path}.delta")
    if declared < 0:
        _fail(f"{path}.delta", "declared extra delay must be >= 0")
    return BernoulliDrops(p, declared_delta=declared), {
        "kind": "bernoulli",
        "p": p,
        "delta": declared,
    }


# ---------------------------------------------------------------------------
# full assembly
# ---------------------------------------------------------------------------


def build_run_config(doc: dict) -> tuple[RunConfig, dict]:
    """Validate a config document and assemble the run configuration.

    Returns (config, normalized document).  The normalized document has
    all defaults made explicit and is stored as the config echo, so a
    summary JSON can be re-run verbatim.
    """
    doc = _require_mapping(doc, "config")
    _check_fields(doc, _TOP_FIELDS, "config")
    version = _as_int(_get(doc, "version", "config", required=True), "config.version")
    if version != CONFIG_VERSION:
        _fail("config.version", f"expected {CONFIG_VERSION}, got {version!r}")
    # the options are read and checked before the problem, so a typo or an
    # out-of-range value fails before a reference solve
    params = _require_mapping(_get(doc, "params", "config", required=True), "params")
    _check_fields(params, set(_PARAMS), "params")
    options = {**_read(params, _PARAM_OPTIONS, "params"), **_read(doc, _TOP_OPTIONS, "config")}
    validate_options(types.SimpleNamespace(**options))

    # likewise every other field: the delay, the graph (which needs the
    # agent count) and x0 (the dimension) are checked before the solve
    delay, delay_doc = build_delay(_get(doc, "delay", "config", default=None))
    problem, solve_tol = build_problem(_get(doc, "problem", "config", required=True))
    graph, graph_doc = build_graph(_get(doc, "graph", "config", required=True), problem.n)
    x0 = None
    if "x0" in doc:
        raw = doc["x0"]
        if not isinstance(raw, list):
            _fail("config.x0", "expected a list of numbers")
        x0 = np.array([_as_number(v, f"config.x0[{k}]") for k, v in enumerate(raw)])
        if x0.size != problem.total_dim:
            _fail("config.x0", f"expected {problem.total_dim} entries, got {x0.size}")
    if solve_tol is not None:
        result = centralized_solve(problem, tol=solve_tol, require_convergence=True)
        problem = dataclasses.replace(problem, f_star=result.f, x_star=result.x)

    normalized = {
        "version": CONFIG_VERSION,
        "problem": dict(doc["problem"]),
        "graph": graph_doc,
        "params": {f.name: options[f.name] for f in _PARAM_OPTIONS},
        "delay": delay_doc,
        **{f.name: options[f.name] for f in _TOP_OPTIONS},
    }
    if x0 is not None:
        normalized["x0"] = [float(v) for v in x0]

    config = RunConfig(
        problem=problem, graph=graph, delay=delay, x0=x0, echo=normalized, **options
    )
    return config, normalized
