"""Span tracing of zfo from outside the package.

A `Tracer` wraps the public functions and methods of each zfo layer in
place (module attributes and class attributes), records one span per
call, and restores every original when `installed()` exits.  A span is
(name, start, end, parent span, workload/seed tag).  Spans and counters
stay in memory, in flat arrays, and are written out at the end; a
process forked while the wrappers are installed (the `zfo sweep` pool)
writes its own spans to the spill directory each time its outermost
span ends, because pool workers exit without running `atexit`.

`summarize` turns span sets into per-(name, phase) call counts, total
time and self time.  The phase of a span is that of its root span:
`setup` under `config.build_run_config`, `round` under `runner.run`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

SETUP_ROOT = "config.build_run_config"
ROUND_ROOT = "runner.run"
HOOKS = "trace.hooks"  # the tracer's own counting work, kept out of its parent's self time
PHASES = ("setup", "round", "other")


class Tracer:
    def __init__(self, spill_dir: Path | None = None):
        self.spill_dir = spill_dir
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.workload = ""
        self.tags: list[str] = [""]
        self._tag = 0
        self.real_slots: np.ndarray | None = None  # (n, max_deg) mask of real neighbour slots
        self._patches: list[tuple] = []
        self._child = False
        self._flushes = 0
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------------

    def _clear(self) -> None:
        self._name = array("q")
        self._parent = array("q")
        self._tagcol = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _set_seed(self, seed) -> None:
        """Label the spans that start from now on with the workload and seed."""
        self.tags.append(f"{self.workload}/seed={seed}")
        self._tag = len(self.tags) - 1

    def _open(self, name_id: int) -> int:
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._tagcol.append(self._tag)
        self._end.append(0)
        self._stack.append(i)
        self._start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter_ns()
        self._stack.pop()
        if self._child and not self._stack:
            self._flush()

    def wrap(self, name: str, fn, before=None, after=None, seed_of=None):
        """Return `fn` wrapped in a span.

        `before(args)` runs ahead of the call and its result is handed to
        `after(args, result, state)`; both run inside `trace.hooks` spans.
        `seed_of(args)` names the seed when the call opens a root span.
        """
        name_id = self._intern(name)
        hooks_id = self._intern(HOOKS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seed_of is not None and not self._stack:
                self._set_seed(seed_of(args))
            state = None
            if before is not None:
                h = self._open(hooks_id)
                state = before(args)
                self._close(h)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                h = self._open(hooks_id)
                after(args, result, state)
                self._close(h)
            return result

        return wrapper

    # -- installing ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the zfo layers for the duration of the block."""
        try:
            for owner, attr, name, before, after, seed_of in _targets(self):
                original = getattr(owner, attr)
                own = attr in vars(owner)
                wrapper = self.wrap(name, original, before, after, seed_of)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, original, own))
                    setattr(owner, attr, wrapper)
                    continue
                for module, binding in _bindings(original):
                    self._patches.append((module, binding, original, True))
                    setattr(module, binding, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, original, own = self._patches.pop()
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def wrap_problem(self, config):
        """`config` with its problem's `local_costs` traced (it is a dataclass field)."""
        problem = config.problem
        traced = self.wrap("problems.local_costs", problem.local_costs)
        return dataclasses.replace(
            config, problem=dataclasses.replace(problem, local_costs=traced)
        )

    # -- output -------------------------------------------------------------

    def _after_fork(self) -> None:
        if self._patches:
            self._child = True
            self._clear()

    def _arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "tags": np.array(self.tags),
            "name": np.frombuffer(self._name, dtype=np.int64),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "tag": np.frombuffer(self._tagcol, dtype=np.int64),
            "start": np.frombuffer(self._start, dtype=np.int64),
            "end": np.frombuffer(self._end, dtype=np.int64),
            "pid": np.array(os.getpid()),
            "counts": np.array(json.dumps({"counts": self.counts, "peaks": self.peaks})),
        }

    def _flush(self) -> None:
        self._flushes += 1
        path = self.spill_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        np.savez(path, **self._arrays())
        self._clear()

    def save(self, path: Path) -> None:
        """Write this process's spans and counters."""
        np.savez(path, **self._arrays())

    def span_sets(self, path: Path) -> list[dict]:
        """Save this process's spans to `path`; return them with every spilled set."""
        self.save(path)
        paths = [path]
        if self.spill_dir is not None:
            paths += sorted(self.spill_dir.glob("spans-*.npz"))
        return [load(p) for p in paths]


def load(path: Path) -> dict:
    with np.load(path) as data:
        out = {key: data[key] for key in data.files}
    extra = json.loads(str(out.pop("counts")))
    out["counts"], out["peaks"] = Counter(extra["counts"]), Counter(extra["peaks"])
    out["pid"] = int(out["pid"])
    return out


# ---------------------------------------------------------------------------
# what gets wrapped


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded zfo modules bound to `fn`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "zfo" or name.startswith("zfo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


def _targets(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, span name, before, after, seed_of) for each layer."""
    import zfo.config
    import zfo.geometry
    import zfo.network
    import zfo.problems
    import zfo.runner
    from zfo.agents import SwarmTables

    def after_run(args, trace, _):
        config = args[0]
        rounds = int(config.horizon) + 1
        tracer.counts["runs"] += 1
        tracer.counts["rounds"] += rounds
        tracer.counts["agent_rounds"] += config.problem.n * rounds
        tracer.counts["cap_projections"] += trace.cap_projections
        tracer.counts["fallback_projections"] += trace.fallback_projections
        tracer.peaks["stale_max"] = max(tracer.peaks["stale_max"], trace.stale_max_overall)

    def before_merge(args):
        return args[0].stamps.copy()

    def after_merge(args, _, stamps_before):
        tables, neighbor_matrix = args[0], args[2]
        candidates = int(neighbor_matrix.size) * tables.n
        tracer.counts["merge_adopted"] += int(np.count_nonzero(tables.stamps != stamps_before))
        tracer.counts["merge_candidates"] += candidates
        # the (n, max_deg, n) candidate stamp and quotient tensors, 8 bytes an entry
        tracer.counts["merge_bytes"] += 16 * candidates

    def after_drop(args, mask, _):
        shape = tuple(args[2])
        real = tracer.real_slots if tracer.real_slots is not None else np.ones(shape, bool)
        slots = int(np.count_nonzero(real))
        dropped = 0 if mask is None else int(np.count_nonzero(mask & real))
        tracer.counts["slots"] += slots
        tracer.counts["delivered"] += slots - dropped

    def after_solve(args, result, _):
        tracer.counts["solve_calls"] += 1
        tracer.counts["solve_iters"] += result.n_iter

    simplex = zfo.geometry.ShiftedSimplex
    return [
        (zfo.config, "build_run_config", "config.build_run_config", None, None,
         lambda a: a[0].get("seed") if isinstance(a[0], dict) else None),
        (zfo.problems, "centralized_solve", "problems.centralized_solve", None, after_solve, None),
        (zfo.runner, "run", "runner.run", None, after_run, lambda a: a[0].seed),
        (zfo.runner, "metrics_snapshot", "runner.metrics_snapshot", None, None, None),
        (zfo.runner, "write_trace_csv", "runner.write_trace_csv", None, None,
         lambda a: a[0].seed),
        (zfo.geometry, "constrain_perturbation_batch", "geometry.constrain_perturbation_batch",
         None, None, None),
        (simplex, "project_batch", "geometry.project_batch", None, None, None),
        (simplex, "contains_batch", "geometry.contains_batch", None, None, None),
        (SwarmTables, "record_own", "agents.record_own", None, None, None),
        (SwarmTables, "snapshot", "agents.snapshot", None, None, None),
        (SwarmTables, "merge_from", "agents.merge_from", before_merge, after_merge, None),
        (SwarmTables, "staleness", "agents.staleness", None, None, None),
        (SwarmTables, "assemble", "agents.assemble", None, None, None),
        (zfo.network.NoDelay, "drop_mask", "network.drop_mask", None, after_drop, None),
        (zfo.network.BernoulliDrops, "drop_mask", "network.drop_mask", None, after_drop, None),
        (zfo.network, "shortest_path_lengths", "network.shortest_path_lengths", None, None, None),
    ]


# ---------------------------------------------------------------------------
# analysis


def summarize(sets: list[dict], main_pid: int) -> dict:
    """Aggregate span sets from one or more processes.

    Returns `layers[(name, phase)] = (calls, total_s, self_s)`, the summed
    counters and peaks, the root-span time of forked workers, and the
    three sums behind the round-phase identity
    `runner.run` self time + its children's time = `runner.run` total.
    """
    layers: dict[tuple[str, str], list[float]] = {}
    counts, peaks = Counter(), Counter()
    worker = {"busy_s": 0.0, "setup_s": 0.0}
    identity = {"total_s": 0.0, "self_s": 0.0, "children_s": 0.0}
    for s in sets:
        counts.update(s["counts"])
        for key, value in s["peaks"].items():
            peaks[key] = max(peaks[key], value)
        names = [str(n) for n in s["names"]]
        name, parent = s["name"], s["parent"]
        if name.size == 0:
            continue
        dur = (s["end"] - s["start"]).astype(float) * 1e-9
        has_parent = parent >= 0
        parent_or_self = np.where(has_parent, parent, np.arange(name.size))
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        own = dur - child
        root = parent_or_self.copy()
        while True:
            up = parent_or_self[root]
            if np.array_equal(up, root):
                break
            root = up
        root_name = name[root]
        phase = np.full(name.size, 2)
        for code, root_label in ((0, SETUP_ROOT), (1, ROUND_ROOT)):
            if root_label in names:
                phase[root_name == names.index(root_label)] = code
        key = name * 3 + phase
        size = len(names) * 3
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=dur, minlength=size)
        selfs = np.bincount(key, weights=own, minlength=size)
        for k in np.flatnonzero(calls):
            entry = layers.setdefault((names[k // 3], PHASES[k % 3]), [0, 0.0, 0.0])
            entry[0] += int(calls[k])
            entry[1] += float(total[k])
            entry[2] += float(selfs[k])
        if ROUND_ROOT in names:
            run_id = names.index(ROUND_ROOT)
            is_run = name == run_id
            identity["total_s"] += float(dur[is_run].sum())
            identity["self_s"] += float(own[is_run].sum())
            under_run = has_parent & (name[parent_or_self] == run_id)
            identity["children_s"] += float(dur[under_run].sum())
        if s["pid"] != main_pid:
            roots = ~has_parent
            if HOOKS in names:
                roots &= name != names.index(HOOKS)
            worker["busy_s"] += float(dur[roots].sum())
            if SETUP_ROOT in names:
                worker["setup_s"] += float(dur[roots & (name == names.index(SETUP_ROOT))].sum())
    return {"layers": layers, "counts": counts, "peaks": peaks, "worker": worker,
            "identity": identity}
