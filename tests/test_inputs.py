"""The library's input rule (`zfo.errors`): every scalar argument a caller
passes is judged as a number, a count or a flag, and a bad one is refused
with a `ConfigurationError` that names it, never with a raw exception."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfo.errors import ConfigurationError, is_number, require_count, require_flag, require_number
from zfo.geometry import Box, ShiftedSimplex, WholeSpace
from zfo.network import BernoulliDrops, CommGraph, network_stats
from zfo.planner import ProblemConstants
from zfo.problems import Problem, build_box_quadratic, build_routing_instance, build_trig_sum
from zfo.runner import RunConfig, run

_PROBLEM = build_box_quadratic(3, 1, seed=0)
_PATH = CommGraph.path(3)
_CONSTANTS = dict(n_agents=3, dim=3, lipschitz=1.0, smoothness=1.0, b_bar=1.0, b_frak=1.0,
                  staleness_bound=2)


def _run(name):
    base = dict(problem=_PROBLEM, graph=_PATH, eta=1e-2, u=1e-3, horizon=10)
    return lambda v: run(RunConfig(**{**base, name: v}))


def _constants(name):
    return lambda v: ProblemConstants(**{**_CONSTANTS, name: v})


# (the name its refusals carry, the call, the largest finite value drawn for it)
# Sizes stay at 10**4, so that no call starts a huge allocation, and the
# horizon at 60 rounds; sizes that the builders square (a complete graph's
# edges, a problem's (n, n d) centres) and a random graph's chord draws stay
# at 100.  eta, u and sigma stay at 1e150: far above it a
# run overflows (ROADMAP item 12), at sigma = 1e153 in the step bound's squares.
_ENTRIES = [
    *((name, _run(name), 1e150) for name in ("eta", "u", "sigma")),
    ("delta", _run("delta"), None),
    ("horizon", _run("horizon"), 60),
    *((name, _run(name), None) for name in ("seed", "metric_every", "history_slack")),
    *((name, _run(name), None) for name in ("reduced_tables", "strict_staleness",
                                            "track_gradients")),
    ("extra delay bound", lambda v: network_stats(_PATH, v), None),
    ("drop probability p", lambda v: BernoulliDrops(v, 0), None),
    ("declared extra delay", lambda v: BernoulliDrops(0.1, v), None),
    ("shrink factor delta", lambda v: Box([-1.0], [1.0]).shrink(v), None),
    ("shrink factor delta", lambda v: ShiftedSimplex(2, shift=-0.25).shrink(v), None),
    ("dim", lambda v: ShiftedSimplex(v), 1e4),
    ("simplex scale", lambda v: ShiftedSimplex(2, scale=v), None),
    ("dim", WholeSpace, 1e4),
    ("vertex count n", lambda v: CommGraph(v, []), 1e4),
    ("vertex count n", CommGraph.path, 1e4),
    ("vertex count n", CommGraph.ring, 1e4),
    ("vertex count n", CommGraph.complete, 100),
    ("vertex count n", lambda v: CommGraph.random_connected(v, 0), 100),
    ("seed", lambda v: CommGraph.random_connected(5, v), None),
    ("max_degree", lambda v: CommGraph.random_connected(5, 0, max_degree=v), None),
    ("n_groups", lambda v: build_routing_instance(v, 2, seed=0), 1e4),
    ("agents_per_group", lambda v: build_routing_instance(2, v, seed=0), 1e4),
    ("seed", lambda v: build_routing_instance(2, 2, seed=v), None),
    *(("agent count n", lambda v, b=build: b(v, 1, seed=0), 100)
      for build in (build_box_quadratic, build_trig_sum)),
    *(("dim_per_agent", lambda v, b=build: b(3, v, seed=0), 1e4)
      for build in (build_box_quadratic, build_trig_sum)),
    *(("seed", lambda v, b=build: b(3, 2, seed=v), None)
      for build in (build_box_quadratic, build_trig_sum)),
    ("center_scale", lambda v: build_box_quadratic(3, 1, 0, center_scale=v), None),
    ("half_width", lambda v: build_box_quadratic(3, 1, 0, half_width=v), 1e150),
    ("agent 1's dimension", lambda v: Problem("p", [v], [WholeSpace(1)], lambda x: x), None),
    *((name, _constants(name), None) for name in (
        "n_agents", "dim", "staleness_bound", "lipschitz", "smoothness", "b_bar", "sigma",
        "outer_radius", "init_gap",
    )),
]

_HOSTILE = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([True, False, np.True_, np.False_, math.nan, math.inf, -math.inf,
                     1e308, -1e308, 2**63, np.int64(2**63 - 1)]),
    st.integers(-3, 60),
    st.floats(-1e3, 1e3),
    st.integers(-3, 60).map(np.int64),
    st.integers(-3, 60).map(np.float64),
    st.floats(-1e3, 1e3).map(np.float64),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.integers(10**4, 10**20),
)


@settings(max_examples=600, deadline=None)
@given(entry=st.sampled_from(_ENTRIES), value=_HOSTILE)
def test_hostile_arguments_succeed_or_are_refused_by_name(entry, value):
    name, call, largest = entry
    if largest is not None and is_number(value) and largest < abs(float(value)) < math.inf:
        return
    try:
        call(value)
    except ConfigurationError as exc:
        assert re.search(rf"\b{re.escape(name)}\b", str(exc)), (name, str(exc))


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0), np.uint8(2)])
def test_a_count_is_any_integral_number(value):
    assert require_count("k", value) == 2 and type(require_count("k", value)) is int


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "k must be an integer >= 1, got True"),
        (np.True_, "k must be an integer >= 1, got np.True_"),
        (2.5, "k must be an integer >= 1, got 2.5"),
        (math.nan, "k must be an integer >= 1, got nan"),
        ("2", "k must be an integer >= 1, got '2'"),
        (0, "k must be an integer >= 1, got 0"),
    ],
)
def test_a_count_refuses_booleans_fractions_and_values_below_its_floor(value, message):
    with pytest.raises(ConfigurationError) as info:
        require_count("k", value, 1)
    assert str(info.value) == message


def test_an_int64_count_is_below_2_to_the_63():
    assert require_count("k", 2**63 - 1, int64=True) == 2**63 - 1
    assert require_count("k", 2**63) == 2**63
    for value in (2**63, 1e308):
        with pytest.raises(ConfigurationError, match=r"^k must be below 2\*\*63 \(an int64\)"):
            require_count("k", value, int64=True)


def test_numbers_and_flags():
    assert require_number("x", np.float32(0.5)) == 0.5
    assert require_flag("f", np.False_) is False
    for value, message in ((True, "x must be a number, got True"),
                           (10**400, f"x must be finite, got {10**400!r}"),
                           (-math.inf, "x must be finite, got -inf")):
        with pytest.raises(ConfigurationError) as info:
            require_number("x", value)
        assert str(info.value) == message
    for value in (1, "yes", None):
        with pytest.raises(ConfigurationError, match=f"^f must be a boolean, got {value!r}$"):
            require_flag("f", value)
