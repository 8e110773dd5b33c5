"""Each analysed regime's guarantee, checked on runs at its own plan.

Every case plans (eta, u, delta, T) for its regime at accuracy epsilon,
runs 10 seeds at that plan, and asserts that the mean measured quantity
(the ergodic optimality gap in the convex regimes, the ergodic mean of
||grad f||^2 in the nonconvex one) is at most the regime's closed-form
bound at the plan's own parameters.  Each case prints its slack, so a
later tightening of the analysis shows.

The bounds are loose on these instances: the convex ones by about 10^4
and the nonconvex one by about 16.  So the cases catch only gross
breaks (a wrong sign, a lost shrink, a regime's constants swapped), not
a fine error in the engine or the planner.  The
convex-noiseless case is acceptance 5; the nonconvex-noisy one waits for
the planner to meet its own bound at its plan.
"""

import numpy as np
import pytest

from zfo.network import CommGraph, network_stats
from zfo.planner import constants_for, expected_gap_bound, expected_stationarity_bound, plan
from zfo.problems import build_box_quadratic, build_trig_sum
from zfo.runner import RunConfig, run

SEEDS = range(10)


def _mean_over_seeds(problem, graph, p, sigma, field, x0=None):
    values = []
    for seed in SEEDS:
        config = RunConfig(
            problem=problem, graph=graph, eta=p.eta, u=p.u, delta=p.delta, sigma=sigma,
            horizon=p.horizon, seed=seed, x0=x0, metric_every=p.horizon,
        )
        values.append(getattr(run(config), field))
    return float(np.mean(values))


@pytest.mark.parametrize(
    "regime, sigma", [("convex-noisy", 0.01), ("convex-noisy-interior", 0.1)]
)
def test_convex_noisy_gap_is_within_the_bound_at_the_plan(regime, sigma):
    # box quadratic 3x2, instance seed 0, on a path; epsilon = 2
    problem = build_box_quadratic(3, 2, seed=0)
    graph = CommGraph.path(3)
    interior = regime == "convex-noisy-interior"
    if interior:  # the variant assumes x* strictly inside: it lies in the half-size box
        half = [g.set.shrink(0.5) for g in problem.groups]
        assert problem.first_infeasible(problem.blocks(problem.x_star), half) is None
    constants = constants_for(problem, network_stats(graph, 0, dims=problem.dims), sigma=sigma)
    p = plan(constants, 2.0, regime)
    bound = expected_gap_bound(constants, p.eta, p.u, p.delta, p.horizon, interior=interior)
    gap = _mean_over_seeds(problem, graph, p, sigma, "gap_ergodic")
    print(f"\n{regime}: T = {p.horizon}, mean gap {gap:.3g} <= bound {bound:.4g} "
          f"(slack x{bound / gap:.3g})")
    assert 0.0 <= gap <= bound


def test_nonconvex_noiseless_gradient_is_within_the_bound_at_the_plan():
    # trig sum n = 3, dim 1, instance seed 0, on a path, from x0 = 0; epsilon = 1
    problem = build_trig_sum(3, 1, seed=0)
    graph = CommGraph.path(3)
    x0 = np.zeros(problem.total_dim)
    constants = constants_for(problem, network_stats(graph, 0, dims=problem.dims), x0=x0)
    p = plan(constants, 1.0, "nonconvex-noiseless")
    bound = expected_stationarity_bound(constants, p.eta, p.u, p.horizon)
    grad_sq = _mean_over_seeds(problem, graph, p, 0.0, "grad_sq_mean_ergodic", x0=x0)
    print(f"\nnonconvex-noiseless: T = {p.horizon}, mean ||grad f||^2 {grad_sq:.3g} "
          f"<= bound {bound:.4g} (slack x{bound / grad_sq:.3g})")
    assert grad_sq <= bound
