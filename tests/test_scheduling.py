import itertools
import math

import numpy as np
import pytest

from renyibounds.divergence import (FiniteDistribution, poisson_renyi_rate,
                                    relative_entropy_rate, renyi_divergence)
from renyibounds.optimize import ScalarObjective, minimize_1d
from renyibounds.scheduling import (SchedulingInstance, balanced_envelope,
                                    f0_of_alpha, priority_order, rs_objective,
                                    reference_bound, robust_rs_bound,
                                    tilted_rates, w_of_gamma)

from oracles import convexity_probe_m, rs_duality_check, w_bruteforce

LEFT = dict(arrival_rates=(1.0, 1.5, 1.8, 2.0, 2.0),
            service_rates=(8.0, 10.0, 12.0, 9.0, 14.0),
            costs=(0.3, 0.2, 0.2, 0.1, 0.2))
RIGHT = dict(arrival_rates=(0.5, 0.75, 0.9, 1.0, 1.0),
             service_rates=LEFT["service_rates"], costs=LEFT["costs"])
# The reference objective of this instance is exactly 0 on a whole interval
# of tilts, so its minimizer is set by last-bit residues of the penalty.
FLAT = dict(arrival_rates=(1.0, 0.8, 1.2), service_rates=(8.0, 10.0, 7.0),
            costs=(0.2, 0.3, 0.25))


def _inst(base, beta, delta):
    return SchedulingInstance.with_delta(
        base["arrival_rates"], base["service_rates"], base["costs"],
        beta=beta, horizon=1.0, delta=delta)


def test_single_class_tilted_value():
    inst = SchedulingInstance((1.0,), (2.0,), (1.0,), beta=0.5)
    w, u = w_of_gamma(inst, 1.0)
    want = math.expm1(1.0) - 2.0 * (1.0 - math.exp(-1.0))
    assert abs(w - 0.45404071) < 1e-7
    assert abs(w - want) < 1e-12
    assert u[0] == 1.0


def test_greedy_matches_bruteforce():
    rng = np.random.default_rng(7)
    step = 0.02
    for _ in range(50):
        n = rng.integers(1, 5)
        inst = SchedulingInstance(
            tuple(rng.uniform(0.2, 3.0, n)), tuple(rng.uniform(1.0, 15.0, n)),
            tuple(rng.uniform(0.05, 1.0, n)), beta=1.0)
        gamma = rng.uniform(0.2, 4.0)
        w1, _ = w_of_gamma(inst, gamma)
        w2 = w_bruteforce(inst, gamma, step=step)
        _, mu_hat = tilted_rates(inst, gamma)
        assert w1 <= w2 + 1e-9
        assert w2 - w1 <= step * float(np.sum(mu_hat)) + 1e-9


def test_traffic_intensities_of_figure_instances():
    assert abs(_inst(LEFT, 1.0, 0.15).traffic_intensity - 0.7901) < 1e-3
    assert abs(_inst(RIGHT, 1.0, 0.15).traffic_intensity - 0.3950) < 1e-3


def test_bound_orderings_across_beta():
    for base in (LEFT, RIGHT):
        for beta in (0.3, 1.0, 3.0, 8.0):
            ref = reference_bound(_inst(base, beta, 0.15)).bound
            for delta in (0.15, 0.65):
                inst = _inst(base, beta, delta)
                q2 = robust_rs_bound(inst, family="Q2").bound
                q3 = robust_rs_bound(inst, family="Q3").bound
                assert ref <= q3 + 1e-8
                assert q3 <= q2 + 1e-8
            small = robust_rs_bound(_inst(base, beta, 0.15), family="Q2").bound
            large = robust_rs_bound(_inst(base, beta, 0.65), family="Q2").bound
            assert small <= large + 1e-8


def test_lighter_traffic_never_costs_more():
    for beta in (0.5, 2.0, 6.0):
        heavy = robust_rs_bound(_inst(LEFT, beta, 0.15), family="Q2").bound
        light = robust_rs_bound(_inst(RIGHT, beta, 0.15), family="Q2").bound
        assert light <= heavy + 1e-8


def test_objective_midpoint_convex_in_inverse_tilt():
    for base in (LEFT, RIGHT):
        inst = _inst(base, 1.0, 0.3)
        gts = np.linspace(0.02, 0.98 / inst.beta, 41)
        vals = [rs_objective(inst, 1.0 / gt) for gt in gts]
        for i in range(len(gts) - 2):
            mid = rs_objective(inst, 1.0 / (0.5 * (gts[i] + gts[i + 2])))
            assert mid <= 0.5 * (vals[i] + vals[i + 2]) + 1e-7


def test_bound_beats_any_probed_tilt():
    inst = _inst(LEFT, 1.0, 0.3)
    res = robust_rs_bound(inst, family="Q2")
    for gamma in np.linspace(inst.beta + 0.01, 40.0, 300):
        assert res.bound <= rs_objective(inst, gamma) * inst.horizon + 1e-7
    assert res.gamma_star > inst.beta
    assert res.priority == priority_order(inst, res.gamma_star)


def test_priority_order_follows_tilted_service_rates():
    inst = _inst(LEFT, 1.0, 0.15)
    order = priority_order(inst, 2.0)
    _, mu_hat = tilted_rates(inst, 2.0)
    ranked = sorted(range(5), key=lambda i: (-mu_hat[i], i))
    assert order == tuple(ranked)


def test_penalty_vanishes_without_envelopes():
    inst = SchedulingInstance(LEFT["arrival_rates"], LEFT["service_rates"],
                              LEFT["costs"], beta=1.0)
    assert f0_of_alpha(inst, 2.0, family="Q2") == 0.0
    assert f0_of_alpha(inst, 2.0, family="Q3") == 0.0


def test_duality_residual_small_and_one_sided():
    p = FiniteDistribution((0.5, 0.3, 0.2))
    g = (0.4, -0.2, 1.0)
    coarse = rs_duality_check(p, g, beta=1.0, gamma=3.0, grid_step=0.05)
    fine = rs_duality_check(p, g, beta=1.0, gamma=3.0, grid_step=0.01)
    assert coarse <= 1e-9
    assert fine <= 1e-9
    assert fine >= coarse - 1e-12  # refinement approaches the identity
    assert fine > -2e-3
    with pytest.raises(ValueError):
        rs_duality_check(p, g, beta=3.0, gamma=1.0)


def _duality_sup_loop(p, g, beta, gamma, step):
    """sup over the simplex grid of the duality RHS, one renyi_divergence
    call per grid point: the reference for rs_duality_check's array form."""
    n, m = len(p.weights), int(round(1.0 / step))
    gv = np.asarray(g, dtype=float)
    best = -math.inf
    for comp in itertools.product(range(m + 1), repeat=n - 1):
        if sum(comp) > m:
            continue
        qw = np.empty(n)
        qw[:-1] = np.asarray(comp, dtype=float) / m
        qw[-1] = max(1.0 - qw[:-1].sum(), 0.0)
        q = FiniteDistribution(tuple(qw / qw.sum()))
        div = renyi_divergence(q, p, gamma / (gamma - beta))
        if div < math.inf:
            ex = float(np.sum(q.as_array() * np.exp(beta * gv)))
            best = max(best, math.log(ex) / beta - div / (gamma - beta))
    return best - math.log(float(np.sum(p.as_array() * np.exp(gamma * gv)))) / gamma


@pytest.mark.parametrize("n,step", [(1, 0.1), (2, 0.01), (3, 0.05), (4, 0.1), (5, 0.25)])
def test_duality_check_matches_per_point_loop(n, step):
    rng = np.random.default_rng(n)
    for t in range(6):
        w = rng.random(n)
        if n > 1 and t % 3 == 0:
            w[rng.integers(n)] = 0.0  # Q charging that point has R = +inf
        p = FiniteDistribution(tuple(w / w.sum()))
        g = rng.normal(size=n) * 2.0
        beta = rng.uniform(0.1, 2.0)
        gamma = beta + rng.uniform(0.05, 3.0)
        want = _duality_sup_loop(p, g, beta, gamma, step)
        assert abs(rs_duality_check(p, g, beta, gamma, step) - want) <= 1e-12


def test_moment_scaling_map_is_convex():
    rng = np.random.default_rng(2)
    xs = rng.lognormal(0.0, 1.0, size=400)
    assert convexity_probe_m(np.linspace(0.1, 5.0, 60), xs) == 0


def test_balanced_envelope_equalizes_entropy_rate():
    for b in (1.2, 1.5, 2.0):
        a = balanced_envelope(b)
        assert 0.0 < a < 1.0
        assert abs(relative_entropy_rate(a) - relative_entropy_rate(b)) < 1e-12
    with pytest.raises(ValueError):
        balanced_envelope(4.0)  # ell(4) > 1, no balancing point
    with pytest.raises(ValueError):
        balanced_envelope(0.9)


def _equivalence_instances():
    """Seeded 1- to 5-class instances with and without envelopes, the
    flat-set instance and one with tied service priorities, each as
    (instance, family)."""
    rng = np.random.default_rng(14)
    out = []
    for _ in range(12):
        n = int(rng.integers(1, 6))
        base = dict(arrival_rates=tuple(rng.uniform(0.5, 1.5, n)),
                    service_rates=tuple(rng.uniform(6.0, 12.0, n)),
                    costs=tuple(rng.uniform(0.1, 0.4, n)))
        beta = float(rng.uniform(0.1, 15.0))
        out.append((SchedulingInstance(**base, beta=beta), "Q2"))
        delta = float(rng.uniform(0.1, 0.65))
        out += [(_inst(base, beta, delta), fam) for fam in ("Q2", "Q3")]
    for beta in (0.1, 2.0):
        out.append((SchedulingInstance(**FLAT, beta=beta), "Q2"))
        out += [(_inst(FLAT, beta, 0.15), fam) for fam in ("Q2", "Q3")]
    # 24 classes in 3 groups with equal mu_hat: the lower class index goes first
    ties = dict(arrival_rates=tuple(0.05 + 0.01 * i for i in range(24)),
                service_rates=(6.0, 9.0, 12.0) * 8, costs=(0.3, 0.2, 0.1) * 8)
    out.append((SchedulingInstance(**ties, beta=1.0), "Q2"))
    return out


def _scan_tilts(beta):
    """The tilts of the search's coarse scan, tilts at or below beta (value
    +inf), tilts where expm1(gamma c) overflows to inf, and one so large that
    gamma/(gamma - beta) rounds to 1, an order the scalar call refuses."""
    gt = (1.0 / beta) / (1.0 + np.exp(-np.linspace(-30.0, 30.0, 121)))
    return np.concatenate([1.0 / gt, [0.5 * beta, beta, 1e4, 1e5, 1e300]])


def _scalar_or_nan(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except ValueError:
        return math.nan


def test_array_objective_equals_scalar_calls_exactly():
    for inst, family in _equivalence_instances():
        gammas = _scan_tilts(inst.beta)
        values = rs_objective(inst, gammas, family=family)
        want = [_scalar_or_nan(rs_objective, inst, float(g), family=family) for g in gammas]
        assert np.isposinf(values[-5:-1]).all() and math.isnan(values[-1])
        for got, w in zip(values.tolist(), want):
            assert got == w or (math.isnan(got) and math.isnan(w))
        w_values, us = w_of_gamma(inst, gammas)
        for g, got, u in zip(gammas, w_values.tolist(), us):
            w, u_want = w_of_gamma(inst, float(g))
            assert got == w and np.array_equal(u, u_want)


def test_array_orders_equal_scalar_rate_calls_exactly():
    orders = np.concatenate([1.0 + np.geomspace(1e-12, 1e3, 400), [1.0, 0.5, np.nan]])
    for x in (0.0, 0.35, 0.85, 1.0, 1.15, 1.65, 30.0):
        got = poisson_renyi_rate(x, orders)
        want = [_scalar_or_nan(poisson_renyi_rate, x, float(a)) for a in orders]
        assert np.isinf(got).any() or x <= 1.65
        for g, w in zip(got.tolist(), want):
            assert g == w or (math.isnan(g) and math.isnan(w))


def test_vectorized_tilt_search_equals_scalar_search():
    for inst, family in _equivalence_instances():
        b = inst.beta
        fn = lambda gt: rs_objective(inst, 1.0 / gt, family=family)
        scalar = minimize_1d(ScalarObjective(fn, lo=0.0, hi=1.0 / b))
        vector = minimize_1d(ScalarObjective(fn, lo=0.0, hi=1.0 / b, vectorized=True))
        assert vector == scalar
        res = robust_rs_bound(inst, family=family)
        assert res.bound == scalar.value * inst.horizon and res.gamma_star == 1.0 / scalar.arg
        assert (res.evaluations, res.converged, res.boundary) == (
            scalar.evaluations, scalar.converged, scalar.boundary)
