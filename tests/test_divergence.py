import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyibounds.divergence import (AlphaCurve, FiniteDistribution, RrbInputs,
                                    as_order, jackson_compose,
                                    poisson_renyi_rate, relative_entropy_rate,
                                    renyi_divergence, rrb_optimize, rrb_upper)
from renyibounds.optimize import INF

from oracles import order_by_order

# rrb_optimize's coarse scan on (1, inf), then orders off every curve's domain
SCAN_ORDERS = np.concatenate([1.0 + np.exp(np.linspace(-30.0, 30.0, 121)),
                              [1.0, 0.5, -1.0, np.nan]])


def _random_dist(rng, n):
    w = rng.random(n) + 1e-3
    return FiniteDistribution(tuple(w / w.sum()))


def test_order_validation():
    with pytest.raises(ValueError):
        as_order(1.0)
    with pytest.raises(ValueError):
        as_order(0.5)
    assert as_order(2) == 2.0


def test_divergence_zero_on_equal():
    q = FiniteDistribution((0.2, 0.3, 0.5))
    assert renyi_divergence(q, q, 2.0) == 0.0
    assert renyi_divergence(q, q, 1) == 0.0


def test_divergence_two_point_hand_value():
    q = FiniteDistribution((0.7, 0.3))
    p = FiniteDistribution((0.5, 0.5))
    al = 2.0
    want = math.log(0.7 ** 2 / 0.5 + 0.3 ** 2 / 0.5) / (al * (al - 1.0))
    assert abs(renyi_divergence(q, p, al) - want) < 1e-14


def test_divergence_infinite_off_support():
    q = FiniteDistribution((0.5, 0.5))
    p = FiniteDistribution((1.0, 0.0))
    assert renyi_divergence(q, p, 2.0) == INF
    # the other direction is fine: P-null atoms are simply dropped from Q's view
    assert np.isfinite(renyi_divergence(p, q, 2.0))


def test_limit_order_is_relative_entropy():
    q = FiniteDistribution((0.6, 0.4))
    p = FiniteDistribution((0.3, 0.7))
    kl = 0.6 * math.log(0.6 / 0.3) + 0.4 * math.log(0.4 / 0.7)
    assert abs(renyi_divergence(q, p, 1) - kl) < 1e-14
    # alpha near 1 approaches the relative entropy
    assert abs(renyi_divergence(q, p, 1.0 + 1e-7) - kl) < 1e-5


def test_divergence_additivity_over_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q1, p1 = _random_dist(rng, 3), _random_dist(rng, 3)
        q2, p2 = _random_dist(rng, 4), _random_dist(rng, 4)
        for al in (1.5, 2.0, 4.0, 1):
            lhs = renyi_divergence(q1.product(q2), p1.product(p2), al)
            rhs = renyi_divergence(q1, p1, al) + renyi_divergence(q2, p2, al)
            assert abs(lhs - rhs) < 1e-10


def test_alpha_times_divergence_nondecreasing():
    # alpha * R_alpha is the standard-normalization Renyi divergence,
    # nondecreasing in alpha
    rng = np.random.default_rng(5)
    alphas = [1.2, 1.5, 2.0, 3.0, 6.0]
    for _ in range(20):
        q, p = _random_dist(rng, 5), _random_dist(rng, 5)
        vals = [al * renyi_divergence(q, p, al) for al in alphas]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_exponential_integral_duality_three_points():
    # (1/alpha) log E_Q e^{alpha g} = sup_P [(1/(alpha-1)) log E_P e^{(alpha-1)g}
    #                                        - R_alpha(P || Q)]
    q = FiniteDistribution((0.5, 0.3, 0.2))
    g = np.array([0.4, -0.2, 1.0])
    al = 2.0
    lhs = math.log(float(np.sum(q.as_array() * np.exp(al * g)))) / al

    best = -INF
    m = 100
    for i in range(m + 1):
        for j in range(m + 1 - i):
            w = np.array([i, j, m - i - j], dtype=float) / m
            if w[2] < 0:
                continue
            mass = float(np.sum(w * np.exp((al - 1.0) * g)))
            p = FiniteDistribution(tuple(w))
            div = renyi_divergence(p, q, al)
            rhs = math.log(mass) / (al - 1.0) - div
            assert rhs <= lhs + 1e-9  # one-sided validity for every P
            best = max(best, rhs)
    assert abs(best - lhs) < 1e-3  # sup over the grid attains the identity


def test_relative_entropy_rate_values():
    assert relative_entropy_rate(1.0) == 0.0
    assert relative_entropy_rate(0.0) == 1.0
    assert abs(relative_entropy_rate(2.0) - (2 * math.log(2) - 1)) < 1e-14
    with pytest.raises(ValueError):
        relative_entropy_rate(-0.1)


def test_poisson_rate_values():
    assert poisson_renyi_rate(1.0, 2.0) == 0.0
    assert abs(poisson_renyi_rate(2.0, 2.0) - 0.5) < 1e-14
    assert abs(poisson_renyi_rate(0.0, 2.0) - 0.5) < 1e-14
    assert abs(poisson_renyi_rate(0.0, 4.0) - 0.25) < 1e-14


def test_poisson_rate_limit_continuity():
    for x in (0.5, 2.0):
        assert abs(poisson_renyi_rate(x, 1.001) - relative_entropy_rate(x)) < 1e-3


def test_poisson_rate_overflow_guard():
    assert poisson_renyi_rate(2.0, 2000.0) == INF


@given(st.floats(0.01, 20.0), st.floats(1.01, 8.0))
@settings(max_examples=200, deadline=None)
def test_poisson_rate_nonnegative(x, al):
    assert poisson_renyi_rate(x, al) >= 0.0


@given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(1.05, 6.0))
@settings(max_examples=200, deadline=None)
def test_poisson_rate_midpoint_convex_in_x(x1, x2, al):
    mid = poisson_renyi_rate(0.5 * (x1 + x2), al)
    chord = 0.5 * (poisson_renyi_rate(x1, al) + poisson_renyi_rate(x2, al))
    assert mid <= chord + 1e-9


def test_alpha_curve_domain_and_addition():
    c1 = AlphaCurve(lambda al: al, alpha_max=3.0)
    c2 = AlphaCurve.constant(1.0)
    s = c1 + c2
    assert s.domain_contains(2.0)
    assert not s.domain_contains(3.0)  # open right end
    assert s(2.0) == 3.0
    with pytest.raises(ValueError):
        c1(3.5)
    anchored = AlphaCurve(lambda al: 1.0, anchor=2.0)
    assert anchored.domain_contains(2.0) and not anchored.domain_contains(2.5)
    with pytest.raises(ValueError):
        _ = AlphaCurve(lambda al: 0.0, anchor=2.0) + AlphaCurve(lambda al: 0.0, anchor=3.0)


def test_curve_array_call_equals_scalar_calls():
    # negative below alpha 2: refused beyond DIVERGENCE_ATOL, clamped to 0 within it
    tilted = AlphaCurve(lambda al: al - 2.0, alpha_max=3.0)
    orders = np.concatenate([SCAN_ORDERS, np.linspace(1.5, 3.5, 9), [2.0 - 5e-10, 2.0]])
    for curve in (AlphaCurve.zero(), AlphaCurve.constant(0.3), tilted,
                  AlphaCurve.constant(0.3) + tilted, AlphaCurve(lambda al: 1.0, anchor=2.0)):
        assert np.array_equal(curve(orders), order_by_order(curve, orders), equal_nan=True)
        inputs = RrbInputs(-2.0, curve)
        assert np.array_equal(rrb_upper(inputs, orders),
                              order_by_order(lambda al: rrb_upper(inputs, al), orders),
                              equal_nan=True)
    assert tilted(np.array([2.0 - 5e-10, 1.5, 3.0])).tolist()[0] == 0.0
    assert np.isnan(tilted(np.array([1.5, 3.0]))).all()


def test_rrb_upper_formulas():
    inputs = RrbInputs(-2.0, AlphaCurve.constant(0.3))
    al = 2.0
    assert abs(rrb_upper(inputs, al) - ((al - 1) / al * -2.0 + (al - 1) * 0.3)) < 1e-14


def test_rrb_optimize_matches_grid_scan():
    inputs = RrbInputs(-2.0, AlphaCurve.constant(0.3))
    res = rrb_optimize(inputs)
    grid = 1.0 + np.geomspace(1e-6, 1e3, 20000)
    scan = min(rrb_upper(inputs, a) for a in grid)
    assert res.bound <= scan + 1e-7
    assert abs(res.bound - scan) < 1e-5
    # closed form: minimize (a-1)/a L + (a-1) r at a = sqrt(-L/r)
    a_star = math.sqrt(2.0 / 0.3)
    assert abs(res.alpha_star - a_star) < 1e-4


def test_rrb_optimize_anchor_short_circuit():
    curve = AlphaCurve(lambda al: 0.1, anchor=2.0)
    res = rrb_optimize(RrbInputs(-1.0, curve))
    assert res.alpha_star == 2.0
    assert abs(res.bound - (0.5 * -1.0 + 1.0 * 0.1)) < 1e-14


def test_jackson_compose_sums_curves():
    curves = [AlphaCurve.constant(0.1), AlphaCurve.constant(0.2)]
    combined = rrb_optimize(RrbInputs(-1.0, AlphaCurve.constant(0.3)))
    net = jackson_compose(-1.0, curves)
    assert abs(net.bound - combined.bound) < 1e-9
