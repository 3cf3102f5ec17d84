import math
from typing import Optional, Tuple

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import dual_inner_scalar
from renyibounds.optimize import INF, ScalarObjective, maximize_1d
from renyibounds.renewal import (HypothesisViolationError, RenewalSpec, _dual_inner,
                                 bound_report, exponential_exact_rdr, exponential_spec,
                                 g1_bound, g2_bound, g3_bound,
                                 gamma_closed_form, gamma_spec,
                                 mixture_exp_spec, phase_type_envelope_bound,
                                 rough_bound, table_spec)


# -- the primal oracle ---------------------------------------------------------
# g2 and g3 are computed from the single-variable dual form of their inner
# values. The nested sup/conjugate primal form below is an independent
# computation of the same inner value; at the optimal theta it must not
# exceed the dual value (weak duality), and under the bounds' hypotheses the
# two agree.

def _beta_grad(spec: RenewalSpec, l1: float, l2: float,
               h: float = 1e-5) -> Optional[Tuple[float, float]]:
    vals = [spec.beta(l1 + h, l2), spec.beta(l1 - h, l2),
            spec.beta(l1, l2 + h), spec.beta(l1, l2 - h)]
    if not all(np.isfinite(v) for v in vals):
        return None
    return (vals[0] - vals[1]) / (2 * h), (vals[2] - vals[3]) / (2 * h)


def _solve_l1(spec: RenewalSpec, l2: float, target: float) -> Optional[float]:
    """lambda1 with d beta / d lambda1 = target (the slope is increasing in
    lambda1 by convexity). None when the slope never reaches the target on
    beta's domain slice."""

    def slope(l1: float) -> Optional[float]:
        g = _beta_grad(spec, l1, l2)
        return None if g is None else g[0]

    anchor, v = None, None
    for l1 in (0.0, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0):
        v = slope(l1)
        if v is not None:
            anchor = l1
            break
    if anchor is None:
        return None
    if abs(v - target) < 1e-13:
        return anchor
    if v < target:
        lo, step = anchor, 0.25
        hi = None
        for _ in range(80):
            cand = lo + step
            vc = slope(cand)
            if vc is None:
                step *= 0.5  # stepped over the domain edge; shorten
                if step < 1e-12:
                    break
                continue
            if vc >= target:
                hi = cand
                break
            lo, step = cand, step * 2.0
        if hi is None:
            return None
    else:
        hi, step = anchor, 0.25
        lo = None
        for _ in range(80):
            cand = hi - step
            vc = slope(cand)
            if vc is None:
                return None
            if vc <= target:
                lo = cand
                break
            hi, step = cand, step * 2.0
        if lo is None:
            return None
    return brentq(lambda l1: slope(l1) - target, lo, hi, xtol=1e-11)


def _curve_value(spec: RenewalSpec, al: float, l2: float, x1: float) -> float:
    """alpha x2 - beta*(x1, x2) evaluated parametrically at the gradient
    point with d beta / d lambda1 pinned to x1 (Fenchel-Young equality)."""
    l1 = _solve_l1(spec, l2, x1)
    if l1 is None:
        return -INF
    g = _beta_grad(spec, l1, l2)
    if g is None:
        return -INF
    x2 = g[1]
    bstar = l1 * x1 + l2 * x2 - spec.beta(l1, l2)
    return al * x2 - bstar


def _primal_g3(spec: RenewalSpec, al: float, theta: float) -> float:
    """Nested primal form: theta * sup over x2 of alpha x2 - beta*(1/theta, x2),
    with the conjugate evaluated parametrically along the gradient curve."""
    x1 = 1.0 / theta
    res = maximize_1d(ScalarObjective(lambda l2: _curve_value(spec, al, l2, x1)),
                      tol=1e-9, coarse=81, s_lo=-12.0, s_hi=12.0)
    return theta * res.value


def _primal_g2(spec: RenewalSpec, al: float, theta: float) -> float:
    """Nested primal form: theta * sup over {x : x1 <= 1/theta} of
    alpha x2 - beta*(x). The supremum splits into the active-constraint
    boundary x1 = 1/theta (parametric curve, as in the pinned form) and
    interior stationary points, which have lambda1 = 0."""
    cap = 1.0 / theta
    boundary = maximize_1d(
        ScalarObjective(lambda l2: _curve_value(spec, al, l2, cap)),
        tol=1e-9, coarse=81, s_lo=-12.0, s_hi=12.0).value

    def interior(l2: float) -> float:
        g = _beta_grad(spec, 0.0, l2)
        if g is None or g[0] > cap:
            return -INF
        x2 = g[1]
        bstar = l2 * x2 - spec.beta(0.0, l2)
        return al * x2 - bstar

    try:
        int_val = maximize_1d(ScalarObjective(interior), tol=1e-9,
                              coarse=81, s_lo=-12.0, s_hi=12.0).value
    except ValueError:
        int_val = -INF
    return theta * max(boundary, int_val)


def _with_primal(bound, primal, spec, al, **kw):
    """bound(spec, al) plus the primal value at its optimal theta, which may
    not exceed the dual value the bound was computed from."""
    d = {}
    got = bound(spec, al, diagnostics=d, **kw)
    p = primal(spec, al, d["theta_star"])
    assert p <= d["dual"] + 1e-6 * max(1.0, abs(d["dual"])), (p, d["dual"])
    return got, d, p




def _gapped_table():
    # density with a hole in the middle of its support
    xs = np.linspace(0.0, 6.0, 2401)
    gs = np.exp(-xs)
    gs[(xs > 1.0) & (xs < 2.0)] = 0.0
    gs /= np.trapezoid(gs, xs)
    return table_spec(xs, gs, name="gapped")


def test_spec_quadrature_sanity():
    for spec in (exponential_spec(2.0), gamma_spec(2.0, 2.0),
                 mixture_exp_spec([0.5, 0.5], [1.0, 2.0])):
        assert abs(spec.gamma_val(0.0) - 1.0) <= 1e-6
        assert abs(spec.beta(0.0, 0.0)) <= 1e-6
        assert abs(spec.beta(0.0, 1.0)) <= 1e-6
    # the density jumps at the gap edges, so simpson on the internal grid is
    # only good to a few parts in a thousand there
    gapped = _gapped_table()
    assert abs(math.exp(gapped.beta(0.0, 1.0)) - 1.0) <= 1e-2
    assert abs(gapped.gamma_val(0.0) - 1.0) <= 1e-2


def test_exponential_bound_is_exact():
    for rho in (1.2, 2.0, 3.0):
        spec = exponential_spec(rho)
        for al in (1.5, 2.0, 3.0):
            want = exponential_exact_rdr(rho, al)
            got, _, _ = _with_primal(g2_bound, _primal_g2, spec, al)
            assert abs(got - want) < 1e-9 * max(1.0, want)


def test_gamma_shape_one_reduces_to_exponential():
    for rho in (1.3, 2.0, 4.0):
        for al in (1.5, 2.0, 3.0):
            assert abs(gamma_closed_form(1.0, rho, al)
                       - exponential_exact_rdr(rho, al)) < 1e-12


def test_gamma_bound_matches_closed_form():
    spec = gamma_spec(2.0, 2.0)
    got, _, _ = _with_primal(g2_bound, _primal_g2, spec, 2.0)
    want = gamma_closed_form(2.0, 2.0, 2.0)
    assert abs(want - 0.08740105196819936) < 1e-14
    assert abs(got - want) < 1e-6


def test_bound_chain_orderings():
    spec = gamma_spec(2.0, 2.0)
    al = 2.0
    r = rough_bound(spec, al)
    g1 = g1_bound(spec, al)
    g2 = g2_bound(spec, al)
    assert g2 <= g1 + 1e-9
    assert g1 <= r + 1e-9
    mix = mixture_exp_spec([0.5, 0.5], [1.0, 2.0])
    g2m = g2_bound(mix, al)
    g3m = g3_bound(mix, al)
    assert g3m <= g2m + 1e-9
    assert g2m <= rough_bound(mix, al) + 1e-9


def test_mixture_dual_primal_agreement():
    mix = mixture_exp_spec([0.5, 0.5], [1.0, 2.0])
    g2, d2, p2 = _with_primal(g2_bound, _primal_g2, mix, 2.0)
    g3, d3, p3 = _with_primal(g3_bound, _primal_g3, mix, 2.0)
    assert abs(d3["dual"] - 0.14993658446) < 1e-8
    assert abs(d3["dual"] - p3) < 1e-8
    assert abs(d2["dual"] - p2) < 1e-8
    assert abs(g2 - g3) < 1e-8
    assert abs(g3 - 0.14993658446 / 2.0) < 1e-8


def test_sharp_bound_hypothesis_gate():
    # fast exponential densities make gamma(s) diverge for s < 0
    with pytest.raises(HypothesisViolationError):
        g3_bound(exponential_spec(2.0), 2.0)
    # slow exponential: gate fails, but the override value is the exact rate
    slow = exponential_spec(0.8)
    with pytest.raises(HypothesisViolationError):
        g3_bound(slow, 2.0)
    got = g3_bound(slow, 2.0, override=True)
    assert abs(got - exponential_exact_rdr(0.8, 2.0)) < 1e-9
    assert abs(got - 0.02) < 1e-9


def test_support_gap_refuses_sharp_bounds():
    rep = bound_report(_gapped_table(), 2.0)
    assert rep.rough is not None and np.isfinite(rep.rough)
    assert rep.g1 is not None and np.isfinite(rep.g1)
    assert rep.g2 is None and "g2" in rep.refused
    assert rep.g3 is None and "g3" in rep.refused
    assert "support gap" in rep.refused["g2"]


def test_phase_type_envelope_tight_at_exponential():
    for rho in (1.5, 2.0, 3.0):
        for al in (1.5, 2.0):
            assert abs(phase_type_envelope_bound(rho, rho, al)
                       - exponential_exact_rdr(rho, al)) < 1e-12
    with pytest.raises(ValueError):
        phase_type_envelope_bound(0.9, 0.9, 2.0)
    with pytest.raises(ValueError):
        phase_type_envelope_bound(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        gamma_closed_form(0.5, 2.0, 2.0)


def test_numeric_moment_integrals_agree_with_closed_form():
    spec = exponential_spec(2.0)
    spec.beta_closed = None
    got = g2_bound(spec, 2.0)
    assert abs(got - exponential_exact_rdr(2.0, 2.0)) < 1e-3


def test_gamma_spec_matches_scipy_stats_gamma():
    # gamma_spec is built on scipy.special alone; scipy.stats is the oracle,
    # equal to the last bit (the installed scipy's logsf takes log(sf) above
    # the median and log1p(-cdf) below it, as gamma_spec does)
    from scipy import stats

    rng = np.random.default_rng(7)
    shapes = np.concatenate([[1.0], rng.uniform(1.0, 12.0, 49)])
    rates = rng.uniform(0.2, 6.0, 50)
    u = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6], rng.random(200),
                        [1.0 - 1e-6, 1.0 - 1e-12, 1.0]])
    for k, rho in zip(shapes, rates):
        spec, dist = gamma_spec(k, rho), stats.gamma(a=k, scale=1.0 / rho)
        x = np.concatenate([[-5.0, -1e-300, 0.0, 1e-300, 1e-12],
                            np.linspace(0.01, 10.0 * k / rho, 200),
                            [50.0 * k / rho, 1e3, 1e4]])
        logsf = dist.logsf(x)
        assert np.array_equal(spec.cum_hazard(x), -logsf)
        assert np.array_equal(spec.hazard(x), np.exp(spec.log_density(x) - logsf))
        assert np.array_equal(spec.ppf(u), dist.ppf(u))


def test_mixture_sup_h_is_h_at_zero():
    # H = x + log g is convex and, with every rate >= 1, nonincreasing, so
    # h_bar = H(0) bounds H on a dense grid (up to the rounding of log g)
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 60.0, 60001)
    for m in (1, 2, 2, 3, 3, 4, 5, 6):
        w = rng.dirichlet(np.ones(m))
        r = 1.0 + rng.exponential(2.0, m)
        r[rng.random(m) < 0.3] = 1.0
        spec = mixture_exp_spec(w, r)
        h = xs + spec.log_density(xs)
        assert spec.h_bar == h[0]
        assert spec.h_bar >= np.max(h) - 1e-14
    assert mixture_exp_spec([0.5, 0.5], [0.5, 2.0]).h_bar == INF


@pytest.mark.parametrize("spec", [exponential_spec(0.8), exponential_spec(2.3),
                                  gamma_spec(1.0, 1.7), gamma_spec(2.2, 2.1),
                                  gamma_spec(3.5, 0.6)], ids=lambda s: s.name)
def test_closed_beta_array_equals_scalar(spec):
    # l2 = -2 makes s2 = 1 + l2 (k - 1) <= 0 for gamma shapes k >= 1.5, and
    # large lambda1 makes d <= 0: both cells are inf on both paths. numpy's
    # log differs from math.log in the last bit on a few in 10^4 inputs, so
    # thousands of random points catch an array log in place of math.log
    rng = np.random.default_rng(5)
    l1 = np.concatenate([np.linspace(-40.0, 6.0, 93), [0.0, 1.0, 1.0 + 1e-12],
                         rng.uniform(-40.0, 6.0, 4000)])
    for l2 in (-2.0, -0.05, 0.0, 0.05, 1.0, 2.5, 4.0):
        beta_l1 = spec.beta_closed(l2)
        got = beta_l1(l1)
        want = [beta_l1(x) for x in l1.tolist()]
        assert got.tolist() == want
        assert [spec.beta(x, l2) for x in l1.tolist()] == want
        assert spec.beta_at(l2)(l1).tolist() == want
    assert np.isinf(gamma_spec(3.5, 0.6).beta_at(-2.0)(l1)).all()
    assert np.isinf(exponential_spec(2.3).beta_at(1.0)(np.array([2.3, 5.0]))).all()


def test_quadrature_beta_at_maps_points_one_at_a_time():
    spec = mixture_exp_spec([0.5, 0.5], [1.0, 2.0])
    l1 = np.array([-3.0, -0.5, 0.0, 0.4])
    assert spec.beta_at(2.0)(l1).tolist() == [spec.beta(x, 2.0) for x in l1.tolist()]


@pytest.mark.parametrize("spec", [exponential_spec(0.8), exponential_spec(2.3),
                                  gamma_spec(2.2, 2.1), gamma_spec(1.6, 2.8)],
                         ids=lambda s: s.name)
def test_dual_inner_equals_scalar_oracle(spec):
    for al in (1.7, 3.2):
        beta_l1 = spec.beta_at(al)
        for theta in np.exp(np.linspace(-4.0, 4.0, 9)).tolist():
            for restrict_nonpos in (True, False):
                assert (_dual_inner(beta_l1, theta, restrict_nonpos)
                        == dual_inner_scalar(spec, al, theta, restrict_nonpos))
