import numpy as np
import pytest

from renyibounds.renewal import (HypothesisViolationError, bound_report,
                                 exponential_exact_rdr, exponential_spec,
                                 g1_bound, g2_bound, g3_bound,
                                 gamma_closed_form, gamma_spec,
                                 mixture_exp_spec, phase_type_envelope_bound,
                                 rough_bound, table_spec)


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
        spec.validate(atol=1e-6)
        assert abs(spec.gamma_val(0.0) - 1.0) <= 1e-6
        assert abs(spec.beta(0.0, 0.0)) <= 1e-6
        assert abs(spec.beta(0.0, 1.0)) <= 1e-6
    # the density jumps at the gap edges, so simpson on the internal grid is
    # only good to a few parts in a thousand there
    _gapped_table().validate(atol=1e-2)


def test_exponential_bound_is_exact():
    for rho in (1.2, 2.0, 3.0):
        spec = exponential_spec(rho)
        for al in (1.5, 2.0, 3.0):
            want = exponential_exact_rdr(rho, al)
            got = g2_bound(spec, al, primal_check=True)
            assert abs(got - want) < 1e-9 * max(1.0, want)


def test_gamma_shape_one_reduces_to_exponential():
    for rho in (1.3, 2.0, 4.0):
        for al in (1.5, 2.0, 3.0):
            assert abs(gamma_closed_form(1.0, rho, al)
                       - exponential_exact_rdr(rho, al)) < 1e-12


def test_gamma_bound_matches_closed_form():
    spec = gamma_spec(2.0, 2.0)
    got = g2_bound(spec, 2.0, primal_check=True)
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
    d2, d3 = {}, {}
    g2 = g2_bound(mix, 2.0, primal_check=True, diagnostics=d2)
    g3 = g3_bound(mix, 2.0, primal_check=True, diagnostics=d3)
    assert abs(d3["dual"] - 0.14993658446) < 1e-8
    assert abs(d3["dual"] - d3["primal"]) < 1e-8
    assert abs(d2["dual"] - d2["primal"]) < 1e-8
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
    spec.gamma_closed = None
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
