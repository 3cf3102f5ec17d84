import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyibounds import families
from renyibounds.divergence import poisson_renyi_rate
from renyibounds.families import (MarkSpec, PoissonReference, Q1, Q2, Q3, Q4,
                                  family_curve, family_from_dict, rdr_q1,
                                  rdr_q2, rdr_q3, rdr_q4, reference_from_dict)

from oracles import order_by_order

REF = PoissonReference(rate=1.0)
_S = np.linspace(-30.0, 30.0, 121)
# the order search's coarse scans on (1, inf) and on (1, 3), Q1's anchor 2,
# then Q4's anchor 3, an order beyond it, and orders off every domain
ORDERS = np.concatenate([1.0 + np.exp(_S), 1.0 + 2.0 / (1.0 + np.exp(-_S)),
                         [2.0, 3.0, 3.5, 1.0, 0.5, np.nan]])


def test_hazard_band_value_is_worst_endpoint():
    # band [0.5, 2] at order 2: k(0.5) = 0.125, k(2) = 0.5
    assert abs(rdr_q2(Q2(0.5, 2.0), REF, 2.0) - 0.5) < 1e-14
    # band [1, 1] pins the reference, zero rate
    assert rdr_q2(Q2(1.0, 1.0), REF, 2.0) == 0.0


def test_average_pinned_band_is_mixture_of_endpoints():
    # band [0.5, 2] with the long-run average pinned at 1:
    # weights (2/3, 1/3) on the endpoint rates
    want = (2.0 / 3.0) * 0.125 + (1.0 / 3.0) * 0.5
    assert abs(rdr_q3(Q3(0.5, 2.0), REF, 2.0) - want) < 1e-14
    assert abs(want - 0.25) < 1e-14


def test_average_pin_never_exceeds_free_band():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.0, 1.0)
        b = 1.0 + rng.uniform(0.0, 4.0)
        al = 1.0 + rng.uniform(0.05, 5.0)
        assert rdr_q3(Q3(a, b), REF, al) <= rdr_q2(Q2(a, b), REF, al) + 1e-12


def test_rate_scales_all_families_linearly():
    ref3 = PoissonReference(rate=3.0)
    assert abs(rdr_q2(Q2(0.5, 2.0), ref3, 2.0) - 3.0 * 0.5) < 1e-13
    assert abs(rdr_q3(Q3(0.5, 2.0), ref3, 2.0) - 3.0 * 0.25) < 1e-13
    assert abs(rdr_q1(Q1(0.7, 2.0), ref3) - 2.1) < 1e-14


def test_anchored_family_refuses_other_orders():
    fam = Q1(u=0.4, alpha_anchor=2.0)
    assert rdr_q1(fam, REF) == 0.4
    assert rdr_q1(fam, REF, 2.0) == 0.4
    with pytest.raises(ValueError):
        rdr_q1(fam, REF, 1.5)
    curve = family_curve(fam, REF)
    assert curve.domain_contains(2.0)
    assert not curve.domain_contains(1.5)


def test_anchor_propagated_below_closed_form():
    # alpha0 = 2, u = 0.5 at alpha = 1.5: (sqrt(2) - 1) / 0.75
    want = (math.sqrt(2.0) - 1.0) / 0.75
    assert abs(rdr_q4(Q4(alpha0=2.0, u=0.5), REF, 1.5) - want) < 1e-12
    # the internal two-point cross-check must not trip on a parameter sweep
    for u in (0.01, 0.3, 1.0, 5.0):
        for al in (1.1, 1.9, 2.5):
            rdr_q4(Q4(alpha0=3.0, u=u), REF, al)


def test_anchor_propagation_domain():
    fam = Q4(alpha0=2.0, u=0.5)
    with pytest.raises(ValueError):
        rdr_q4(fam, REF, 2.0)
    with pytest.raises(ValueError):
        rdr_q4(fam, REF, 2.5)
    curve = family_curve(fam, REF)
    assert curve.domain_contains(1.5)
    assert not curve.domain_contains(2.0)


def test_anchor_propagation_continuity_at_anchor():
    fam = Q4(alpha0=2.0, u=0.5)
    near = rdr_q4(fam, REF, 2.0 - 1e-8)
    assert abs(near - 0.5) < 1e-6


def test_marks_fold_into_hazard_band_only():
    mark = MarkSpec(a_mark=0.8, b_mark=1.5)
    ref = PoissonReference(rate=1.0, mark_spec=mark)
    got = rdr_q2(Q2(0.5, 2.0), ref, 2.0)
    want = max(poisson_renyi_rate(0.4, 2.0), poisson_renyi_rate(3.0, 2.0))
    assert abs(got - want) < 1e-14
    with pytest.raises(ValueError):
        rdr_q3(Q3(0.5, 2.0), ref, 2.0)
    # trivial marks pass through everywhere
    ref1 = PoissonReference(rate=1.0, mark_spec=MarkSpec())
    assert rdr_q3(Q3(0.5, 2.0), ref1, 2.0) == rdr_q3(Q3(0.5, 2.0), REF, 2.0)


def test_family_validation():
    with pytest.raises(ValueError):
        Q2(a=1.2, b=2.0)
    with pytest.raises(ValueError):
        Q2(a=0.5, b=0.9)
    with pytest.raises(ValueError):
        Q3(a=0.5, b=0.5)
    assert rdr_q3(Q3(1.0, 1.0), REF, 2.0) == 0.0
    with pytest.raises(ValueError):
        Q4(alpha0=1.0, u=0.5)
    with pytest.raises(ValueError):
        Q1(u=-0.1, alpha_anchor=2.0)
    with pytest.raises(ValueError):
        MarkSpec(a_mark=1.1, b_mark=2.0)


def test_zero_lower_endpoint_accepted():
    # k_alpha(0) = 1/alpha
    assert abs(rdr_q2(Q2(0.0, 1.0), REF, 4.0) - 0.25) < 1e-14
    v = rdr_q3(Q3(0.0, 2.0), REF, 2.0)
    assert np.isfinite(v) and v > 0


def test_descriptor_round_trip():
    fams = [Q1(0.4, 2.0), Q2(0.5, 2.0), Q3(0.8, 1.25), Q4(2.0, 0.5)]
    for fam in fams:
        assert family_from_dict({"family": type(fam).__name__,
                                 **dataclasses.asdict(fam)}) == fam
    with pytest.raises(ValueError):
        family_from_dict({"family": "Q9"})
    ref = reference_from_dict({"rate": 2.0, "mark": {"a_mark": 0.9, "b_mark": 1.1}})
    assert ref.rate == 2.0 and ref.mark_spec.b_mark == 1.1


@given(st.floats(0.0, 1.0), st.floats(1.0, 6.0), st.floats(1.05, 6.0))
@settings(max_examples=150, deadline=None)
def test_band_families_nonnegative_and_ordered(a, b, al):
    v2 = rdr_q2(Q2(a, b), REF, al)
    v3 = rdr_q3(Q3(a, b), REF, al) if (a < b or a == 1.0) else None
    assert v2 >= 0.0
    if v3 is not None:
        assert 0.0 <= v3 <= v2 + 1e-12


@given(st.floats(0.01, 5.0), st.floats(1.2, 5.0))
@settings(max_examples=100, deadline=None)
def test_anchor_propagation_below_linear_interpolant(u, alpha0):
    # abar * value is convex in alpha and vanishes at 1, so on (1, alpha0) it
    # sits below the chord through the anchor value
    fam = Q4(alpha0=alpha0, u=u)
    al = 1.0 + 0.5 * (alpha0 - 1.0)
    abar = al * (al - 1.0)
    abar0 = alpha0 * (alpha0 - 1.0)
    chord = (al - 1.0) / (alpha0 - 1.0) * abar0 * u
    assert abar * rdr_q4(fam, REF, al) <= chord + 1e-9


@pytest.mark.parametrize("fam, ref", [
    (Q1(0.4, 2.0), REF), (Q2(0.7, 1.3), REF), (Q2(1.0, 1.0), REF),
    (Q2(0.5, 2.0), PoissonReference(rate=1.5, mark_spec=MarkSpec(0.9, 1.2))),
    (Q3(0.7, 1.3), REF), (Q3(1.0, 1.0), REF), (Q4(alpha0=3.0, u=0.5), REF),
], ids=["Q1", "Q2", "Q2-unit", "Q2-marked", "Q3", "Q3-unit", "Q4"])
def test_family_curve_array_call_equals_scalar_calls(fam, ref):
    curve = family_curve(fam, ref)
    got = curve(ORDERS)
    assert np.array_equal(got, order_by_order(curve, ORDERS), equal_nan=True)
    if isinstance(fam, Q2) and fam.b > 1.0:
        assert np.isinf(got).any()  # b^alpha overflowed at the largest orders
    if isinstance(fam, Q4):
        assert np.isnan(got[-5:]).all()  # at and beyond alpha0, and at or below 1
        assert np.array_equal(rdr_q4(fam, ref, ORDERS), got, equal_nan=True)


def test_anchor_propagation_array_call_cross_checks_each_order(monkeypatch):
    monkeypatch.setattr(families, "poisson_renyi_rate", lambda x, a: 0.0)
    with pytest.raises(AssertionError, match="two-point"):
        rdr_q4(Q4(alpha0=3.0, u=0.5), REF, np.array([4.0, 1.5]))
