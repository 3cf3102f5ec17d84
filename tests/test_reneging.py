import math

import numpy as np
import pytest

from renyibounds.divergence import RrbInputs, RrbResult, rrb_optimize, rrb_upper
from renyibounds.families import Q2, Q3, Q4
from renyibounds.renewal import gamma_closed_form
from renyibounds.reneging import (FIG3_COLUMNS, CompositeFamily, GammaBox,
                                  RenegingInstance, default_families,
                                  figure3_data, gamma_box_r2, reference_decay,
                                  robust_bound_curve, robust_reneging_bound,
                                  z_of_gamma)

from oracles import order_by_order, rrb_optimize_scalar_scan

INST = RenegingInstance(lam=2.0, mu=1.0, theta=1.0)
# rrb_optimize's coarse scan on (1, inf), then orders off every domain
SCAN_ORDERS = np.concatenate([1.0 + np.exp(np.linspace(-30.0, 30.0, 121)), [1.0, 0.5, np.nan]])
Q4_SERVICE = CompositeFamily(service_family=Q4(alpha0=2.0, u=0.1))


def _decay_variational(lam, mu, gamma):
    # independent oracle: maximize the rate expression over z directly
    zs = np.linspace(1e-4, 10.0, 2_000_001)
    vals = lam * (1.0 - 1.0 / zs) + mu * (1.0 - zs) - gamma * np.log(zs)
    return float(vals.max())


def test_decay_vanishes_at_typical_rate():
    for lam in (1.2, 2.0, 3.0):
        for mu in (0.5, 1.0, 2.0):
            if lam < mu:
                continue
            inst = RenegingInstance(lam, mu).at(lam - mu)
            assert abs(z_of_gamma(inst) - 1.0) < 1e-12
            assert abs(reference_decay(inst)) < 1e-12


def test_decay_root_and_value_at_gamma_two():
    at = INST.at(2.0)
    assert abs(z_of_gamma(at) - (math.sqrt(3.0) - 1.0)) < 1e-14
    c = reference_decay(at)
    assert abs(c - 0.1597091012271168) < 1e-12
    assert abs(c - _decay_variational(2.0, 1.0, 2.0)) < 1e-9


def test_decay_increasing_past_typical_rate():
    gammas = np.linspace(INST.gamma0, INST.gamma0 + 3.0, 40)
    vals = [reference_decay(INST.at(g)) for g in gammas]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        reference_decay(INST.at(0.5))


def test_alpha_infimum_matches_grid_scan():
    fam = default_families(delta=0.3)["Q2prime"]
    at = INST.at(2.0)
    res = robust_reneging_bound(at, fam)
    log_prob, curve = robust_bound_curve(at, fam)
    grid = 1.0 + np.geomspace(1e-6, 1e3, 10_000)
    scan = min(rrb_upper(RrbInputs(log_prob, curve), a) for a in grid)
    assert res.bound <= scan + 1e-7
    assert abs(res.bound - scan) < 1e-5
    assert res.alpha_star > 1.0
    assert res.converged and not res.boundary


def test_family_orderings_along_the_curve():
    fams = default_families(delta=0.3)
    for g in np.linspace(INST.gamma0 + 0.2, INST.gamma0 + 3.0, 10):
        at = INST.at(float(g))
        b = {name: robust_reneging_bound(at, fam).bound for name, fam in fams.items()}
        ref = -reference_decay(at)
        for v in b.values():
            assert v >= ref - 1e-9  # penalties can only weaken the bound
            assert v <= 1e-9  # never a vacuous positive log-probability
        assert b["Q3"] <= b["Q2"] + 1e-9
        assert b["Q3prime"] <= b["Q2prime"] + 1e-9
        assert b["Q2prime"] <= b["Q2"] + 1e-9
        assert b["Q3prime"] <= b["Q3"] + 1e-9
        assert b["gammabox_small"] <= b["gammabox_large"] + 1e-9


def test_pinned_values_at_gamma_two():
    fams = default_families(delta=0.3)
    at = INST.at(2.0)
    got = {name: robust_reneging_bound(at, fam).bound for name, fam in fams.items()}
    assert abs(got["Q2prime"] - (-0.0349)) < 2e-3
    assert abs(got["Q3prime"] - (-0.0351)) < 2e-3
    assert abs(got["gammabox_small"] - (-0.1057)) < 2e-3
    assert abs(got["gammabox_large"] - (-0.0044)) < 2e-3
    # full-envelope families are vacuous here: the arrival penalty dominates
    assert got["Q2"] > -1e-6
    assert got["Q3"] > -1e-6


BOX_ORDERS = (1.05, 1.6, 2.5, 6.8, 10.75, 75.8)

# recorded before the Gamma-box supremum became one 60 x 60 array evaluation
GAMMA_BOX_PINS = {
    "gammabox_small": (0.006770863678313375, 0.00631706087887244, 0.005693913874615338,
                       0.005880385135599606, 0.00678294550750068, 0.2405866974826034),
    "gammabox_large": (0.10895677093674318, 0.11785078222779816, 0.1348469228349535,
                       0.2879076608476759, 0.6848836470141677, 3927775283.7008805),
}
GAMMA_BOX_BOUND_PINS = {
    "gammabox_small": (-0.10566729995181186, 5.037104862111094),
    "gammabox_large": (-0.004390060433179469, 1.184041158464302),
}


@pytest.mark.parametrize("name", sorted(GAMMA_BOX_PINS))
def test_gamma_box_pinned_values(name):
    fam = default_families()[name]
    for al, want in zip(BOX_ORDERS, GAMMA_BOX_PINS[name]):
        assert gamma_box_r2(fam.service_family, al) == pytest.approx(want, rel=1e-12)
    res = robust_reneging_bound(INST.at(2.0), fam)
    want_bound, want_alpha = GAMMA_BOX_BOUND_PINS[name]
    assert abs(res.bound - want_bound) < 1e-9
    assert res.alpha_star == pytest.approx(want_alpha, rel=1e-6)


@pytest.mark.parametrize("al", sorted(BOX_ORDERS + (2.0,)))
def test_gamma_box_supremum(al):
    box = GammaBox(1.0, 1.5, 1.0 + 1e-9, 1.5)
    v = gamma_box_r2(box, al)
    # the supremum dominates every probed corner and interior point
    for k in np.linspace(1.0, 1.5, 25):
        for rho in np.linspace(1.0 + 1e-6, 1.5, 25):
            assert v >= gamma_closed_form(k, rho, al) - 1e-9
    with pytest.raises(ValueError):
        GammaBox(0.5, 1.5, 1.1, 1.5)
    with pytest.raises(ValueError):
        GammaBox(1.0, 1.5, 0.9, 1.5)


WIDE_BOXES = (GammaBox(1.2, 3.0, 1.05, 2.5), GammaBox(1.0, 4.0, 1.01, 3.0))
EDGE_ORDERS = 1.0 + np.geomspace(1e-4, 100.0, 40)


def _all_boxes():
    fams = default_families()
    return (fams["gammabox_small"].service_family,
            fams["gammabox_large"].service_family) + WIDE_BOXES


@pytest.mark.parametrize("box", _all_boxes(), ids=("small", "large", "wide1", "wide2"))
def test_gamma_box_edges_match_full_grid(box):
    # independent oracle: the maximum over the whole 60 x 60 grid of the box
    k, rho = np.meshgrid(np.linspace(box.k_lo, box.k_hi, 60),
                         np.linspace(box.rho_lo, box.rho_hi, 60))
    for al in EDGE_ORDERS:
        full = float(np.max(gamma_closed_form(k, rho, al)))
        assert gamma_box_r2(box, al) == pytest.approx(full, rel=1e-12)

    # the edge reduction rests on convexity in rho: midpoint check at random points
    rng = np.random.default_rng(5)
    for al in EDGE_ORDERS:
        ks = rng.uniform(box.k_lo, box.k_hi, 200)
        r1, r2 = (rng.uniform(box.rho_lo, box.rho_hi, 200) for _ in range(2))
        f1, f2 = gamma_closed_form(ks, r1, al), gamma_closed_form(ks, r2, al)
        mid = gamma_closed_form(ks, 0.5 * (r1 + r2), al)
        # rounding of the bracket, divided by alpha(alpha - 1)
        scale = np.maximum(np.abs(f1), np.abs(f2)) + (al * box.rho_hi + 1.0) / (al * (al - 1.0))
        assert np.all(mid <= 0.5 * (f1 + f2) + 1e-12 * scale)


def test_gamma_box_corner_lemma_and_k_scan():
    from scipy.special import polygamma

    # the lemma behind quasi-convexity in k: alpha psi'(1 + alpha t) > psi'(1 + t)
    al = (1.0 + np.geomspace(1e-4, 100.0, 400))[:, None]
    t = np.concatenate(([0.0], np.geomspace(1e-8, 100.0, 400)))[None, :]
    assert np.all(al * polygamma(1, 1.0 + al * t) > polygamma(1, 1.0 + t))

    # so a dense k scan on each rho edge peaks at an end of the k range
    for box in _all_boxes():
        k = np.linspace(box.k_lo, box.k_hi, 20001)
        rho = np.array([[box.rho_lo], [box.rho_hi]])
        for al in EDGE_ORDERS:
            v = gamma_closed_form(k, rho, al)
            assert np.all(v.max(axis=1) == np.maximum(v[:, 0], v[:, -1]))


@pytest.mark.parametrize("box", [GammaBox(1.0, 1.1, 1.0 + 1e-9, 1.1),
                                 GammaBox(1.0, 1.5, 1.0 + 1e-9, 1.5),
                                 GammaBox(1.0, 4.0, 1.2, 6.0)], ids=["small", "large", "wide"])
def test_gamma_box_array_call_equals_scalar_calls(box):
    got = gamma_box_r2(box, SCAN_ORDERS)
    assert np.array_equal(got, order_by_order(lambda al: gamma_box_r2(box, al), SCAN_ORDERS),
                          equal_nan=True)
    assert np.isinf(got).any()  # the closed form overflowed at the largest orders
    assert np.isnan(got[-3:]).all()


def test_penalty_curves_array_call_equals_scalar_calls():
    fams = list(default_families().values()) + [
        Q4_SERVICE, CompositeFamily((0.7, 1.3), (0.9, 1.1), Q2(1.0, 1.0))]  # r1 alone
    orders = np.concatenate([SCAN_ORDERS, np.linspace(1.5, 2.5, 5)])
    for fam in fams:
        _, curve = robust_bound_curve(INST.at(2.0), fam)
        assert np.array_equal(curve(orders), order_by_order(curve, orders), equal_nan=True)


@pytest.mark.parametrize("name", sorted(default_families()) + ["Q4"])
def test_order_search_equals_scalar_scan_search(name):
    fam = default_families().get(name, Q4_SERVICE)
    for g in (INST.gamma0, INST.gamma0 + 1.0, INST.gamma0 + 3.0):
        inputs = RrbInputs(*robust_bound_curve(INST.at(g), fam))
        assert rrb_optimize(inputs) == rrb_optimize_scalar_scan(inputs)


def test_reneging_bound_is_the_order_search_result():
    at = RenegingInstance(4.0, 2.0).at(4.5)
    fam = default_families()["gammabox_small"]
    search = rrb_optimize(RrbInputs(*robust_bound_curve(at, fam)))
    assert robust_reneging_bound(at, fam) == RrbResult(
        search.alpha_star, search.bound * 2.0, search.converged, search.boundary)


def test_order_search_at_alpha_one_reports_boundary():
    # the hazard-band bound at the instance's typical rate is best as alpha -> 1
    res = robust_reneging_bound(RenegingInstance(2, 1).at(2.0), default_families(0.3)["Q2"])
    assert res.boundary
    assert not res.converged


def test_anchored_service_family_limits_alpha():
    fam = CompositeFamily(service_family=Q4(alpha0=2.0, u=0.1))
    res = robust_reneging_bound(INST.at(2.0), fam)
    assert 1.0 < res.alpha_star < 2.0
    assert res.bound < 0.0


def test_service_rate_rescaling():
    # doubling all rates doubles the decay rate at the rescaled exceedance level
    base = RenegingInstance(2.0, 1.0).at(2.0)
    scaled = RenegingInstance(4.0, 2.0).at(4.0)
    assert abs(reference_decay(scaled) - 2.0 * reference_decay(base)) < 1e-12
    fam = default_families(delta=0.3)["Q2prime"]
    b1 = robust_reneging_bound(base, fam).bound
    b2 = robust_reneging_bound(scaled, fam).bound
    assert abs(b2 - 2.0 * b1) < 1e-8


def test_figure_rows_match_schema():
    rows = figure3_data(INST, gamma_grid=np.linspace(1.0, 2.0, 4))
    assert len(rows) == 4
    for row in rows:
        assert sorted(row.keys()) == sorted(FIG3_COLUMNS)
    assert abs(rows[0]["ref_decay"]) < 1e-12
    assert abs(rows[-1]["ref_decay"] + 0.1597091012271168) < 1e-12
    missing = figure3_data(INST, families={"Q2": default_families()["Q2"]},
                           gamma_grid=[1.5])
    assert math.isnan(missing[0]["bound_Q3"])
    assert np.isfinite(missing[0]["bound_Q2"])


def test_instance_validation():
    with pytest.raises(ValueError):
        RenegingInstance(lam=0.5, mu=1.0)
    with pytest.raises(ValueError):
        RenegingInstance(lam=2.0, mu=0.0)
    with pytest.raises(ValueError):
        CompositeFamily(arrival_envelope=(1.2, 1.5))
