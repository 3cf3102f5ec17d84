"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single PASS line when its criterion holds; pytest's
per-test verdict is the authoritative pass/fail record.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from renyibounds.divergence import (FiniteDistribution, poisson_renyi_rate,
                                    relative_entropy_rate, renyi_divergence)
from renyibounds.families import PoissonReference, Q3, rdr_q3
from renyibounds.renewal import (bound_report, exponential_exact_rdr,
                                 exponential_spec, gamma_closed_form,
                                 gamma_spec, g2_bound, mixture_exp_spec)
from renyibounds.reneging import (RenegingInstance, RrbInputs, default_families,
                                  reference_decay, robust_bound_curve,
                                  robust_reneging_bound)
from renyibounds.divergence import rrb_upper
from renyibounds.scheduling import (SchedulingInstance, rs_objective,
                                    reference_bound, robust_rs_bound,
                                    tilted_rates, w_of_gamma)
from renyibounds.sim import (CoxPiecewise, ExponentialPatience, PoissonProcess,
                             RenewalProcess, event_log_csv, mc_renyi_rate,
                             mc_tail_probability, simulate_reneging)

from oracles import w_bruteforce

FIG2_LEFT = ((1.0, 1.5, 1.8, 2.0, 2.0), (8.0, 10.0, 12.0, 9.0, 14.0),
             (0.3, 0.2, 0.2, 0.1, 0.2))
FIG2_RIGHT = ((0.5, 0.75, 0.9, 1.0, 1.0), FIG2_LEFT[1], FIG2_LEFT[2])


def test_criterion_01_poisson_rate_identities():
    start = time.time()
    for al in (1.5, 2.0, 4.0):
        assert poisson_renyi_rate(1.0, al) == 0.0
    assert abs(poisson_renyi_rate(2.0, 2.0) - 0.5) < 1e-15
    assert abs(poisson_renyi_rate(0.0, 2.0) - 0.5) < 1e-15
    for x in (0.5, 2.0):
        ell = x * math.log(x) - x + 1.0
        assert abs(relative_entropy_rate(x) - ell) < 1e-15
        assert abs(poisson_renyi_rate(x, 1.001) - ell) < 1e-3
    assert time.time() - start < 1.0
    print("ACCEPTANCE 1: PASS")


def test_criterion_02_exponential_rate_is_exact():
    start = time.time()
    for rho in (1.2, 2.0, 3.0):
        spec = exponential_spec(rho)
        for al in (1.5, 2.0, 3.0):
            want = (rho ** al - 1.0 - al * (rho - 1.0)) / (al * (al - 1.0))
            got = g2_bound(spec, al)
            assert abs(got - want) <= 1e-3 * abs(want), (rho, al, got, want)
    assert time.time() - start < 30.0
    print("ACCEPTANCE 2: PASS")


def test_criterion_03_gamma_closed_form():
    start = time.time()
    for rho in (1.3, 2.0, 4.0):
        for al in (1.5, 2.0, 3.0):
            assert abs(gamma_closed_form(1.0, rho, al)
                       - exponential_exact_rdr(rho, al)) < 1e-12
    closed = gamma_closed_form(2.0, 2.0, 2.0)
    numeric = g2_bound(gamma_spec(2.0, 2.0), 2.0)
    assert numeric <= closed + 1e-3
    est = mc_renyi_rate(RenewalProcess(gamma_spec(2.0, 2.0)), 1.0, 2.0,
                        horizon=50.0, reps=10_000, seed=0, sampling="reference")
    assert est.estimable
    assert est.point <= closed + 3.0 * est.std_err
    assert time.time() - start < 300.0
    print("ACCEPTANCE 3: PASS")


def test_criterion_04_bound_ordering():
    specs = [exponential_spec(1.2), exponential_spec(2.0), exponential_spec(3.0),
             gamma_spec(2.0, 2.0), mixture_exp_spec([0.5, 0.5], [1.0, 2.0])]
    for spec in specs:
        for al in (1.5, 2.0, 3.0, 4.0):
            rep = bound_report(spec, al)
            assert rep.rough is not None
            if rep.g1 is not None:
                assert rep.g1 <= rep.rough + 1e-9
            if rep.g2 is not None:
                assert rep.g2 <= rep.rough + 1e-9
                if rep.g1 is not None:
                    assert rep.g2 <= rep.g1 + 1e-9
            if rep.g3 is not None and rep.g2 is not None:
                assert rep.g3 <= rep.g2 + 1e-9
    print("ACCEPTANCE 4: PASS")


def test_criterion_05_change_of_measure_inequalities_by_enumeration():
    start = time.time()
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        pw = rng.random(m) + 1e-3
        qw = rng.random(m) + 1e-3
        p = FiniteDistribution(tuple(pw / pw.sum()))
        q = FiniteDistribution(tuple(qw / qw.sum()))
        k = int(rng.integers(1, m + 1))
        idx = rng.choice(m, size=k, replace=False)
        pa = float(p.as_array()[idx].sum())
        qa = float(q.as_array()[idx].sum())
        for al in (1.5, 2.0, 4.0):
            lower = al / (al - 1.0) * math.log(pa) - al * renyi_divergence(p, q, al)
            upper = ((al - 1.0) / al * math.log(pa)
                     + (al - 1.0) * renyi_divergence(q, p, al))
            assert lower <= math.log(qa) + 1e-12
            assert math.log(qa) <= upper + 1e-12
    assert time.time() - start < 10.0
    print("ACCEPTANCE 5: PASS")


def test_criterion_06_monte_carlo_matches_pinned_band_rate():
    start = time.time()
    # occupation (2/3, 1/3) of levels (0.5, 2): the average-pinned band value
    cox = CoxPiecewise(((20.0 / 3.0, 0.5), (10.0 / 3.0, 2.0)))
    want = rdr_q3(Q3(0.5, 2.0), PoissonReference(rate=1.0), 2.0)
    est = mc_renyi_rate(cox, 1.0, 2.0, horizon=100.0, reps=10_000, seed=0)
    assert est.estimable
    assert abs(est.point - want) <= 3.0 * est.std_err + 1e-9
    assert time.time() - start < 300.0
    print("ACCEPTANCE 6: PASS")


def test_criterion_07_scheduling_bound_machinery():
    start = time.time()
    rng = np.random.default_rng(23)
    step = 0.02
    for _ in range(50):
        n = int(rng.integers(1, 5))
        inst = SchedulingInstance(
            tuple(rng.uniform(0.2, 3.0, n)), tuple(rng.uniform(1.0, 15.0, n)),
            tuple(rng.uniform(0.05, 1.0, n)), beta=1.0)
        gamma = float(rng.uniform(0.2, 4.0))
        w1, _ = w_of_gamma(inst, gamma)
        w2 = w_bruteforce(inst, gamma, step=step)
        _, mu_hat = tilted_rates(inst, gamma)
        assert w1 <= w2 + 1e-9
        assert w2 - w1 <= step * float(np.sum(mu_hat)) + 1e-9

    def make(base, beta, delta):
        return SchedulingInstance.with_delta(base[0], base[1], base[2],
                                             beta=beta, horizon=1.0, delta=delta)

    assert abs(make(FIG2_LEFT, 1.0, 0.15).traffic_intensity - 0.790) < 1e-3
    assert abs(make(FIG2_RIGHT, 1.0, 0.15).traffic_intensity - 0.395) < 1e-3

    for base in (FIG2_LEFT, FIG2_RIGHT):
        inst = make(base, 1.0, 0.3)
        gts = np.linspace(0.02, 0.98 / inst.beta, 33)
        vals = [rs_objective(inst, 1.0 / gt) for gt in gts]
        for i in range(len(gts) - 2):
            mid = rs_objective(inst, 1.0 / (0.5 * (gts[i] + gts[i + 2])))
            assert mid <= 0.5 * (vals[i] + vals[i + 2]) + 1e-7

    betas = np.linspace(0.3, 12.0, 12)
    for base in (FIG2_LEFT, FIG2_RIGHT):
        for beta in betas:
            ref = reference_bound(make(base, float(beta), 0.15)).bound
            vals = {}
            for delta in (0.15, 0.65):
                inst = make(base, float(beta), delta)
                vals[("Q2", delta)] = robust_rs_bound(inst, family="Q2").bound
                vals[("Q3", delta)] = robust_rs_bound(inst, family="Q3").bound
            for fam in ("Q2", "Q3"):
                assert vals[(fam, 0.15)] <= vals[(fam, 0.65)] + 1e-8
            for delta in (0.15, 0.65):
                assert vals[("Q3", delta)] <= vals[("Q2", delta)] + 1e-8
                assert ref <= vals[("Q3", delta)] + 1e-8
    assert time.time() - start < 120.0
    print("ACCEPTANCE 7: PASS")


def test_criterion_08_reneging_reference_decay():
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0):
        for mu in (0.5, 1.0, 2.0):
            if lam < mu:
                continue
            inst = RenegingInstance(lam, mu).at(lam - mu)
            assert abs(reference_decay(inst)) < 1e-12
    at = RenegingInstance(2.0, 1.0).at(2.0)
    got = reference_decay(at)
    # independent recomputation: maximize the rate expression over z
    zs = np.linspace(1e-4, 10.0, 2_000_001)
    oracle = float((2.0 * (1.0 - 1.0 / zs) + (1.0 - zs) - 2.0 * np.log(zs)).max())
    assert abs(got - oracle) < 1e-9
    assert abs(got - 0.1597091012271168) < 1e-12
    print("ACCEPTANCE 8: PASS")


def test_criterion_09_reneging_robust_bounds():
    inst = RenegingInstance(lam=2.0, mu=1.0, theta=1.0)
    fams = default_families(delta=0.3)
    at = inst.at(2.0)
    grid = 1.0 + np.geomspace(1e-6, 1e3, 10_000)
    for name in ("Q2prime", "Q3prime"):
        bound = robust_reneging_bound(at, fams[name]).bound
        log_prob, curve = robust_bound_curve(at, fams[name])
        scan = min(rrb_upper(RrbInputs(log_prob, curve), a) for a in grid)
        assert abs(bound - scan) < 1e-5
    for g in np.linspace(inst.gamma0, inst.gamma0 + 3.0, 10):
        b = {name: robust_reneging_bound(inst.at(float(g)), fam).bound
             for name, fam in fams.items()}
        assert b["Q3"] <= b["Q2"] + 1e-9
        assert b["Q3prime"] <= b["Q2prime"] + 1e-9
        assert b["Q2prime"] <= b["Q2"] + 1e-9
        assert b["Q3prime"] <= b["Q3"] + 1e-9
    print("ACCEPTANCE 9: PASS")


def test_criterion_10_simulator_physics():
    start = time.time()
    # start at the fluid equilibrium (n in service, n(lam-mu)/theta waiting)
    # to avoid the empty-start warm-up deficit, and average a few runs
    rates = []
    for rep in range(4):
        run = simulate_reneging(
            n=50, horizon=200.0, arrival=PoissonProcess(2.0 * 50),
            patience=ExponentialPatience(1.0), services=PoissonProcess(1.0),
            seed=0, rep=rep, initial_customers=100)
        rates.append(run.state.reneged / (200.0 * 50))
    assert abs(float(np.mean(rates)) - 1.0) < 0.05

    rng = np.random.default_rng(31)
    for case in range(1000):
        n = int(rng.integers(1, 8))
        simulate_reneging(
            n=n, horizon=float(rng.uniform(1.0, 6.0)),
            arrival=PoissonProcess(float(rng.uniform(0.5, 3.0)) * n),
            patience=ExponentialPatience(float(rng.uniform(0.3, 3.0))),
            services=PoissonProcess(float(rng.uniform(0.5, 2.0))),
            seed=case, assert_mode=True,
            initial_customers=int(rng.integers(0, 2 * n)))

    kw = dict(n=4, horizon=30.0, arrival=PoissonProcess(8.0),
              patience=ExponentialPatience(1.0), services=PoissonProcess(1.0),
              seed=11)
    serial = [event_log_csv(simulate_reneging(rep=r, **kw).log) for r in range(6)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda r: event_log_csv(simulate_reneging(rep=r, **kw).log), range(6)))
    assert serial == threaded
    assert serial == [event_log_csv(simulate_reneging(rep=r, **kw).log)
                      for r in range(6)]
    assert time.time() - start < 600.0
    print("ACCEPTANCE 10: PASS")


def test_criterion_11_tail_probability_directional_check():
    start = time.time()
    est = mc_tail_probability(n=10, horizon=20.0, gamma=1.3, lam=2.0,
                              reps=10_000, seed=0)
    assert est.estimable
    c = reference_decay(RenegingInstance(2.0, 1.0).at(1.3))
    assert est.point >= -c - 0.1
    assert time.time() - start < 600.0
    print("ACCEPTANCE 11: PASS")
