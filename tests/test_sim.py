import math

import numpy as np
import pytest

from oracles import tilted_renewal_rate_per_event
from renyibounds.divergence import poisson_renyi_rate
from renyibounds.renewal import (exponential_spec, gamma_closed_form,
                                 gamma_spec)
from renyibounds.scheduling import SchedulingInstance
from renyibounds.sim import (CoxPiecewise, DeterministicCycle,
                             DeterministicSchedule, ExponentialPatience,
                             FixedPatience, PoissonProcess, RenewalProcess,
                             _aggregate_log_mean, event_log_csv, make_stream,
                             mc_renyi_rate, mc_tail_probability,
                             sample_arrivals, sample_cox_path,
                             sample_poisson_times, sample_renewal_path,
                             simulate_multiclass_priority, simulate_reneging)


def test_streams_are_reproducible_and_distinct():
    a = make_stream(3, 1, 7).random(5)
    b = make_stream(3, 1, 7).random(5)
    c = make_stream(3, 1, 8).random(5)
    d = make_stream(4, 1, 7).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_poisson_sampler_moments():
    rng = make_stream(0, 0)
    counts = [sample_poisson_times(2.0, 10.0, rng).size for _ in range(2000)]
    assert abs(np.mean(counts) - 20.0) < 0.35
    assert sample_poisson_times(0.0, 10.0, rng).size == 0
    assert sample_poisson_times(2.0, 0.0, rng).size == 0


def test_renewal_sampler_moments():
    rng = make_stream(1, 0)
    gaps = []
    for _ in range(60):
        t = sample_renewal_path(exponential_spec(2.0), 200.0, rng)
        gaps.extend(np.diff(np.concatenate([[0.0], t])))
    gaps = np.asarray(gaps)
    assert abs(gaps.mean() - 0.5) < 0.01
    rng = make_stream(2, 0)
    gaps = []
    for _ in range(60):
        t = sample_renewal_path(gamma_spec(2.0, 2.0), 200.0, rng)
        gaps.extend(np.diff(np.concatenate([[0.0], t])))
    gaps = np.asarray(gaps)
    assert abs(gaps.mean() - 1.0) < 0.02
    assert abs(gaps.var() - 0.5) < 0.03


def test_cox_path_occupation():
    spec = CoxPiecewise(((1.0, 0.5), (1.0, 2.0)))
    assert spec.max_rate == 2.0
    assert abs(spec.integral(4.0) - 5.0) < 1e-12
    assert abs(spec.integral(2.5) - 2.75) < 1e-12
    rng = make_stream(5, 0)
    times = np.concatenate([sample_cox_path(spec, 20.0, rng) for _ in range(400)])
    frac = times % 2.0
    low = np.sum(frac < 1.0)
    high = np.sum(frac >= 1.0)
    # rates 0.5 vs 2.0 split counts 1:4
    assert abs(low / (low + high) - 0.2) < 0.01
    one_shot = CoxPiecewise(((1.0, 3.0),), cycle=False)
    assert abs(one_shot.integral(10.0) - 3.0) < 1e-12
    # without cycling the intensity is zero after the path ends
    assert np.array_equal(one_shot.intensity([0.0, 0.5, 1.0, 4.0]), [3.0, 3.0, 0.0, 0.0])
    times = np.concatenate([sample_cox_path(one_shot, 5.0, rng) for _ in range(50)])
    assert times.size > 0 and times.max() < 1.0


def test_deterministic_arrival_spec():
    rng = make_stream(0, 0)
    t = sample_arrivals(DeterministicSchedule((0.5, 1.5, 9.0)), 2.0, rng)
    assert np.array_equal(t, [0.5, 1.5])


def test_single_customer_served():
    run = simulate_reneging(
        n=1, horizon=5.0, arrival=DeterministicSchedule((0.5,)),
        patience=FixedPatience((10.0,)), services=DeterministicCycle((1.0,)))
    kinds = [(k, cid, sid) for _, k, cid, sid in run.log]
    assert kinds == [("arrival", 0, -1), ("routing", 0, 0), ("departure", 0, 0)]
    assert run.log[-1][0] == 1.5
    assert run.state.reneged == 0
    assert run.state.departed == 1


def test_forced_reneging():
    # second customer's patience runs out before the server frees up
    run = simulate_reneging(
        n=1, horizon=2.0, arrival=DeterministicSchedule((0.0, 0.1)),
        patience=FixedPatience((0.5,)), services=DeterministicCycle((1.0,)))
    assert run.state.reneged == 1
    assert run.state.departed == 1
    renege_events = [(t, cid) for t, k, cid, _ in run.log if k == "reneging"]
    assert renege_events == [(0.6, 1)]


def test_routing_beats_reneging_at_shared_instant():
    # patience expires exactly when the server frees: the customer is served
    run = simulate_reneging(
        n=1, horizon=3.0, arrival=DeterministicSchedule((0.0, 0.0)),
        patience=FixedPatience((1.0,)), services=DeterministicCycle((1.0,)),
        assert_mode=True)
    assert run.state.reneged == 0
    assert run.state.departed == 2
    routings = [(t, cid, sid) for t, k, cid, sid in run.log if k == "routing"]
    assert routings == [(0.0, 0, 0), (1.0, 1, 0)]


def test_fifo_routing_order():
    run = simulate_reneging(
        n=2, horizon=10.0, arrival=DeterministicSchedule((0.0, 0.0, 0.0, 0.0)),
        patience=FixedPatience((100.0,)), services=DeterministicCycle((1.0,)),
        assert_mode=True)
    routings = [(cid, sid) for _, k, cid, sid in run.log if k == "routing"]
    # lowest waiting index to lowest free server index, in arrival order
    assert routings == [(0, 0), (1, 1), (2, 0), (3, 1)]


def test_invariants_on_randomized_scenarios():
    rng = np.random.default_rng(9)
    for case in range(60):
        n = int(rng.integers(1, 6))
        run = simulate_reneging(
            n=n, horizon=float(rng.uniform(2.0, 15.0)),
            arrival=PoissonProcess(float(rng.uniform(0.5, 4.0)) * n),
            patience=ExponentialPatience(float(rng.uniform(0.3, 3.0))),
            services=PoissonProcess(float(rng.uniform(0.5, 2.0))),
            seed=1000 + case, assert_mode=True,
            initial_customers=int(rng.integers(0, 3 * n)))
        s = run.state
        assert s.arrived == s.routed + s.reneged + s.queued
        assert s.departed <= s.routed


def test_invariants_with_engineered_event_collisions():
    # integer-valued primitives force many shared event instants
    for seed in range(10):
        run = simulate_reneging(
            n=2, horizon=30.0,
            arrival=DeterministicSchedule(tuple(float(k) for k in range(25))),
            patience=FixedPatience((1.0, 2.0, 1.0)),
            services=DeterministicCycle((1.0, 2.0)),
            seed=seed, assert_mode=True)
        assert run.state.arrived == 25


def test_identical_seeds_give_identical_logs():
    kw = dict(n=3, horizon=20.0, arrival=PoissonProcess(4.0),
              patience=ExponentialPatience(1.0), services=PoissonProcess(1.0))
    log1 = event_log_csv(simulate_reneging(seed=7, **kw).log)
    log2 = event_log_csv(simulate_reneging(seed=7, **kw).log)
    log3 = event_log_csv(simulate_reneging(seed=7, rep=1, **kw).log)
    assert log1 == log2
    assert log1 != log3
    assert log1.splitlines()[0] == "t,kind,customer_id,server_id"


def test_reneging_rate_concentrates_when_overloaded():
    # lambda = 2, mu = 1: the normalized reneging rate concentrates at 1
    run = simulate_reneging(
        n=20, horizon=100.0, arrival=PoissonProcess(2.0 * 20),
        patience=ExponentialPatience(1.0), services=PoissonProcess(1.0), seed=3)
    rate = run.state.reneged / (100.0 * 20)
    assert abs(rate - 1.0) < 0.08


def test_multiclass_balance_and_mm1_mean_queue():
    inst = SchedulingInstance((0.5,), (1.0,), (1.0,), beta=1.0)
    run = simulate_multiclass_priority(inst, [0], n=1, horizon=20000.0, seed=2,
                                       assert_mode=True)
    assert np.array_equal(run.terminal, run.arrivals - run.departures)
    assert run.busy_time.sum() <= 20000.0
    # M/M/1 at rho = 0.5: mean queue length rho/(1-rho) = 1
    assert abs(run.queue_area[0] / 20000.0 - 1.0) < 0.1


def test_high_priority_class_unaffected_by_low_class():
    two = SchedulingInstance((0.4, 0.8), (1.5, 1.0), (1.0, 1.0), beta=1.0)
    one = SchedulingInstance((0.4,), (1.5,), (1.0,), beta=1.0)
    r2 = simulate_multiclass_priority(two, [0, 1], n=1, horizon=500.0, seed=5)
    r1 = simulate_multiclass_priority(one, [0], n=1, horizon=500.0, seed=5)
    assert r2.arrivals[0] == r1.arrivals[0]
    assert r2.departures[0] == r1.departures[0]
    assert abs(r2.busy_time[0] - r1.busy_time[0]) < 1e-9
    with pytest.raises(ValueError):
        simulate_multiclass_priority(two, [0, 0], n=1, horizon=1.0)


def test_mc_rate_exact_for_deterministic_intensities():
    for x in (0.5, 2.0):
        for al in (1.5, 2.0):
            est = mc_renyi_rate(PoissonProcess(x), 1.0, al, horizon=10.0, reps=10)
            assert est.std_err == 0.0
            assert abs(est.point - poisson_renyi_rate(x, al)) < 1e-12
    est = mc_renyi_rate(PoissonProcess(1.0), 1.0, 2.0, horizon=10.0, reps=10)
    assert abs(est.point) < 1e-12
    # two-level cycle: occupation-weighted average of the level rates
    spec = CoxPiecewise(((1.0, 0.5), (1.0, 2.0)))
    est = mc_renyi_rate(spec, 1.0, 2.0, horizon=4.0, reps=10)
    want = 0.5 * (poisson_renyi_rate(0.5, 2.0) + poisson_renyi_rate(2.0, 2.0))
    assert abs(est.point - want) < 1e-12


@pytest.mark.parametrize("spec, al, horizon, reps, seed", [
    (gamma_spec(2.0, 2.0), 2.0, 50.0, 40, 0),
    (gamma_spec(2.7, 1.3), 1.6, 20.0, 40, 7),
    (exponential_spec(1.5), 2.5, 50.0, 40, 3),
    # several hundred events a replication: gap batches carry their end time
    (gamma_spec(1.5, 2.4), 2.2, 600.0, 4, 11),
], ids=["gamma", "gamma-short", "exponential", "multi-batch"])
def test_tilted_renewal_rate_equals_per_event_oracle(spec, al, horizon, reps, seed):
    got = mc_renyi_rate(RenewalProcess(spec), 1.0, al, horizon=horizon, reps=reps, seed=seed)
    assert got == tilted_renewal_rate_per_event(spec, 1.0, al, horizon, reps, seed)


def test_mc_rate_reference_sampling_mild_case():
    est = mc_renyi_rate(PoissonProcess(1.2), 1.0, 1.5, horizon=10.0,
                        reps=4000, sampling="reference")
    want = poisson_renyi_rate(1.2, 1.5)
    assert est.estimable
    assert abs(est.point - want) < 3.0 * est.std_err + 1e-3


def test_mc_rate_refuses_unknown_sampling():
    for q in (PoissonProcess(1.2), RenewalProcess(exponential_spec(2.0))):
        with pytest.raises(ValueError, match="sampling"):
            mc_renyi_rate(q, 1.0, 1.5, horizon=1.0, reps=2, sampling="bogus")


def test_mc_weight_diagnostics_match_numpy():
    def direct(log_y):
        w = np.exp(log_y)  # -inf log-weights are zero weights
        return w.sum() ** 2 / np.sum(w * w), w.max() / w.sum()

    # equal weights: every replication counts, ESS = reps
    est = _aggregate_log_mean(np.full(40, -3.0), 2.0, 0)
    assert est.ess == pytest.approx(40.0, rel=1e-12)
    assert est.max_weight_share == pytest.approx(1.0 / 40.0, rel=1e-12)
    # one dominant weight: ESS near 1, and that weight holds nearly all the mass
    log_y = np.random.default_rng(3).normal(size=200)
    log_y[17], log_y[50] = 30.0, -np.inf
    est = _aggregate_log_mean(log_y, 2.0, 0)
    ess, share = direct(log_y)
    assert est.ess == pytest.approx(ess, rel=1e-12)
    assert est.max_weight_share == pytest.approx(share, rel=1e-12)
    assert 1.0 <= est.ess < 1.0 + 1e-9 and share > 1.0 - 1e-9


@pytest.mark.parametrize("cycle", [True, False])
def test_mc_rate_cox_tilted_agrees_with_reference(cycle):
    # the path ends at t = 2 < horizon, so cycle=False exercises the zero tail
    spec = CoxPiecewise(((1.0, 1.2), (1.0, 0.9)), cycle=cycle)
    tilted = mc_renyi_rate(spec, 1.0, 1.5, horizon=3.0, reps=4000)
    ref = mc_renyi_rate(spec, 1.0, 1.5, horizon=3.0, reps=4000, sampling="reference")
    assert ref.estimable
    assert abs(tilted.point - ref.point) < 4.0 * ref.std_err


def test_mc_rate_renewal_tilted_tracks_closed_form():
    est = mc_renyi_rate(RenewalProcess(gamma_spec(2.0, 2.0)), 1.0, 2.0,
                        horizon=50.0, reps=400)
    want = gamma_closed_form(2.0, 2.0, 2.0)
    # finite-horizon bias is O(1/horizon), on top of the sampling error
    assert abs(est.point - want) < 4.0 * est.std_err + 2e-3


def test_mc_tail_probability_smoke():
    est = mc_tail_probability(n=2, horizon=5.0, gamma=0.5, lam=2.0, reps=200, seed=0)
    assert est.estimable
    assert est.point < 0.0
    none = mc_tail_probability(n=2, horizon=5.0, gamma=50.0, lam=2.0, reps=50, seed=0)
    assert not none.estimable
    assert none.point is None
