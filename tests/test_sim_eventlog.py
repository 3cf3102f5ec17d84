"""Pinned event logs of the reneging simulator.

Each scenario's `event_log_csv` is compared by sha256 with a digest recorded
from the rebuild-per-event implementation of `simulate_reneging`, so any
change to the event loop must reproduce its logs byte for byte: the tie
order (departures, arrivals, routing, reneging), the FIFO queue, the
lowest-free-server rule, and the draw order of every random stream.
"""

import hashlib

import pytest

from renyibounds.renewal import exponential_spec
from renyibounds.sim import (CoxPiecewise, DeterministicCycle,
                             DeterministicSchedule, ExponentialPatience,
                             FixedPatience, PoissonProcess, RenewalProcess,
                             event_log_csv, simulate_reneging)

_COLLIDING = DeterministicSchedule(tuple(0.5 * k for k in range(40)))
_SPARSE = DeterministicSchedule((0.0, 0.1, 0.5, 1.0, 1.0, 2.5, 3.0, 3.0, 4.25))

SCENARIOS = {
    "det_n1": dict(n=1, horizon=10.0, arrival=_SPARSE,
                   patience=FixedPatience((0.5, 1.0, 2.0)),
                   services=DeterministicCycle((1.0, 0.5))),
    "det_n1_initial": dict(n=1, horizon=10.0, arrival=_SPARSE,
                           patience=FixedPatience((0.5, 1.0, 2.0)),
                           services=DeterministicCycle((1.0, 0.5)),
                           initial_customers=2),
    "det_n2": dict(n=2, horizon=30.0, arrival=_COLLIDING,
                   patience=FixedPatience((1.0, 2.0, 1.0)),
                   services=DeterministicCycle((1.0, 2.0))),
    "det_n2_initial": dict(n=2, horizon=30.0, arrival=_COLLIDING,
                           patience=FixedPatience((1.0, 2.0, 1.0)),
                           services=DeterministicCycle((1.0, 2.0)),
                           initial_customers=3),
    "cox_renewal_n4": dict(n=4, horizon=20.0,
                           arrival=CoxPiecewise(((1.0, 2.0), (1.0, 8.0))),
                           patience=ExponentialPatience(1.5),
                           services=RenewalProcess(exponential_spec(1.0)),
                           seed=11, initial_customers=5),
    "poisson_n50": dict(n=50, horizon=10.0, arrival=PoissonProcess(2.0 * 50),
                        patience=ExponentialPatience(1.0),
                        services=PoissonProcess(1.0), seed=3),
    "poisson_n500": dict(n=500, horizon=2.0, arrival=PoissonProcess(2.0 * 500),
                         patience=ExponentialPatience(1.0),
                         services=PoissonProcess(1.0), seed=4),
}

EXPECTED_SHA256 = {
    "cox_renewal_n4": "51fe722a2335204d3877b38330476e58c95a99d7ba0f245f04d3fc2e4f154af8",
    "det_n1": "b69045ea768dd4df2d7f69154b4dcc209de4718e50249014f1ceb36abf6b6871",
    "det_n1_initial": "afe0fcf290ceda6b7312b509fd8b20cf3716d7ab877545834c194a3baffedeff",
    "det_n2": "40424ace3decc973a6ff11c9a5f4a011a8d641559df197f2673f8bf335582c55",
    "det_n2_initial": "9e5fac18aacbc792eff9407060a95ea5af6f16d243128af4944794a2261ce9e7",
    "poisson_n50": "5d1261f7d8d9d1e3da647fe61e5fa73e95370d9e1fed6e3d0c6a5bcf24355359",
    "poisson_n500": "e43b96f3276038cea5adf1cfba3feef19ba25a242aa0b3ff3053b4b91efeee5f",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_log_matches_pinned_digest(name):
    csv = event_log_csv(simulate_reneging(**SCENARIOS[name]).log)
    assert hashlib.sha256(csv.encode()).hexdigest() == EXPECTED_SHA256[name]
