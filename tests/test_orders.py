"""The order contract: every public function that takes a Renyi order takes
a float alpha > 1, refuses any other value with ValueError, and gives the
same result for an int, a float and a numpy scalar of one value."""

import math

import numpy as np
import pytest

from renyibounds.divergence import (AlphaCurve, FiniteDistribution, RrbInputs,
                                    poisson_renyi_rate, renyi_divergence, rrb_upper)
from renyibounds.families import (PoissonReference, Q1, Q2, Q3, Q4, rdr_q1, rdr_q2,
                                  rdr_q3, rdr_q4)
from renyibounds.reneging import GammaBox, gamma_box_r2
from renyibounds.renewal import (bound_report, exponential_exact_rdr, exponential_spec,
                                 g1_bound, g2_bound, g3_bound, gamma_closed_form,
                                 phase_type_envelope_bound, rough_bound)
from renyibounds.scheduling import SchedulingInstance, f0_of_alpha
from renyibounds.sim import PoissonProcess, mc_renyi_rate

REF = PoissonReference(1.5)
SPEC = exponential_spec(2.0)
INST = SchedulingInstance((1.0, 0.5), (2.0, 1.5), (1.0, 2.0), beta=0.5,
                          arrival_envelopes=((0.8, 1.2), (0.9, 1.1)),
                          service_envelopes=((0.7, 1.3), (1.0, 1.0)))

ORDER_TAKERS = {
    "poisson_renyi_rate": lambda a: poisson_renyi_rate(0.7, a),
    "rdr_q1": lambda a: rdr_q1(Q1(0.2, 2.0), REF, a),
    "rdr_q2": lambda a: rdr_q2(Q2(0.7, 1.3), REF, a),
    "rdr_q3": lambda a: rdr_q3(Q3(0.7, 1.3), REF, a),
    "rdr_q4": lambda a: rdr_q4(Q4(3.0, 0.2), REF, a),
    "AlphaCurve.__call__": lambda a: AlphaCurve(lambda al: al - 1.0)(a),
    "rrb_upper": lambda a: rrb_upper(RrbInputs(-0.5, AlphaCurve.constant(0.1)), a),
    "gamma_closed_form": lambda a: gamma_closed_form(2.0, 1.5, a),
    "gamma_box_r2": lambda a: gamma_box_r2(GammaBox(1.0, 1.5, 1.1, 1.5), a),
    "exponential_exact_rdr": lambda a: exponential_exact_rdr(1.5, a),
    "phase_type_envelope_bound": lambda a: phase_type_envelope_bound(2.0, 1.5, a),
    "rough_bound": lambda a: rough_bound(SPEC, a),
    "g1_bound": lambda a: g1_bound(SPEC, a),
    "g2_bound": lambda a: g2_bound(SPEC, a),
    "g3_bound": lambda a: g3_bound(SPEC, a, override=True),
    "bound_report": lambda a: bound_report(SPEC, a),
    "f0_of_alpha": lambda a: f0_of_alpha(INST, a),
    "mc_renyi_rate": lambda a: mc_renyi_rate(PoissonProcess(1.5), 1.0, a, 10.0, 4),
}


@pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
def test_order_taker_refuses_non_orders_and_reads_any_float_type(name):
    fn = ORDER_TAKERS[name]
    for bad in (1.0, 0.5, math.nan, 'limit'):
        with pytest.raises(ValueError):
            fn(bad)
    want = fn(2.0)
    assert fn(2) == want
    assert fn(np.float64(2.0)) == want


def test_order_one_divergence_is_hand_computed_relative_entropy():
    q = FiniteDistribution((0.5, 0.3, 0.2))
    p = FiniteDistribution((0.2, 0.2, 0.6))
    kl = 0.5 * math.log(0.5 / 0.2) + 0.3 * math.log(0.3 / 0.2) + 0.2 * math.log(0.2 / 0.6)
    assert abs(renyi_divergence(q, p, 1) - kl) < 1e-14
    assert renyi_divergence(q, p, 1.0) == renyi_divergence(q, p, np.float64(1.0))
