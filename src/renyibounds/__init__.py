"""Renyi divergence rates of point processes against Poisson references,
robust Renyi bounds for queueing guarantees, and a discrete-event simulator
with Monte-Carlo oracles."""

from .divergence import (AlphaCurve, FiniteDistribution, RrbInputs, RrbResult,
                         as_order, jackson_compose, poisson_renyi_rate,
                         relative_entropy_rate, renyi_divergence, rrb_optimize,
                         rrb_upper)
from .families import (MarkSpec, PoissonReference, Q1, Q2, Q3, Q4,
                       family_curve, family_from_dict, rdr_q1, rdr_q2,
                       rdr_q3, rdr_q4, reference_from_dict)
from .optimize import INF, OptResult, ScalarObjective, maximize_1d, minimize_1d
from .renewal import (BoundReport, HypothesisViolationError, RenewalSpec,
                      bound_report, exponential_exact_rdr, exponential_spec,
                      g1_bound, g2_bound, g3_bound, gamma_closed_form,
                      gamma_spec, mixture_exp_spec, phase_type_envelope_bound,
                      rough_bound, table_spec)
from .reneging import (CompositeFamily, GammaBox, RenegingInstance,
                       default_families, figure3_data, gamma_box_r2,
                       reference_decay, robust_reneging_bound, z_of_gamma)
from .scheduling import (RobustBoundResult, SchedulingInstance, balanced_envelope,
                         f0_of_alpha, priority_order, reference_bound,
                         robust_rs_bound, tilted_rates, w_of_gamma)
from .sim import (CoxPiecewise, DeterministicCycle, DeterministicSchedule,
                  ExponentialPatience, FixedPatience, McEstimate,
                  PoissonProcess, RenewalProcess, SimRun, SystemState,
                  event_log_csv, make_stream, mc_renyi_rate,
                  mc_tail_probability, sample_cox_path, sample_renewal_path,
                  simulate_multiclass_priority, simulate_reneging)

__version__ = "0.1.0"
