"""Robust risk-sensitive bounds for multiclass single-server scheduling.

The reference cost uses the exponentially tilted rates
lambda_hat_i = lambda_i (e^{gamma c_i} - 1), mu_hat_i = mu_i (1 - e^{-gamma c_i})
through the simplex minimization W(gamma); intensity-uncertainty around the
arrival and service primitives enters through the divergence penalty
f0(alpha). The final bound is an infimum over the tilt gamma, convex in
1/gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .divergence import (FiniteDistribution, OrderLike, as_order,
                         poisson_renyi_rate, relative_entropy_rate,
                         renyi_divergence)
from .optimize import INF, ScalarObjective, minimize_1d


@dataclass(frozen=True)
class SchedulingInstance:
    arrival_rates: Tuple[float, ...]
    service_rates: Tuple[float, ...]
    costs: Tuple[float, ...]
    beta: float
    horizon: float = 1.0
    # per-class hazard envelopes: arrivals and services
    arrival_envelopes: Tuple[Tuple[float, float], ...] = ()
    service_envelopes: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        n = len(self.arrival_rates)
        if not (len(self.service_rates) == len(self.costs) == n) or n == 0:
            raise ValueError("rate/cost vectors must share a positive length")
        for v in (*self.arrival_rates, *self.service_rates, *self.costs):
            if v <= 0:
                raise ValueError("rates and costs must be positive")
        if self.beta <= 0 or self.horizon <= 0:
            raise ValueError("beta and horizon must be positive")
        for envs in (self.arrival_envelopes, self.service_envelopes):
            if envs and len(envs) != n:
                raise ValueError("envelope list length must match the class count")
            for a, b in envs:
                if not (0.0 < a <= 1.0 <= b):
                    raise ValueError("envelopes require 0 < a <= 1 <= b")

    @property
    def num_classes(self) -> int:
        return len(self.arrival_rates)

    @property
    def traffic_intensity(self) -> float:
        return sum(l / m for l, m in zip(self.arrival_rates, self.service_rates))

    @classmethod
    def with_delta(cls, arrival_rates, service_rates, costs, beta, horizon, delta):
        """Symmetric envelopes (1 - delta, 1 + delta) on every primitive."""
        n = len(arrival_rates)
        env = tuple((1.0 - delta, 1.0 + delta) for _ in range(n))
        return cls(tuple(arrival_rates), tuple(service_rates), tuple(costs),
                   beta, horizon, env, env)


def tilted_rates(inst: SchedulingInstance, gamma: float):
    lam = np.asarray(inst.arrival_rates)
    mu = np.asarray(inst.service_rates)
    c = np.asarray(inst.costs)
    with np.errstate(over="ignore"):
        # inf at extreme tilts is fine: the search treats it as out of range
        lam_hat = lam * np.expm1(gamma * c)
    mu_hat = mu * (1.0 - np.exp(-gamma * c))
    return lam_hat, mu_hat


def w_of_gamma(inst: SchedulingInstance, gamma: float) -> Tuple[float, np.ndarray]:
    """min over the capped simplex of sum_i (lambda_hat_i - u_i mu_hat_i)^+.

    Greedy: each unit of effort on class i reduces the objective at rate
    mu_hat_i while positive, so serve classes in decreasing mu_hat order,
    each up to its clearing level lambda_hat_i / mu_hat_i. Ties broken by
    ascending class index.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    lam_hat, mu_hat = tilted_rates(inst, gamma)
    n = inst.num_classes
    order = sorted(range(n), key=lambda i: (-mu_hat[i], i))
    u = np.zeros(n)
    budget = 1.0
    for i in order:
        if budget <= 0:
            break
        u[i] = min(budget, lam_hat[i] / mu_hat[i])
        budget -= u[i]
    value = float(np.sum(np.maximum(lam_hat - u * mu_hat, 0.0)))
    return value, u


def f0_of_alpha(inst: SchedulingInstance, a: OrderLike, family: str = "Q2") -> float:
    """Divergence-rate penalty of the per-class hazard envelopes.

    family="Q2": worst endpoint per primitive, sum of (k(a) v k(b)) * rate.
    family="Q3": mixture value per primitive (average-pinned band).
    """
    al_order = as_order(a)
    k = poisson_renyi_rate

    def band_value(a_env: float, b_env: float) -> float:
        if family == "Q2":
            return max(k(a_env, al_order), k(b_env, al_order))
        if family == "Q3":
            if a_env == b_env:
                return 0.0
            p = (b_env - 1.0) / (b_env - a_env)
            q = (1.0 - a_env) / (b_env - a_env)
            return p * k(a_env, al_order) + q * k(b_env, al_order)
        raise ValueError("family must be 'Q2' or 'Q3'")

    total = 0.0
    arr = inst.arrival_envelopes or tuple((1.0, 1.0) for _ in range(inst.num_classes))
    srv = inst.service_envelopes or tuple((1.0, 1.0) for _ in range(inst.num_classes))
    for (a1, b1), lam in zip(arr, inst.arrival_rates):
        total += band_value(a1, b1) * lam
    for (a2, b2), mu in zip(srv, inst.service_rates):
        total += band_value(a2, b2) * mu
    return total


def priority_order(inst: SchedulingInstance, gamma: float) -> Tuple[int, ...]:
    """Index policy: classes by mu_i (1 - e^{-gamma c_i}) descending, ties by
    ascending class index."""
    _, mu_hat = tilted_rates(inst, gamma)
    return tuple(sorted(range(inst.num_classes), key=lambda i: (-mu_hat[i], i)))


@dataclass
class RobustBoundResult:
    bound: float
    gamma_star: float
    priority: Tuple[int, ...]
    boundary: bool


def rs_objective(inst: SchedulingInstance, gamma: float, family: str = "Q2") -> float:
    """Per-unit-horizon objective f0(gamma/(gamma-beta))/(gamma-beta) + W(gamma)/gamma."""
    b = inst.beta
    if gamma <= b:
        return INF
    al = gamma / (gamma - b)
    w, _ = w_of_gamma(inst, gamma)
    return f0_of_alpha(inst, al, family=family) / (gamma - b) + w / gamma


def robust_rs_bound(inst: SchedulingInstance, family: str = "Q2",
                    tol: float = 1e-8) -> RobustBoundResult:
    """Infimum of the robust risk-sensitive objective over the tilt gamma.

    Optimized in gamma_tilde = 1/gamma on (0, 1/beta), where the objective
    is convex; the open-boundary infimum (gamma -> infinity) is surfaced via
    the boundary flag.
    """
    b = inst.beta

    def obj_tilde(gt: float) -> float:
        return rs_objective(inst, 1.0 / gt, family=family)

    res = minimize_1d(ScalarObjective(obj_tilde, lo=0.0, hi=1.0 / b, convexity="convex"),
                      tol=tol)
    gamma_star = 1.0 / res.arg
    return RobustBoundResult(
        bound=res.value * inst.horizon,
        gamma_star=gamma_star,
        priority=priority_order(inst, gamma_star),
        boundary=res.boundary,
    )


def reference_bound(inst: SchedulingInstance, tol: float = 1e-8) -> RobustBoundResult:
    """Reference model value: no envelope penalty, inf over gamma > beta of
    W(gamma) T / gamma (the no-uncertainty limit of the robust bound)."""
    degenerate = SchedulingInstance(
        inst.arrival_rates, inst.service_rates, inst.costs, inst.beta, inst.horizon,
        tuple((1.0, 1.0) for _ in range(inst.num_classes)),
        tuple((1.0, 1.0) for _ in range(inst.num_classes)))
    return robust_rs_bound(degenerate, family="Q2", tol=tol)


# -- oracles and probes -----------------------------------------------------

def w_bruteforce(inst: SchedulingInstance, gamma: float, step: float = 0.02) -> float:
    """Brute-force simplex-grid minimum of the W objective (test oracle)."""
    lam_hat, mu_hat = tilted_rates(inst, gamma)
    n = inst.num_classes
    m = int(round(1.0 / step))
    best = INF
    # enumerate integer compositions with sum <= m
    for comp in itertools.product(range(m + 1), repeat=n):
        if sum(comp) > m:
            continue
        u = np.asarray(comp, dtype=float) * step
        val = float(np.sum(np.maximum(lam_hat - u * mu_hat, 0.0)))
        best = min(best, val)
    return best


def rs_duality_check(q: FiniteDistribution, p: FiniteDistribution,
                     g: Sequence[float], beta: float, gamma: float,
                     grid_step: float = 0.01) -> float:
    """Residual of the risk-sensitive duality identity on a finite space.

    LHS = (1/gamma) log E_P e^{gamma g}. RHS(Q) = (1/beta) log E_Q e^{beta g}
    - (1/(gamma-beta)) R_{gamma/(gamma-beta)}(Q||P), supremized over a dense
    simplex grid of Q. Returns sup-RHS minus LHS; the identity says the true
    supremum equals LHS, so the residual is <= 0 up to grid resolution and
    tends to 0 as the grid refines.
    """
    if not (0 < beta < gamma):
        raise ValueError("requires 0 < beta < gamma")
    pw = p.as_array()
    gv = np.asarray(g, dtype=float)
    if gv.size != pw.size:
        raise ValueError("g must live on the same finite space")
    lhs = math.log(float(np.sum(pw * np.exp(gamma * gv)))) / gamma
    al = gamma / (gamma - beta)
    n = pw.size
    m = int(round(1.0 / grid_step))
    best = -INF
    for comp in itertools.product(range(m + 1), repeat=n - 1):
        if sum(comp) > m:
            continue
        qw = np.empty(n)
        qw[:-1] = np.asarray(comp, dtype=float) / m
        qw[-1] = 1.0 - qw[:-1].sum()
        if qw[-1] < -1e-12:
            continue
        qw[-1] = max(qw[-1], 0.0)
        qd = FiniteDistribution(tuple(qw / qw.sum()))
        div = renyi_divergence(qd, p, al)
        if div == INF:
            continue
        ex = float(np.sum(qd.as_array() * np.exp(beta * gv)))
        if ex <= 0:
            continue
        rhs = math.log(ex) / beta - div / (gamma - beta)
        best = max(best, rhs)
    return best - lhs


def convexity_probe_m(theta_grid: Sequence[float], x_samples: Sequence[float],
                      tol: float = 1e-7) -> int:
    """Count midpoint-convexity violations of m(theta) = theta log E[X^(1/theta)]
    on the given grid, with E the sample mean. Expected 0 (m is convex)."""
    xs = np.asarray(x_samples, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("samples must be positive")
    thetas = np.asarray(sorted(theta_grid), dtype=float)
    if np.any(thetas <= 0):
        raise ValueError("theta grid must be positive")

    def m(th: float) -> float:
        lx = np.log(xs) / th
        mx = lx.max()
        return th * (mx + math.log(float(np.mean(np.exp(lx - mx)))))

    vals = np.array([m(t) for t in thetas])
    violations = 0
    for i in range(len(thetas) - 2):
        t0, t2 = thetas[i], thetas[i + 2]
        tm = 0.5 * (t0 + t2)
        # compare against the chord at the midpoint
        if m(tm) > 0.5 * (vals[i] + vals[i + 2]) + tol:
            violations += 1
    return violations


def balanced_envelope(b: float) -> float:
    """Solve ell(a) = ell(b) for a in (0, 1), given b > 1 with ell(b) <= 1.

    ell(x) = x log x - x + 1 decreases on (0, 1), so the balancing a exists
    whenever ell(b) < ell(0) = 1."""
    if b <= 1.0:
        raise ValueError("b must exceed 1")
    target = relative_entropy_rate(b)
    if target >= 1.0:
        raise ValueError("ell(b) >= 1: no balancing a exists in (0, 1)")
    return brentq(lambda a: relative_entropy_rate(a) - target, 1e-12, 1.0 - 1e-12,
                  xtol=1e-14)
