"""Robust risk-sensitive bounds for multiclass single-server scheduling.

The reference cost uses the exponentially tilted rates
lambda_hat_i = lambda_i (e^{gamma c_i} - 1), mu_hat_i = mu_i (1 - e^{-gamma c_i})
through the simplex minimization W(gamma); intensity-uncertainty around the
arrival and service primitives enters through the divergence penalty
f0(alpha). The final bound is an infimum over the tilt gamma, convex in
1/gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .divergence import (OrderLike, as_order, poisson_renyi_rate,
                         relative_entropy_rate)
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

    # Values fixed for the instance, computed once instead of per tilt.

    @cached_property
    def _rate_arrays(self):
        """(lambda, mu, c) as read-only arrays, and the largest tilt below
        which lambda_i * expm1(gamma c_i) cannot overflow."""
        arrays = tuple(np.array(v, dtype=float) for v in
                       (self.arrival_rates, self.service_rates, self.costs))
        for v in arrays:
            v.setflags(write=False)
        safe_tilt = (700.0 - math.log(max(1.0, *self.arrival_rates))) / max(self.costs)
        return arrays + (safe_tilt,)

    @cached_property
    def _bands(self):
        """Each primitive's envelope (a, b), its Q3 weights (p, q) on k(a)
        and k(b) (None when a = b) and its rate: arrivals, then services.
        Unset envelopes are (1, 1)."""
        unit = tuple((1.0, 1.0) for _ in range(self.num_classes))
        out = []
        for envs, rates in ((self.arrival_envelopes or unit, self.arrival_rates),
                            (self.service_envelopes or unit, self.service_rates)):
            for (a, b), rate in zip(envs, rates):
                pq = (None, None) if a == b else ((b - 1.0) / (b - a), (1.0 - a) / (b - a))
                out.append((a, b) + pq + (rate,))
        return tuple(out)

    @cached_property
    def _band_points(self):
        """The distinct envelope endpoints at which each family evaluates k."""
        q2 = tuple(dict.fromkeys(x for a, b, _, _, _ in self._bands for x in (a, b)))
        q3 = tuple(dict.fromkeys(x for a, b, p, _, _ in self._bands if p is not None
                                 for x in (a, b)))
        return {"Q2": q2, "Q3": q3}

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


def tilted_rates(inst: SchedulingInstance, gamma):
    """(lambda_hat, mu_hat) at a tilt gamma, each of shape (n,), or at each
    tilt of a 1-D array gamma, each of shape (len(gamma), n)."""
    lam, mu, c, safe_tilt = inst._rate_arrays
    if isinstance(gamma, np.ndarray):
        gc, top = gamma[:, None] * c, gamma.max(initial=0.0)
    else:
        gc, top = gamma * c, gamma
    if top < safe_tilt:
        lam_hat = lam * np.expm1(gc)
    else:
        with np.errstate(over="ignore"):
            # inf at extreme tilts is fine: the search treats it as out of range
            lam_hat = lam * np.expm1(gc)
    mu_hat = mu * (1.0 - np.exp(-gc))
    return lam_hat, mu_hat


def w_of_gamma(inst: SchedulingInstance, gamma) -> Tuple[float, np.ndarray]:
    """min over the capped simplex of sum_i (lambda_hat_i - u_i mu_hat_i)^+.

    Greedy: each unit of effort on class i reduces the objective at rate
    mu_hat_i while positive, so serve classes in decreasing mu_hat order,
    each up to its clearing level lambda_hat_i / mu_hat_i. Ties broken by
    ascending class index.

    For a 1-D array of tilts the value is an array and u has one row per
    tilt, equal bit for bit to the scalar calls: the budget left before
    each class is 1 minus the clearing levels served so far, subtracted in
    service order, which np.subtract.accumulate rounds as the loop does.
    """
    vector = isinstance(gamma, np.ndarray)
    if (np.any(gamma <= 0) if vector else gamma <= 0):
        raise ValueError("gamma must be positive")
    lam_hat, mu_hat = tilted_rates(inst, gamma)
    ratio = lam_hat / mu_hat
    if vector:
        order = np.argsort(-mu_hat, axis=1, kind="stable")
        served = np.take_along_axis(ratio, order, axis=1)
        budget = np.subtract.accumulate(
            np.concatenate([np.ones((len(gamma), 1)), served], axis=1), axis=1)[:, :-1]
        u = np.empty_like(ratio)
        np.put_along_axis(u, order, np.minimum(np.maximum(budget, 0.0), served), axis=1)
        return np.maximum(lam_hat - u * mu_hat, 0.0).sum(axis=1), u
    mu_list, ratio_list = mu_hat.tolist(), ratio.tolist()
    n = inst.num_classes
    order = sorted(range(n), key=lambda i: (-mu_list[i], i))
    u = [0.0] * n
    budget = 1.0
    for i in order:
        if budget <= 0:
            break
        u[i] = min(budget, ratio_list[i])
        budget -= u[i]
    u = np.array(u)
    value = float(np.maximum(lam_hat - u * mu_hat, 0.0).sum())
    return value, u


def f0_of_alpha(inst: SchedulingInstance, a: OrderLike, family: str = "Q2"):
    """Divergence-rate penalty of the per-class hazard envelopes.

    family="Q2": worst endpoint per primitive, sum of (k(a) v k(b)) * rate.
    family="Q3": mixture value per primitive (average-pinned band).

    ``a`` may be a 1-D array of orders, giving an array of penalties (NaN
    where an order is not > 1). k is evaluated once per distinct envelope
    endpoint.
    """
    if family not in ("Q2", "Q3"):
        raise ValueError("family must be 'Q2' or 'Q3'")
    if isinstance(a, np.ndarray):
        order, larger = a, np.maximum
    else:
        order, larger = as_order(a), max
    k = {x: poisson_renyi_rate(x, order) for x in inst._band_points[family]}
    total = 0.0
    for a_env, b_env, p, q, rate in inst._bands:
        if family == "Q2":
            band = larger(k[a_env], k[b_env])
        elif p is None:
            band = 0.0
        else:
            band = p * k[a_env] + q * k[b_env]
        total += band * rate
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
    converged: bool
    evaluations: int  # objective evaluations of the tilt search


def rs_objective(inst: SchedulingInstance, gamma, family: str = "Q2"):
    """Per-unit-horizon objective f0(gamma/(gamma-beta))/(gamma-beta) + W(gamma)/gamma.

    A 1-D array of tilts gives the array of values, +inf where gamma <= beta
    and NaN where the scalar call raises."""
    b = inst.beta
    if isinstance(gamma, np.ndarray):
        out = np.full(gamma.shape, INF)
        ok = gamma > b
        g = gamma[ok]
        w, _ = w_of_gamma(inst, g)
        out[ok] = f0_of_alpha(inst, g / (g - b), family=family) / (g - b) + w / g
        return out
    if gamma <= b:
        return INF
    al = gamma / (gamma - b)
    w, _ = w_of_gamma(inst, gamma)
    return f0_of_alpha(inst, al, family=family) / (gamma - b) + w / gamma


def robust_rs_bound(inst: SchedulingInstance, family: str = "Q2") -> RobustBoundResult:
    """Infimum of the robust risk-sensitive objective over the tilt gamma.

    Optimized in gamma_tilde = 1/gamma on (0, 1/beta), where the objective
    is convex; the open-boundary infimum (gamma -> infinity) is surfaced via
    the boundary flag.
    """
    b = inst.beta

    def obj_tilde(gt: float) -> float:
        return rs_objective(inst, 1.0 / gt, family=family)

    res = minimize_1d(ScalarObjective(obj_tilde, lo=0.0, hi=1.0 / b, vectorized=True), tol=1e-8)
    gamma_star = 1.0 / res.arg
    return RobustBoundResult(
        bound=res.value * inst.horizon,
        gamma_star=gamma_star,
        priority=priority_order(inst, gamma_star),
        boundary=res.boundary,
        converged=res.converged,
        evaluations=res.evaluations,
    )


def reference_bound(inst: SchedulingInstance) -> RobustBoundResult:
    """Reference model value: no envelope penalty, inf over gamma > beta of
    W(gamma) T / gamma (the no-uncertainty limit of the robust bound)."""
    degenerate = SchedulingInstance(
        inst.arrival_rates, inst.service_rates, inst.costs, inst.beta, inst.horizon,
        tuple((1.0, 1.0) for _ in range(inst.num_classes)),
        tuple((1.0, 1.0) for _ in range(inst.num_classes)))
    return robust_rs_bound(degenerate, family="Q2")


def balanced_envelope(b: float) -> float:
    """Solve ell(a) = ell(b) for a in (0, 1), given b > 1 with ell(b) <= 1.

    ell(x) = x log x - x + 1 decreases on (0, 1), so the balancing a exists
    whenever ell(b) < ell(0) = 1."""
    if b <= 1.0:
        raise ValueError("b must exceed 1")
    target = relative_entropy_rate(b)
    if target >= 1.0:
        raise ValueError("ell(b) >= 1: no balancing a exists in (0, 1)")
    from scipy.optimize import brentq
    return brentq(lambda a: relative_entropy_rate(a) - target, 1e-12, 1.0 - 1e-12,
                  xtol=1e-14)
