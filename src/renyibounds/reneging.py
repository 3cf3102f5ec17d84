"""Decay rates and robust bounds for the overloaded many-server queue with
reneging.

Reference model: Markovian arrivals at rate lambda*n, n unit-rate servers,
exponential patience. The normalized reneging rate concentrates at
gamma0 = lambda - mu; exceeding gamma >= gamma0 is a rare event whose decay
rate is C(gamma). Robust bounds add divergence-rate penalties r1 (arrival +
patience envelopes, folded multiplicatively) and r2 (service-side family)
and optimize the resulting single-alpha bound.

Rates are normalized to mu = 1; general mu is handled by rescaling time by
mu (all rates divided by mu, the returned decay rates multiplied back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .divergence import (AlphaCurve, OrderLike, RrbInputs, RrbResult, as_order,
                         poisson_renyi_rate, rrb_optimize)
from .families import PoissonReference, Q2, Q3, UncertaintyFamily, family_curve
from .renewal import gamma_closed_form


@dataclass(frozen=True)
class RenegingInstance:
    lam: float
    mu: float = 1.0
    theta: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.mu <= 0 or self.theta <= 0:
            raise ValueError("mu and theta must be positive")
        if self.lam < self.mu:
            raise ValueError("requires lambda >= mu (overloaded regime)")

    @property
    def gamma0(self) -> float:
        return self.lam - self.mu

    def at(self, gamma: float) -> "RenegingInstance":
        return RenegingInstance(self.lam, self.mu, self.theta, gamma)


def z_of_gamma(inst: RenegingInstance) -> float:
    """Positive root of mu z^2 + gamma z - lambda = 0; equals 1 at gamma0."""
    g = inst.gamma
    return (math.sqrt(g * g + 4.0 * inst.mu * inst.lam) - g) / (2.0 * inst.mu)


def reference_decay(inst: RenegingInstance) -> float:
    """C(gamma) = lambda(1 - 1/z) + mu(1 - z) - gamma log z, for gamma >= gamma0.

    The reference model's decay rate: (1/tn) log P(reneging rate > gamma)
    tends to -C(gamma)."""
    if inst.gamma < inst.gamma0 - 1e-12:
        raise ValueError("reference decay defined for gamma >= gamma0")
    z = z_of_gamma(inst)
    return inst.lam * (1.0 - 1.0 / z) + inst.mu * (1.0 - z) - inst.gamma * math.log(z)


@dataclass(frozen=True)
class GammaBox:
    """Rectangle of Gamma(k, rho) service densities, k >= 1, rho > 1."""

    k_lo: float
    k_hi: float
    rho_lo: float
    rho_hi: float

    def __post_init__(self):
        if not (1.0 <= self.k_lo <= self.k_hi):
            raise ValueError("requires 1 <= k_lo <= k_hi")
        if not (1.0 < self.rho_lo <= self.rho_hi):
            raise ValueError("requires 1 < rho_lo <= rho_hi")


ServiceFamily = Union[UncertaintyFamily, GammaBox]


@dataclass(frozen=True)
class CompositeFamily:
    arrival_envelope: Tuple[float, float] = (1.0, 1.0)
    patience_envelope: Tuple[float, float] = (1.0, 1.0)
    service_family: ServiceFamily = Q2(1.0, 1.0)

    def __post_init__(self):
        for a, b in (self.arrival_envelope, self.patience_envelope):
            if not (0.0 <= a <= 1.0 <= b):
                raise ValueError("envelopes require 0 <= a <= 1 <= b")

    @property
    def a_hat(self) -> float:
        return self.arrival_envelope[0] * self.patience_envelope[0]

    @property
    def b_hat(self) -> float:
        return self.arrival_envelope[1] * self.patience_envelope[1]


def gamma_box_r2(box: GammaBox, a: OrderLike) -> float:
    """Supremum of the Gamma closed-form rate over the (k, rho) rectangle,
    which lies at one of its four corners: one array call on the 2 x 2 corners.

    The closed form is (A - alpha(rho - 1) - 1)/(alpha(alpha - 1)) with
    log A = phi(k) = N(k)/s, where s = 1 + alpha(k - 1) and
    N = lnGamma(s) - alpha lnGamma(k) + alpha k log rho.

    Rho: A = C(k) rho^p with C(k) > 0 and p = alpha k/s >= 1 for alpha > 1,
    so at each k the closed form is convex in rho and its maximum over
    [rho_lo, rho_hi] lies at rho_lo or rho_hi.

    K: at fixed rho the closed form increases with phi, and s^2 phi' = D with
    D = s N' - alpha N and D' = s N'' = alpha s (alpha psi'(s) - psi'(k)).
    Writing k = 1 + t, s = 1 + alpha t, the lemma
    alpha psi'(1 + alpha t) > psi'(1 + t) for alpha > 1, t >= 0 gives D' > 0,
    so phi' changes sign at most once, from - to +: phi is quasi-convex in k
    and its maximum over [k_lo, k_hi] lies at k_lo or k_hi. Proof of the
    lemma: psi'(x) = int_0^inf u e^{-xu}/(1 - e^{-u}) du; substituting
    v = alpha u on the left, both sides are integrals of v e^{-tv} times
    c/(e^{cv} - 1) (left, c = 1/alpha < 1) and 1/(e^v - 1) (right), and
    y/(e^y - 1) is decreasing, so c v/(e^{cv} - 1) > v/(e^v - 1) for v > 0.

    An ndarray of orders gives one value per order, from one closed-form call
    on the corners broadcast against the orders, with NaN at orders <= 1.
    """
    k = np.array([box.k_lo, box.k_hi])
    rho = np.array([[box.rho_lo], [box.rho_hi]])
    if isinstance(a, np.ndarray):
        v = gamma_closed_form(k[None, None, :], rho[None, :, :], a[:, None, None])
        return np.max(v, axis=(1, 2))
    return float(np.max(gamma_closed_form(k, rho, as_order(a).alpha)))


def _service_curve(fam: ServiceFamily) -> AlphaCurve:
    if isinstance(fam, GammaBox):
        return AlphaCurve(lambda al: gamma_box_r2(fam, al))
    return family_curve(fam, PoissonReference(rate=1.0))


def robust_bound_curve(inst: RenegingInstance, fam: CompositeFamily) -> Tuple[float, AlphaCurve]:
    """(reference log-probability, summed divergence-rate curve) after
    normalizing rates to mu = 1."""
    scale = inst.mu
    norm = RenegingInstance(inst.lam / scale, 1.0, inst.theta, inst.gamma / scale)
    c_ref = reference_decay(norm)
    a_hat, b_hat = fam.a_hat, fam.b_hat
    lam = norm.lam

    def r1(al: float) -> float:
        ka, kb = poisson_renyi_rate(a_hat, al), poisson_renyi_rate(b_hat, al)
        return (np.maximum(ka, kb) if isinstance(al, np.ndarray) else max(ka, kb)) * lam

    r1_curve = AlphaCurve(r1)
    total = r1_curve + _service_curve(fam.service_family)
    return -c_ref, total


def robust_reneging_bound(inst: RenegingInstance, fam: CompositeFamily) -> RrbResult:
    """Best single-alpha bound on the normalized log-probability of exceeding
    reneging rate gamma under the composite family: the order search's
    result, with alpha*, its converged and boundary flags, and the bound.

    The bound (in the mu-rescaled clock) is
    inf over alpha of -((alpha-1)/alpha) C(gamma) + (alpha-1)(r1 + r2),
    multiplied back by mu for general service rates.
    """
    ref_log_prob, total = robust_bound_curve(inst, fam)
    res = rrb_optimize(RrbInputs(ref_log_prob, total))
    return replace(res, bound=res.bound * inst.mu)


FIG3_COLUMNS = [
    "gamma", "ref_decay",
    "bound_Q2", "alpha_star_Q2",
    "bound_Q3", "alpha_star_Q3",
    "bound_Q2prime", "alpha_star_Q2prime",
    "bound_Q3prime", "alpha_star_Q3prime",
    "bound_gammabox_small", "alpha_star_gammabox_small",
    "bound_gammabox_large", "alpha_star_gammabox_large",
]


def default_families(delta: float = 0.3) -> Dict[str, CompositeFamily]:
    """The six bound columns of the figure: full and service-only (primed)
    hazard-band families plus two nested Gamma boxes."""
    a, b = 1.0 - delta, 1.0 + delta
    return {
        "Q2": CompositeFamily((a, b), (a, b), Q2(a, b)),
        "Q3": CompositeFamily((a, b), (a, b), Q3(a, b)),
        "Q2prime": CompositeFamily((1.0, 1.0), (1.0, 1.0), Q2(a, b)),
        "Q3prime": CompositeFamily((1.0, 1.0), (1.0, 1.0), Q3(a, b)),
        "gammabox_small": CompositeFamily((1.0, 1.0), (1.0, 1.0),
                                          GammaBox(1.0, 1.1, 1.0 + 1e-9, 1.1)),
        "gammabox_large": CompositeFamily((1.0, 1.0), (1.0, 1.0),
                                          GammaBox(1.0, 1.5, 1.0 + 1e-9, 1.5)),
    }


def figure3_data(inst: RenegingInstance, families: Optional[Dict[str, CompositeFamily]] = None,
                 gamma_grid: Optional[Sequence[float]] = None) -> List[Dict[str, float]]:
    """Rows of the reneging figure: reference decay -C(gamma) and the robust
    bound of each family, per gamma."""
    if families is None:
        families = default_families()
    if gamma_grid is None:
        g0 = inst.gamma0
        gamma_grid = np.linspace(g0, g0 + 3.0, 60)
    rows = []
    for g in gamma_grid:
        at = inst.at(float(g))
        row: Dict[str, float] = {"gamma": float(g),
                                 "ref_decay": -reference_decay(at) * at.mu}
        for name in ("Q2", "Q3", "Q2prime", "Q3prime", "gammabox_small", "gammabox_large"):
            if name not in families:
                row[f"bound_{name}"] = math.nan
                row[f"alpha_star_{name}"] = math.nan
                continue
            res = robust_reneging_bound(at, families[name])
            row[f"bound_{name}"] = res.bound
            row[f"alpha_star_{name}"] = res.alpha_star
        rows.append(row)
    return rows
