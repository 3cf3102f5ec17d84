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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .divergence import (AlphaCurve, OrderLike, RrbInputs, as_order,
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


def gamma_box_r2(box: GammaBox, a: OrderLike, bare_bracket: bool = False,
                 grid: int = 60) -> float:
    """Supremum of the Gamma closed-form rate over the (k, rho) rectangle.

    Dense grid plus local refinement; the value is increasing in rho, so the
    rho-supremum sits at rho_hi (verified, not assumed, by the grid).
    With bare_bracket the bare bracket (the closed form times
    alpha(alpha-1)) is returned instead of the divergence-rate normalization.
    """
    al = as_order(a).alpha

    def val(k: float, rho: float) -> float:
        v = gamma_closed_form(k, rho, al)
        return v * al * (al - 1.0) if bare_bracket else v

    # verify (not assume) that rho_hi dominates, on a coarse k x rho grid
    ks_coarse = np.linspace(box.k_lo, box.k_hi, 8)
    rs_coarse = np.linspace(box.rho_lo, box.rho_hi, 8)
    for k in ks_coarse:
        col = [val(k, r) for r in rs_coarse]
        if any(col[j] > col[-1] + 1e-12 for j in range(len(col) - 1)):
            # fall back to a full dense grid if monotonicity in rho fails
            return float(max(val(k2, r2)
                             for k2 in np.linspace(box.k_lo, box.k_hi, grid)
                             for r2 in np.linspace(box.rho_lo, box.rho_hi, grid)))
    ks = np.linspace(box.k_lo, box.k_hi, max(grid, 120))
    vals = np.array([val(k, box.rho_hi) for k in ks])
    i = int(np.argmax(vals))
    best = float(vals[i])
    k_lo = ks[max(i - 1, 0)]
    k_hi = ks[min(i + 1, len(ks) - 1)]
    for k in np.linspace(k_lo, k_hi, 60):
        best = max(best, val(k, box.rho_hi))
    return best


def _service_curve(fam: ServiceFamily, bare_bracket: bool) -> AlphaCurve:
    ref = PoissonReference(rate=1.0)
    if isinstance(fam, GammaBox):
        return AlphaCurve(lambda al: gamma_box_r2(fam, al, bare_bracket=bare_bracket))
    return family_curve(fam, ref)


def robust_bound_curve(inst: RenegingInstance, fam: CompositeFamily,
                       bare_bracket: bool = False) -> Tuple[float, AlphaCurve]:
    """(reference log-probability, summed divergence-rate curve) after
    normalizing rates to mu = 1."""
    scale = inst.mu
    norm = RenegingInstance(inst.lam / scale, 1.0, inst.theta, inst.gamma / scale)
    c_ref = reference_decay(norm)
    a_hat, b_hat = fam.a_hat, fam.b_hat
    lam = norm.lam

    def r1(al: float) -> float:
        return max(poisson_renyi_rate(a_hat, al), poisson_renyi_rate(b_hat, al)) * lam

    r1_curve = AlphaCurve(r1)
    total = r1_curve + _service_curve(fam.service_family, bare_bracket)
    return -c_ref, total


def robust_reneging_bound(inst: RenegingInstance, fam: CompositeFamily,
                          bare_bracket: bool = False,
                          tol: float = 1e-8) -> Tuple[float, float]:
    """Best single-alpha bound on the normalized log-probability of exceeding
    reneging rate gamma under the composite family. Returns (bound, alpha*).

    The bound (in the mu-rescaled clock) is
    inf over alpha of -((alpha-1)/alpha) C(gamma) + (alpha-1)(r1 + r2),
    multiplied back by mu for general service rates.
    """
    ref_log_prob, total = robust_bound_curve(inst, fam, bare_bracket)
    res = rrb_optimize(RrbInputs(ref_log_prob, total), tol=tol)
    return res.bound * inst.mu, res.alpha_star


FIG3_COLUMNS = [
    "gamma", "ref_decay",
    "bound_Q2", "alpha_star_Q2",
    "bound_Q3", "alpha_star_Q3",
    "bound_Q2prime", "alpha_star_Q2prime",
    "bound_Q3prime", "alpha_star_Q3prime",
    "bound_gammabox_small", "alpha_star_gammabox_small",
    "bound_gammabox_large", "alpha_star_gammabox_large",
]


def default_families(delta: float = 0.3,
                     small_box: Optional[GammaBox] = None,
                     large_box: Optional[GammaBox] = None) -> Dict[str, CompositeFamily]:
    """The six bound columns of the figure: full and service-only (primed)
    hazard-band families plus two nested Gamma boxes."""
    a, b = 1.0 - delta, 1.0 + delta
    if small_box is None:
        small_box = GammaBox(1.0, 1.1, 1.0 + 1e-9, 1.1)
    if large_box is None:
        large_box = GammaBox(1.0, 1.5, 1.0 + 1e-9, 1.5)
    return {
        "Q2": CompositeFamily((a, b), (a, b), Q2(a, b)),
        "Q3": CompositeFamily((a, b), (a, b), Q3(a, b)),
        "Q2prime": CompositeFamily((1.0, 1.0), (1.0, 1.0), Q2(a, b)),
        "Q3prime": CompositeFamily((1.0, 1.0), (1.0, 1.0), Q3(a, b)),
        "gammabox_small": CompositeFamily((1.0, 1.0), (1.0, 1.0), small_box),
        "gammabox_large": CompositeFamily((1.0, 1.0), (1.0, 1.0), large_box),
    }


def figure3_data(inst: RenegingInstance, families: Optional[Dict[str, CompositeFamily]] = None,
                 gamma_grid: Optional[Sequence[float]] = None,
                 bare_bracket: bool = False) -> List[Dict[str, float]]:
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
            bound, a_star = robust_reneging_bound(at, families[name],
                                                  bare_bracket=bare_bracket)
            row[f"bound_{name}"] = bound
            row[f"alpha_star_{name}"] = a_star
        rows.append(row)
    return rows
