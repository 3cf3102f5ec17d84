"""Divergence-rate upper bounds for a single renewal process against a
unit-rate Poisson reference, with closed forms for exponential, gamma and
phase-type-envelope inter-event densities.

Central objects: H(x) = x + log g(x) (log likelihood-ratio exponent of the
inter-event density g against the unit exponential), its moment generating
integrals gamma(s) and beta(lambda1, lambda2), and the conjugate beta*.
Four bounds are provided, from coarsest to sharpest:

  rough: (e^{alpha H_bar} - 1 + c(alpha)) / (alpha (alpha-1))
  g1:    conjugate-pair Hoelder relaxation of the rough bound
  g2:    sup over theta of the constrained conjugate value G2(theta)
  g3:    sup over theta of the pinned conjugate value G3(theta) (needs
         gamma(s) finite for all s <= 0)

The inner values of g2/g3 are evaluated through their single-variable dual
form (an infimum over lambda1, exact under the bounds' standing convexity
hypotheses and always a valid upper bound by weak duality); the nested
sup/conjugate primal form is computed independently at the optimal theta as
a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy import stats
from scipy.integrate import simpson, trapezoid
from scipy.special import gammaln

from .divergence import OrderLike, as_order
from .families import MarkSpec
from .optimize import (INF, ScalarObjective, fenchel_conjugate_2d, maximize_1d,
                       minimize_1d)


class HypothesisViolationError(RuntimeError):
    """A bound's standing hypothesis fails for the supplied density."""


@dataclass
class RenewalSpec:
    """Inter-event density of a renewal process plus derived integrals.

    log_density must be vectorized and return -inf where the density
    vanishes. Closed-form beta/gamma, hazard machinery and the inverse CDF
    are optional; numeric fallbacks on an internal grid are used otherwise.
    """

    name: str
    log_density: Callable[[np.ndarray], np.ndarray]
    h_bar: float
    support_full: bool
    beta_closed: Optional[Callable[[float, float], float]] = None
    gamma_closed: Optional[Callable[[float], float]] = None
    hazard: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cum_hazard: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ppf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mark: Optional[MarkSpec] = None
    grid_max: float = 80.0
    grid_n: int = 16001
    _grid: Optional[np.ndarray] = field(default=None, repr=False)
    _lg: Optional[np.ndarray] = field(default=None, repr=False)

    # -- grid plumbing ------------------------------------------------------

    def _ensure_grid(self):
        if self._grid is None:
            self._grid = np.linspace(0.0, self.grid_max, self.grid_n)
            with np.errstate(divide="ignore", invalid="ignore"):
                lg = np.asarray(self.log_density(self._grid), dtype=float)
            lg[np.isnan(lg)] = -INF
            self._lg = lg
        return self._grid, self._lg

    def density(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_density(x))

    def c(self, alpha: float) -> float:
        return self.mark.c(alpha) if self.mark is not None else 0.0

    # -- moment integrals ---------------------------------------------------

    def beta(self, l1: float, l2: float) -> float:
        """log integral of exp(l1*y + l2*H(y)) against the unit exponential."""
        if self.beta_closed is not None:
            return self.beta_closed(l1, l2)
        if l2 < 0.0 and not self.support_full:
            return INF
        x, lg = self._ensure_grid()
        if l2 == 0.0:
            # zero-density regions contribute exp(0 * H) = 1 here, so the
            # log-density must not enter the integrand at all
            li = (l1 - 1.0) * x
        else:
            with np.errstate(invalid="ignore"):
                li = l2 * lg + (l1 + l2 - 1.0) * x
            li[np.isnan(li)] = -INF
        m = np.max(li)
        if not np.isfinite(m):
            return INF
        # tail handling: estimate the decay exponent from the grid's last span
        j = int(0.95 * len(x))
        if np.isfinite(li[-1]) and np.isfinite(li[j]):
            slope = (li[-1] - li[j]) / (x[-1] - x[j])
        else:
            slope = -INF
        if slope > -1e-6:
            return INF
        integral = simpson(np.exp(li - m), x=x)
        if np.isfinite(slope):
            integral += math.exp(li[-1] - m) / (-slope)
        if integral <= 0.0:
            return -INF
        return m + math.log(integral)

    def gamma_val(self, s: float) -> float:
        """gamma(s) = integral of exp(s H(y)) against the unit exponential."""
        if self.gamma_closed is not None:
            return self.gamma_closed(s)
        b = self.beta(0.0, s)
        if b == INF:
            return INF
        with np.errstate(over="ignore"):
            return math.exp(b) if b < 700 else INF

    def tilt(self) -> "ExponentialTilt":
        return ExponentialTilt(gamma_fn=self.gamma_val, beta_fn=self.beta)

    def validate(self, atol: float = 1e-8):
        """Quadrature sanity: density integrates to 1, gamma(0) = 1."""
        total = math.exp(self.beta(0.0, 1.0))  # integral of g = e^{beta(0,1)}
        if abs(total - 1.0) > atol:
            raise ValueError(f"density integrates to {total}, not 1")
        if abs(self.gamma_val(0.0) - 1.0) > atol:
            raise ValueError("gamma(0) != 1")


@dataclass(frozen=True)
class ExponentialTilt:
    gamma_fn: Callable[[float], float]
    beta_fn: Callable[[float, float], float]

    def validate(self, atol: float = 1e-8):
        assert abs(self.gamma_fn(0.0) - 1.0) <= atol
        assert abs(self.beta_fn(0.0, 0.0)) <= atol
        assert abs(self.beta_fn(0.0, 1.0)) <= atol


# -- constructors -----------------------------------------------------------

def exponential_spec(rho: float) -> RenewalSpec:
    if rho <= 0:
        raise ValueError("rate must be positive")
    lr = math.log(rho)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, lr - rho * x, -INF)
        return out

    def beta_closed(l1, l2):
        d = 1.0 - l1 + l2 * (rho - 1.0)
        if d <= 0:
            return INF
        return l2 * lr - math.log(d)

    def gamma_closed(s):
        d = 1.0 + s * (rho - 1.0)
        if d <= 0:
            return INF
        with np.errstate(over="ignore"):
            v = s * lr - math.log(d)
            return math.exp(v) if v < 700 else INF

    return RenewalSpec(
        name=f"exp(rho={rho})",
        log_density=log_density,
        h_bar=lr if rho >= 1.0 else INF,
        support_full=True,
        beta_closed=beta_closed,
        gamma_closed=gamma_closed,
        hazard=lambda x: np.full_like(np.asarray(x, dtype=float), rho),
        cum_hazard=lambda x: rho * np.asarray(x, dtype=float),
        ppf=lambda u: -np.log1p(-np.asarray(u, dtype=float)) / rho,
    )


def gamma_spec(k: float, rho: float) -> RenewalSpec:
    if k < 1 or rho <= 0:
        raise ValueError("requires shape k >= 1 and rate rho > 0")
    dist = stats.gamma(a=k, scale=1.0 / rho)
    lnorm = k * math.log(rho) - gammaln(k)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(x > 0, lnorm + (k - 1.0) * np.log(np.maximum(x, 1e-300)) - rho * x,
                           lnorm if k == 1.0 else -INF)
        return out

    def beta_closed(l1, l2):
        s2 = 1.0 + l2 * (k - 1.0)
        d = 1.0 + l2 * (rho - 1.0) - l1
        if s2 <= 0 or d <= 0:
            return INF
        return l2 * lnorm + gammaln(s2) - s2 * math.log(d)

    if rho > 1.0:
        if k == 1.0:
            h_bar = math.log(rho)
        else:
            x_star = (k - 1.0) / (rho - 1.0)
            h_bar = x_star + float(log_density(np.array([x_star]))[0])
    elif rho == 1.0 and k == 1.0:
        h_bar = 0.0
    else:
        h_bar = INF

    def cum_hazard(x):
        x = np.asarray(x, dtype=float)
        return -dist.logsf(x)

    def hazard(x):
        # h = g / survival = exp(log g - log sf)
        x = np.asarray(x, dtype=float)
        return np.exp(log_density(x) - dist.logsf(x))

    return RenewalSpec(
        name=f"gamma(k={k},rho={rho})",
        log_density=log_density,
        h_bar=h_bar,
        support_full=True,
        beta_closed=beta_closed,
        gamma_closed=lambda s: math.exp(beta_closed(0.0, s)) if beta_closed(0.0, s) < 700 else INF,
        hazard=hazard,
        cum_hazard=cum_hazard,
        ppf=lambda u: dist.ppf(np.asarray(u, dtype=float)),
    )


def mixture_exp_spec(weights, rates) -> RenewalSpec:
    """Hyperexponential density sum_i w_i r_i e^{-r_i x}. With min(rates) = 1
    the likelihood exponent H is bounded on both sides, making this the
    fixture of choice for the g3 bound."""
    w = np.asarray(weights, dtype=float)
    r = np.asarray(rates, dtype=float)
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12 or np.any(r <= 0):
        raise ValueError("weights must be a positive probability vector, rates positive")

    def log_density(x):
        x = np.asarray(x, dtype=float)
        terms = np.log(w * r)[None, :] - np.outer(x, r)
        m = terms.max(axis=1)
        out = m + np.log(np.sum(np.exp(terms - m[:, None]), axis=1))
        return np.where(x >= 0, out, -INF)

    r_min = float(r.min())
    if r_min >= 1.0:
        # H(x) = x + log g -> max over a probe grid (H is concave-ish, smooth)
        xs = np.linspace(0.0, 60.0, 6001)
        h_bar = float(np.max(xs + log_density(xs)))
    else:
        h_bar = INF

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.sum(w[None, :] * np.exp(-np.outer(x, r)), axis=1)

    def hazard(x):
        return np.exp(log_density(x)) / sf(x)

    def cum_hazard(x):
        return -np.log(sf(x))

    return RenewalSpec(
        name=f"hyperexp({list(w)},{list(r)})",
        log_density=log_density,
        h_bar=h_bar,
        support_full=True,
        hazard=hazard,
        cum_hazard=cum_hazard,
    )


def table_spec(xs, gs, name: str = "table") -> RenewalSpec:
    """Tabulated density with trapezoid interpolation, zero outside the
    tabulated range (a support-gap density: only rough/g1 apply)."""
    xs = np.asarray(xs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise ValueError("x column must be strictly increasing")
    if np.any(gs < 0):
        raise ValueError("density values must be nonnegative")
    total = trapezoid(gs, xs)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"tabulated density integrates to {total}, not 1")

    def log_density(x):
        x = np.asarray(x, dtype=float)
        g = np.interp(x, xs, gs, left=0.0, right=0.0)
        with np.errstate(divide="ignore"):
            return np.log(g)

    with np.errstate(divide="ignore"):
        h_bar = float(np.max(xs + np.log(np.maximum(gs, 1e-300))))

    cdf = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (gs[1:] + gs[:-1]) / 2.0)])
    cdf = cdf / cdf[-1]

    def ppf(u):
        return np.interp(np.asarray(u, dtype=float), cdf, xs)

    sf_grid = np.clip(1.0 - cdf, 1e-300, None)

    def hazard(x):
        x = np.asarray(x, dtype=float)
        g = np.interp(x, xs, gs, left=0.0, right=0.0)
        sf = np.interp(x, xs, sf_grid, left=1.0, right=1e-300)
        return g / np.maximum(sf, 1e-300)

    def cum_hazard(x):
        x = np.asarray(x, dtype=float)
        sf = np.interp(x, xs, sf_grid, left=1.0, right=1e-300)
        return -np.log(sf)

    return RenewalSpec(
        name=name,
        log_density=log_density,
        h_bar=h_bar,
        support_full=False,
        hazard=hazard,
        cum_hazard=cum_hazard,
        ppf=ppf,
        grid_max=float(xs[-1]),
    )


# -- closed forms -----------------------------------------------------------

def exponential_exact_rdr(rho: float, a: OrderLike) -> float:
    """Exact divergence rate of an Exp(rho) renewal process vs Poisson(1)."""
    al = as_order(a).alpha
    return (rho ** al - 1.0 - al * (rho - 1.0)) / (al * (al - 1.0))


def gamma_closed_form(k: float, rho: float, a: OrderLike) -> float:
    """Closed-form divergence-rate bound for a Gamma(k, rho) renewal process,
    k >= 1, rho > 1. Reduces to the exact exponential value at k = 1."""
    if k < 1 or rho <= 1:
        raise ValueError("requires k >= 1 and rho > 1")
    al = as_order(a).alpha
    s = 1.0 + al * (k - 1.0)
    log_a = (gammaln(s) - al * gammaln(k) + al * k * math.log(rho)) / s
    return (math.exp(log_a) - al * (rho - 1.0) - 1.0) / (al * (al - 1.0))


def phase_type_envelope_bound(C: float, sigma: float, a: OrderLike) -> float:
    """Bound for any density dominated by C e^{-sigma x}, sigma > 1, C >= sigma."""
    if sigma <= 1 or C < sigma:
        raise ValueError("requires sigma > 1 and C >= sigma")
    al = as_order(a).alpha
    return (C ** al - 1.0 - al * (sigma - 1.0)) / (al * (al - 1.0))


# -- bounds -----------------------------------------------------------------

def rough_bound(spec: RenewalSpec, a: OrderLike) -> float:
    al = as_order(a).alpha
    if not np.isfinite(spec.h_bar):
        raise HypothesisViolationError("rough bound needs sup H finite")
    return (math.exp(al * spec.h_bar) - 1.0 + spec.c(al)) / (al * (al - 1.0))


def g1_bound(spec: RenewalSpec, a: OrderLike) -> float:
    """Infimum over conjugate pairs (p, q) of (gamma(q alpha)^{p/q} - 1)/p."""
    al = as_order(a).alpha

    def ghat(s: float) -> float:
        q = 1.0 + math.exp(s)
        gv = spec.gamma_val(q * al)
        if not np.isfinite(gv) or gv <= 0:
            return INF
        p = q / (q - 1.0)
        lg = (p / q) * math.log(gv)
        if lg > 700:
            return INF
        return (math.exp(lg) - 1.0) / p

    res = minimize_1d(ScalarObjective(ghat), tol=1e-10, coarse=161, s_lo=-14.0, s_hi=14.0)
    g1 = res.value
    return (max(g1, 0.0) + spec.c(al)) / (al * (al - 1.0))


def _check_beta_near_origin(spec: RenewalSpec):
    if not spec.support_full:
        raise HypothesisViolationError(
            "density has a support gap; beta is not finite near the origin "
            "(use rough_bound / g1_bound)")
    for l1, l2 in ((0.05, 0.05), (0.05, -0.05), (-0.05, 0.05), (-0.05, -0.05)):
        if not np.isfinite(spec.beta(l1, l2)):
            raise HypothesisViolationError("beta not finite near the origin")


def _dual_inner(spec: RenewalSpec, al: float, theta: float, restrict_nonpos: bool) -> float:
    """inf over lambda1 of (lambda1)^- + theta beta(lambda1, alpha), the
    single-variable dual of the constrained conjugate value. With
    restrict_nonpos the infimum runs over lambda1 <= 0 (the g2 case);
    otherwise over all of R (the g3 case)."""

    def obj(l1: float) -> float:
        b = spec.beta(l1, al)
        if not np.isfinite(b):
            return INF
        return -min(l1, 0.0) + theta * b

    hi = 0.0 if restrict_nonpos else INF
    try:
        res = minimize_1d(ScalarObjective(obj, lo=-INF, hi=hi), tol=1e-10, coarse=81,
                          s_lo=-30.0, s_hi=30.0)
        best = res.value
    except ValueError:
        best = INF
    end = obj(0.0)
    return min(best, end)


def _sup_over_theta(inner: Callable[[float], float], warm: Optional[float]) -> Tuple[float, float]:
    """Maximize theta -> inner(theta) (concave in theta) over log theta."""
    obj = ScalarObjective(lambda t: inner(math.exp(t)), convexity="concave")
    res = maximize_1d(obj, tol=1e-10, coarse=81, s_lo=-10.0, s_hi=10.0)
    best_t, best_v = res.arg, res.value  # identity transform: arg is log theta
    if warm is not None and np.isfinite(warm) and inner(math.exp(warm)) > best_v:
        res2 = maximize_1d(obj, tol=1e-10, coarse=41, s_lo=warm - 2.0, s_hi=warm + 2.0)
        if res2.value > best_v:
            best_t, best_v = res2.arg, res2.value
    return math.exp(best_t), best_v


def _beta_grad(spec: RenewalSpec, l1: float, l2: float,
               h: float = 1e-5) -> Optional[Tuple[float, float]]:
    vals = [spec.beta(l1 + h, l2), spec.beta(l1 - h, l2),
            spec.beta(l1, l2 + h), spec.beta(l1, l2 - h)]
    if not all(np.isfinite(v) for v in vals):
        return None
    return (vals[0] - vals[1]) / (2 * h), (vals[2] - vals[3]) / (2 * h)


def _solve_l1(spec: RenewalSpec, l2: float, target: float) -> Optional[float]:
    """lambda1 with d beta / d lambda1 = target (the slope is increasing in
    lambda1 by convexity). None when the slope never reaches the target on
    beta's domain slice."""
    from scipy.optimize import brentq

    def slope(l1: float) -> Optional[float]:
        g = _beta_grad(spec, l1, l2)
        return None if g is None else g[0]

    anchor, v = None, None
    for l1 in (0.0, -0.5, -1.0, -2.0, -4.0, -8.0, -16.0):
        v = slope(l1)
        if v is not None:
            anchor = l1
            break
    if anchor is None:
        return None
    if abs(v - target) < 1e-13:
        return anchor
    if v < target:
        lo, step = anchor, 0.25
        hi = None
        for _ in range(80):
            cand = lo + step
            vc = slope(cand)
            if vc is None:
                step *= 0.5  # stepped over the domain edge; shorten
                if step < 1e-12:
                    break
                continue
            if vc >= target:
                hi = cand
                break
            lo, step = cand, step * 2.0
        if hi is None:
            return None
    else:
        hi, step = anchor, 0.25
        lo = None
        for _ in range(80):
            cand = hi - step
            vc = slope(cand)
            if vc is None:
                return None
            if vc <= target:
                lo = cand
                break
            hi, step = cand, step * 2.0
        if lo is None:
            return None
    return brentq(lambda l1: slope(l1) - target, lo, hi, xtol=1e-11)


def _curve_value(spec: RenewalSpec, al: float, l2: float, x1: float) -> float:
    """alpha x2 - beta*(x1, x2) evaluated parametrically at the gradient
    point with d beta / d lambda1 pinned to x1 (Fenchel-Young equality)."""
    l1 = _solve_l1(spec, l2, x1)
    if l1 is None:
        return -INF
    g = _beta_grad(spec, l1, l2)
    if g is None:
        return -INF
    x2 = g[1]
    bstar = l1 * x1 + l2 * x2 - spec.beta(l1, l2)
    return al * x2 - bstar


def _primal_g3(spec: RenewalSpec, al: float, theta: float) -> float:
    """Nested primal form: theta * sup over x2 of alpha x2 - beta*(1/theta, x2),
    with the conjugate evaluated parametrically along the gradient curve."""
    x1 = 1.0 / theta
    res = maximize_1d(ScalarObjective(lambda l2: _curve_value(spec, al, l2, x1)),
                      tol=1e-9, coarse=81, s_lo=-12.0, s_hi=12.0)
    return theta * res.value


def _primal_g2(spec: RenewalSpec, al: float, theta: float) -> float:
    """Nested primal form: theta * sup over {x : x1 <= 1/theta} of
    alpha x2 - beta*(x). The supremum splits into the active-constraint
    boundary x1 = 1/theta (parametric curve, as in the pinned form) and
    interior stationary points, which have lambda1 = 0."""
    cap = 1.0 / theta
    boundary = maximize_1d(
        ScalarObjective(lambda l2: _curve_value(spec, al, l2, cap)),
        tol=1e-9, coarse=81, s_lo=-12.0, s_hi=12.0).value

    def interior(l2: float) -> float:
        g = _beta_grad(spec, 0.0, l2)
        if g is None or g[0] > cap:
            return -INF
        x2 = g[1]
        bstar = l2 * x2 - spec.beta(0.0, l2)
        return al * x2 - bstar

    try:
        int_val = maximize_1d(ScalarObjective(interior), tol=1e-9,
                              coarse=81, s_lo=-12.0, s_hi=12.0).value
    except ValueError:
        int_val = -INF
    return theta * max(boundary, int_val)


def g2_bound(spec: RenewalSpec, a: OrderLike, primal_check: bool = False,
             diagnostics: Optional[Dict] = None) -> float:
    """Sharpened bound via the theta-family of constrained conjugate values.

    The inner value is evaluated in its single-variable dual form (exact
    under the bound's hypotheses and a valid upper bound in general); with
    primal_check the nested conjugate form is recomputed at the optimal
    theta and must not exceed the dual value.
    """
    al = as_order(a).alpha
    _check_beta_near_origin(spec)
    warm = al * spec.h_bar if np.isfinite(spec.h_bar) else None
    theta_star, g2 = _sup_over_theta(
        lambda th: _dual_inner(spec, al, th, restrict_nonpos=True), warm)
    if diagnostics is not None:
        diagnostics["theta_star"] = theta_star
        diagnostics["dual"] = g2
    if primal_check:
        primal = _primal_g2(spec, al, theta_star)
        if diagnostics is not None:
            diagnostics["primal"] = primal
        if primal > g2 + 1e-6 * max(1.0, abs(g2)):
            raise AssertionError(
                f"primal value {primal} exceeds its dual upper bound {g2}")
    return (max(g2, 0.0) + spec.c(al)) / (al * (al - 1.0))


def g3_bound(spec: RenewalSpec, a: OrderLike, override: bool = False,
             primal_check: bool = False, diagnostics: Optional[Dict] = None) -> float:
    """Sharpest bound; requires gamma(s) finite for all s <= 0 and sup H
    finite. override skips the hypothesis gate (unproven territory where the
    formula may still be exact, e.g. slow exponential densities)."""
    al = as_order(a).alpha
    if not override:
        _check_beta_near_origin(spec)
        if not np.isfinite(spec.h_bar):
            raise HypothesisViolationError("g3 needs sup H finite (or override=True)")
        for s in (-1.0, -4.0, -16.0):
            if not np.isfinite(spec.gamma_val(s)):
                raise HypothesisViolationError(
                    f"gamma({s}) diverges; g3 hypothesis fails (use g2_bound)")
    warm = al * spec.h_bar if np.isfinite(spec.h_bar) else None
    theta_star, g3 = _sup_over_theta(
        lambda th: _dual_inner(spec, al, th, restrict_nonpos=False), warm)
    if diagnostics is not None:
        diagnostics["theta_star"] = theta_star
        diagnostics["dual"] = g3
    if primal_check:
        primal = _primal_g3(spec, al, theta_star)
        if diagnostics is not None:
            diagnostics["primal"] = primal
        if primal > g3 + 1e-6 * max(1.0, abs(g3)):
            raise AssertionError(
                f"primal value {primal} exceeds its dual upper bound {g3}")
    return (max(g3, 0.0) + spec.c(al)) / (al * (al - 1.0))


def legendre_transform(tilt: ExponentialTilt, x) -> float:
    """Numeric conjugate beta*(x) of the tilt's beta."""
    return fenchel_conjugate_2d(lambda lam: tilt.beta_fn(lam[0], lam[1]), x)


@dataclass
class BoundReport:
    alpha: float
    rough: Optional[float] = None
    g1: Optional[float] = None
    g2: Optional[float] = None
    g3: Optional[float] = None
    refused: Dict[str, str] = field(default_factory=dict)
    diagnostics: Dict[str, Dict] = field(default_factory=dict)


def bound_report(spec: RenewalSpec, a: OrderLike, g3_override: bool = False) -> BoundReport:
    """All applicable bounds for one spec/order, with hypothesis-gate notes."""
    al = as_order(a).alpha
    rep = BoundReport(alpha=al)
    for name, fn in (("rough", rough_bound), ("g1", g1_bound)):
        try:
            setattr(rep, name, fn(spec, al))
        except HypothesisViolationError as e:
            rep.refused[name] = str(e)
    try:
        d: Dict = {}
        rep.g2 = g2_bound(spec, al, diagnostics=d)
        rep.diagnostics["g2"] = d
    except HypothesisViolationError as e:
        rep.refused["g2"] = str(e)
    try:
        d = {}
        rep.g3 = g3_bound(spec, al, override=g3_override, diagnostics=d)
        rep.diagnostics["g3"] = d
    except HypothesisViolationError as e:
        rep.refused["g3"] = str(e)
    return rep
