"""Divergence-rate upper bounds for a single renewal process against a
unit-rate Poisson reference, with closed forms for exponential, gamma and
phase-type-envelope inter-event densities.

Central objects: H(x) = x + log g(x) (log likelihood-ratio exponent of the
inter-event density g against the unit exponential), its moment generating
integrals gamma(s) and beta(lambda1, lambda2), and the conjugate beta*.
Four bounds are provided, from coarsest to sharpest:

  rough: (e^{alpha H_bar} - 1) / (alpha (alpha-1))
  g1:    conjugate-pair Hoelder relaxation of the rough bound
  g2:    sup over theta of the constrained conjugate value G2(theta)
  g3:    sup over theta of the pinned conjugate value G3(theta) (needs
         gamma(s) finite for all s <= 0)

g2 and g3 share one computation and differ only in the range of lambda1:
the inner value is evaluated through its single-variable dual form (an
infimum over lambda1, exact under the bounds' standing convexity hypotheses
and always a valid upper bound by weak duality). The nested sup/conjugate
primal form is not part of the library: tests/test_renewal.py keeps it as
the test oracle, evaluated at the optimal theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .divergence import OrderLike, as_order
from .optimize import INF, ScalarObjective, maximize_1d, minimize_1d


class HypothesisViolationError(RuntimeError):
    """A bound's standing hypothesis fails for the supplied density."""


@dataclass
class RenewalSpec:
    """Inter-event density of a renewal process plus derived integrals.

    log_density must be vectorized and return -inf where the density
    vanishes. Closed-form beta, hazard machinery and the inverse CDF are
    optional; beta falls back to quadrature on a 16001-point grid on
    [0, grid_max], and gamma is always e^{beta(0, s)}. A closed form takes
    the order first: beta_closed(l2) returns lambda1 -> beta(lambda1, l2),
    which accepts a float or a 1-D array.
    """

    name: str
    log_density: Callable[[np.ndarray], np.ndarray]
    h_bar: float
    support_full: bool
    beta_closed: Optional[Callable[[float], Callable]] = None
    hazard: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cum_hazard: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ppf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grid_max: float = 80.0

    @cached_property
    def _grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Quadrature grid and the log-density on it (NaN read as -inf),
        built on first use."""
        x = np.linspace(0.0, self.grid_max, 16001)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.asarray(self.log_density(x), dtype=float)
        lg[np.isnan(lg)] = -INF
        return x, lg

    # -- moment integrals ---------------------------------------------------

    def beta(self, l1: float, l2: float) -> float:
        """log integral of exp(l1*y + l2*H(y)) against the unit exponential."""
        if self.beta_closed is not None:
            return self.beta_closed(l2)(l1)
        if l2 < 0.0 and not self.support_full:
            return INF
        x, lg = self._grid
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
        from scipy.integrate import simpson
        integral = simpson(np.exp(li - m), x=x)
        if np.isfinite(slope):
            integral += math.exp(li[-1] - m) / (-slope)
        if integral <= 0.0:
            return -INF
        return m + math.log(integral)

    def beta_at(self, l2: float) -> Callable:
        """lambda1 -> beta(lambda1, l2) for a float or a 1-D array of
        lambda1. Quadrature evaluates an array one point at a time."""
        if self.beta_closed is not None:
            return self.beta_closed(l2)

        def beta_l1(l1):
            if isinstance(l1, np.ndarray):
                return np.array([self.beta(x, l2) for x in l1.tolist()])
            return self.beta(l1, l2)

        return beta_l1

    def gamma_val(self, s: float) -> float:
        """gamma(s) = integral of exp(s H(y)) against the unit exponential,
        e^{beta(0, s)}; inf where beta(0, s) is inf or e^{beta} overflows."""
        b = self.beta(0.0, s)
        return math.exp(b) if b < 700 else INF


# -- constructors -----------------------------------------------------------

def exponential_spec(rho: float) -> RenewalSpec:
    if rho <= 0:
        raise ValueError("rate must be positive")
    lr = math.log(rho)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0, lr - rho * x, -INF)
        return out

    def beta_closed(l2):
        shift, head = l2 * (rho - 1.0), l2 * lr

        def beta_l1(l1):
            d = 1.0 - l1 + shift
            if isinstance(d, np.ndarray):
                return np.array([INF if x <= 0 else head - math.log(x) for x in d.tolist()])
            if d <= 0:
                return INF
            return head - math.log(d)

        return beta_l1

    return RenewalSpec(
        name=f"exp(rho={rho})",
        log_density=log_density,
        h_bar=lr if rho >= 1.0 else INF,
        support_full=True,
        beta_closed=beta_closed,
        hazard=lambda x: np.full_like(np.asarray(x, dtype=float), rho),
        cum_hazard=lambda x: rho * np.asarray(x, dtype=float),
        ppf=lambda u: -np.log1p(-np.asarray(u, dtype=float)) / rho,
    )


def gamma_spec(k: float, rho: float) -> RenewalSpec:
    if k < 1 or rho <= 0:
        raise ValueError("requires shape k >= 1 and rate rho > 0")
    from scipy.special import gammainc, gammaincc, gammaincinv, gammaln
    scale = 1.0 / rho
    median = gammaincinv(k, 0.5)
    lnorm = k * math.log(rho) - gammaln(k)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(x > 0, lnorm + (k - 1.0) * np.log(np.maximum(x, 1e-300)) - rho * x,
                           lnorm if k == 1.0 else -INF)
        return out

    def beta_closed(l2):
        s2 = 1.0 + l2 * (k - 1.0)
        base = 1.0 + l2 * (rho - 1.0)
        # beta is inf where s2 <= 0, and inf minus a finite s2 log d stays inf
        head = l2 * lnorm + gammaln(s2) if s2 > 0 else INF

        def beta_l1(l1):
            d = base - l1
            if isinstance(d, np.ndarray):
                return np.array([INF if x <= 0 else head - s2 * math.log(x) for x in d.tolist()])
            if d <= 0:
                return INF
            return head - s2 * math.log(d)

        return beta_l1

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

    def logsf(x):
        # scipy.stats.gamma(a=k, scale=1/rho).logsf, operation for operation:
        # log sf above the median, log1p(-cdf) below it, 0 off the support
        z = x / scale
        with np.errstate(divide="ignore"):
            tail = np.where(z > median, np.log(gammaincc(k, z)), np.log1p(-gammainc(k, z)))
        return np.where(x <= 0, 0.0, tail)

    def cum_hazard(x):
        x = np.asarray(x, dtype=float)
        return -logsf(x)

    def hazard(x):
        # h = g / survival = exp(log g - log sf)
        x = np.asarray(x, dtype=float)
        return np.exp(log_density(x) - logsf(x))

    return RenewalSpec(
        name=f"gamma(k={k},rho={rho})",
        log_density=log_density,
        h_bar=h_bar,
        support_full=True,
        beta_closed=beta_closed,
        hazard=hazard,
        cum_hazard=cum_hazard,
        ppf=lambda u: gammaincinv(k, np.asarray(u, dtype=float)) * scale,
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
        # log g is a log-sum-exp of affine functions of x, so H = x + log g
        # is convex; with every rate >= 1 it is bounded above as x -> inf. A
        # convex function bounded above on [0, inf) is nonincreasing, so
        # sup H = H(0) = log g(0).
        h_bar = float(log_density(np.array([0.0]))[0])
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
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (gs[1:] + gs[:-1]) / 2.0)])
    total = cdf[-1]  # the trapezoid rule's integral of the table
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"tabulated density integrates to {total}, not 1")

    def log_density(x):
        x = np.asarray(x, dtype=float)
        g = np.interp(x, xs, gs, left=0.0, right=0.0)
        with np.errstate(divide="ignore"):
            return np.log(g)

    with np.errstate(divide="ignore"):
        h_bar = float(np.max(xs + np.log(np.maximum(gs, 1e-300))))

    cdf = cdf / total

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


def gamma_closed_form(k, rho, a: OrderLike):
    """Closed-form divergence-rate bound for a Gamma(k, rho) renewal process,
    k >= 1, rho > 1. Reduces to the exact exponential value at k = 1.

    k, rho and the order may be arrays, which broadcast against each other;
    a value that overflows is inf, and an order <= 1 (or NaN) gives NaN.
    Scalar k, rho and order give a float."""
    from scipy.special import gammaln
    k = np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(k < 1) or np.any(rho <= 1):
        raise ValueError("requires k >= 1 and rho > 1")
    al = np.asarray(a, dtype=float) if isinstance(a, np.ndarray) else as_order(a).alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 1.0 + al * (k - 1.0)
        log_a = (gammaln(s) - al * gammaln(k) + al * k * np.log(rho)) / s
        v = (np.exp(log_a) - al * (rho - 1.0) - 1.0) / (al * (al - 1.0))
    if isinstance(a, np.ndarray):
        return np.where(al > 1.0, v, np.nan)
    return float(v) if v.ndim == 0 else v


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
    return (math.exp(al * spec.h_bar) - 1.0) / (al * (al - 1.0))


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
    return max(res.value, 0.0) / (al * (al - 1.0))


def _check_beta_near_origin(spec: RenewalSpec):
    if not spec.support_full:
        raise HypothesisViolationError(
            "density has a support gap; beta is not finite near the origin "
            "(use rough_bound / g1_bound)")
    for l1, l2 in ((0.05, 0.05), (0.05, -0.05), (-0.05, 0.05), (-0.05, -0.05)):
        if not np.isfinite(spec.beta(l1, l2)):
            raise HypothesisViolationError("beta not finite near the origin")


def _dual_inner(beta_l1: Callable, theta: float, restrict_nonpos: bool) -> float:
    """inf over lambda1 of (lambda1)^- + theta beta(lambda1, alpha), the
    single-variable dual of the constrained conjugate value, with beta_l1 =
    spec.beta_at(alpha). With restrict_nonpos the infimum runs over
    lambda1 <= 0 (the g2 case); otherwise over all of R (the g3 case). The
    coarse scan of lambda1 goes to beta_l1 as one array."""

    def obj(l1):
        b = beta_l1(l1)
        if isinstance(b, np.ndarray):
            return np.where(np.isfinite(b), -np.minimum(l1, 0.0) + theta * b, INF)
        if not math.isfinite(b):
            return INF
        return -min(l1, 0.0) + theta * b

    hi = 0.0 if restrict_nonpos else INF
    try:
        res = minimize_1d(ScalarObjective(obj, lo=-INF, hi=hi, vectorized=True), tol=1e-10,
                          coarse=81, s_lo=-30.0, s_hi=30.0)
        best = res.value
    except ValueError:
        best = INF
    end = obj(0.0)
    return min(best, end)


def _sup_over_theta(inner: Callable[[float], float], warm: Optional[float]) -> Tuple[float, float]:
    """Maximize theta -> inner(theta) (concave in theta) over log theta."""
    obj = ScalarObjective(lambda t: inner(math.exp(t)))
    res = maximize_1d(obj, tol=1e-10, coarse=81, s_lo=-10.0, s_hi=10.0)
    best_t, best_v = res.arg, res.value  # identity transform: arg is log theta
    if warm is not None and np.isfinite(warm) and inner(math.exp(warm)) > best_v:
        res2 = maximize_1d(obj, tol=1e-10, coarse=41, s_lo=warm - 2.0, s_hi=warm + 2.0)
        if res2.value > best_v:
            best_t, best_v = res2.arg, res2.value
    return math.exp(best_t), best_v


def _theta_dual_bound(spec: RenewalSpec, al: float, restrict_nonpos: bool,
                      diagnostics: Optional[Dict]) -> float:
    """The g2 (restrict_nonpos) or g3 bound past its hypothesis gate: the
    sup over theta of the single-variable dual inner value v, normalized as
    max(v, 0) / (alpha (alpha - 1)). diagnostics, when given,
    receives the optimal multiplier theta_star and the dual value."""
    warm = al * spec.h_bar if np.isfinite(spec.h_bar) else None
    beta_l1 = spec.beta_at(al)
    theta_star, v = _sup_over_theta(
        lambda th: _dual_inner(beta_l1, th, restrict_nonpos), warm)
    if diagnostics is not None:
        diagnostics["theta_star"] = theta_star
        diagnostics["dual"] = v
    return max(v, 0.0) / (al * (al - 1.0))


def g2_bound(spec: RenewalSpec, a: OrderLike, diagnostics: Optional[Dict] = None) -> float:
    """Sharpened bound via the theta-family of constrained conjugate values,
    each evaluated in its single-variable dual form (exact under the bound's
    hypotheses and a valid upper bound in general)."""
    al = as_order(a).alpha
    _check_beta_near_origin(spec)
    return _theta_dual_bound(spec, al, restrict_nonpos=True, diagnostics=diagnostics)


def g3_bound(spec: RenewalSpec, a: OrderLike, override: bool = False,
             diagnostics: Optional[Dict] = None) -> float:
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
    return _theta_dual_bound(spec, al, restrict_nonpos=False, diagnostics=diagnostics)


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
