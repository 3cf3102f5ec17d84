"""Test oracles: for the scheduling bounds, a brute-force simplex minimum
of W, the risk-sensitive duality residual on a finite space and a
midpoint-convexity probe; for the renewal bounds and the Monte-Carlo rate,
scalar one-point-at-a-time versions of the g2/g3 inner dual and of tilted
renewal sampling; for the robust Renyi bound, a divergence-rate curve or
bound evaluated one order at a time and the order search with a scalar
scan. The library's array versions must equal these to the last bit. Only
tests call them; pytest does not collect this module."""

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from renyibounds.divergence import FiniteDistribution, RrbInputs, RrbResult, rrb_upper
from renyibounds.optimize import INF, ScalarObjective, minimize_1d
from renyibounds.renewal import RenewalSpec
from renyibounds.scheduling import SchedulingInstance, tilted_rates
from renyibounds.sim import McEstimate, _aggregate_log_mean, _renewal_tilted_tables, make_stream


def _simplex_grid(k: int, m: int):
    """Every integer vector c of length k with sum(c) <= m, as float arrays.

    The last two coordinates are enumerated as one array for each choice of
    the leading ones, so an array holds at most (m + 1)^2 vectors."""
    lead = max(k - 2, 0)
    tail = np.array(list(itertools.product(range(m + 1), repeat=k - lead)), dtype=float)
    tail_sum = tail.sum(axis=1)
    comps = np.empty((len(tail), k))
    comps[:, lead:] = tail
    for head in itertools.product(range(m + 1), repeat=lead):
        room = m - sum(head)
        if room >= 0:
            comps[:, :lead] = head
            yield comps[tail_sum <= room]


def w_bruteforce(inst: SchedulingInstance, gamma: float, step: float = 0.02) -> float:
    """Brute-force simplex-grid minimum of the W objective (test oracle).

    Tries every u = step * c for an integer composition c with sum(c) <= 1/step.
    """
    lam_hat, mu_hat = tilted_rates(inst, gamma)
    best = INF
    for c in _simplex_grid(inst.num_classes, int(round(1.0 / step))):
        u = c * step
        vals = np.sum(np.maximum(lam_hat - u * mu_hat, 0.0), axis=1)
        best = min(best, float(vals.min()))
    return best


def rs_duality_check(p: FiniteDistribution, g: Sequence[float], beta: float, gamma: float,
                     grid_step: float = 0.01) -> float:
    """Residual of the risk-sensitive duality identity on a finite space.

    LHS = (1/gamma) log E_P e^{gamma g}. RHS(Q) = (1/beta) log E_Q e^{beta g}
    - (1/(gamma-beta)) R_{gamma/(gamma-beta)}(Q||P), supremized over a dense
    simplex grid of Q. Returns sup-RHS minus LHS; the identity says the true
    supremum equals LHS, so the residual is <= 0 up to grid resolution and
    tends to 0 as the grid refines.

    Q runs over q_i = c_i * grid_step for the integer compositions c of its
    first n - 1 weights with sum(c) <= 1/grid_step, the last weight taking
    the rest. R_alpha(Q || P) is computed as renyi_divergence does, for a
    whole array of those Q at once.
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
    eg = np.exp(beta * gv)
    with np.errstate(divide="ignore"):
        lp = np.log(pw)
    best = -INF
    for c in _simplex_grid(n - 1, m):
        qw = np.empty((len(c), n))
        qw[:, :-1] = c / m
        qw[:, -1] = np.maximum(1.0 - qw[:, :-1].sum(axis=1), 0.0)
        qw /= qw.sum(axis=1, keepdims=True)
        qw = qw[~np.any((qw > 0) & (pw == 0), axis=1)]  # the rest have R = +inf
        if len(qw) == 0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(qw > 0, al * np.log(qw) + (1.0 - al) * lp, -INF)
        top = terms.max(axis=1)
        div = (top + np.log(np.sum(np.exp(terms - top[:, None]), axis=1))) / (al * (al - 1.0))
        if np.any(div < -1e-10):
            raise AssertionError(f"negative divergence {div.min()}: numerical fault")
        with np.errstate(divide="ignore"):
            rhs = np.log(np.sum(qw * eg, axis=1)) / beta - np.maximum(div, 0.0) / (gamma - beta)
        best = max(best, float(rhs.max()))
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


def dual_inner_scalar(spec: RenewalSpec, al: float, theta: float, restrict_nonpos: bool) -> float:
    """renewal._dual_inner with every lambda1 passed to spec.beta one at a
    time: inf over lambda1 (<= 0 with restrict_nonpos) of
    (lambda1)^- + theta beta(lambda1, alpha)."""

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


def tilted_renewal_rate_per_event(spec: RenewalSpec, ref_rate: float, al: float,
                                  horizon: float, reps: int, seed: int) -> McEstimate:
    """sim.mc_renyi_rate on a renewal process with tilted sampling, drawing
    one exponential and interpolating one gap per event."""
    x, cum_tilt, weight = _renewal_tilted_tables(spec, ref_rate, al)
    log_y = np.empty(reps)
    for r in range(reps):
        rng = make_stream(seed, r, 3)
        t, lw = 0.0, 0.0
        while True:
            e = rng.exponential()
            gap = float(np.interp(e, cum_tilt, x))
            if t + gap >= horizon:
                rem = horizon - t
                lw += float(np.interp(rem, x, weight))
                break
            lw += float(np.interp(gap, x, weight))
            t += gap
        log_y[r] = lw
    return _aggregate_log_mean(log_y, al * (al - 1.0) * horizon, seed)


def order_by_order(fn: Callable[[float], float], orders: np.ndarray) -> np.ndarray:
    """fn's float calls at each order, for a curve or a bound of one order,
    with NaN where a call raises ValueError (off the curve's domain, or
    negative beyond the tolerance)."""
    out = []
    for al in orders.tolist():
        try:
            out.append(fn(al))
        except ValueError:
            out.append(math.nan)
    return np.array(out)


def rrb_optimize_scalar_scan(inputs: RrbInputs) -> RrbResult:
    """rrb_optimize's order search on a non-anchored curve, with its coarse
    scan made one order at a time."""
    res = minimize_1d(ScalarObjective(lambda al: rrb_upper(inputs, al),
                                      lo=1.0, hi=inputs.rdr_curve.alpha_max), tol=1e-8)
    return RrbResult(res.arg, res.value, res.converged, res.boundary)
