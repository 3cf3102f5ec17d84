"""Scalar convex search on open intervals.

All 1-D searches run on a smoothly transformed unbounded coordinate so that
open interval endpoints (where the objectives of interest typically blow up)
are never evaluated directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INF = float("inf")
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


@dataclass(frozen=True)
class ScalarObjective:
    """A scalar extended-real objective on an open interval (lo, hi).

    With ``vectorized`` set, ``fn`` also takes a 1-D array of points and
    returns their values elementwise, with NaN where a point is outside the
    objective's domain; ``minimize_1d`` then evaluates its whole coarse scan
    in one call, on a read-only array that searches with the same setting
    share. Every other evaluation still passes a single float.
    """

    fn: Callable[[float], float]
    lo: float = -INF
    hi: float = INF
    vectorized: bool = False


@dataclass
class OptResult:
    arg: float
    value: float
    evaluations: int
    converged: bool
    boundary: bool = False


def _transform(lo: float, hi: float) -> Callable[[float], float]:
    """Smooth bijection from the real line onto the open interval (lo, hi)."""
    if lo == -INF and hi == INF:
        return lambda s: s
    if lo > -INF and hi == INF:
        return lambda s: lo + math.exp(min(s, 700.0))
    if lo == -INF:
        return lambda s: hi - math.exp(min(-s, 700.0))
    span = hi - lo

    def to_x(s: float) -> float:
        # logistic map; clamp to avoid overflow in exp
        if s > 700.0:
            return hi - span * 1e-300
        if s < -700.0:
            return lo + span * 1e-300
        return lo + span / (1.0 + math.exp(-s))

    return to_x


@functools.lru_cache(maxsize=64)
def _scan_points(lo: float, hi: float, s_lo: float, s_hi: float, coarse: int):
    """The coarse scan's points, as (s, to_x(s)), read-only. Searches with
    one setting (the g2/g3 inner searches, the order searches) share them;
    to_x maps point by point, so the x are those of single-point calls."""
    grid = np.linspace(s_lo, s_hi, coarse)
    to_x = _transform(lo, hi)
    xs = np.array([to_x(s) for s in grid])
    grid.flags.writeable = False
    xs.flags.writeable = False
    return grid, xs


def _safe(fn: Callable[[float], float]) -> Callable[[float], float]:
    def f(x: float) -> float:
        try:
            v = fn(x)
        except (OverflowError, ValueError):
            return INF
        if v != v:  # nan
            return INF
        return v

    return f


def _golden(f: Callable[[float], float], a: float, b: float, tol: float):
    """Golden-section minimization of f on [a, b]; returns (arg, value),
    where value is f(arg) as already evaluated."""
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol and it < 400:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
        it += 1
    s = c if fc <= fd else d
    return s, min(fc, fd)


def minimize_1d(
    obj: ScalarObjective,
    tol: float = 1e-8,
    coarse: int = 121,
    s_lo: float = -30.0,
    s_hi: float = 30.0,
) -> OptResult:
    """Minimize a (nominally convex) scalar objective on its open domain.

    Strategy: coarse scan on the transformed coordinate, geometric bracket
    expansion if the minimum sits at the scan edge, then golden section.
    Monotone-to-boundary objectives come back with ``boundary=True`` and the
    boundary-limit estimate as the value.

    A vectorized objective gets the ``coarse`` scan points, mapped to x as
    single points are, in one array call; NaN values count as +inf, as an
    objective that raises or returns NaN does on the scalar path. Bracket
    expansion, golden section and the closing probe evaluate one point at a
    time either way, and ``evaluations`` counts every point.
    """
    to_x = _transform(obj.lo, obj.hi)
    raw = _safe(obj.fn)
    evals = 0

    def f(s: float) -> float:
        nonlocal evals
        evals += 1
        return raw(to_x(s))

    grid, xs = _scan_points(obj.lo, obj.hi, s_lo, s_hi, coarse)
    if obj.vectorized:
        v = np.asarray(obj.fn(xs), dtype=float)
        vals = np.where(np.isnan(v), INF, v).tolist()
    else:
        vals = [raw(x) for x in xs.tolist()]
    evals += coarse
    if all(v == INF for v in vals):
        raise ValueError("objective is not finite anywhere in the probed domain")
    i = int(np.argmin(vals))

    step = grid[1] - grid[0]
    boundary = False
    if i == 0 or i == coarse - 1:
        # expand outward by geometric doubling until the objective turns up
        direction = -1.0 if i == 0 else 1.0
        s_best, v_best = grid[i], vals[i]
        expansions = 0
        while expansions < 200:
            s_next = s_best + direction * step
            v_next = f(s_next)
            if v_next >= v_best:
                break
            s_best, v_best = s_next, v_next
            step *= 2.0
            expansions += 1
        else:
            x = to_x(s_best)
            return OptResult(x, v_best, evals, converged=False, boundary=True)
        # the expansion ran into an open end rather than an upturn: its
        # stopping point maps onto the end, or onto the best point
        x_next = to_x(s_next)
        boundary = not obj.lo < x_next < obj.hi or x_next == to_x(s_best)
        a, b = s_best - step, s_best + step
    else:
        a, b = grid[i - 1], grid[i + 1]

    s_star, v_star = _golden(f, a, b, tol)
    # three-point probe: certify local optimality at the working tolerance;
    # v_star is f(s_star), so only the two neighbours are evaluated
    delta = max(10.0 * tol, 1e-7)
    ok = v_star <= min(f(s_star - delta), f(s_star + delta)) + 1e-12 + abs(v_star) * 1e-9
    x_star = to_x(s_star)
    return OptResult(x_star, v_star, evals, converged=ok and not boundary, boundary=boundary)


def maximize_1d(obj: ScalarObjective, tol: float = 1e-8, **kw) -> OptResult:
    """Maximize by minimizing the negation."""
    neg = ScalarObjective(lambda x: -obj.fn(x), obj.lo, obj.hi)
    res = minimize_1d(neg, tol=tol, **kw)
    res.value = -res.value
    return res
