"""Renyi divergence primitives, Poisson divergence rates, and robust-bound
composition.

Conventions: orders are alpha > 1, with a distinguished limit tag for the
alpha -> 1 case (relative entropy). Divergences are extended reals; +inf
propagates through every formula instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import logsumexp

from .optimize import INF, ScalarObjective, minimize_1d

DIVERGENCE_ATOL = 1e-9
BOUND_ATOL = 1e-6


@dataclass(frozen=True)
class RenyiOrder:
    """Order alpha > 1, or the alpha -> 1 limit (relative entropy)."""

    alpha: float = math.nan
    is_limit: bool = False

    def __post_init__(self):
        if not self.is_limit and not self.alpha > 1.0:
            raise ValueError("Renyi order requires alpha > 1 (or the limit tag)")

    @classmethod
    def limit(cls) -> "RenyiOrder":
        return cls(alpha=math.nan, is_limit=True)


OrderLike = Union[RenyiOrder, float, int, str]


def as_order(a: OrderLike) -> RenyiOrder:
    if isinstance(a, RenyiOrder):
        return a
    if isinstance(a, str):
        if a == "limit":
            return RenyiOrder.limit()
        raise ValueError(f"unknown order tag {a!r}")
    return RenyiOrder(alpha=float(a))


@dataclass(frozen=True)
class FiniteDistribution:
    weights: Tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))

    @classmethod
    def uniform(cls, n: int) -> "FiniteDistribution":
        return cls(tuple([1.0 / n] * n))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def product(self, other: "FiniteDistribution") -> "FiniteDistribution":
        w = np.outer(self.as_array(), other.as_array()).ravel()
        w = w / w.sum()  # renormalize away rounding dust
        return FiniteDistribution(tuple(w))


def renyi_divergence(q: FiniteDistribution, p: FiniteDistribution, a: OrderLike) -> float:
    """R_alpha(Q || P) on a shared finite index set; +inf when Q !<< P."""
    order = as_order(a)
    qw, pw = q.as_array(), p.as_array()
    if qw.size != pw.size:
        raise ValueError("distributions must share an index set")
    support = qw > 0
    if np.any(support & (pw == 0)):
        return INF
    lq = np.log(qw[support])
    lp = np.log(pw[support])
    if order.is_limit:
        val = float(np.sum(np.exp(lq) * (lq - lp)))
    else:
        al = order.alpha
        lse = float(logsumexp(al * lq + (1.0 - al) * lp))
        val = lse / (al * (al - 1.0))
    if val < 0.0:
        if val < -1e-10:
            raise AssertionError(f"negative divergence {val}: numerical fault")
        val = 0.0
    return val


def relative_entropy_rate(x: float) -> float:
    """ell(x) = x log x - x + 1, the alpha -> 1 divergence rate; ell(0) = 1."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    return x * math.log(x) - x + 1.0


def poisson_renyi_rate(x: float, a: OrderLike) -> float:
    """k_alpha(x) = (x^alpha - alpha x + alpha - 1)/(alpha (alpha-1)).

    Divergence rate of a Poisson process of rate x against a unit-rate
    Poisson reference. Nonnegative, strictly convex in x, zero only at x=1.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    order = as_order(a)
    if order.is_limit or order.alpha - 1.0 < 1e-9:
        return relative_entropy_rate(x)
    al = order.alpha
    if x > 0.0:
        lp = al * math.log(x)
        if lp > 700.0:  # x^alpha overflows the double range
            return INF
        power = math.exp(lp)
    else:
        power = 0.0
    val = (power - al * x + al - 1.0) / (al * (al - 1.0))
    return max(val, 0.0)


@dataclass(frozen=True)
class AlphaCurve:
    """A map alpha -> divergence rate on a declared domain inside (1, inf).

    ``anchor`` restricts evaluation to a single order (families whose defining
    constraint is order-specific). ``alpha_max`` with ``max_open`` describes
    the right end of the domain.
    """

    fn: Callable[[float], float]
    alpha_max: float = INF
    max_open: bool = True
    anchor: Optional[float] = None

    def domain_contains(self, al: float) -> bool:
        if self.anchor is not None:
            return abs(al - self.anchor) <= 1e-12
        if al <= 1.0:
            return False
        if al < self.alpha_max:
            return True
        return (al == self.alpha_max) and not self.max_open

    def __call__(self, a: OrderLike) -> float:
        al = as_order(a).alpha
        if not self.domain_contains(al):
            raise ValueError(f"alpha={al} outside curve domain")
        v = self.fn(al)
        if v < -DIVERGENCE_ATOL:
            raise ValueError(f"curve negative at alpha={al}: {v}")
        return max(v, 0.0)

    @staticmethod
    def zero() -> "AlphaCurve":
        return AlphaCurve(lambda al: 0.0)

    @staticmethod
    def constant(r: float) -> "AlphaCurve":
        if r < 0:
            raise ValueError("constant curve must be nonnegative")
        return AlphaCurve(lambda al: r)

    def __add__(self, other: "AlphaCurve") -> "AlphaCurve":
        anchor = self.anchor if self.anchor is not None else other.anchor
        if self.anchor is not None and other.anchor is not None \
                and abs(self.anchor - other.anchor) > 1e-12:
            raise ValueError("cannot add curves with different anchors")
        amax = min(self.alpha_max, other.alpha_max)
        if self.alpha_max == other.alpha_max:
            mopen = self.max_open or other.max_open
        else:
            mopen = self.max_open if self.alpha_max < other.alpha_max else other.max_open
        return AlphaCurve(lambda al: self.fn(al) + other.fn(al),
                          alpha_max=amax, max_open=mopen, anchor=anchor)


@dataclass(frozen=True)
class RrbInputs:
    """Ingredients of a robust Renyi bound.

    ref_log_prob: the reference model's normalized log-probability (or
    risk-sensitive value), a nonpositive real. rdr_curve: divergence-rate
    penalty of the uncertainty family.
    """

    ref_log_prob: float
    rdr_curve: AlphaCurve
    direction: str = "upper"

    def __post_init__(self):
        if self.ref_log_prob > 1e-12:
            raise ValueError("ref_log_prob must be <= 0")
        if self.direction not in ("upper", "lower"):
            raise ValueError("direction must be 'upper' or 'lower'")


def rrb_upper(inputs: RrbInputs, a: OrderLike) -> float:
    """One-alpha robust bound on the family's log-probability.

    upper: ((alpha-1)/alpha) L + (alpha-1) r(alpha)
    lower: (alpha/(alpha-1)) L - alpha r(alpha)
    """
    al = as_order(a).alpha
    r = inputs.rdr_curve(al)
    L = inputs.ref_log_prob
    if inputs.direction == "upper":
        return (al - 1.0) / al * L + (al - 1.0) * r
    return al / (al - 1.0) * L - al * r


@dataclass
class RrbResult:
    alpha_star: float
    bound: float
    converged: bool
    boundary: bool


def rrb_optimize(inputs: RrbInputs, tol: float = BOUND_ATOL) -> RrbResult:
    """Best bound over the curve's alpha domain.

    Upper bounds are minimized, lower bounds maximized, on s = log(alpha-1)
    (or a logistic transform for bounded domains).
    """
    curve = inputs.rdr_curve
    if curve.anchor is not None:
        al = curve.anchor
        return RrbResult(al, rrb_upper(inputs, al), True, False)
    obj = ScalarObjective(
        lambda al: rrb_upper(inputs, al) * (1.0 if inputs.direction == "upper" else -1.0),
        lo=1.0, hi=curve.alpha_max, convexity="unknown")
    res = minimize_1d(obj, tol=min(tol, 1e-8))
    value = res.value if inputs.direction == "upper" else -res.value
    return RrbResult(res.arg, value, res.converged, res.boundary)


def jackson_compose(gamma_ref: float, per_primitive_rdrs: Sequence[AlphaCurve],
                    tol: float = BOUND_ATOL) -> RrbResult:
    """Network-level robust bound: sum primitive divergence-rate curves and
    optimize the resulting single-curve bound. gamma_ref is the reference
    network's (user-supplied) decay rate, a nonpositive real."""
    total = AlphaCurve.zero()
    for c in per_primitive_rdrs:
        total = total + c
    return rrb_optimize(RrbInputs(gamma_ref, total), tol=tol)
