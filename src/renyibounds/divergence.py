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

from .optimize import INF, ScalarObjective, minimize_1d

DIVERGENCE_ATOL = 1e-9
BOUND_ATOL = 1e-6  # absolute tolerance to which checks pin a reported bound


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
        from scipy.special import logsumexp
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

    ``a`` may also be an ndarray of orders alpha; the result is then the
    array of the scalar calls' values, equal bit for bit, with NaN where the
    scalar call refuses the order (alpha <= 1 or NaN).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if isinstance(a, np.ndarray):
        return _poisson_renyi_rates(x, a)
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


def _poisson_renyi_rates(x: float, al: np.ndarray) -> np.ndarray:
    """poisson_renyi_rate(x, alpha) for an array of orders, in the scalar
    call's operation order. x^alpha goes through math.exp point by point:
    numpy's SIMD exp differs from libm's in the last bit on some inputs."""
    al = np.asarray(al, dtype=float)
    power = 0.0
    if x > 0.0:
        lp = al * math.log(x)
        power = np.array([math.exp(v) if v <= 700.0 else INF for v in lp.tolist()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = np.maximum((power - al * x + al - 1.0) / (al * (al - 1.0)), 0.0)
    val = np.where(power == INF, INF, val)
    val = np.where(al - 1.0 < 1e-9, relative_entropy_rate(x), val)
    return np.where(al > 1.0, val, np.nan)


@dataclass(frozen=True)
class AlphaCurve:
    """A map alpha -> divergence rate on a declared domain inside (1, inf).

    ``anchor`` restricts evaluation to a single order (families whose defining
    constraint is order-specific). Otherwise the domain is the open interval
    (1, alpha_max).

    ``fn`` takes a float or a 1-D array of orders; on an array it returns the
    values elementwise (or one value for all orders), equal to the float
    calls', with NaN where it refuses an order.
    """

    fn: Callable[[float], float]
    alpha_max: float = INF
    anchor: Optional[float] = None

    def domain_contains(self, al: float) -> bool:
        if self.anchor is not None:
            return abs(al - self.anchor) <= 1e-12
        return 1.0 < al < self.alpha_max

    def __call__(self, a: OrderLike) -> float:
        """The rate at one order; raises ValueError off the domain or where
        the value is negative beyond DIVERGENCE_ATOL. An ndarray of orders
        gives the array of those values, with NaN where a float call raises."""
        if isinstance(a, np.ndarray):
            return self._on_array(a)
        al = as_order(a).alpha
        if not self.domain_contains(al):
            raise ValueError(f"alpha={al} outside curve domain")
        v = self.fn(al)
        if v < -DIVERGENCE_ATOL:
            raise ValueError(f"curve negative at alpha={al}: {v}")
        return max(v, 0.0)

    def _on_array(self, al: np.ndarray) -> np.ndarray:
        al = np.asarray(al, dtype=float)
        if self.anchor is not None:
            inside = np.abs(al - self.anchor) <= 1e-12
        else:
            inside = (1.0 < al) & (al < self.alpha_max)
        v = np.broadcast_to(np.asarray(self.fn(al), dtype=float), al.shape)
        return np.where(inside & ~(v < -DIVERGENCE_ATOL), np.maximum(v, 0.0), np.nan)

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
        return AlphaCurve(lambda al: self.fn(al) + other.fn(al),
                          alpha_max=min(self.alpha_max, other.alpha_max), anchor=anchor)


@dataclass(frozen=True)
class RrbInputs:
    """Ingredients of a robust Renyi bound.

    ref_log_prob: the reference model's normalized log-probability (or
    risk-sensitive value), a nonpositive real. rdr_curve: divergence-rate
    penalty of the uncertainty family.
    """

    ref_log_prob: float
    rdr_curve: AlphaCurve

    def __post_init__(self):
        if self.ref_log_prob > 1e-12:
            raise ValueError("ref_log_prob must be <= 0")


def rrb_upper(inputs: RrbInputs, a: OrderLike) -> float:
    """One-alpha robust upper bound on the family's log-probability:
    ((alpha-1)/alpha) L + (alpha-1) r(alpha). An ndarray of orders gives the
    array of bounds, NaN where the curve refuses an order."""
    al = a if isinstance(a, np.ndarray) else as_order(a).alpha
    r = inputs.rdr_curve(al)
    L = inputs.ref_log_prob
    return (al - 1.0) / al * L + (al - 1.0) * r


@dataclass
class RrbResult:
    alpha_star: float
    bound: float
    converged: bool
    boundary: bool


def rrb_optimize(inputs: RrbInputs) -> RrbResult:
    """Best bound over the curve's alpha domain, minimized on
    s = log(alpha-1) (or a logistic transform for bounded domains). The
    coarse scan evaluates all its orders in one array call."""
    curve = inputs.rdr_curve
    if curve.anchor is not None:
        al = curve.anchor
        return RrbResult(al, rrb_upper(inputs, al), True, False)
    res = minimize_1d(ScalarObjective(lambda al: rrb_upper(inputs, al),
                                      lo=1.0, hi=curve.alpha_max, vectorized=True), tol=1e-8)
    return RrbResult(res.arg, res.value, res.converged, res.boundary)


def jackson_compose(gamma_ref: float, per_primitive_rdrs: Sequence[AlphaCurve]) -> RrbResult:
    """Network-level robust bound: sum primitive divergence-rate curves and
    optimize the resulting single-curve bound. gamma_ref is the reference
    network's (user-supplied) decay rate, a nonpositive real."""
    total = AlphaCurve.zero()
    for c in per_primitive_rdrs:
        total = total + c
    return rrb_optimize(RrbInputs(gamma_ref, total))
