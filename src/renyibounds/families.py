"""Exact divergence rates for intensity-uncertainty families around a marked
Poisson reference.

Families (all relative to a rate-lambda0 Poisson reference):
  Q1 -- order-anchored mean-constraint family, rate u*lambda0 at its anchor.
  Q2 -- hazard-band family a <= lambda(.)/lambda0 <= b, rate (k(a) v k(b))*lambda0.
  Q3 -- Q2 plus a long-run-average pin at lambda0, mixture rate.
  Q4 -- anchored family propagated to orders below the anchor alpha0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .divergence import AlphaCurve, as_order, poisson_renyi_rate


@dataclass(frozen=True)
class MarkSpec:
    """Envelope a_mark <= psi <= b_mark on the mark density ratio psi. Q2
    folds it into its hazard band multiplicatively; Q3 refuses a non-unit
    envelope."""

    a_mark: float = 1.0
    b_mark: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.a_mark <= 1.0 <= self.b_mark):
            raise ValueError("mark envelope requires 0 < a_mark <= 1 <= b_mark")


@dataclass(frozen=True)
class PoissonReference:
    rate: float = 1.0
    mark_spec: Optional[MarkSpec] = None

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("reference rate must be positive")


@dataclass(frozen=True)
class Q1:
    u: float
    alpha_anchor: float

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("u must be nonnegative")
        if not self.alpha_anchor > 1:
            raise ValueError("alpha_anchor must exceed 1")


@dataclass(frozen=True)
class Q2:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 <= self.b):
            raise ValueError("hazard band requires 0 <= a <= 1 <= b")


@dataclass(frozen=True)
class Q3:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 <= self.b):
            raise ValueError("hazard band requires 0 <= a <= 1 <= b")
        if self.a == self.b and self.a != 1.0:
            raise ValueError("a = b is only admissible at the reference value 1")


@dataclass(frozen=True)
class Q4:
    alpha0: float
    u: float

    def __post_init__(self):
        if not self.alpha0 > 1:
            raise ValueError("alpha0 must exceed 1")
        if self.u < 0:
            raise ValueError("u must be nonnegative")


UncertaintyFamily = Union[Q1, Q2, Q3, Q4]


def _fold_marks(ref: PoissonReference, a: float, b: float):
    """Fold a mark-ratio envelope into the intensity band multiplicatively."""
    if ref.mark_spec is None:
        return a, b
    return a * ref.mark_spec.a_mark, b * ref.mark_spec.b_mark


def rdr_q1(fam: Q1, ref: PoissonReference, a: float | None = None) -> float:
    """Anchored family value u*lambda0; defined only at the anchor order."""
    if a is not None:
        al = as_order(a)
        if abs(al - fam.alpha_anchor) > 1e-12:
            raise ValueError("Q1 is order-specific; evaluate at its anchor only")
    return fam.u * ref.rate


def rdr_q2(fam: Q2, ref: PoissonReference, a: float) -> float:
    """Rate of the worse band endpoint. ``a`` may be an ndarray of orders,
    as for poisson_renyi_rate."""
    ae, be = _fold_marks(ref, fam.a, fam.b)
    k = poisson_renyi_rate
    ka, kb = k(ae, a), k(be, a)
    return (np.maximum(ka, kb) if isinstance(a, np.ndarray) else max(ka, kb)) * ref.rate


def rdr_q3(fam: Q3, ref: PoissonReference, a: float) -> float:
    if ref.mark_spec is not None and (ref.mark_spec.a_mark != 1.0 or ref.mark_spec.b_mark != 1.0):
        raise ValueError("mark envelopes are folded for the hazard-band family only")
    if fam.a == fam.b:  # necessarily a = b = 1
        return 0.0
    p = (fam.b - 1.0) / (fam.b - fam.a)
    q = (1.0 - fam.a) / (fam.b - fam.a)
    k = poisson_renyi_rate
    return (p * k(fam.a, a) + q * k(fam.b, a)) * ref.rate


def rdr_q4(fam: Q4, ref: PoissonReference, a: float) -> float:
    """Value for orders strictly between 1 and the anchor alpha0.

    Cross-checks the closed form against its two-point mixture representation
    before returning. An ndarray of orders gives the values point by point,
    each cross-checked, with NaN at orders outside (1, alpha0).
    """
    if isinstance(a, np.ndarray):
        return np.array([_rdr_q4_at(fam, ref, al) if 1.0 < al < fam.alpha0 else math.nan
                         for al in a.tolist()])
    al = as_order(a)
    if not (1.0 < al < fam.alpha0):
        raise ValueError("Q4 requires 1 < alpha < alpha0")
    return _rdr_q4_at(fam, ref, al)


def _rdr_q4_at(fam: Q4, ref: PoissonReference, al: float) -> float:
    abar = al * (al - 1.0)
    abar0 = fam.alpha0 * (fam.alpha0 - 1.0)
    base = abar0 * fam.u + 1.0
    expo = (al - 1.0) / (fam.alpha0 - 1.0)
    closed = ref.rate / abar * (base ** expo - 1.0)
    # two-point representation: mass q at level c, mass p at level 0
    q = base ** (-1.0 / (fam.alpha0 - 1.0))
    c = base ** (1.0 / (fam.alpha0 - 1.0))
    p = 1.0 - q
    two_point = (p * poisson_renyi_rate(0.0, al) + q * poisson_renyi_rate(c, al)) * ref.rate
    # cancellation in (base^expo - 1)/abar inflates roundoff like 1/(alpha-1)
    tol = 1e-10 * max(1.0, abs(closed)) / min(1.0, al - 1.0)
    if abs(closed - two_point) > tol:
        raise AssertionError(
            f"two-point representation mismatch: {closed} vs {two_point}")
    return closed


def family_curve(fam: UncertaintyFamily, ref: PoissonReference) -> AlphaCurve:
    """Package a family's divergence rate as an evaluable alpha-curve."""
    if isinstance(fam, Q1):
        return AlphaCurve(lambda al: rdr_q1(fam, ref), anchor=fam.alpha_anchor)
    if isinstance(fam, Q2):
        return AlphaCurve(lambda al: rdr_q2(fam, ref, al))
    if isinstance(fam, Q3):
        return AlphaCurve(lambda al: rdr_q3(fam, ref, al))
    if isinstance(fam, Q4):
        return AlphaCurve(lambda al: rdr_q4(fam, ref, al), alpha_max=fam.alpha0)
    raise TypeError(f"unknown family {fam!r}")


# --- JSON descriptors ------------------------------------------------------

def family_from_dict(d: dict) -> UncertaintyFamily:
    kind = d.get("family")
    if kind == "Q1":
        return Q1(u=float(d["u"]), alpha_anchor=float(d["alpha_anchor"]))
    if kind == "Q2":
        return Q2(a=float(d["a"]), b=float(d["b"]))
    if kind == "Q3":
        return Q3(a=float(d["a"]), b=float(d["b"]))
    if kind == "Q4":
        return Q4(alpha0=float(d["alpha0"]), u=float(d["u"]))
    raise ValueError(f"unknown family kind {kind!r}")


def reference_from_dict(d: dict) -> PoissonReference:
    mark = None
    if "mark" in d and d["mark"] is not None:
        mark = MarkSpec(a_mark=float(d["mark"].get("a_mark", 1.0)),
                        b_mark=float(d["mark"].get("b_mark", 1.0)))
    return PoissonReference(rate=float(d.get("rate", 1.0)), mark_spec=mark)
