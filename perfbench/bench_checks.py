"""Correctness checks for every benchmark call.

Each check returns (records, problems): the number of output records the
call produced and a list of what is wrong with its output, empty when it is
right. The invariants hold whatever the seed; golden outputs, recorded at
seed 0, are compared with the tolerance the test suite pins for the same
quantity, so that an optimizer change that moves last digits still passes.
Reference values (Poisson rates, the exponential renewal rate, the
reneging decay) are recomputed here from their formulas,
independently of the library.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Tuple

BOUND_ATOL = 1e-6        # tests pin bounds to renyibounds.divergence.BOUND_ATOL
DIVERGENCE_ATOL = 1e-9   # closed-form divergence rates (DIVERGENCE_ATOL)
ORDER_SLACK = 1e-9       # slack the tests allow in rough >= g1 >= g2 >= g3
ARGMIN_RTOL = 1e-3       # optimal orders and tilts sit on flat minima
MC_SIGMAS = 4.0          # Monte-Carlo agreement with a golden, in standard errors
# Reference-sampled Cox estimates against the exact rate. Their likelihood
# ratios are heavy-tailed, so the delta-method standard error understates
# the spread: over 1500 draws of this workload's inputs z reached -4.8.
COX_SIGMAS = 8.0

FIG_FAMILIES = ("Q2", "Q3", "Q2prime", "Q3prime", "gammabox_small", "gammabox_large")
# (smaller family, larger family): the smaller family's bound is the lower one
FIG_NESTING = (("Q3", "Q2"), ("Q2prime", "Q2"), ("Q3prime", "Q3"),
               ("gammabox_small", "gammabox_large"))


# -- independent reference formulas -------------------------------------------

def poisson_rate(x: float, al: float) -> float:
    """k_alpha(x) = (x^alpha - alpha x + alpha - 1) / (alpha (alpha - 1))."""
    return (x ** al - al * x + al - 1.0) / (al * (al - 1.0))


def exponential_rate(rho: float, al: float) -> float:
    return (rho ** al - 1.0 - al * (rho - 1.0)) / (al * (al - 1.0))


def reneging_decay(lam: float, mu: float, gamma: float) -> float:
    """C(gamma) of the reference reneging model (rates in the mu clock)."""
    l, g = lam / mu, gamma / mu
    z = (math.sqrt(g * g + 4.0 * l) - g) / 2.0
    return mu * (l * (1.0 - 1.0 / z) + (1.0 - z) - g * math.log(z))


def linspace(lo: float, hi: float, n: int) -> List[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# -- parsing ------------------------------------------------------------------

def parse_output(command: str, text: str):
    """CSV commands give a list of row dicts (values kept as text); the
    others give their JSON payload."""
    if command in ("rdr-renewal", "simulate"):
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


# -- per-command invariants ---------------------------------------------------

def _check_reneging(cfg, out, ctx) -> Tuple[int, List[str]]:
    bad = []
    lam, mu = cfg["lam"], cfg["mu"]
    grid = linspace(cfg["gamma_min"], cfg["gamma_max"], cfg["grid_points"])
    if len(out) != len(grid):
        return len(out), [f"{len(out)} rows, expected {len(grid)}"]
    for row, g in zip(out, grid):
        gamma, ref = float(row["gamma"]), float(row["ref_decay"])
        if not _close(gamma, g, 1e-12):
            bad.append(f"gamma {gamma} != {g}")
        if not _close(ref, -reneging_decay(lam, mu, g), DIVERGENCE_ATOL):
            bad.append(f"ref_decay {ref} at gamma {g} != -C(gamma)")
        bounds = {f: float(row[f"bound_{f}"]) for f in FIG_FAMILIES}
        for f, b in bounds.items():
            if not (ref - BOUND_ATOL <= b <= BOUND_ATOL):
                bad.append(f"bound_{f} = {b} outside [-C(gamma), 0] at gamma {g}")
        for small, large in FIG_NESTING:
            if bounds[small] > bounds[large] + BOUND_ATOL:
                bad.append(f"bound_{small} > bound_{large} at gamma {g}")
    return len(out), bad


def _check_renewal(cfg, out, ctx, exit_code) -> Tuple[int, List[str]]:
    bad = []
    reports = out["reports"] if "reports" in out else [out]
    alphas = cfg["alpha"] if isinstance(cfg["alpha"], list) else [cfg["alpha"]]
    kind = cfg["spec"]["kind"]
    if len(reports) != len(alphas):
        return len(reports), [f"{len(reports)} reports for {len(alphas)} orders"]
    any_refused = False
    for rep, al in zip(reports, alphas):
        refused = set(rep["refused"])
        any_refused = any_refused or bool(refused)
        if not _close(rep["alpha"], al, 1e-12):
            bad.append(f"report alpha {rep['alpha']} != {al}")
        for name in ("rough", "g1", "g2", "g3"):
            if (rep[name] is None) != (name in refused):
                bad.append(f"{name} neither given nor refused")
        present = [rep[n] for n in ("rough", "g1", "g2", "g3") if rep[n] is not None]
        for hi, lo in zip(present, present[1:]):
            if lo > hi + ORDER_SLACK:
                bad.append(f"ladder out of order: {present}")
        if any(v < -ORDER_SLACK or not math.isfinite(v) for v in present):
            bad.append(f"bound not finite and nonnegative: {present}")
        if kind == "mixture_exp" and refused:
            bad.append(f"hyperexponential report refused {sorted(refused)}")
        if kind == "table" and (refused != {"g2", "g3"}):
            bad.append(f"table report refused {sorted(refused)}, expected g2 and g3")
        if kind == "exponential":
            want = exponential_rate(cfg["spec"]["rho"], al)
            if rep["g2"] is None or abs(rep["g2"] - want) > 1e-9 * max(1.0, want):
                bad.append(f"exponential g2 {rep['g2']} != exact {want}")
    if exit_code != (2 if any_refused else 0):
        bad.append(f"exit {exit_code} does not match refusals")
    return len(reports), bad


def _check_scheduling(cfg, out, ctx) -> Tuple[int, List[str]]:
    bad = []
    grid = linspace(cfg["beta_min"], cfg["beta_max"], cfg["grid_points"])
    if len(out) != len(grid):
        return len(out), [f"{len(out)} rows, expected {len(grid)}"]
    classes = {str(i) for i in range(len(cfg["arrival_rates"]))}
    for row, b in zip(out, grid):
        beta, bound, g_star = float(row["beta"]), float(row["bound"]), float(row["gamma_star"])
        if not _close(beta, b, 1e-12):
            bad.append(f"beta {beta} != {b}")
        if not math.isfinite(bound) or not g_star > beta:
            bad.append(f"bound {bound}, gamma* {g_star} at beta {beta}")
        prio = row["priority_order"].split("|")
        if sorted(prio) != sorted(classes):
            bad.append(f"priority {prio} is not a permutation of the classes")
    if cfg["curve"] == "Q3" and "sched_reference" in ctx and "sched_Q2" in ctx:
        # Q3's penalty is below Q2's and both above the reference's zero penalty
        for ref, q2, q3 in zip(ctx["sched_reference"], ctx["sched_Q2"], out):
            r, b2, b3 = float(ref["bound"]), float(q2["bound"]), float(q3["bound"])
            if not (r <= b3 + BOUND_ATOL and b3 <= b2 + BOUND_ATOL):
                bad.append(f"reference {r} <= Q3 {b3} <= Q2 {b2} fails at beta {q3['beta']}")
    return len(out), bad


_LABEL = re.compile(r"^(Q2|Q3)_a([^_]+)_b([^_]+)$|^Q4_alpha0([^_]+)_u([^_]+)$")


def _family_value(label: str, al: float) -> float:
    m = _LABEL.match(label)
    if m is None:
        raise ValueError(f"unexpected family column {label!r}")
    if m.group(1) == "Q2":
        a, b = float(m.group(2)), float(m.group(3))
        return max(poisson_rate(a, al), poisson_rate(b, al))
    if m.group(1) == "Q3":
        a, b = float(m.group(2)), float(m.group(3))
        return ((b - 1.0) * poisson_rate(a, al) + (1.0 - a) * poisson_rate(b, al)) / (b - a)
    a0, u = float(m.group(4)), float(m.group(5))
    if al >= a0:
        return math.nan
    return ((a0 * (a0 - 1.0) * u + 1.0) ** ((al - 1.0) / (a0 - 1.0)) - 1.0) / (al * (al - 1.0))


def _check_family(cfg, out, ctx) -> Tuple[int, List[str]]:
    bad = []
    grid = linspace(cfg.get("alpha_min", 1.01), cfg["alpha_max"], cfg.get("grid_points", 60))
    if len(out) != len(grid):
        return len(out), [f"{len(out)} rows, expected {len(grid)}"]
    for row, al in zip(out, grid):
        if not _close(float(row["alpha"]), al, 1e-12):
            bad.append(f"alpha {row['alpha']} != {al}")
        for label, text in row.items():
            if label == "alpha":
                continue
            got, want = float(text), _family_value(label, al)
            if not _close(got, want, DIVERGENCE_ATOL * max(1.0, abs(want) if want == want else 1.0)):
                bad.append(f"{label} at alpha {al}: {got} != {want}")
    return len(out), bad


def _check_simulate(cfg, out, ctx, exit_code) -> Tuple[int, List[str]]:
    bad = []
    model = cfg["model"]
    reps = cfg["replications"]
    if out.get("model") != model or out.get("replications") != reps:
        bad.append(f"model/replications {out.get('model')}/{out.get('replications')}")
    if model == "reneging":
        backlog = out["arrivals"] - out["departures"] - out["reneging_count"]
        if backlog < 0 or out["reneging_rate"] < 0:
            bad.append(f"counts do not balance: {out}")
        if exit_code != 0:
            bad.append(f"exit {exit_code}")
        return reps, bad
    if exit_code != (0 if out["estimable"] else 2):
        bad.append(f"exit {exit_code} with estimable={out['estimable']}")
    if not out["estimable"]:
        return reps, bad
    se, point = out["std_err"], out["point"]
    if se is None or not math.isfinite(se) or point is None or not math.isfinite(point):
        return reps, bad + [f"estimable but point {point}, std_err {se}"]
    if model == "mc_tail" and point > 0:
        bad.append(f"log tail probability {point} > 0")
    if model == "mc_renyi_rate" and cfg["q"]["kind"] == "cox":
        q, al = cfg["q"], cfg["alpha"]
        total = sum(d for d, _ in q["segments"])
        want = sum(d * poisson_rate(r, al) for d, r in q["segments"]) / total
        if abs(point - want) > COX_SIGMAS * se + 1e-9:
            bad.append(f"Cox rate {point} +- {se} != exact {want}")
    return reps, bad


def check_call(command: str, cfg: dict, exit_code: int, out, ctx: Dict[str, object]
               ) -> Tuple[int, List[str]]:
    if command == "rdr-renewal":
        return _check_renewal(cfg, out, ctx, exit_code)
    if command == "simulate":
        return _check_simulate(cfg, out, ctx, exit_code)
    if exit_code != 0:
        return 0, [f"exit {exit_code}"]
    if command == "bound-reneging":
        return _check_reneging(cfg, out, ctx)
    if command == "bound-scheduling":
        return _check_scheduling(cfg, out, ctx)
    if command == "rdr-family":
        return _check_family(cfg, out, ctx)
    raise ValueError(f"no check for {command}")


# -- goldens ------------------------------------------------------------------

def _field_tol(command: str, key: str) -> Optional[Tuple[str, float]]:
    """How one output field is compared with its golden value:
    ('abs', tol), ('argmin', rtol), ('exact', 0) or None (not compared)."""
    if command == "bound-reneging":
        if key.startswith("bound_"):
            return "abs", BOUND_ATOL
        if key.startswith("alpha_star_"):
            return "argmin", ARGMIN_RTOL
        return "abs", DIVERGENCE_ATOL
    if command == "bound-scheduling":
        return {"beta": ("abs", 1e-12), "bound": ("abs", BOUND_ATOL),
                "gamma_star": ("argmin", ARGMIN_RTOL)}.get(key)
    if command == "rdr-family":
        return "abs", DIVERGENCE_ATOL
    if command == "rdr-renewal":
        return {"alpha": ("abs", 1e-12), "rough": ("abs", DIVERGENCE_ATOL),
                "g1": ("abs", BOUND_ATOL), "g2": ("abs", BOUND_ATOL),
                "g3": ("abs", BOUND_ATOL), "spec": ("exact", 0.0)}.get(key)
    if command == "simulate":
        if key in ("point", "std_err"):
            return None  # compared jointly, in standard errors
        return "exact", 0.0
    raise ValueError(f"no golden rule for {command}")


def _cmp(kind: str, tol: float, got, want) -> bool:
    if kind == "exact" or got is None or want is None or isinstance(want, bool):
        return got == want
    got, want = float(got), float(want)
    if kind == "argmin":
        if max(abs(got), abs(want)) > 1e6:  # boundary optimum: the order runs off
            return True
        return _close(got, want, tol * max(1.0, abs(want)))
    return _close(got, want, tol)


def compare_golden(command: str, got, want) -> List[str]:
    bad = []
    if command == "rdr-renewal":
        got_reps = got["reports"] if "reports" in got else [got]
        want_reps = want["reports"] if "reports" in want else [want]
        for g, w in zip(got_reps, want_reps):
            if sorted(g["refused"]) != sorted(w["refused"]):
                bad.append(f"refused {sorted(g['refused'])} != golden {sorted(w['refused'])}")
            for key, rule in ((k, _field_tol(command, k)) for k in w):
                if rule and not _cmp(*rule, g.get(key), w[key]):
                    bad.append(f"{key}: {g.get(key)} != golden {w[key]}")
        return bad
    if command == "simulate":
        for key in want:
            rule = _field_tol(command, key)
            if rule and not _cmp(*rule, got.get(key), want[key]):
                bad.append(f"{key}: {got.get(key)} != golden {want[key]}")
        if want.get("point") is not None and got.get("point") is not None:
            spread = MC_SIGMAS * ((want["std_err"] or 0.0) + (got["std_err"] or 0.0)) + 1e-9
            if abs(got["point"] - want["point"]) > spread:
                bad.append(f"point {got['point']} != golden {want['point']} within {spread}")
        return bad
    if len(got) != len(want):
        return [f"{len(got)} rows, golden has {len(want)}"]
    for g, w in zip(got, want):
        for key, text in w.items():
            rule = _field_tol(command, key)
            if rule and not _cmp(*rule, g.get(key), text):
                bad.append(f"{key}: {g.get(key)} != golden {text}")
    return bad
