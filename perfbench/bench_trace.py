"""In-memory tracing of renyibounds' public functions, and the arithmetic
behind the benchmark's per-layer metrics.

The tracer patches functions in the module namespace that looks them up and
restores them afterwards. Three kinds of wrapper exist:

- span: recorded as ``Span(id, parent, call, name, start, end, leaf_s, meta)``
  with the nearest open span as parent and the current CLI call as ``call``;
- leaf: counted and timed but not recorded, for functions hot enough that a
  record per call would dominate the trace. Its time is charged to the
  enclosing span's ``leaf_s`` so that span self time excludes it. A leaf
  must not contain spans: the tracer raises if one opens inside a leaf;
- counter: counted only.

Self time of a span is its duration minus the part of it covered by child
spans and by leaves run directly under it.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    call: Optional[int]
    name: str
    start: float
    end: float
    leaf_s: float = 0.0
    meta: Optional[dict] = None


@dataclass
class LeafStat:
    calls: int = 0
    total_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One patched attribute. ``owner`` is a module path, optionally
    followed by ':Class' for a method. ``classify(args, kwargs)`` picks a
    suffix for the stat name; ``meta(args, kwargs, result, error)`` returns
    the dict stored on a span; ``inner`` names leaf or counter stats whose
    calls made inside this span are attributed to it."""

    owner: str
    attr: str
    name: str
    kind: str  # "span", "leaf" or "counter"
    classify: Optional[Callable] = None
    meta: Optional[Callable] = None
    inner: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(mod_name)
    if cls_name:
        if not hasattr(obj, cls_name):
            raise AttributeError(f"trace target {owner!r}: no class {cls_name!r}")
        obj = getattr(obj, cls_name)
    return obj


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.leaves: Dict[str, LeafStat] = {}
        self.inner: Dict[Tuple[str, str], int] = {}
        self.hits: Dict[str, List[int]] = {}  # per target key, a one-cell counter
        self.call: Optional[int] = None
        self._next_id = 0
        self._open: List[list] = []  # [span id, leaf seconds] of open spans
        self._leaf_depth = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets: Iterable[Target]):
        """Patch every target. Raises AttributeError, and patches nothing,
        if any target attribute does not exist: a wrapper in the wrong
        namespace would silently read zero."""
        targets = list(targets)
        resolved = []
        for t in targets:
            owner = _resolve(t.owner)
            if t.attr not in vars(owner):
                raise AttributeError(f"trace target {t.owner}.{t.attr} does not exist")
            resolved.append((owner, t))
        for owner, t in resolved:
            original = vars(owner)[t.attr]
            self._patches.append((owner, t.attr, original))
            hit = self.hits.setdefault(t.key, [0])
            setattr(owner, t.attr, self._wrap(original, t, hit))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, t: Target, hit: List[int]):
        if t.kind == "span":
            return self._span_wrapper(fn, t, hit)
        if t.kind == "leaf":
            return self._leaf_wrapper(fn, t, hit)
        if t.kind == "counter":
            return self._counter_wrapper(fn, t, hit)
        raise ValueError(f"unknown wrapper kind {t.kind!r}")

    def _stat(self, name: str) -> LeafStat:
        s = self.leaves.get(name)
        if s is None:
            s = self.leaves[name] = LeafStat()
        return s

    def _counter_wrapper(self, fn, t: Target, hit: List[int]):
        stat = self._stat(t.name)

        def counted(*args, **kwargs):
            hit[0] += 1
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _leaf_wrapper(self, fn, t: Target, hit: List[int]):
        clock = time.perf_counter
        classify = t.classify
        fixed = None if classify else self._stat(t.name)

        def leaf(*args, **kwargs):
            stat = fixed or self._stat(f"{t.name}.{classify(args, kwargs)}")
            hit[0] += 1
            stat.calls += 1
            self._leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self._leaf_depth -= 1
                stat.total_s += dur
                if self._leaf_depth == 0 and self._open:
                    self._open[-1][1] += dur

        return leaf

    def _span_wrapper(self, fn, t: Target, hit: List[int]):
        clock = time.perf_counter

        def span(*args, **kwargs):
            if self._leaf_depth:
                raise RuntimeError(f"span {t.name} opened inside a leaf")
            hit[0] += 1
            name = f"{t.name}.{t.classify(args, kwargs)}" if t.classify else t.name
            parent = self._open[-1][0] if self._open else None
            entry = [self._next_id, 0.0]
            self._next_id += 1
            before = [self._stat(n).calls for n in t.inner]
            self._open.append(entry)
            result, error = None, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                t1 = clock()
                self._open.pop()
                for n, b in zip(t.inner, before):
                    key = (name, n)
                    self.inner[key] = self.inner.get(key, 0) + self._stat(n).calls - b
                meta = t.meta(args, kwargs, result, error) if t.meta else None
                self.spans.append(Span(entry[0], parent, self.call, name, t0, t1,
                                       entry[1], meta))

        return span


# -- arithmetic on recorded spans -------------------------------------------

def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals (clipped to it) minus the leaf time charged to it."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, [])):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = max(s.end - s.start - covered - s.leaf_s, 0.0)
    return out


def tail_latency(samples: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """Latency at the highest percentile that has at least ``beyond``
    samples above it: (value, percentile, sample count). With ``beyond`` or
    fewer samples no such percentile exists, and the maximum is returned
    with percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1  # index of the value with exactly `beyond` samples above
    return xs[k], 100.0 * (k + 1) / n, n


# -- the renyibounds targets --------------------------------------------------

def _refused(args, kwargs, result, error):
    return {"refused": error is not None}


def _converged(args, kwargs, result, error):
    return {"converged": error is None and bool(result.converged)}


def _service_kind(args, kwargs):
    fam = args[1] if len(args) > 1 else kwargs["fam"]
    return "gammabox" if type(fam.service_family).__name__ == "GammaBox" else "band"


def _beta_kind(args, kwargs):
    return "quad" if args[0].beta_closed is None else "closed"


def _figure_rows(args, kwargs, result, error):
    return {"rows": 0 if result is None else len(result)}


def _sim_meta(args, kwargs, result, error):
    n = args[0] if args else kwargs["n"]
    return {"n": n, "events": 0 if result is None else len(result.log)}


def _mc_tail_meta(args, kwargs, result, error):
    reps = kwargs["reps"]
    hits = 0
    if result is not None and result.estimable:
        scale = kwargs["horizon"] * kwargs["n"]
        hits = round(math.exp(result.point * scale) * reps)
    return {"reps": reps, "hits": hits}


def _mc_rate_meta(args, kwargs, result, error):
    return {"reps": args[4] if len(args) > 4 else kwargs["reps"]}


def _minimize(owner: str) -> Target:
    return Target(owner, "minimize_1d", "optimize.minimize_1d", "span", meta=_converged)


BETA = ("renewal.beta.quad", "renewal.beta.closed")

TARGETS: Tuple[Target, ...] = (
    Target("renyibounds.cli", "main", "cli.main", "span"),
    _minimize("renyibounds.optimize"),
    _minimize("renyibounds.divergence"),
    _minimize("renyibounds.renewal"),
    _minimize("renyibounds.scheduling"),
    Target("renyibounds.divergence", "rrb_upper", "divergence.rrb_upper", "counter"),
    Target("renyibounds.families", "poisson_renyi_rate", "divergence.poisson_renyi_rate", "counter"),
    Target("renyibounds.reneging", "poisson_renyi_rate", "divergence.poisson_renyi_rate", "counter"),
    Target("renyibounds.scheduling", "poisson_renyi_rate", "divergence.poisson_renyi_rate", "counter"),
    Target("renyibounds.families", "rdr_q2", "families.rdr", "leaf"),
    Target("renyibounds.families", "rdr_q3", "families.rdr", "leaf"),
    Target("renyibounds.families", "rdr_q4", "families.rdr", "leaf"),
    Target("renyibounds.renewal:RenewalSpec", "beta", "renewal.beta", "leaf", classify=_beta_kind),
    Target("renyibounds.renewal", "bound_report", "renewal.bound_report", "span"),
    Target("renyibounds.renewal", "g1_bound", "renewal.g1_bound", "span", meta=_refused),
    Target("renyibounds.renewal", "g2_bound", "renewal.g2_bound", "span", meta=_refused, inner=BETA),
    Target("renyibounds.renewal", "g3_bound", "renewal.g3_bound", "span", meta=_refused, inner=BETA),
    Target("renyibounds.reneging", "gamma_closed_form", "renewal.gamma_closed_form", "leaf"),
    Target("renyibounds.reneging", "figure3_data", "reneging.figure3_data", "span", meta=_figure_rows),
    Target("renyibounds.reneging", "robust_reneging_bound", "reneging.robust_reneging_bound", "span",
           classify=_service_kind),
    Target("renyibounds.reneging", "rrb_optimize", "divergence.rrb_optimize", "span"),
    Target("renyibounds.reneging", "gamma_box_r2", "reneging.gamma_box_r2", "span"),
    Target("renyibounds.scheduling", "robust_rs_bound", "scheduling.robust_rs_bound", "span"),
    Target("renyibounds.scheduling", "rs_objective", "scheduling.rs_objective", "leaf"),
    Target("renyibounds.scheduling", "w_of_gamma", "scheduling.w_of_gamma", "leaf"),
    Target("renyibounds.scheduling", "f0_of_alpha", "scheduling.f0_of_alpha", "leaf"),
    Target("renyibounds.sim", "simulate_reneging", "sim.simulate_reneging", "span", meta=_sim_meta),
    Target("renyibounds.sim", "sample_arrivals", "sim.sample_arrivals", "leaf"),
    Target("renyibounds.sim", "mc_tail_probability", "sim.mc_tail_probability", "span",
           meta=_mc_tail_meta),
    Target("renyibounds.sim", "mc_renyi_rate", "sim.mc_renyi_rate", "span", meta=_mc_rate_meta),
)


# -- per-layer metrics --------------------------------------------------------

PER_LAYER_UNITS: Dict[str, str] = {
    "optimize.minimize_1d.calls": "count",
    "optimize.minimize_1d.self_s": "s",
    "optimize.nonconverged_frac": "frac",
    "divergence.rrb_optimize.s_per_call": "s",
    "divergence.rrb_upper.calls_per_optimize": "count",
    "divergence.poisson_renyi_rate.calls": "count",
    "families.rdr.calls": "count",
    "families.rdr.self_s": "s",
    "renewal.beta.quad_calls": "count",
    "renewal.beta.quad_us_per_call": "us",
    "renewal.beta.closed_calls": "count",
    "renewal.beta.calls_per_g2": "count",
    "renewal.beta.calls_per_g3": "count",
    "renewal.g1_bound.s_per_call": "s",
    "renewal.g2_bound.s_per_call": "s",
    "renewal.g3_bound.s_per_call": "s",
    "renewal.gamma_closed_form.calls": "count",
    "renewal.gamma_closed_form.us_per_call": "us",
    "reneging.gamma_box_r2.calls_per_row": "count",
    "reneging.gamma_box_r2.calls_per_gammabox_bound": "count",
    "reneging.gamma_box_r2.ms_per_call": "ms",
    "reneging.robust_reneging_bound.gammabox_s_per_call": "s",
    "reneging.robust_reneging_bound.band_ms_per_call": "ms",
    "scheduling.robust_rs_bound.s_per_call": "s",
    "scheduling.rs_objective.calls_per_bound": "count",
    "scheduling.w_of_gamma.us_per_call": "us",
    "scheduling.f0_of_alpha.us_per_call": "us",
    "sim.events_per_s.n50": "1/s",
    "sim.events_per_s.n500": "1/s",
    "sim.sample_arrivals.share": "frac",
    "sim.mc_tail.reps_per_s": "1/s",
    "sim.mc_tail.hit_frac": "frac",
    "sim.mc_renyi_rate.reps_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer was not exercised (den == 0)."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric from one traced phase. A metric whose layer
    the workload does not exercise reads 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    groups: Dict[str, List[Span]] = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)

    def calls(name):
        return len(groups.get(name, ()))

    def total(name, pred=None):
        return sum(s.end - s.start for s in groups.get(name, ()) if pred is None or pred(s))

    def self_total(name):
        return sum(selfs[s.id] for s in groups.get(name, ()))

    def leaf(name):
        return tracer.leaves.get(name, LeafStat())

    def completed(name):
        return [s for s in groups.get(name, ()) if not s.meta["refused"]]

    mins = groups.get("optimize.minimize_1d", [])
    quad, closed = leaf("renewal.beta.quad"), leaf("renewal.beta.closed")
    rdr = leaf("families.rdr")
    gcf = leaf("renewal.gamma_closed_form")
    g2_done, g3_done = completed("renewal.g2_bound"), completed("renewal.g3_bound")
    inner = tracer.inner

    def beta_inside(span_name):
        return sum(inner.get((span_name, n), 0) for n in BETA)

    sims = groups.get("sim.simulate_reneging", [])

    def events_per_s(n):
        picked = [s for s in sims if s.meta["n"] == n]
        return _ratio(sum(s.meta["events"] for s in picked),
                      sum(s.end - s.start for s in picked))

    tails = groups.get("sim.mc_tail_probability", [])
    rates = groups.get("sim.mc_renyi_rate", [])
    rows = sum(s.meta["rows"] for s in groups.get("reneging.figure3_data", ()))
    metrics = {
        "optimize.minimize_1d.calls": float(len(mins)),
        "optimize.minimize_1d.self_s": self_total("optimize.minimize_1d"),
        "optimize.nonconverged_frac": _ratio(sum(not s.meta["converged"] for s in mins), len(mins)),
        "divergence.rrb_optimize.s_per_call": _ratio(total("divergence.rrb_optimize"),
                                                     calls("divergence.rrb_optimize")),
        "divergence.rrb_upper.calls_per_optimize": _ratio(leaf("divergence.rrb_upper").calls,
                                                          calls("divergence.rrb_optimize")),
        "divergence.poisson_renyi_rate.calls": float(leaf("divergence.poisson_renyi_rate").calls),
        "families.rdr.calls": float(rdr.calls),
        "families.rdr.self_s": rdr.total_s,
        "renewal.beta.quad_calls": float(quad.calls),
        "renewal.beta.quad_us_per_call": 1e6 * _ratio(quad.total_s, quad.calls),
        "renewal.beta.closed_calls": float(closed.calls),
        "renewal.beta.calls_per_g2": _ratio(beta_inside("renewal.g2_bound"), len(g2_done)),
        "renewal.beta.calls_per_g3": _ratio(beta_inside("renewal.g3_bound"), len(g3_done)),
        "renewal.g1_bound.s_per_call": _ratio(sum(s.end - s.start for s in completed("renewal.g1_bound")),
                                              len(completed("renewal.g1_bound"))),
        "renewal.g2_bound.s_per_call": _ratio(sum(s.end - s.start for s in g2_done), len(g2_done)),
        "renewal.g3_bound.s_per_call": _ratio(sum(s.end - s.start for s in g3_done), len(g3_done)),
        "renewal.gamma_closed_form.calls": float(gcf.calls),
        "renewal.gamma_closed_form.us_per_call": 1e6 * _ratio(gcf.total_s, gcf.calls),
        "reneging.gamma_box_r2.calls_per_row": _ratio(calls("reneging.gamma_box_r2"), rows),
        "reneging.gamma_box_r2.calls_per_gammabox_bound": _ratio(
            calls("reneging.gamma_box_r2"), calls("reneging.robust_reneging_bound.gammabox")),
        "reneging.gamma_box_r2.ms_per_call": 1e3 * _ratio(total("reneging.gamma_box_r2"),
                                                          calls("reneging.gamma_box_r2")),
        "reneging.robust_reneging_bound.gammabox_s_per_call": _ratio(
            total("reneging.robust_reneging_bound.gammabox"),
            calls("reneging.robust_reneging_bound.gammabox")),
        "reneging.robust_reneging_bound.band_ms_per_call": 1e3 * _ratio(
            total("reneging.robust_reneging_bound.band"),
            calls("reneging.robust_reneging_bound.band")),
        "scheduling.robust_rs_bound.s_per_call": _ratio(total("scheduling.robust_rs_bound"),
                                                        calls("scheduling.robust_rs_bound")),
        "scheduling.rs_objective.calls_per_bound": _ratio(leaf("scheduling.rs_objective").calls,
                                                          calls("scheduling.robust_rs_bound")),
        "scheduling.w_of_gamma.us_per_call": 1e6 * _ratio(leaf("scheduling.w_of_gamma").total_s,
                                                          leaf("scheduling.w_of_gamma").calls),
        "scheduling.f0_of_alpha.us_per_call": 1e6 * _ratio(leaf("scheduling.f0_of_alpha").total_s,
                                                           leaf("scheduling.f0_of_alpha").calls),
        "sim.events_per_s.n50": events_per_s(50),
        "sim.events_per_s.n500": events_per_s(500),
        "sim.sample_arrivals.share": _ratio(leaf("sim.sample_arrivals").total_s,
                                            sum(s.end - s.start for s in sims)),
        "sim.mc_tail.reps_per_s": _ratio(sum(s.meta["reps"] for s in tails),
                                         total("sim.mc_tail_probability")),
        "sim.mc_tail.hit_frac": _ratio(sum(s.meta["hits"] for s in tails),
                                       sum(s.meta["reps"] for s in tails)),
        "sim.mc_renyi_rate.reps_per_s": _ratio(sum(s.meta["reps"] for s in rates),
                                               total("sim.mc_renyi_rate")),
        "cli.self_s": self_total("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }
    return {k: float(v) for k, v in metrics.items()}


def missed_targets(tracer: Tracer, expected: Iterable[str]) -> List[str]:
    """Expected target keys that were never called while traced."""
    return sorted(k for k in expected if tracer.hits.get(k, [0])[0] == 0)
