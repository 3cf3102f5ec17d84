"""The benchmark's two workloads.

A workload is an endless list of passes; pass p of seed s is a fixed list of
CLI calls, so the same seed always gives the same calls. Inputs are drawn
inside the ranges below from a low-discrepancy sequence (see ``Draws``):
the seed sets where the sequence starts, and consecutive passes spread
evenly over every range, so that a run's cost does not swing with the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Call:
    label: str      # stable name of the call inside its pass
    command: str    # CLI subcommand
    cfg: dict       # JSON config written to --input
    seed: Optional[int] = None  # --seed for simulate


@dataclass
class Workload:
    name: str
    build_pass: Callable[[int, int], List[Call]]
    warmup: Callable[[int], List[Call]]  # untimed calls run before the first timed pass
    trace_passes: int               # passes run untraced and then traced with --trace 1
    expected_targets: Tuple[str, ...]  # trace targets every traced pass must hit


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131)


class Draws:
    """Uniform draws for point ``index`` of a Kronecker sequence.

    The k-th draw of point i is frac(u_k + i * sqrt(prime_k)), where the
    offset u_k comes from the seed. Points 0, 1, 2, ... cover every range
    evenly, unlike independent draws, so the cost of a run's passes hardly
    depends on the seed."""

    def __init__(self, stream: str, seed: int, index: int):
        self._stream, self._seed, self._index, self._k = stream, seed, index, 0

    def uniform(self, lo: float, hi: float) -> float:
        k = self._k
        self._k += 1
        u0 = random.Random(f"{self._stream}/{self._seed}/{k}").random()
        return lo + (hi - lo) * ((u0 + self._index * math.sqrt(_PRIMES[k])) % 1.0)


# -- figure_ladder: the reneging figure and the renewal bound ladder ----------

def _reneging_figure(d: Draws) -> Call:
    """One bound-reneging figure at the paper's instance: three rows from
    gamma0 + 0.2 + s to gamma0 + 2.7 + s, s in [0, 0.3]. Rows keep 0.2 away
    from gamma0, where a Gamma-box bound costs about a quarter more than elsewhere,
    so that the row draw does not set the call's cost."""
    g0 = 1.0  # lam - mu
    shift = d.uniform(0.0, 0.3)
    return Call("figure", "bound-reneging", {
        "lam": 2.0, "mu": 1.0, "theta": 1.0, "delta": 0.3,
        "gamma_min": g0 + 0.2 + shift, "gamma_max": g0 + 2.7 + shift, "grid_points": 3})


def _exp_table(rate: float, length: float, points: int, gap: Optional[Tuple[float, float]]):
    xs = np.linspace(0.0, length, points)
    gs = rate * np.exp(-rate * xs)
    if gap is not None:
        gs[(xs > gap[0]) & (xs < gap[1])] = 0.0
    gs /= np.trapezoid(gs, xs)
    return [float(x) for x in xs], [float(g) for g in gs]


def _table(seed: int, index: int) -> Call:
    """rdr-renewal on a tabulated exponential density; every other table has
    a support gap. Tables need quadrature for beta, and g2/g3 are refused."""
    d = Draws("figure_ladder/table", seed, index)
    rate, length, alpha = d.uniform(1.0, 3.0), d.uniform(4.0, 8.0), d.uniform(1.5, 4.0)
    gap = None
    if index % 2 == 1:
        lo = d.uniform(0.5, 1.5)
        gap = (lo, lo + d.uniform(0.3, 1.0))
    xs, gs = _exp_table(rate, length, 401, gap)
    return Call("table", "rdr-renewal", {
        "spec": {"kind": "table", "xs": xs, "gs": gs}, "alpha": alpha})


def figure_ladder(seed: int, p: int) -> List[Call]:
    """One tabulated density, the reneging figure and one hyperexponential
    renewal report (min rate 1, all four bounds apply).

    A pass holds one short call for two long ones, so the median and the
    tail latency of a run are long calls. Each of those times many seconds
    of the run, not the moment at which a burst of short calls ran.

    Two known defects bound the draws. Instead of failing workload calls,
    both are reproduced in perfbench/tests, and the table defect also in
    every figure_ladder run:
    - g2 exceeds g1 on hyperexponential densities once alpha * sup H passes
      about 3.5, so the weight of the rate-1 phase is drawn from [0.5, 0.8]
      and the fast rate from [2, 3], which keeps alpha * sup H below 2.8;
    - RenewalSpec.beta adds an exponential tail past a table's end, and
      rdr-renewal crashes on tables whose decay rate is below 1 - 1/alpha,
      so table decay rates are drawn from [1, 3].
    """
    d = Draws("figure_ladder", seed, p)
    figure = _reneging_figure(d)
    w = d.uniform(0.5, 0.8)
    hyperexp = Call("hyperexp", "rdr-renewal", {
        "spec": {"kind": "mixture_exp", "weights": [w, 1.0 - w],
                 "rates": [1.0, d.uniform(2.0, 3.0)]},
        "alpha": d.uniform(1.5, 4.0)})
    return [_table(seed, p), figure, hyperexp]


def figure_ladder_warmup(seed: int) -> List[Call]:
    """Four tables: they reach rdr-renewal's quadrature path in well under a
    second, while the figure and the hyperexponential report take seconds each."""
    return [_table(seed, -1 - i) for i in range(4)]


# -- sweep_sim: closed-form bounds and the simulator --------------------------

def _reneging_scenario(n: int, lam: float, t: float, reps: int) -> dict:
    return {"model": "reneging", "n": n, "t": t,
            "arrival": {"kind": "poisson", "rate": lam * n},
            "patience": {"kind": "exponential", "rate": 1.0},
            "service": {"kind": "poisson", "rate": 1.0},
            "replications": reps}


def sweep_sim(seed: int, p: int) -> List[Call]:
    """Scheduling curves (reference, Q2, Q3) on one 3-class instance, the
    default rdr-family sweep, and renewal reports on gamma and exponential
    densities, whose beta has a closed form, at two orders each. Then the simulator: reneging
    replications at n = 50 and n = 500, a naive tail estimate, and
    divergence-rate estimates on a tilted renewal and a reference-sampled
    Cox process."""
    d = Draws("sweep_sim", seed, p)
    inst = {"arrival_rates": [d.uniform(0.5, 1.5) for _ in range(3)],
            "service_rates": [d.uniform(6.0, 12.0) for _ in range(3)],
            "costs": [d.uniform(0.1, 0.4) for _ in range(3)],
            "beta_min": 0.1, "beta_max": 15.0, "grid_points": 20}
    delta = d.uniform(0.1, 0.2)
    sim_seed = lambda i: (seed * 100_003 + p * 17 + i) % (2 ** 31)
    segs = [[d.uniform(0.5, 2.0), d.uniform(0.8, 1.0)],
            [d.uniform(0.5, 2.0), d.uniform(1.0, 1.25)]]
    return [
        Call("sched_reference", "bound-scheduling", {**inst, "curve": "reference"}),
        Call("sched_Q2", "bound-scheduling", {**inst, "curve": "Q2", "delta": delta}),
        Call("sched_Q3", "bound-scheduling", {**inst, "curve": "Q3", "delta": delta}),
        Call("family", "rdr-family", {"alpha_max": d.uniform(3.5, 4.5)}),
        Call("gamma", "rdr-renewal", {
            "spec": {"kind": "gamma", "k": d.uniform(1.5, 3.0), "rho": d.uniform(1.5, 3.0)},
            "alpha": [d.uniform(1.5, 2.75), d.uniform(2.75, 4.0)]}),
        Call("exponential", "rdr-renewal", {
            "spec": {"kind": "exponential", "rho": d.uniform(1.2, 3.0)},
            "alpha": [d.uniform(1.5, 2.75), d.uniform(2.75, 4.0)]}),
        Call("reneging_n50", "simulate", _reneging_scenario(50, d.uniform(1.8, 2.2), 20.0, 2),
             sim_seed(0)),
        Call("reneging_n500", "simulate", _reneging_scenario(500, d.uniform(1.8, 2.2), 4.0, 1),
             sim_seed(1)),
        Call("mc_tail", "simulate", {"model": "mc_tail", "n": 5, "t": 4.0, "lam": 2.0,
                                     "gamma": d.uniform(1.0, 1.2), "replications": 200},
             sim_seed(2)),
        Call("mc_rate_renewal", "simulate", {
            "model": "mc_renyi_rate",
            "q": {"kind": "renewal",
                  "spec": {"kind": "gamma", "k": d.uniform(1.5, 3.0), "rho": d.uniform(1.2, 2.5)}},
            "ref_rate": 1.0, "alpha": d.uniform(1.5, 3.0), "t": 50.0, "replications": 200},
             sim_seed(3)),
        Call("mc_rate_cox", "simulate", {
            "model": "mc_renyi_rate", "q": {"kind": "cox", "segments": segs, "cycle": True},
            "ref_rate": 1.0, "alpha": d.uniform(1.5, 2.5), "t": 20.0, "replications": 400,
            "sampling": "reference"},
             sim_seed(4)),
    ]


def sweep_sim_warmup(seed: int) -> List[Call]:
    """One pass at another index than the timed passes use."""
    return sweep_sim(seed, -1)


_R = "renyibounds."
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("figure_ladder", figure_ladder, figure_ladder_warmup, 1,
             (_R + "cli.main", _R + "optimize.minimize_1d", _R + "divergence.minimize_1d",
              _R + "renewal.minimize_1d", _R + "divergence.rrb_upper",
              _R + "families.poisson_renyi_rate", _R + "reneging.poisson_renyi_rate",
              _R + "families.rdr_q2", _R + "families.rdr_q3", _R + "reneging.gamma_closed_form",
              _R + "reneging.figure3_data", _R + "reneging.robust_reneging_bound",
              _R + "reneging.rrb_optimize", _R + "reneging.gamma_box_r2",
              _R + "renewal:RenewalSpec.beta", _R + "renewal.bound_report",
              _R + "renewal.g1_bound", _R + "renewal.g2_bound", _R + "renewal.g3_bound")),
    Workload("sweep_sim", sweep_sim, sweep_sim_warmup, 4,
             (_R + "cli.main", _R + "optimize.minimize_1d", _R + "renewal.minimize_1d",
              _R + "scheduling.minimize_1d", _R + "scheduling.poisson_renyi_rate",
              _R + "families.poisson_renyi_rate", _R + "families.rdr_q2", _R + "families.rdr_q3",
              _R + "families.rdr_q4", _R + "renewal:RenewalSpec.beta", _R + "renewal.bound_report",
              _R + "renewal.g1_bound", _R + "renewal.g2_bound", _R + "renewal.g3_bound",
              _R + "scheduling.robust_rs_bound", _R + "scheduling.rs_objective",
              _R + "scheduling.w_of_gamma", _R + "scheduling.f0_of_alpha",
              _R + "sim.simulate_reneging", _R + "sim.sample_arrivals",
              _R + "sim.mc_tail_probability", _R + "sim.mc_renyi_rate")),
)}


def write_configs(calls: List[Call], directory, p: int) -> List[List[str]]:
    """Write each call's config to ``directory`` and return its CLI argv."""
    argvs = []
    for i, c in enumerate(calls):
        cfg_path = os.path.join(directory, f"p{p}_c{i}_{c.label}.json")
        with open(cfg_path, "w") as fh:
            json.dump(c.cfg, fh)
        argv = [c.command, "--input", cfg_path, "--output", cfg_path[:-5] + ".out",
                "--threads", "1"]
        if c.seed is not None:
            argv += ["--seed", str(c.seed)]
        argvs.append(argv)
    return argvs
