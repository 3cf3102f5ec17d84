"""Command-line front end: divergence-rate sweeps, renewal bound reports,
robust bounds for the scheduling and reneging case studies, and simulator
runs, emitted as CSV or JSON.

Exit codes: 0 success, 1 configuration error, 2 unestimable or
hypothesis-refused. Reruns with identical config and seed produce
byte-identical output. CSV uses fixed header rows, '.' decimals, no locale
dependence. The RENYIBOUNDS_OUTPUT_DIR environment variable supplies a
default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from . import families as fam_mod
from . import reneging as ren_mod
from . import renewal as rnw_mod
from . import scheduling as sch_mod
from . import sim as sim_mod


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}")


def _write_output(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        return
    if not os.path.isabs(path):
        base = os.environ.get("RENYIBOUNDS_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    out_dir = os.path.dirname(path)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- rdr-family -------------------------------------------------------------

_DEFAULT_FAMILIES = [
    {"family": "Q2", "a": 0.5, "b": 2.0},
    {"family": "Q2", "a": 0.8, "b": 1.25},
    {"family": "Q3", "a": 0.5, "b": 2.0},
    {"family": "Q3", "a": 0.8, "b": 1.25},
    {"family": "Q4", "alpha0": 2.0, "u": 0.5},
    {"family": "Q4", "alpha0": 4.0, "u": 0.5},
]


def _family_label(d: dict) -> str:
    kind = d["family"]
    if kind == "Q1":
        return f"Q1_u{_fmt(float(d['u']))}_anchor{_fmt(float(d['alpha_anchor']))}"
    if kind in ("Q2", "Q3"):
        return f"{kind}_a{_fmt(float(d['a']))}_b{_fmt(float(d['b']))}"
    if kind == "Q4":
        return f"Q4_alpha0{_fmt(float(d['alpha0']))}_u{_fmt(float(d['u']))}"
    raise ConfigError(f"unknown family kind {kind!r}")


def cmd_rdr_family(args) -> int:
    cfg = _load_config(args.input)
    descriptors = cfg.get("families", _DEFAULT_FAMILIES)
    ref = fam_mod.reference_from_dict(cfg.get("reference", {"rate": 1.0}))
    alpha_max = args.alpha_max if args.alpha_max is not None else float(cfg.get("alpha_max", 4.0))
    grid_points = args.grid_points if args.grid_points is not None else int(cfg.get("grid_points", 60))
    alpha_min = float(cfg.get("alpha_min", 1.01))
    if not (1.0 < alpha_min < alpha_max) or grid_points < 2:
        raise ConfigError("need 1 < alpha_min < alpha_max and at least 2 grid points")
    alphas = np.linspace(alpha_min, alpha_max, grid_points)

    labels, curves = [], []
    for d in descriptors:
        labels.append(_family_label(d))
        try:
            fam = fam_mod.family_from_dict(d)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad family descriptor {d!r}: {e}")
        curves.append(fam_mod.family_curve(fam, ref))

    lines = ["alpha," + ",".join(labels)]
    for al in alphas:
        row = [_fmt(float(al))]
        for c in curves:
            row.append(_fmt(c(float(al))) if c.domain_contains(float(al)) else "nan")
        lines.append(",".join(row))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# -- rdr-renewal ------------------------------------------------------------

def _renewal_spec_from_dict(d: dict) -> rnw_mod.RenewalSpec:
    kind = d.get("kind")
    try:
        if kind == "exponential":
            return rnw_mod.exponential_spec(float(d["rho"]))
        if kind == "gamma":
            return rnw_mod.gamma_spec(float(d["k"]), float(d["rho"]))
        if kind == "mixture_exp":
            return rnw_mod.mixture_exp_spec([float(w) for w in d["weights"]],
                                            [float(r) for r in d["rates"]])
        if kind == "table":
            if "path" in d:
                if not os.path.exists(d["path"]):
                    raise ConfigError(f"input file not found: {d['path']}")
                data = np.loadtxt(d["path"], delimiter=",", skiprows=1, ndmin=2)
                return rnw_mod.table_spec(data[:, 0], data[:, 1])
            return rnw_mod.table_spec([float(x) for x in d["xs"]],
                                      [float(g) for g in d["gs"]])
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad renewal spec {d!r}: {e}")
    raise ConfigError(f"unknown renewal spec kind {kind!r}")


def cmd_rdr_renewal(args) -> int:
    cfg = _load_config(args.input)
    if "spec" not in cfg:
        raise ConfigError("config needs a 'spec' entry")
    spec = _renewal_spec_from_dict(cfg["spec"])
    alphas = cfg.get("alpha", 2.0)
    if not isinstance(alphas, list):
        alphas = [alphas]
    g3_override = bool(cfg.get("g3_override", False))
    reports, any_refused = [], False
    for al in alphas:
        rep = rnw_mod.bound_report(spec, float(al), g3_override=g3_override)
        any_refused = any_refused or bool(rep.refused)
        d = dataclasses.asdict(rep)
        d.pop("diagnostics", None)
        d["spec"] = spec.name
        reports.append(d)
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    _write_output(_json_text(payload), args.output)
    return 2 if any_refused else 0


# -- bound-scheduling -------------------------------------------------------

def _scheduling_instance(cfg: dict, beta: float, delta: Optional[float]) -> sch_mod.SchedulingInstance:
    try:
        arr = tuple(float(v) for v in cfg["arrival_rates"])
        srv = tuple(float(v) for v in cfg["service_rates"])
        costs = tuple(float(v) for v in cfg["costs"])
        horizon = float(cfg.get("horizon", 1.0))
        if delta is None:
            return sch_mod.SchedulingInstance(arr, srv, costs, beta, horizon)
        return sch_mod.SchedulingInstance.with_delta(arr, srv, costs, beta, horizon, delta)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad scheduling instance: {e}")


def cmd_bound_scheduling(args) -> int:
    cfg = _load_config(args.input)
    if "arrival_rates" not in cfg:
        raise ConfigError("config needs arrival_rates/service_rates/costs")
    curve = cfg.get("curve", "reference")
    if curve not in ("reference", "Q2", "Q3"):
        raise ConfigError("curve must be 'reference', 'Q2' or 'Q3'")
    delta = float(cfg["delta"]) if curve != "reference" else None
    grid_points = args.grid_points if args.grid_points is not None else int(cfg.get("grid_points", 60))
    beta_lo = float(cfg.get("beta_min", 0.1))
    beta_hi = float(cfg.get("beta_max", 15.0))
    if not (0 < beta_lo < beta_hi) or grid_points < 2:
        raise ConfigError("need 0 < beta_min < beta_max and at least 2 grid points")

    lines = ["beta,bound,gamma_star,priority_order"]
    for beta in np.linspace(beta_lo, beta_hi, grid_points):
        inst = _scheduling_instance(cfg, float(beta), delta)
        if curve == "reference":
            res = sch_mod.reference_bound(inst)
        else:
            res = sch_mod.robust_rs_bound(inst, family=curve)
        prio = "|".join(str(i) for i in res.priority)
        lines.append(f"{_fmt(float(beta))},{_fmt(res.bound)},{_fmt(res.gamma_star)},{prio}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# -- bound-reneging ---------------------------------------------------------

def cmd_bound_reneging(args) -> int:
    cfg = _load_config(args.input)
    try:
        inst = ren_mod.RenegingInstance(lam=float(cfg.get("lam", 2.0)),
                                        mu=float(cfg.get("mu", 1.0)),
                                        theta=float(cfg.get("theta", 1.0)))
        delta = float(cfg.get("delta", 0.3))
    except ValueError as e:
        raise ConfigError(str(e))
    grid_points = args.grid_points if args.grid_points is not None else int(cfg.get("grid_points", 60))
    g0 = inst.gamma0
    g_lo = float(cfg.get("gamma_min", g0))
    g_hi = float(cfg.get("gamma_max", g0 + 3.0))
    if not (g0 - 1e-12 <= g_lo < g_hi) or grid_points < 2:
        raise ConfigError("need gamma0 <= gamma_min < gamma_max and at least 2 grid points")
    families = ren_mod.default_families(delta=delta)
    rows = ren_mod.figure3_data(inst, families,
                                gamma_grid=np.linspace(g_lo, g_hi, grid_points),
                                bare_bracket=args.bare_bracket)
    lines = [",".join(ren_mod.FIG3_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in ren_mod.FIG3_COLUMNS))
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


# -- simulate ---------------------------------------------------------------

def _arrival_from_dict(d: dict):
    kind = d.get("kind")
    try:
        if kind == "poisson":
            return sim_mod.PoissonProcess(float(d["rate"]))
        if kind == "renewal":
            return sim_mod.RenewalProcess(_renewal_spec_from_dict(d["spec"]))
        if kind == "cox":
            return sim_mod.CoxPiecewise(tuple((float(s[0]), float(s[1]))
                                              for s in d["segments"]),
                                        cycle=bool(d.get("cycle", True)))
        if kind == "schedule":
            return sim_mod.DeterministicSchedule(tuple(float(t) for t in d["times"]))
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad process spec {d!r}: {e}")
    raise ConfigError(f"unknown process kind {kind!r}")


def _service_from_dict(d: dict):
    if d.get("kind") == "cycle":
        return sim_mod.DeterministicCycle(tuple(float(v) for v in d["intervals"]))
    return _arrival_from_dict(d)


def _patience_from_dict(d: dict):
    kind = d.get("kind")
    try:
        if kind == "exponential":
            return sim_mod.ExponentialPatience(float(d["rate"]))
        if kind == "fixed":
            return sim_mod.FixedPatience(tuple(float(v) for v in d["values"]))
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad patience spec {d!r}: {e}")
    raise ConfigError(f"unknown patience kind {kind!r}")


def _run_reneging_scenario(cfg: dict, seed: int, assert_mode: bool, threads: int) -> dict:
    try:
        n = int(cfg["n"])
        horizon = float(cfg["t"])
        arrival = _arrival_from_dict(cfg["arrival"])
        patience = _patience_from_dict(cfg["patience"])
        service = cfg["service"]
        reps = int(cfg.get("replications", 1))
        initial = int(cfg.get("initial_customers", 0))
    except KeyError as e:
        raise ConfigError(f"scenario missing field {e}")
    if isinstance(service, list):
        services = [_service_from_dict(s) for s in service]
    else:
        services = _service_from_dict(service)

    def one(rep: int) -> sim_mod.SimRun:
        return sim_mod.simulate_reneging(n, horizon, arrival, patience, services,
                                         seed=seed, rep=rep, assert_mode=assert_mode,
                                         initial_customers=initial)
    if threads > 1 and reps > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(one, range(reps)))
    else:
        runs = [one(r) for r in range(reps)]
    rates = [r.reneging_count / (horizon * n) for r in runs]
    result = {
        "model": "reneging",
        "reneging_rate": float(np.mean(rates)),
        "reneging_count": int(sum(r.reneging_count for r in runs)),
        "arrivals": int(sum(r.arrival_count for r in runs)),
        "departures": int(sum(r.state.departed for r in runs)),
        "replications": reps,
        "seed": seed,
    }
    log_path = cfg.get("event_log_path")
    if log_path and reps == 1:
        _write_output(sim_mod.event_log_csv(runs[0].log), log_path)
    return result


def _run_multiclass_scenario(cfg: dict, seed: int, assert_mode: bool) -> dict:
    try:
        inst = sch_mod.SchedulingInstance(
            tuple(float(v) for v in cfg["arrival_rates"]),
            tuple(float(v) for v in cfg["service_rates"]),
            tuple(float(v) for v in cfg.get("costs", [1.0] * len(cfg["arrival_rates"]))),
            beta=float(cfg.get("beta", 1.0)))
        priority = [int(i) for i in cfg["priority"]]
        n = int(cfg.get("n", 1))
        horizon = float(cfg["t"])
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad multiclass scenario: {e}")
    run = sim_mod.simulate_multiclass_priority(inst, priority, n, horizon,
                                               seed=seed, assert_mode=assert_mode)
    return {
        "model": "multiclass",
        "terminal": [int(v) for v in run.terminal],
        "arrivals": [int(v) for v in run.arrivals],
        "departures": [int(v) for v in run.departures],
        "busy_time": [float(v) for v in run.busy_time],
        "mean_queue_length": [float(v / horizon) for v in run.queue_area],
        "seed": seed,
    }


def _mc_payload(est: sim_mod.McEstimate, model: str) -> dict:
    return {
        "model": model,
        "point": est.point,
        "std_err": est.std_err if math.isfinite(est.std_err) else None,
        "replications": est.replications,
        "seed": est.seed,
        "estimable": est.estimable,
    }


def cmd_simulate(args) -> int:
    cfg = _load_config(args.input)
    if not cfg:
        raise ConfigError("simulate requires --input with a scenario file")
    model = cfg.get("model")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    exit_code = 0
    if model == "reneging":
        payload = _run_reneging_scenario(cfg, seed, args.assert_mode, args.threads)
    elif model == "multiclass":
        payload = _run_multiclass_scenario(cfg, seed, args.assert_mode)
    elif model == "mc_renyi_rate":
        try:
            est = sim_mod.mc_renyi_rate(
                _arrival_from_dict(cfg["q"]), float(cfg["ref_rate"]),
                float(cfg["alpha"]), float(cfg["t"]),
                int(cfg.get("replications", 1000)), seed=seed,
                sampling=cfg.get("sampling", "tilted"))
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad mc_renyi_rate scenario: {e}")
        payload = _mc_payload(est, model)
        exit_code = 0 if est.estimable else 2
    elif model == "mc_tail":
        try:
            est = sim_mod.mc_tail_probability(
                n=int(cfg["n"]), horizon=float(cfg["t"]), gamma=float(cfg["gamma"]),
                lam=float(cfg["lam"]), mu=float(cfg.get("mu", 1.0)),
                theta=float(cfg.get("theta", 1.0)),
                reps=int(cfg.get("replications", 2000)), seed=seed)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad mc_tail scenario: {e}")
        payload = _mc_payload(est, model)
        exit_code = 0 if est.estimable else 2
    else:
        raise ConfigError(f"unknown model kind {model!r}")
    _write_output(_json_text(payload), args.output)
    return exit_code


# -- entry point ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyibounds",
        description="Divergence rates, robust queueing bounds, and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("rdr-family", cmd_rdr_family, "CSV sweep of family divergence rates over alpha"),
        ("rdr-renewal", cmd_rdr_renewal, "JSON bound report for a renewal density"),
        ("bound-scheduling", cmd_bound_scheduling, "CSV of robust risk-sensitive scheduling bounds over beta"),
        ("bound-reneging", cmd_bound_reneging, "CSV of robust reneging decay bounds over gamma"),
        ("simulate", cmd_simulate, "run a simulation scenario, JSON result"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON config / scenario file")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid-points", type=int, default=None, dest="grid_points")
        p.add_argument("--alpha-max", type=float, default=None, dest="alpha_max")
        p.add_argument("--assert", action="store_true", dest="assert_mode",
                       help="enable simulator invariant assertions")
        p.add_argument("--bare-bracket", action="store_true", dest="bare_bracket",
                       help="bare-bracket normalization of the Gamma-box penalty")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap for replication batches")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
