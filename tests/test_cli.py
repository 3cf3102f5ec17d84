import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import renyibounds
from renyibounds.cli import _build_parser, main
from renyibounds.divergence import poisson_renyi_rate
from renyibounds.reneging import FIG3_COLUMNS

SCHED = {
    "arrival_rates": [1.0, 1.5, 1.8, 2.0, 2.0],
    "service_rates": [8.0, 10.0, 12.0, 9.0, 14.0],
    "costs": [0.3, 0.2, 0.2, 0.1, 0.2],
}


def _subprocess_env():
    """The environment with the src/ directory of the package under test
    first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(renyibounds.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_rdr_family_default_sweep(tmp_path):
    out = tmp_path / "fam.csv"
    assert main(["rdr-family", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "alpha"
    assert "Q2_a0.5_b2.0" in header
    assert len(lines) == 61
    # anchored-below families go out of domain above their anchor order
    i4 = header.index("Q4_alpha02.0_u0.5")
    last = lines[-1].split(",")
    assert last[i4] == "nan"
    first = lines[1].split(",")
    assert first[i4] != "nan"
    # spot value: the hazard-band column at the final alpha = 4 row
    i2 = header.index("Q2_a0.5_b2.0")
    assert abs(float(last[i2]) - poisson_renyi_rate(2.0, 4.0)) < 1e-10


def test_rdr_family_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"families": [{"family": "Q3", "a": 0.5, "b": 2.0}],
                                        "alpha_min": 1.1, "alpha_max": 3.0,
                                        "grid_points": 20})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rdr-family", "--input", cfg, "--output", str(out1)]) == 0
    assert main(["rdr-family", "--input", cfg, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


RENEGING_SCENARIO = {"model": "reneging", "n": 1, "t": 1.0,
                     "arrival": {"kind": "poisson", "rate": 1.0},
                     "patience": {"kind": "exponential", "rate": 1.0},
                     "service": {"kind": "poisson", "rate": 1.0}}
MC_TAIL_SCENARIO = {"model": "mc_tail", "n": 2, "t": 1.0, "gamma": 1.0, "lam": 2.0}
EXPONENTIAL_SPEC = {"kind": "exponential", "rho": 2.0}
MULTICLASS_SCENARIO = {"model": "multiclass", "arrival_rates": [0.5, 0.4],
                       "service_rates": [1.0, 2.0], "priority": [0, 1], "t": 50.0}
MC_RATE_SCENARIO = {"model": "mc_renyi_rate", "q": {"kind": "poisson", "rate": 2.0},
                    "ref_rate": 1.0, "alpha": 2.0, "t": 10.0, "replications": 10}


@pytest.mark.parametrize("argv, cfg, message", [
    (["rdr-family", "--input", "missing.json"], None, "missing.json"),
    (["rdr-family", "--input", "cfg.json"], "{not json", "invalid JSON"),
    (["bound-reneging", "--input", "cfg.json"], [2.0], "must hold a JSON object"),
    (["bound-reneging", "--input", "cfg.json"], {"grid_points": "x"}, "'grid_points'"),
    (["bound-scheduling", "--input", "cfg.json"], {**SCHED, "curve": "Q2"}, "'delta'"),
    (["bound-scheduling", "--input", "cfg.json"], {**SCHED, "beta_min": "x"}, "'beta_min'"),
    (["rdr-family", "--input", "cfg.json"], {"alpha_min": "x"}, "'alpha_min'"),
    (["rdr-family", "--input", "cfg.json"], {"families": [{"family": "Q2", "a": 0.5}]},
     "bad family descriptor"),
    (["rdr-renewal", "--input", "cfg.json"], {"spec": EXPONENTIAL_SPEC, "alpha": "x"},
     "'alpha'"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "replications": "x"},
     "bad reneging scenario"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "replications": 0},
     "need at least one replication"),
    (["simulate", "--input", "cfg.json"], {**MC_TAIL_SCENARIO, "replications": 0},
     "need at least one replication"),
    (["simulate", "--input", "cfg.json"],
     {**RENEGING_SCENARIO, "replications": 2, "event_log_path": "events.csv"},
     "event_log_path needs a single replication"),
    (["rdr-family", "--input", "cfg.json"], {"families": 5}, "'families' must be a JSON array"),
    (["rdr-family", "--input", "cfg.json"],
     {"reference": {"rate": 1.0, "mark": {"a_mark": 0.8, "b_mark": 1.5}},
      "families": [{"family": "Q3", "a": 0.5, "b": 2.0}]}, "hazard-band family only"),
    (["rdr-renewal", "--input", "cfg.json"], {"spec": 3}, "renewal spec must be a JSON object"),
    (["rdr-renewal", "--input", "cfg.json", "--output", "rep.json"],
     {"spec": EXPONENTIAL_SPEC, "g3_override": "false"}, "'g3_override' must be true or false"),
    (["rdr-renewal", "--input", "cfg.json", "--output", "rep.json"],
     {"spec": {"kind": "table", "path": "."}}, "bad renewal spec"),
    (["rdr-renewal", "--input", "cfg.json", "--output", "rep.json"],
     {"spec": EXPONENTIAL_SPEC, "alpha": []}, "'alpha' must name at least one order"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "arrival": 3},
     "process spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "patience": [1.0]},
     "patience spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "service": "poisson"},
     "service spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"], {**RENEGING_SCENARIO, "service": [1.0]},
     "service spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"],
     {**RENEGING_SCENARIO, "service": [{"kind": "poisson", "rate": 1.0}] * 2},
     "need one service spec per server"),
    (["simulate", "--input", "cfg.json"], {**MC_RATE_SCENARIO, "q": 2.0},
     "process spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"],
     {**MC_RATE_SCENARIO, "q": {"kind": "renewal", "spec": "gamma"}},
     "renewal spec must be a JSON object"),
    (["simulate", "--input", "cfg.json"], {**MC_RATE_SCENARIO, "sampling": "bogus"},
     "sampling must be 'tilted' or 'reference'"),
    (["simulate", "--input", "cfg.json"], {**MULTICLASS_SCENARIO, "priority": [0, 0]},
     "priority must be a permutation of the classes"),
    (["bound-reneging", "--seed", "3"], None, "unrecognized arguments: --seed 3"),
    (["simulate", "--seed", "x"], None, "invalid int value"),
    (["bound-reneging", "--grid-points", "2"], None, "unrecognized arguments: --grid-points 2"),
    (["nope"], None, "invalid choice"),
    ([], None, "required"),
], ids=["missing-file", "bad-json", "not-an-object", "reneging-grid-points",
        "scheduling-no-delta", "scheduling-beta-min", "family-alpha-min", "family-without-b",
        "renewal-alpha", "simulate-replications", "reneging-zero-replications",
        "mc-tail-zero-replications", "event-log-several-replications", "families-not-a-list",
        "marked-reference-q3", "renewal-spec-not-an-object", "renewal-g3-override-string",
        "renewal-table-path-is-a-directory", "renewal-no-alpha", "arrival-not-an-object",
        "patience-not-an-object", "service-not-an-object", "service-entry-not-an-object",
        "service-list-length", "mc-rate-q-not-an-object", "mc-rate-spec-not-an-object",
        "mc-rate-unknown-sampling", "multiclass-priority-not-a-permutation", "unknown-flag",
        "bad-flag-value", "removed-flag", "unknown-command", "no-command"])
def test_missing_input_exits_one(tmp_path, monkeypatch, capsys, argv, cfg, message):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.splitlines()[-1].startswith("error: ")
    # a refused scenario writes nothing
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if cfg is not None else [])


@pytest.mark.parametrize("bad", [{"n": 0}, {"t": 0.0},
                                 {"patience": {"kind": "exponential", "rate": 0.0}},
                                 {"patience": {"kind": "fixed", "values": []}}],
                         ids=["no-servers", "zero-horizon", "zero-patience-rate",
                              "no-patience-values"])
def test_bad_reneging_scenario_is_an_error_not_a_traceback(tmp_path, bad):
    cfg = _write(tmp_path, "cfg.json", {**RENEGING_SCENARIO, **bad})
    proc = subprocess.run([sys.executable, "-m", "renyibounds.cli", "simulate", "--input", cfg],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("scenario", [{**MULTICLASS_SCENARIO, "t": 0.0},
                                      {**MULTICLASS_SCENARIO, "n": 0},
                                      {**MC_RATE_SCENARIO, "t": 0.0}],
                         ids=["multiclass-zero-horizon", "multiclass-no-servers",
                              "mc-rate-zero-horizon"])
def test_bad_simulate_scenario_is_an_error_not_a_traceback(tmp_path, scenario):
    cfg = _write(tmp_path, "cfg.json", scenario)
    out = tmp_path / "cfg.out"
    proc = subprocess.run([sys.executable, "-m", "renyibounds.cli", "simulate", "--input", cfg,
                           "--output", str(out)],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound-reneging", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


SUBCOMMANDS = _build_parser()._subparsers._group_actions[0].choices


def test_readme_names_every_flag():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    accepted = {opt for p in (_build_parser(), *SUBCOMMANDS.values())
                for action in p._actions for opt in action.option_strings
                if opt.startswith("--")}
    assert named == accepted


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_flag_is_read_by_its_handler(name):
    sub = SUBCOMMANDS[name]
    source = inspect.getsource(sub.get_default("fn"))
    # --threads is only checked by main, for every command: no handler reads it
    dests = {a.dest for a in sub._actions if a.option_strings} - {"help", "threads"}
    assert sorted(d for d in dests if f"args.{d}" not in source) == []


def test_rdr_renewal_report_and_refusal_exit(tmp_path):
    out = tmp_path / "rep.json"
    cfg = _write(tmp_path, "exp.json", {"spec": {"kind": "exponential", "rho": 2.0},
                                        "alpha": 2.0})
    # gamma(s) diverges for s < 0, so the sharpest bound is refused: exit 2
    assert main(["rdr-renewal", "--input", cfg, "--output", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert abs(rep["g2"] - 0.5) < 1e-9
    assert "g3" in rep["refused"]
    assert rep["spec"] == "exp(rho=2.0)"
    # the report says how g2 was reached: its multiplier theta* and dual value
    assert set(rep["diagnostics"]) == {"g2"}
    d2 = rep["diagnostics"]["g2"]
    assert math.isfinite(d2["theta_star"]) and d2["theta_star"] > 0
    assert math.isfinite(d2["dual"])
    assert abs(d2["dual"] / (2.0 * (2.0 - 1.0)) - rep["g2"]) < 1e-12

    cfg2 = _write(tmp_path, "mix.json", {
        "spec": {"kind": "mixture_exp", "weights": [0.5, 0.5], "rates": [1.0, 2.0]},
        "alpha": [1.5, 2.0]})
    assert main(["rdr-renewal", "--input", cfg2, "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["reports"]) == 2
    assert rep["reports"][1]["g3"] <= rep["reports"][1]["g2"] + 1e-9
    assert all(set(r["diagnostics"]) == {"g2", "g3"} for r in rep["reports"])


def test_bound_scheduling_curves(tmp_path):
    ref_out, q2_out = tmp_path / "ref.csv", tmp_path / "q2.csv"
    ref_cfg = _write(tmp_path, "ref.json", {**SCHED, "curve": "reference",
                                            "beta_min": 0.5, "beta_max": 5.0,
                                            "grid_points": 8})
    q2_cfg = _write(tmp_path, "q2.json", {**SCHED, "curve": "Q2", "delta": 0.15,
                                          "beta_min": 0.5, "beta_max": 5.0,
                                          "grid_points": 8})
    assert main(["bound-scheduling", "--input", ref_cfg, "--output", str(ref_out)]) == 0
    assert main(["bound-scheduling", "--input", q2_cfg, "--output", str(q2_out)]) == 0
    ref_lines = ref_out.read_text().splitlines()
    q2_lines = q2_out.read_text().splitlines()
    assert ref_lines[0] == "beta,bound,gamma_star,priority_order"
    assert len(ref_lines) == 9
    for r, q in zip(ref_lines[1:], q2_lines[1:]):
        rv, qv = r.split(","), q.split(",")
        assert rv[0] == qv[0]
        assert float(rv[1]) <= float(qv[1]) + 1e-8  # envelopes only weaken the bound
        assert set(qv[3].split("|")) == {"0", "1", "2", "3", "4"}
    missing_curve = _write(tmp_path, "badcurve.json", {**SCHED, "curve": "Q9"})
    assert main(["bound-scheduling", "--input", missing_curve]) == 1


def test_bound_reneging_schema(tmp_path):
    out = tmp_path / "fig.csv"
    cfg = _write(tmp_path, "ren.json", {"lam": 2.0, "delta": 0.3,
                                        "gamma_min": 1.0, "gamma_max": 2.0,
                                        "grid_points": 3})
    assert main(["bound-reneging", "--input", cfg, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(FIG3_COLUMNS)
    assert len(lines) == 4
    first = dict(zip(FIG3_COLUMNS, lines[1].split(",")))
    assert abs(float(first["ref_decay"])) < 1e-9


def test_simulate_reneging_deterministic_and_threaded(tmp_path):
    scenario = {"model": "reneging", "n": 3, "t": 25.0,
                "arrival": {"kind": "poisson", "rate": 6.0},
                "patience": {"kind": "exponential", "rate": 1.0},
                "service": {"kind": "poisson", "rate": 1.0},
                "replications": 4}
    cfg = _write(tmp_path, "sim.json", scenario)
    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    assert main(["simulate", "--input", cfg, "--output", str(outs[0]), "--seed", "5"]) == 0
    assert main(["simulate", "--input", cfg, "--output", str(outs[1]), "--seed", "5"]) == 0
    assert main(["simulate", "--input", cfg, "--output", str(outs[2]), "--seed", "5",
                 "--threads", "4"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == outs[2].read_bytes()
    payload = json.loads(outs[0].read_text())
    assert payload["replications"] == 4
    assert payload["arrivals"] >= payload["departures"]
    other = json.loads(outs[0].read_text())
    assert main(["simulate", "--input", cfg, "--output", str(outs[1]), "--seed", "6"]) == 0
    assert json.loads(outs[1].read_text())["reneging_count"] != other["reneging_count"] \
        or outs[0].read_bytes() != outs[1].read_bytes()


def test_simulate_event_log_output(tmp_path, monkeypatch):
    monkeypatch.setenv("RENYIBOUNDS_OUTPUT_DIR", str(tmp_path))
    scenario = {"model": "reneging", "n": 1, "t": 3.0,
                "arrival": {"kind": "schedule", "times": [0.0, 0.1]},
                "patience": {"kind": "fixed", "values": [0.5]},
                "service": {"kind": "cycle", "intervals": [1.0]},
                "event_log_path": "events.csv"}
    cfg = _write(tmp_path, "log.json", scenario)
    out = tmp_path / "res.json"
    assert main(["simulate", "--input", cfg, "--output", str(out)]) == 0
    log = (tmp_path / "events.csv").read_text().splitlines()
    assert log[0] == "t,kind,customer_id,server_id"
    assert any(",reneging," in line for line in log)


def test_simulate_multiclass(tmp_path):
    cfg = _write(tmp_path, "mc.json", {"model": "multiclass",
                                       "arrival_rates": [0.5], "service_rates": [1.0],
                                       "priority": [0], "t": 200.0})
    out = tmp_path / "mc.json.out"
    assert main(["simulate", "--input", cfg, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["arrivals"][0] - payload["departures"][0] == payload["terminal"][0]


def test_simulate_mc_estimators(tmp_path):
    cfg = _write(tmp_path, "rate.json", {"model": "mc_renyi_rate",
                                         "q": {"kind": "poisson", "rate": 2.0},
                                         "ref_rate": 1.0, "alpha": 2.0, "t": 10.0,
                                         "replications": 10})
    out = tmp_path / "rate.out"
    assert main(["simulate", "--input", cfg, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["point"] - 0.5) < 1e-9
    # the tilted Poisson estimate is exact and has no weights; a reference-sampled one has
    assert payload["ess"] is None and payload["max_weight_share"] is None
    cfg = _write(tmp_path, "ref.json", {"model": "mc_renyi_rate",
                                        "q": {"kind": "poisson", "rate": 1.2},
                                        "ref_rate": 1.0, "alpha": 1.5, "t": 5.0,
                                        "replications": 50, "sampling": "reference"})
    assert main(["simulate", "--input", cfg, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 1.0 <= payload["ess"] <= 50.0 and 0.0 < payload["max_weight_share"] <= 1.0

    hopeless = _write(tmp_path, "tail.json", {"model": "mc_tail", "n": 2, "t": 5.0,
                                              "gamma": 50.0, "lam": 2.0,
                                              "replications": 30})
    assert main(["simulate", "--input", hopeless, "--output", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["estimable"] is False and payload["point"] is None

    assert main(["simulate", "--input", _write(tmp_path, "unk.json", {"model": "x"})]) == 1


IMPORT_GUARD = """
import json, sys
import renyibounds.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
out, runs = sys.argv[1], json.loads(sys.argv[2])
seen = {"import": scipy_modules()}
seen["codes"] = [cli.main(argv) for argv in runs]
seen["run"] = scipy_modules()
seen["futures"] = "concurrent.futures" in sys.modules
seen["codes"].append(cli.main(["bound-reneging", "--input", out + "/ren.json",
                               "--output", out + "/ren.csv"]))
seen["reneging"] = [m for m in ("scipy.special", "scipy.stats", "scipy.optimize",
                                "scipy.integrate") if m in sys.modules]
with open(out + "/seen.json", "w") as fh:
    json.dump(seen, fh)
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # a fresh interpreter: importing the CLI loads no scipy module, and
    # neither do rdr-family, a small bound-scheduling sweep, a small reneging
    # simulation or an exponential rdr-renewal report; a small bound-reneging
    # figure loads scipy.special for the Gamma-box penalty and nothing more;
    # the exponential report refuses g3, so it exits 2. The simulation runs
    # its two replications serially whatever --threads says, so no thread
    # pool is loaded (scipy.special loads concurrent.futures, so this is
    # read before the bound-reneging figure)
    out = str(tmp_path)
    runs = [
        ["rdr-family", "--output", out + "/fam.csv"],
        ["bound-scheduling", "--input",
         _write(tmp_path, "sched.json", {**SCHED, "grid_points": 3}),
         "--output", out + "/sched.csv"],
        ["simulate", "--input", _write(tmp_path, "sim.json",
                                       {**RENEGING_SCENARIO, "replications": 2}),
         "--output", out + "/sim.json", "--threads", "4"],
        ["rdr-renewal", "--input", _write(tmp_path, "rnw.json", {"spec": EXPONENTIAL_SPEC}),
         "--output", out + "/rnw.json"],
    ]
    _write(tmp_path, "ren.json", {"grid_points": 2})
    subprocess.run([sys.executable, "-c", IMPORT_GUARD, out, json.dumps(runs)],
                   env=_subprocess_env(), check=True)
    seen = json.loads((tmp_path / "seen.json").read_text())
    assert seen == {"import": [], "codes": [0, 0, 0, 2, 0], "run": [], "futures": False,
                    "reneging": ["scipy.special"]}
