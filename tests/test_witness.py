"""Each printed bound of an inf-type search is re-checked at its printed
witness: one evaluation of the bound's formula at the printed argument gives
the printed bound, bit for bit (``repr`` round-trips floats)."""

import csv
import json

import pytest

from renyibounds.cli import main
from renyibounds.divergence import RrbInputs, rrb_upper
from renyibounds.reneging import (RenegingInstance, default_families,
                                  robust_bound_curve)
from renyibounds.scheduling import SchedulingInstance, rs_objective

SCHED = {
    "arrival_rates": [1.0, 1.5, 1.8, 2.0, 2.0],
    "service_rates": [8.0, 10.0, 12.0, 9.0, 14.0],
    "costs": [0.3, 0.2, 0.2, 0.1, 0.2],
}


def _run(tmp_path, command, cfg):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--input", str(cfg_path), "--output", str(out)]) == 0
    with open(out) as fh:
        return list(csv.DictReader(fh))


def test_reneging_bounds_equal_rrb_upper_at_alpha_star(tmp_path):
    rows = _run(tmp_path, "bound-reneging", {"grid_points": 6})
    inst = RenegingInstance(lam=2.0, mu=1.0, theta=1.0)
    families = default_families(delta=0.3)
    assert len(rows) == 6
    for row in rows:
        at = inst.at(float(row["gamma"]))
        for name, fam in families.items():
            alpha_star = float(row[f"alpha_star_{name}"])
            witness = rrb_upper(RrbInputs(*robust_bound_curve(at, fam)), alpha_star)
            assert float(row[f"bound_{name}"]) == witness * inst.mu, (row["gamma"], name)


@pytest.mark.parametrize("curve", ["reference", "Q2", "Q3"])
def test_scheduling_bounds_equal_rs_objective_at_gamma_star(tmp_path, curve):
    horizon, delta = 1.5, 0.15
    rows = _run(tmp_path, "bound-scheduling",
                {**SCHED, "curve": curve, "delta": delta, "horizon": horizon,
                 "grid_points": 8})
    assert len(rows) == 8
    arr, srv, costs = (tuple(SCHED[k]) for k in ("arrival_rates", "service_rates", "costs"))
    unit = tuple((1.0, 1.0) for _ in arr)
    for row in rows:
        beta = float(row["beta"])
        if curve == "reference":
            # reference_bound searches the Q2 objective with unit envelopes
            inst = SchedulingInstance(arr, srv, costs, beta, horizon, unit, unit)
            family = "Q2"
        else:
            inst = SchedulingInstance.with_delta(arr, srv, costs, beta, horizon, delta)
            family = curve
        witness = rs_objective(inst, float(row["gamma_star"]), family=family) * horizon
        assert float(row["bound"]) == witness, (curve, beta)
