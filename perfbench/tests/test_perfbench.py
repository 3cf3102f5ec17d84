"""Tests of the benchmark's own machinery: span arithmetic, the tail
percentile, the trace installer, the output checks, and that every traced
function is reached by the workload that claims it."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_trace import Span, Target, Tracer, self_times, tail_latency  # noqa: E402


def test_self_time_subtracts_children_and_leaves():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0, leaf_s=1.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0, leaf_s=0.5),  # overlaps a: union is [1, 6]
        Span(3, 2, 0, "c", 4.0, 5.0),
        Span(4, 0, 0, "d", 9.0, 12.0),             # runs past root: clipped to [9, 10]
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert got[1] == pytest.approx(3.0)
    assert got[2] == pytest.approx(3.0 - 1.0 - 0.5)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)


def test_tail_latency_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 26)]  # 25 samples, 1..25
    value, pct, n = tail_latency(xs)
    assert (value, n) == (15.0, 25)         # 10 samples (16..25) lie beyond it
    assert pct == pytest.approx(60.0)
    assert tail_latency(xs[:11])[:2] == (1.0, pytest.approx(100.0 / 11))
    assert tail_latency(xs[:10]) == (10.0, 100.0, 10)  # too few: the maximum


def test_installer_fails_loudly_and_patches_nothing():
    from renyibounds import cli
    original = cli.main
    tracer = Tracer()
    with pytest.raises(AttributeError, match="no_such_function"):
        tracer.install([Target("renyibounds.cli", "main", "cli.main", "span"),
                        Target("renyibounds.cli", "no_such_function", "x", "span")])
    assert cli.main is original


def test_installer_restores_originals():
    from renyibounds import renewal, scheduling
    before = (renewal.RenewalSpec.beta, scheduling.minimize_1d)
    tracer = Tracer()
    tracer.install(bench_trace.TARGETS)
    assert scheduling.minimize_1d is not before[1]
    tracer.uninstall()
    assert (renewal.RenewalSpec.beta, scheduling.minimize_1d) == before


def test_every_target_is_claimed_by_a_workload():
    keys = {t.key for t in bench_trace.TARGETS}
    claimed = set()
    for w in bench_workloads.WORKLOADS.values():
        assert set(w.expected_targets) <= keys, w.name
        claimed |= set(w.expected_targets)
    assert claimed == keys


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_trace.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(bench_workloads.WORKLOADS)
    metrics = bench_trace.per_layer_metrics(Tracer(), 0.0)
    assert set(metrics) == set(bench_trace.PER_LAYER_UNITS)


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_traced_pass_hits_every_claimed_target(name, tmp_path):
    """A wrapper in the wrong namespace would read 0 and look like a gain."""
    cli = run.import_cli()
    workload = bench_workloads.WORKLOADS[name]
    counts = []
    for _ in range(2 if name == "sweep_sim" else 1):
        tracer = Tracer()
        tracer.install(bench_trace.TARGETS)
        try:
            res = run.run_pass(cli, workload, 0, 0, str(tmp_path), tracer=tracer)
        finally:
            tracer.uninstall()
        assert res.failed == 0, res.problems
        assert bench_trace.missed_targets(tracer, workload.expected_targets) == []
        counts.append({k: v[0] for k, v in tracer.hits.items()})
    assert all(c == counts[0] for c in counts)  # counts repeat exactly


def test_draws_repeat_per_seed_and_cover_ranges_evenly():
    for w in bench_workloads.WORKLOADS.values():
        assert w.build_pass(5, 3) == w.build_pass(5, 3)
        assert w.build_pass(5, 3) != w.build_pass(6, 3)
    for k in range(3):  # the first three dimensions of one stream
        us = sorted(_kth_draw(bench_workloads.Draws("x", 7, i), k) for i in range(20))
        # 20 independent uniforms almost never leave every gap below 0.1
        assert max(b - a for a, b in zip(us, us[1:])) < 0.1


def _kth_draw(draws, k):
    for _ in range(k):
        draws.uniform(0.0, 1.0)
    return draws.uniform(0.0, 1.0)


def _figure_row(**bounds):
    row = {"gamma": "1.0", "ref_decay": "0.0"}
    for f in bench_checks.FIG_FAMILIES:
        row[f"bound_{f}"] = repr(bounds.get(f, 0.0))
        row[f"alpha_star_{f}"] = "2.0"
    return row


def test_checks_reject_broken_outputs():
    cfg = {"lam": 2.0, "mu": 1.0, "gamma_min": 1.0, "gamma_max": 2.0, "grid_points": 2}
    good = [_figure_row(), dict(_figure_row(), gamma="2.0",
                                ref_decay=repr(-bench_checks.reneging_decay(2.0, 1.0, 2.0)))]
    assert bench_checks.check_call("bound-reneging", cfg, 0, good, {}) == (2, [])
    bad = [good[0], dict(good[1], bound_Q3="-1e-3", bound_Q2="-2e-3")]
    _, problems = bench_checks.check_call("bound-reneging", cfg, 0, bad, {})
    assert any("bound_Q3 > bound_Q2" in p for p in problems)

    report = {"alpha": 2.0, "rough": 1.0, "g1": 0.5, "g2": 0.6, "g3": 0.4, "refused": {},
              "spec": "hyperexp"}
    cfg = {"spec": {"kind": "mixture_exp"}, "alpha": 2.0}
    _, problems = bench_checks.check_call("rdr-renewal", cfg, 0, report, {})
    assert any("out of order" in p for p in problems)

    payload = {"model": "reneging", "replications": 1, "arrivals": 5, "departures": 4,
               "reneging_count": 2, "reneging_rate": 0.1}
    cfg = {"model": "reneging", "replications": 1}
    _, problems = bench_checks.check_call("simulate", cfg, 0, payload, {})
    assert any("balance" in p for p in problems)


def test_golden_comparison_uses_bound_tolerance():
    want = [{"beta": "1.0", "bound": "0.5", "gamma_star": "3.0", "priority_order": "0|1"}]
    near = [dict(want[0], bound=repr(0.5 + 5e-7), gamma_star="3.001", priority_order="1|0")]
    far = [dict(want[0], bound=repr(0.5 + 5e-6))]
    assert bench_checks.compare_golden("bound-scheduling", near, want) == []
    assert bench_checks.compare_golden("bound-scheduling", far, want) != []


# -- known defects: reproduced here, kept out of the workloads' draws ----------

@pytest.mark.xfail(strict=True, reason="RenewalSpec.beta adds an exponential tail past a table's end")
def test_table_density_has_no_tail_past_its_end():
    import numpy as np
    from renyibounds.renewal import table_spec

    xs = np.linspace(0.0, 6.0, 2401)  # the gapped table of tests/test_renewal.py
    gs = np.exp(-xs)
    gs[(xs > 1.0) & (xs < 2.0)] = 0.0
    gs /= np.trapezoid(gs, xs)
    assert abs(table_spec(xs, gs).beta(0.0, 1.0)) < 1e-6


@pytest.mark.xfail(strict=True, reason="rdr-renewal crashes on a table with decay rate <= 1 - 1/alpha")
def test_slow_table_is_refused_not_crashed(tmp_path):
    import numpy as np

    xs = np.linspace(0.0, 4.0, 401)
    gs = 0.5 * np.exp(-0.5 * xs)
    gs /= np.trapezoid(gs, xs)
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({"spec": {"kind": "table", "xs": xs.tolist(), "gs": gs.tolist()},
                               "alpha": 2.0}))
    assert run.import_cli().main(["rdr-renewal", "--input", str(cfg),
                                  "--output", str(tmp_path / "out.json")]) == 2


@pytest.mark.xfail(strict=True, reason="g2 exceeds g1 on hyperexponentials with large alpha * sup H")
def test_g2_never_exceeds_g1_on_hyperexponential():
    from renyibounds import g1_bound, g2_bound, mixture_exp_spec

    spec = mixture_exp_spec([0.2, 0.8], [1.0, 4.0])  # alpha * sup H = 3.67
    assert g2_bound(spec, 3.0) <= g1_bound(spec, 3.0) + bench_checks.ORDER_SLACK
