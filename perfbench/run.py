#!/usr/bin/env python3
"""Benchmark of the renyibounds command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a renyibounds checkout; the library is imported from
its ``src/`` directory and nowhere else. One caller drives
``renyibounds.cli.main([...])`` in a closed loop: the next call starts when
the previous one returns. Inputs come from the seed, configs and outputs go
to a temporary directory under ``.perfbench/``, and every output is checked.

With ``--trace 0`` passes repeat until ``--seconds`` of calls have run and
the end-to-end metrics are printed. With ``--trace 1`` the workload's
fixed trace passes run once untraced and once traced, and the per-layer
metrics are printed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads; set-up probes inherit it
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import bench_checks
import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDENS = HERE / "goldens"
GOLDEN_SEED = 0
GOLDEN_PASSES = 2
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "records_per_s": "1/s",
                    "call_p50_s": "s", "call_tail_s": "s", "peak_rss_mb": "MB"}


def import_cli():
    """Import renyibounds from this checkout's src/ and nowhere else."""
    if not (SRC / "renyibounds" / "__init__.py").is_file():
        raise SystemExit(f"error: no renyibounds package under {SRC}; "
                         "run from the root of a renyibounds checkout")
    sys.path.insert(0, str(SRC))
    from renyibounds import cli
    if Path(cli.__file__).resolve().parent != (SRC / "renyibounds").resolve():
        raise SystemExit(f"error: renyibounds was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class PassResult:
    wall: float
    latencies: List[float]
    records: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    outputs: Dict[str, dict] = field(default_factory=dict)


def run_call(cli, argv):
    """(exit code or None, latency, traceback text or None) of one call."""
    t0 = time.perf_counter()
    try:
        code, err = cli.main(argv), None
    except (Exception, SystemExit):
        code, err = None, traceback.format_exc(limit=4)
    return code, time.perf_counter() - t0, err


def run_pass(cli, workload, seed: int, p: int, workdir: str,
             tracer: Optional[bench_trace.Tracer] = None,
             goldens: Optional[dict] = None) -> PassResult:
    """Run pass p of the workload."""
    return run_calls(cli, workload.build_pass(seed, p), p, workdir, tracer,
                     (goldens or {}).get(str(p), {}))


def run_warmup(cli, workload, seed: int, workdir: str) -> PassResult:
    """Run the workload's untimed warm-up calls; their outputs are checked too."""
    return run_calls(cli, workload.warmup(seed), -1, workdir)


def run_calls(cli, calls, p: int, workdir: str,
              tracer: Optional[bench_trace.Tracer] = None,
              want: Optional[dict] = None) -> PassResult:
    """Write the calls' configs, time the calls back to back, then check
    every output (checks are outside the timed region)."""
    want = want or {}
    argvs = bench_workloads.write_configs(calls, workdir, p)
    outcomes = []
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.call = p * len(argvs) + i
        outcomes.append(run_call(cli, argv))
    wall = time.perf_counter() - t0

    res = PassResult(wall, [lat for _, lat, _ in outcomes])
    ctx: Dict[str, object] = {}
    for call, argv, (code, _, err) in zip(calls, argvs, outcomes):
        res.attempted += 1
        out_path = argv[argv.index("--output") + 1]
        problems: List[str] = []
        if err is not None:
            problems = [err.strip().splitlines()[-1]]
        elif code not in (0, 2) or not os.path.exists(out_path):
            problems = [f"exit {code} without output"]
        else:
            with open(out_path) as fh:
                out = bench_checks.parse_output(call.command, fh.read())
            records, problems = bench_checks.check_call(call.command, call.cfg, code, out, ctx)
            if call.label in want:
                problems += bench_checks.compare_golden(call.command, out, want[call.label])
            ctx[call.label] = out
            res.outputs[call.label] = out
            if not problems:
                res.records += records
        if problems:
            res.failed += 1
            res.problems += [f"pass {p} {call.label}: {m}" for m in problems[:3]]
        for path in (argv[argv.index("--input") + 1], out_path):
            if os.path.exists(path):
                os.remove(path)
    return res


# -- set-up time ----------------------------------------------------------------

def setup_probe(workload, seed: int):
    """What a fresh interpreter does before the first timed call."""
    import_cli()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        bench_workloads.write_configs(workload.build_pass(seed, 0), workdir, 0)


def measure_setup(workload_name: str, seed: int) -> List[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload_name, "--seed", str(seed)],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# -- the known table-density defect ------------------------------------------------

def probe_table_defect(cli, workdir: str) -> List[str]:
    """Reproduce the known RenewalSpec.beta defect on tabulated densities.

    Past a table's last point beta adds an exponential-tail term, though the
    density is zero there. The figure_ladder workload draws table decay
    rates from [1, 3], where the defect only shifts last digits; this probe
    shows it where it bites. It is reported, not counted as a failed call."""
    import numpy as np
    from renyibounds.renewal import table_spec

    xs = np.linspace(0.0, 6.0, 2401)  # the test suite's gapped table
    gs = np.exp(-xs)
    gs[(xs > 1.0) & (xs < 2.0)] = 0.0
    gs /= np.trapezoid(gs, xs)
    lines = [f"known defect (table tail): gapped table beta(0,1) = "
             f"{table_spec(xs, gs).beta(0.0, 1.0):.6g}, expected 0"]
    xs = np.linspace(0.0, 4.0, 401)
    gs = 0.5 * np.exp(-0.5 * xs)
    gs /= np.trapezoid(gs, xs)
    cfg = os.path.join(workdir, "defect.json")
    with open(cfg, "w") as fh:
        json.dump({"spec": {"kind": "table", "xs": xs.tolist(), "gs": gs.tolist()},
                   "alpha": 2.0}, fh)
    code, _, err = run_call(cli, ["rdr-renewal", "--input", cfg,
                                  "--output", os.path.join(workdir, "defect.out")])
    what = err.strip().splitlines()[-1] if err else f"exit {code}"
    lines.append(f"known defect (table tail): rdr-renewal on a rate-0.5 table on [0, 4] "
                 f"at alpha 2 -> {what} (a refusal, exit 2, is expected)")
    return lines


# -- environment -------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(args) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "threads": 1, "processes": 1}


# -- goldens -----------------------------------------------------------------------

def load_goldens(workload_name: str, seed: int) -> Optional[dict]:
    path = GOLDENS / f"{workload_name}.json"
    if seed != GOLDEN_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["passes"]


def record_goldens(cli, names: List[str]):
    """Write the outputs of the first passes at the golden seed."""
    GOLDENS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in names:
        workload = bench_workloads.WORKLOADS[name]
        passes = {}
        for p in range(GOLDEN_PASSES):
            with tempfile.TemporaryDirectory(dir=WORK) as workdir:
                res = run_pass(cli, workload, GOLDEN_SEED, p, workdir)
            if res.failed:
                raise SystemExit("refusing to record goldens from failing calls:\n"
                                 + "\n".join(res.problems))
            passes[str(p)] = res.outputs
        (GOLDENS / f"{name}.json").write_text(
            json.dumps({"seed": GOLDEN_SEED, "passes": passes}, indent=1, sort_keys=True) + "\n")
        print(f"recorded {GOLDENS / (name + '.json')}")


# -- runs --------------------------------------------------------------------------

def end_to_end(cli, workload, args, goldens, workdir):
    warm = run_warmup(cli, workload, args.seed, workdir)
    passes: List[PassResult] = []
    measured = 0.0
    # stop once a mean pass more would overshoot --seconds by more than stopping falls short
    while not passes or measured + 0.5 * measured / len(passes) < args.seconds:
        res = run_pass(cli, workload, args.seed, len(passes), workdir, goldens=goldens)
        passes.append(res)
        measured += res.wall
    latencies = [lat for r in passes for lat in r.latencies]
    tail, pct, n = bench_trace.tail_latency(latencies)
    metrics = {
        "wall_s": statistics.median([r.wall for r in passes]),
        "records_per_s": sum(r.records for r in passes) / measured,
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail,
    }
    notes = [f"passes {len(passes)}, calls {n}, measured {measured:.3f} s",
             f"call_tail_s is the p{pct:.1f} latency of {n} calls "
             f"({n - round(pct * n / 100)} beyond it)",
             "pass walls: " + ", ".join(f"{r.wall:.4f}" for r in passes)]
    return [warm] + passes, metrics, notes, []


def traced(cli, workload, args, goldens, workdir):
    n = workload.trace_passes
    # warm up first, so that first-call costs land in neither timing
    warm = run_warmup(cli, workload, args.seed, workdir)
    plain = [run_pass(cli, workload, args.seed, p, workdir, goldens=goldens) for p in range(n)]
    tracer = bench_trace.Tracer()
    tracer.install(bench_trace.TARGETS)
    try:
        traced_passes = [run_pass(cli, workload, args.seed, p, workdir, tracer=tracer,
                                  goldens=goldens) for p in range(n)]
    finally:
        tracer.uninstall()
    overhead = sum(r.wall for r in traced_passes) / sum(r.wall for r in plain) - 1.0
    metrics = bench_trace.per_layer_metrics(tracer, overhead)
    missed = bench_trace.missed_targets(tracer, workload.expected_targets)
    problems = [f"trace targets never called: {missed}"] if missed else []
    trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "spans": [list(s) for s in tracer.spans],
        "leaves": {k: [v.calls, v.total_s] for k, v in tracer.leaves.items()},
        "inner": [[a, b, c] for (a, b), c in tracer.inner.items()],
        "hits": {k: v[0] for k, v in tracer.hits.items()},
    }))
    notes = [f"trace passes: warm-up, {n} untraced + {n} traced, {len(tracer.spans)} spans "
             f"-> {trace_path}"]
    return [warm] + plain + traced_passes, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-goldens", action="store_true",
                        help=f"record outputs at seed {GOLDEN_SEED} for every workload")
    args = parser.parse_args(argv)

    if args.record_goldens:
        record_goldens(import_cli(), sorted(bench_workloads.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = bench_workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    cli = import_cli()
    goldens = load_goldens(workload.name, args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        if args.trace:
            passes, metrics, notes, problems = traced(cli, workload, args, goldens, workdir)
            units = bench_trace.PER_LAYER_UNITS
        else:
            setup = measure_setup(workload.name, args.seed)
            passes, metrics, notes, problems = end_to_end(cli, workload, args, goldens, workdir)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            notes.append("setup_s probes: " + ", ".join(f"{t:.4f}" for t in setup))
            units = END_TO_END_UNITS
        if workload.name == "figure_ladder":
            notes += probe_table_defect(cli, workdir)

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    problems += [m for r in passes for m in r.problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    env = environment(args)
    for line in notes:
        print(line)
    for m in problems[:20]:
        print(f"FAILED {m}")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} calls)")
    for k in units:
        print(f"{k} {metrics[k]:.6g} {units[k]}")
    print("env " + json.dumps(env, sort_keys=True))
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "notes": notes, "problems": problems, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
