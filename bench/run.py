"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; nothing is installed.  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it runs the first pass alternately
untraced and traced and reports the per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Catalogs, results
and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import os

# One BLAS thread: with two, OpenBLAS spends 25x longer on a 100-region
# matching system on a 2-core machine, and the figures stop repeating.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402 - the thread settings must precede any numpy import
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_SPAWNS = 9
MIN_LATENCY_SAMPLES = 200  # ten beyond the 95th percentile
MAX_MEASURE_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, better); "calls" and "self_s" come from spans, the rest as noted.
PER_LAYER = {
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.rows_out": ("count", "higher"),
    "core.bisect_root.calls": ("count", "lower"),
    "core.bisect_root.self_s": ("s", "lower"),
    "algebra.build_matrices.calls": ("count", "lower"),
    "algebra.find_conjugation_matrix.calls": ("count", "lower"),
    "algebra.find_conjugation_matrix.self_s": ("s", "lower"),
    "algebra.transformation_checks.self_s": ("s", "lower"),
    "algebra.appendix_identities.self_s": ("s", "lower"),
    "algebra.charge_current_identity.self_s": ("s", "lower"),
    "algebra.max_residual": ("1", "lower"),
    "scatter1d.barrier_transmission.calls": ("count", "lower"),
    "scatter1d.barrier_transmission.self_s": ("s", "lower"),
    "scatter1d.step_transmission.calls": ("count", "lower"),
    "scatter1d.step_transmission.self_s": ("s", "lower"),
    "scatter1d.square_well_bound_states.calls": ("count", "lower"),
    "scatter1d.square_well_bound_states.self_s": ("s", "lower"),
    "scatter1d.dispersion.calls": ("count", "lower"),
    "scatter1d.region_energies": ("count", "lower"),
    "scatter1d.max_unitarity_err": ("1", "lower"),
    "scatter1d.internal_errors": ("count", "lower"),
    "hydrogenic.pair_transition_energy.calls": ("count", "lower"),
    "hydrogenic.pair_transition_energy.self_s": ("s", "lower"),
    "hydrogenic.level_energy.calls": ("count", "lower"),
    "kinematics.solve_theta.calls": ("count", "lower"),
    "kinematics.solve_theta.self_s": ("s", "lower"),
    "kinematics.lab_pair_energy.calls": ("count", "lower"),
    "kinematics.lab_pair_energy.self_s": ("s", "lower"),
    "kinematics.evals_per_solve": ("count/solve", "lower"),
    "kinematics.root_found_ratio": ("ratio", "higher"),
    "matcher.reproduce_tables.self_s": ("s", "lower"),
    "matcher.candidate_transitions.calls": ("count", "lower"),
    "matcher.candidate_transitions.self_s": ("s", "lower"),
    "matcher.match_peak.calls": ("count", "lower"),
    "matcher.match_peak.self_s": ("s", "lower"),
    "matcher.catalog_load.self_s": ("s", "lower"),
    "matcher.no_angle_ratio": ("ratio", "lower"),
    "wavepacket.gaussian_amplitudes.self_s": ("s", "lower"),
    "wavepacket.probability_current.calls": ("count", "lower"),
    "wavepacket.probability_current.self_s": ("s", "lower"),
    "wavepacket.charge_current.calls": ("count", "lower"),
    "wavepacket.charge_current_spread": ("c", "lower"),
    "decaymodel.counting_time.calls": ("count", "lower"),
    "decaymodel.counting_time.self_s": ("s", "lower"),
    "decaymodel.threshold_lineshape.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Per-layer figures that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = tuple(n for n in PER_LAYER if n.endswith(".calls")) + (
    "cli.rows_out",
    "scatter1d.region_energies",
    "kinematics.evals_per_solve",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "sweep", "deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import diracpair from this checkout's src/, refusing any other copy."""
    if not (SRC / "diracpair" / "__init__.py").is_file():
        raise SystemExit(f"error: no diracpair package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import diracpair

    if Path(diracpair.__file__).resolve().parent != (SRC / "diracpair").resolve():
        raise SystemExit(f"error: imported diracpair from {diracpair.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median time from a fresh interpreter to ``diracpair.cli`` imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import diracpair.cli, sys; sys.exit(diracpair.cli.__file__ != {str(SRC / 'diracpair' / 'cli.py')!r})"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _blas_threads() -> str:
    """Thread count OpenBLAS reports at run time, or the requested setting if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            return str(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            break
    return BLAS_THREADS


def environment(args, requests_per_pass: int, passes: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_per_pass": requests_per_pass,
        "passes": passes,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def warm_up(client, requests) -> None:
    """Send one request of each label once, so lazy imports and first calls are not timed."""
    seen = set()
    for req in requests:
        if req.label not in seen:
            seen.add(req.label)
            client.send(req)


def measure(args, client, ctx):
    """Untraced passes for --seconds: the end-to-end metrics."""
    import harness
    import workloads

    setup_s = measure_setup()
    warm_up(client, workloads.generate(args.workload, args.seed, 0, ctx))
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(client.run_pass(workloads.generate(args.workload, args.seed, len(passes), ctx)))
        for o in passes[-1].outcomes:
            o.output = ""  # checked already; keeping every pass's output would inflate peak_rss_mb
        elapsed = time.perf_counter() - start
        served = sum(not o.failed for p in passes for o in p.outcomes)
        if elapsed > MAX_MEASURE_S or (elapsed >= args.seconds and served >= MIN_LATENCY_SAMPLES):
            break
    outcomes = [o for p in passes for o in p.outcomes]
    latency = [o.seconds for o in outcomes if not o.failed]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "req_p50_ms": 1e3 * statistics.median(latency),
        "req_p95_ms": 1e3 * harness.percentile(latency, 95),
        "fail_ratio": statistics.median(harness.fail_ratio(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, {}


def layer_metrics(tracer, result) -> dict[str, float]:
    import harness

    figures = dict(harness.health(result.outcomes))
    figures["cli.rows_out"] = float(harness.rows_out(result.outcomes))
    figures["scatter1d.region_energies"] = float(tracer.counters["scatter1d.region_energies"])
    solves = tracer.calls["kinematics.solve_theta"]
    figures["kinematics.evals_per_solve"] = tracer.counters["kinematics.evals_in_solve"] / solves if solves else 0.0
    figures["matcher.catalog_load.self_s"] = tracer.self_s["matcher.load_catalog"] + tracer.self_s["matcher.bundled_catalog"]
    for name in PER_LAYER:
        if name.endswith(".calls"):
            figures[name] = float(tracer.calls[name[: -len(".calls")]])
        elif name.endswith(".self_s") and name not in figures:
            figures[name] = tracer.self_s[name[: -len(".self_s")]]
    return figures


def measure_traced(args, client, ctx):
    """The first pass, untraced and traced in turn for --seconds: the per-layer metrics."""
    import workloads
    from tracer import Tracer

    requests = workloads.generate(args.workload, args.seed, 0, ctx)
    warm_up(client, requests)
    untraced, traced, passes, problems = [], [], [], {}
    figures = None
    start = time.perf_counter()
    while True:
        untraced.append(client.run_pass(requests).wall_s)
        tracer = Tracer()
        with tracer:
            result = client.run_pass(requests, tracer)
        traced.append(result.wall_s)
        passes.append(result)
        current = layer_metrics(tracer, result)
        for o in result.outcomes:
            o.output = ""
        if figures is None:
            figures, spans = current, tracer.spans
        else:
            problems.update({n: (figures[n], current[n]) for n in EXACT_COUNTS if figures[n] != current[n]})
        if time.perf_counter() - start >= min(args.seconds, MAX_MEASURE_S):
            break
    figures["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    write_spans(spans, WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv")
    return passes, {n: (figures[n], unit) for n, (unit, _) in PER_LAYER.items()}, problems


def write_spans(spans, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("request,span,parent,name,start_s,end_s\n")
        t0 = spans[0][4] if spans else 0.0
        for req, span, parent, name, start, end in spans:
            fh.write(f"{req},{span},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import harness
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    ctx = workloads.Context.from_source(SRC, WORKDIR)
    client = harness.Client()
    run = measure_traced if args.trace else measure
    passes, metrics, count_mismatches = run(args, client, ctx)
    outcomes = [o for p in passes for o in p.outcomes]
    for name, (first, later) in count_mismatches.items():
        print(f"count {name} differs between traced passes: {first} vs {later}", file=sys.stderr)
    wrong = [o for o in outcomes if o.wrong]
    env = environment(args, len(passes[0].outcomes), len(passes))
    report = {
        "environment": env,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "pass_wall_s": [p.wall_s for p in passes],
        "requests_by_label": harness.label_summary(outcomes),
        "problems": [f"{o.request.label} {o.request.key[:120]}: exit {o.exit_code}, {o.problems[:3]}"
                     for o in outcomes if o.failed][:50],
    }
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    print("# environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not wrong and not count_mismatches,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
