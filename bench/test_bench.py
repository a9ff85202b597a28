"""Self-tests of the benchmark harness, separate from the package's test suite.

    python3 -m pytest bench/test_bench.py -q

Nothing here times anything, so the tests cannot flake on a busy machine.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
import run

run.import_package()

import harness  # noqa: E402 - needs the package path set up by run.import_package
import oracle  # noqa: E402
import workloads  # noqa: E402
from capture import CAPTURE  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture()
def ctx(tmp_path) -> workloads.Context:
    return workloads.Context.from_source(run.SRC, tmp_path)


def _one_per_label(requests):
    seen = {}
    for req in requests:
        seen.setdefault(req.label, req)
    return list(seen.values())


def _fields(requests):
    # repr, because the invalid requests carry nan, which never equals itself
    return [repr((r.kind, r.label, r.argv, r.params, r.expect, r.key)) for r in requests]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_requests(ctx, workload):
    first = _fields(workloads.generate(workload, 7, 2, ctx))
    catalogs = {p: p.read_text() for p in ctx.workdir.iterdir()}
    assert _fields(workloads.generate(workload, 7, 2, ctx)) == first
    assert catalogs == {p: p.read_text() for p in ctx.workdir.iterdir()}
    other = _fields(workloads.generate(workload, 8, 2, ctx))
    assert other != first and len(other) == len(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(ctx, workload):
    requests = _one_per_label(workloads.generate(workload, 3, 0, ctx))
    figures = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            result = harness.Client().run_pass(requests, tracer)
        figures.append(run.layer_metrics(tracer, result))
    assert {n: figures[0][n] for n in run.EXACT_COUNTS} == {n: figures[1][n] for n in run.EXACT_COUNTS}
    assert set(figures[0]) >= set(run.PER_LAYER) - {"trace.overhead_s"}
    assert figures[0]["cli.main.calls"] == sum(r.argv is not None for r in requests)


def test_tracer_rebinds_every_caller_and_restores():
    from diracpair import core, kinematics, matcher, scatter1d

    originals = (kinematics.solve_theta, matcher.solve_theta, scatter1d.bisect_root, core.bisect_root)
    with Tracer():
        assert matcher.solve_theta is kinematics.solve_theta is not originals[0]
        assert scatter1d.bisect_root is core.bisect_root is kinematics.bisect_root is not originals[3]
    assert (kinematics.solve_theta, matcher.solve_theta, scatter1d.bisect_root, core.bisect_root) == originals


def _corrupt_csv_cell(text: str, column: str, value: str, row: int = 0) -> str:
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[body[0]].rstrip("\n").split(",")
    target = body[1 + row]
    cells = lines[target].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[target] = ",".join(cells) + "\n"
    return "".join(lines)


CORRUPTIONS = {
    "sweep": lambda t: _corrupt_csv_cell(t, "T", "1.5") if not t.startswith("{") else t.replace('"T": 0', '"T": 2', 1),
    "well": lambda t: _corrupt_csv_cell(t, "E_keV", "0.5") if t.count("\n") > 2 else t + "0,0.5\n",
    "invert": lambda t: _corrupt_csv_cell(t, "theta_e_deg", "89.9") if t.count("\n") > 2 else t + "45\n",
    "match": lambda t: _corrupt_csv_cell(t, "theory_at_45_keV", "123.4"),
    "reproduce": lambda t: _corrupt_csv_cell(t, "computed_theory_keV", "600", row=3),
    "transitions": lambda t: _corrupt_csv_cell(t, "delta_eps_keV", "1000.5", row=2),
    "algebra": lambda t: t.replace("passed,true", "passed,false"),
    "zbw": lambda t: _corrupt_csv_cell(t, "charge_current", "0.25", row=5),
    "counting": lambda t: _corrupt_csv_cell(t, "tau_metastable", "3.5", row=7),
    "lineshape": lambda t: _corrupt_csv_cell(t, "density", "0.5", row=9),
    "profile": lambda t: "0.5,0.4," + t.rsplit(",", 1)[1],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_is_caught(ctx, workload):
    client = harness.Client()
    for req in _one_per_label(workloads.generate(workload, 5, 0, ctx)):
        if req.expect != 0 or req.label in ("thick", "replay"):
            continue
        code, _, output = client.send(req)
        assert code == 0, req.key
        assert oracle.check(req.kind, req.params, output) == [], req.key
        corrupted = CORRUPTIONS[req.kind](output)
        assert corrupted != output
        assert oracle.check(req.kind, req.params, corrupted), f"{req.kind} corruption not caught"


def test_header_change_is_caught(ctx):
    req = next(r for r in workloads.generate("tables", 5, 0, ctx) if r.kind == "transitions")
    _, _, output = harness.Client().send(req)
    assert oracle.check(req.kind, req.params, output.replace("alpha0=0.007297352569", "alpha0=0.0073", 1))


def test_replay_mismatch_makes_the_run_incorrect(ctx):
    req = next(r for r in workloads.generate("tables", 5, 0, ctx) if r.kind == "transitions")
    client = harness.Client()
    client.digests[req.key] = "digest of some other output"
    outcome = client.run(req)
    assert outcome.failed and outcome.wrong


def test_failure_accounting():
    req = workloads.Request("invalid", "invalid", ("zbw", "--dwidth", "1000", "--tmax", "0.2", "--tsteps", "20"), expect=2)
    outcome = harness.Client().run(req)
    # exit 1 (internal error) where a validation error (exit 2) is expected
    assert outcome.failed and not outcome.wrong
    result = harness.PassResult([outcome], 1.0)
    assert harness.fail_ratio(result) == pytest.approx(2 / 2)
    assert harness.fail_ratio(harness.PassResult([replace(outcome, exit_code=2)], 1.0)) == pytest.approx(1 / 2)


def test_classifier_matches_seed_capture():
    probes = json.loads(CAPTURE.read_text())["probes"]
    assert len(probes) >= 500
    for alt, v0, width, e, cls in probes:
        want = oracle.classify_step(alt, v0, e) if width is None else oracle.classify(alt, (0.0, v0, 0.0), e)
        assert want[0] == cls, (alt, v0, width, e)


def test_well_oracle_matches_documented_example():
    # the README's square-well example: 766.5 keV deep, 0.0039/keV wide
    from diracpair import scatter1d
    from diracpair.core import Alternative

    for alt in ("d1", "d2"):
        got = scatter1d.square_well_bound_states(Alternative.from_string(alt), 766.5, 0.0039)
        want = oracle.well_levels(alt, 766.5, 0.0039)
        assert len(got) == len(want) > 0
        assert max(abs(g - w) for g, w in zip(got, want)) < oracle.LEVEL_ABS_TOL


def test_benchmark_json_matches_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
