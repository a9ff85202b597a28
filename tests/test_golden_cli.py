"""CLI output held to captures taken before the code under it was rewritten.

`scatter` is compared with a capture taken before the S-matrix rewrite and
`zbw` with one taken before the probability current was batched over times.
`exact` holds the README examples of the pure-`math` subcommands and of
`counting-time` and `lineshape`, plus `match` on the one-record test
catalog, all compared byte for byte; `algebra` holds `algebra-check`, whose
residuals are rounding noise and are compared within 1e-14.  Both were
taken before unused parameters, fields and helpers were removed.  Before the CLI
writer was handed columns in place of rows and `counting_time` took arrays,
the JSON forms of the README `lineshape` and `scatter` step examples joined
`exact`, that of the README `zbw` example joined `zbw` (its currents come
from a BLAS product whose last bits depend on the thread count), and `ulp`
took `counting-time --format json`, whose full-precision floats are
compared within one ulp.  Before the square-well levels were refined by one
batched bisection, a D1 well of 4,527 levels and a D2 well of 359 levels,
the latter in JSON at full precision, joined `exact`.  Before a series of
one or two times went through the phase tables too, `zbw --tsteps 2` in CSV
and JSON joined `zbw`.

    PYTHONPATH=src python tests/test_golden_cli.py scatter   # rewrites tests/data/golden_scatter.json
    PYTHONPATH=src python tests/test_golden_cli.py zbw       # rewrites tests/data/golden_zbw.json
    PYTHONPATH=src python tests/test_golden_cli.py exact     # rewrites tests/data/golden_exact.json
    PYTHONPATH=src python tests/test_golden_cli.py algebra   # rewrites tests/data/golden_algebra.json
    PYTHONPATH=src python tests/test_golden_cli.py ulp       # rewrites tests/data/golden_ulp.json

Regenerate only to add cases, never to absorb a changed number: a capture
is the reference its kernel is compared against.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from diracpair.cli import main

DATA = Path(__file__).resolve().parent / "data"
ABS_TOL = 1e-12
# algebra-check residuals are sums of rounding errors near 1e-15
RESIDUAL_TOL = 1e-14
# argv spelling of the one-record test catalog, resolved against DATA when run
CATALOG_ARG = "tests/data/catalog_u_pb_576.json"

SCATTER_CASES = (
    # the README examples
    ("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"),
    ("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600"),
    ("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039"),
    # steps
    ("scatter", "--alt", "d1", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"),
    ("scatter", "--alt", "d1", "--v0", "300", "--emin", "515", "--emax", "2500", "--steps", "80", "--format", "json"),
    ("scatter", "--alt", "d2", "--v0", "-200", "--emin", "520", "--emax", "3000", "--steps", "60"),
    # barriers: Klein zone, tunnelling, forbidden window, thin and wide
    ("scatter", "--alt", "d1", "--v0", "3000", "--width", "0.003", "--emin", "520", "--emax", "4500", "--steps", "150"),
    ("scatter", "--alt", "d1", "--v0", "800", "--width", "0.01", "--emin", "520", "--emax", "3000", "--steps", "200"),
    ("scatter", "--alt", "d1", "--v0", "255", "--width", "0.0005", "--emin", "515", "--emax", "1500", "--steps", "90"),
    ("scatter", "--alt", "d2", "--v0", "1533", "--width", "0.004", "--emin", "520", "--emax", "5110", "--steps", "120"),
    ("scatter", "--alt", "d2", "--v0", "400", "--width", "0.002", "--emin", "520", "--emax", "2000", "--steps", "150"),
    ("scatter", "--alt", "d2", "--v0", "600", "--width", "0.02", "--emin", "1000", "--emax", "2500", "--steps", "70", "--format", "json"),
    # square wells
    ("scatter", "--alt", "d2", "--well-depth", "766.5", "--well-width", "0.0039"),
    ("scatter", "--alt", "d1", "--well-depth", "3500", "--well-width", "0.004"),
    ("scatter", "--alt", "d2", "--well-depth", "400", "--well-width", "0.035"),
    ("scatter", "--alt", "d1", "--well-depth", "200", "--well-width", "0.004"),
)

ZBW_CASES = (
    # the README example
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "400", "--p0", "1022"),
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "400", "--p0", "1022", "--format", "json"),
    # narrow and boosted packets shaped like the benchmark's 800-step series
    ("zbw", "--dwidth", "0.000316", "--tmax", "0.03", "--tsteps", "800", "--p0", "240"),
    ("zbw", "--dwidth", "0.0075", "--tmax", "0.2", "--tsteps", "800", "--p0", "750"),
    ("zbw", "--dwidth", "0.001", "--tmax", "0.05", "--tsteps", "120", "--p0", "511", "--format", "json"),
    # centred packet: both currents are rounding noise around zero
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "200"),
    # a single time
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "1", "--p0", "1022"),
    # two times
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "2", "--p0", "1022"),
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "2", "--p0", "1022", "--format", "json"),
)

EXACT_CASES = (
    # the README examples
    ("levels", "--ion", "Pb", "--shells", "K,L1,L2"),
    ("transitions", "--ion", "Pb"),
    ("kinematics", "--deps", "818.8", "--x", "6", "--theta", "45", "--branch", "+", "--format", "json"),
    ("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"),
    ("reproduce-tables",),
    ("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "10", "--steps", "200"),
    ("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "200"),
    # JSON writes every float at full precision
    ("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "200", "--format", "json"),
    ("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100", "--format", "json"),
    # match on a catalog that ships with the tests
    ("match", "--catalog", CATALOG_ARG, "--top-k", "3"),
    ("match", "--catalog", CATALOG_ARG, "--top-k", "3", "--format", "json"),
    # square wells with hundreds to thousands of levels, one at full precision
    ("scatter", "--alt", "d1", "--well-depth", "1000", "--well-width", "10"),
    ("scatter", "--alt", "d2", "--well-depth", "1000", "--well-width", "2", "--format", "json"),
)

ALGEBRA_CASES = (
    ("algebra-check",),
    ("algebra-check", "--format", "json"),
)

# libm pow and y * y can round (x0 + x)^2 one ulp apart, which JSON's 17
# digits show; no cell of this case moved when the square became y * y
ULP_CASES = (
    ("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "10", "--steps", "200", "--format", "json"),
)

CASES = {"scatter": SCATTER_CASES, "zbw": ZBW_CASES, "exact": EXACT_CASES, "algebra": ALGEBRA_CASES, "ulp": ULP_CASES}
# columns compared exactly as text; every other column within ABS_TOL
EXACT = {"classification", "level", "t"}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    argv = [str(DATA / Path(a).name) if a == CATALOG_ARG else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _rows(text: str) -> list[dict]:
    if text.startswith("{"):
        return json.loads(text)["rows"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    names = body[0].split(",")
    return [dict(zip(names, line.split(","))) for line in body[1:]]


def _header(text: str):
    if text.startswith("{"):
        doc = json.loads(text)
        doc.pop("rows", None)
        doc.pop("result", None)
        return doc
    return [line for line in text.splitlines() if line.startswith("#")]


def _golden_path(command: str) -> Path:
    return DATA / f"golden_{command}.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    out = {}
    for command in CASES:
        cases = json.loads(_golden_path(command).read_text(encoding="utf-8"))["cases"]
        out.update((tuple(c["argv"]), c) for c in cases)
    return out


def _assert_matches_golden(case: dict, argv) -> None:
    code, text = _run(argv)
    assert code == case["exit"]
    assert _header(text) == _header(case["stdout"])
    got, want = _rows(text), _rows(case["stdout"])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            if key in EXACT:
                assert g[key] == w[key]
            else:
                assert abs(float(g[key]) - float(w[key])) <= ABS_TOL, (key, g, w)


def _ids(argv) -> str:
    return " ".join(argv[1:])


@pytest.mark.parametrize("argv", SCATTER_CASES, ids=_ids)
def test_scatter_output_matches_golden(golden, argv):
    _assert_matches_golden(golden[argv], argv)


@pytest.mark.parametrize("argv", ZBW_CASES, ids=_ids)
def test_zbw_output_matches_golden(golden, argv):
    _assert_matches_golden(golden[argv], argv)


@pytest.mark.parametrize("argv", EXACT_CASES, ids=_ids)
def test_output_is_byte_identical_to_golden(golden, argv):
    assert _run(argv) == (golden[argv]["exit"], golden[argv]["stdout"])


@pytest.mark.parametrize("argv", ULP_CASES, ids=_ids)
def test_output_matches_golden_within_one_ulp(golden, argv):
    case = golden[argv]
    code, text = _run(argv)
    assert code == case["exit"]
    assert _header(text) == _header(case["stdout"])
    got, want = _rows(text), _rows(case["stdout"])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            assert abs(g[key] - w[key]) <= math.ulp(w[key]), (key, g, w)


def _residuals(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)["result"]
    return {row["identity"]: row["max_residual"] for row in _rows(text)}


@pytest.mark.parametrize("argv", ALGEBRA_CASES, ids=_ids)
def test_algebra_check_matches_golden(golden, argv):
    case = golden[argv]
    code, text = _run(argv)
    assert code == case["exit"]
    assert _header(text) == _header(case["stdout"])
    got, want = _residuals(text), _residuals(case["stdout"])
    assert list(got) == list(want)
    assert got.pop("passed") == want.pop("passed")
    for name in got:
        assert abs(float(got[name]) - float(want[name])) <= RESIDUAL_TOL, (name, got[name], want[name])


def test_algebra_output_is_byte_identical_between_runs():
    # the exact cases already equal one fixed capture on every run
    for argv in ALGEBRA_CASES:
        assert _run(argv) == _run(argv)


def test_scatter_output_is_byte_identical_between_runs():
    for argv in SCATTER_CASES:
        assert _run(argv) == _run(argv)


def test_zbw_output_is_byte_identical_between_runs():
    for argv in ZBW_CASES:
        assert _run(argv) == _run(argv)


def capture(command: str) -> None:
    cases = []
    for argv in CASES[command]:
        code, text = _run(argv)
        cases.append({"argv": list(argv), "exit": code, "stdout": text})
    DATA.mkdir(exist_ok=True)
    _golden_path(command).write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(CASES)}}}")
    capture(sys.argv[1])
    sys.exit(0)
