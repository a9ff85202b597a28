import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diracpair
from diracpair.cli import _build_parser, _emit, _fmt, main
from diracpair.core import DEFAULT_CONSTANTS


# one valid record, so that only a count flag can be at fault
CATALOG_576 = str(Path(__file__).parent / "data" / "catalog_u_pb_576.json")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a fresh interpreter that imports the package these tests import."""
    src = str(Path(diracpair.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_module(*args):
    # exercise python -m diracpair end to end, on the package these tests import
    cmd = [sys.executable, "-m", "diracpair", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env())


def test_module_help():
    cp = run_module("--help")
    assert cp.returncode == 0, cp.stderr
    assert "reproduce-tables" in cp.stdout


def test_missing_required_flag_exits_2():
    cp = run_module("scatter", "--alt", "d1")
    assert cp.returncode == 2


def test_unknown_flag_rejected():
    cp = run_module("levels", "--ion", "Pb", "--bogus", "1")
    assert cp.returncode == 2


def test_levels_csv(capsys):
    code, out, _ = run_cli(capsys, "levels", "--ion", "Pb", "--shells", "K,L1,L2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# m_e_keV=510.99895")
    assert lines[1] == "ion,shell,n,j,E_plus_keV,E_minus_keV"
    row = lines[2].split(",")
    assert row[0] == "Pb" and row[1] == "K"
    assert float(row[4]) == pytest.approx(409.4, abs=0.1)
    assert float(row[5]) == -float(row[4])


def test_levels_unknown_ion_exit_2(capsys):
    code, _, err = run_cli(capsys, "levels", "--ion", "Xx")
    assert code == 2
    assert "Xx" in err


def test_transitions_sorted(capsys):
    code, out, _ = run_cli(capsys, "transitions", "--ion", "Pb")
    assert code == 0
    values = [float(line.split(",")[-1]) for line in out.strip().splitlines()[2:]]
    assert values == sorted(values)
    assert values[0] == pytest.approx(818.8, abs=0.2)


def test_scatter_d2_window_is_blocked(capsys):
    code, out, _ = run_cli(
        capsys, "scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 100
    v0_edge = 1533.0 + 510.99895
    for row in rows:
        e, t = float(row[0]), float(row[1])
        if e <= v0_edge:
            assert t == 0.0
        assert 0.0 <= t <= 1.0


def test_scatter_barrier_width_flag(capsys):
    code, out, _ = run_cli(
        capsys, "scatter", "--alt", "d1", "--v0", "255", "--width", "0.004",
        "--emin", "600", "--emax", "700", "--steps", "5",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert all(r[3] == "evanescent_tunneling" for r in rows)


def test_zbw_csv(capsys):
    code, out, _ = run_cli(capsys, "zbw", "--dwidth", "0.002", "--tmax", "0.05", "--tsteps", "10", "--p0", "800")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("# neg_energy_fraction=")
    assert lines[2] == "t,prob_current,charge_current"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 10
    charges = {r[2] for r in rows}
    assert len(charges) == 1  # time-independent column


def test_scatter_well_mode(capsys):
    code, out, _ = run_cli(
        capsys, "scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.003914"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "level,E_keV"
    levels = [float(line.split(",")[1]) for line in lines[2:]]
    assert levels and levels == sorted(levels)
    # D2 keeps only the positive-branch levels over the same well
    code, out, _ = run_cli(
        capsys, "scatter", "--alt", "d2", "--well-depth", "766.5", "--well-width", "0.003914"
    )
    d2_levels = [float(line.split(",")[1]) for line in out.strip().splitlines()[2:]]
    assert all(e > 0 for e in d2_levels)


def test_scatter_well_mode_needs_width(capsys):
    code, _, err = run_cli(capsys, "scatter", "--alt", "d1", "--well-depth", "766.5")
    assert code == 2 and "well-width" in err


def test_scatter_sweep_needs_v0(capsys):
    code, _, err = run_cli(capsys, "scatter", "--alt", "d1", "--emin", "600", "--emax", "700")
    assert code == 2 and "v0" in err


def test_kinematics_solve_json(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "kinematics", "--deps", "818.8", "--x", "6", "--theta", "45", "--branch", "+"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["constants"]["m_e_keV"] == 510.99895
    assert doc["result"]["T_lab_keV"] == pytest.approx(571.0, rel=0.005)
    assert doc["result"]["gamma_e"] == pytest.approx(1.9275, abs=2e-4)


def test_kinematics_invert(capsys):
    code, out, _ = run_cli(
        capsys, "kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"
    )
    assert code == 0
    angles = [float(line) for line in out.strip().splitlines()[2:]]
    assert len(angles) == 1
    assert angles[0] == pytest.approx(46.4, abs=0.5)


def test_global_flags_accepted_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kinematics", "--deps", "818.8", "--branch", "+", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["branch"] == "+"


def test_reproduce_tables_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "reproduce-tables")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 53
    assert {"theory_ok", "theta_ok"} <= set(doc["rows"][0])


def test_kinematics_invert_requires_target(capsys):
    code, _, err = run_cli(capsys, "kinematics", "invert", "--deps", "818.8", "--branch", "+")
    assert code == 2
    assert "target" in err


def test_counting_time_csv(capsys):
    code, out, _ = run_cli(capsys, "counting-time", "--x0", "1", "--xmin", "0.5", "--xmax", "2", "--steps", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert "optimal_x=1 tau_min=4" in lines[1]
    assert "sigma_ep_rel_at_optimum=0.5" in lines[1]
    rows = [line.split(",") for line in lines[3:]]
    assert float(rows[0][2]) == pytest.approx(4.5)  # tau_metastable at x = 0.5
    assert float(rows[1][1]) == pytest.approx(1.0)  # tau_baseline at x = 1


def test_lineshape_csv(capsys):
    code, out, _ = run_cli(
        capsys, "lineshape", "--deps", "818.8", "--tmin", "810", "--tmax", "830", "--steps", "21"
    )
    assert code == 0
    rows = [(float(a), float(b)) for a, b in (line.split(",") for line in out.strip().splitlines()[2:])]
    below = [d for t, d in rows if t < 818.8]
    assert all(d == 0.0 for d in below)
    assert any(d > 0.0 for _, d in rows)


def test_reproduce_tables_exit_and_shape(capsys):
    code, out, _ = run_cli(capsys, "reproduce-tables")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("table,system,")
    assert len(lines) == 2 + 23 + 30


def test_match_cli_with_custom_catalog(tmp_path, capsys):
    catalog = [
        {
            "system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic",
            "observed_keV": 576, "x_mev_per_u": 6,
        }
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, out, _ = run_cli(capsys, "match", "--catalog", str(path), "--top-k", "3")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 3
    assert rows[0].split(",")[3] == "Pb:K->K'"


def test_algebra_check_passes(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "algebra-check", "--n-random", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["max_residual"] < 1e-10


def test_determinism_byte_identical(capsys):
    a = run_cli(capsys, "transitions", "--ion", "U")
    b = run_cli(capsys, "transitions", "--ion", "U")
    assert a == b


def test_config_override_changes_header_and_values(tmp_path, capsys):
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"m_e_keV": 511.0, "alpha0": 0.0072973525693}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "levels", "--ion", "Pb", "--shells", "K")
    assert code == 0
    assert out.splitlines()[0].startswith("# m_e_keV=511")
    value = float(out.strip().splitlines()[2].split(",")[4])
    # shifted off the CODATA value (409.41761) by the mass override
    assert value == pytest.approx(409.41845, abs=1e-4)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("scatter", "--alt", "d1", "--v0", "nan", "--emin", "600", "--emax", "3000", "--steps", "50"), "--v0"),
        (("scatter", "--alt", "d2", "--v0", "900", "--width", "0.004", "--emin", "600", "--emax", "3000", "--steps", "0"), "--steps"),
        (("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "nan", "--steps", "10"), "--xmax"),
        (("match", "--catalog", CATALOG_576, "--top-k", "-1"), "--top-k"),
        (("match", "--catalog", CATALOG_576, "--top-k", "0"), "--top-k"),
        (("match", "--catalog", CATALOG_576, "--top-k", "-100"), "--top-k"),
        (("algebra-check", "--n-random", "-3"), "--n-random"),
        (("algebra-check", "--n-random", "0"), "--n-random"),
        (("scatter", "--alt", "d1", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "9" * 401), "--steps"),
        (("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "100000000000"), "--steps"),
        # numbers whose squares or products leave the float range
        (("zbw", "--dwidth", "1e-200", "--tmax", "0.2", "--tsteps", "2", "--p0", "0"), "--dwidth"),
        (("zbw", "--dwidth", "0.002", "--tmax", "1e306", "--tsteps", "2", "--p0", "0"), "--tmax"),
        (("counting-time", "--x0", "1e155", "--xmin", "0.1", "--xmax", "10", "--steps", "2"), "--x0"),
        (("counting-time", "--x0", "1", "--xmin", "1e-310", "--xmax", "10", "--steps", "2"), "--xmin"),
        (("kinematics", "--deps", "1e300", "--branch", "+"), "--deps"),
        (("kinematics", "invert", "--deps", "1e300", "--branch", "-", "--target", "576"), "--deps"),
        # once exited 0 printing, in turn: inf; nan and inf; a density of 0 where 7e145 is right
        (("lineshape", "--deps", "800", "--tmin", "800", "--tmax", "801", "--steps", "2", "--scale", "1e300", "--bin-width", "1e-300"), "--scale"),
        (("lineshape", "--deps=0", "--tmin=-1e308", "--tmax=1e308", "--steps=3"), "--tmax"),
        (("lineshape", "--deps=-1e308", "--tmin=0", "--tmax=1e308", "--steps=2", "--scale=1e300"), "--deps"),
        # once exited 0 printing nan: E - V0 overflows; a barrier phase p * width overflows
        (("scatter", "--alt=d1", "--v0=-1e308", "--emin=1e307", "--emax=1e308", "--steps=2"), "--v0"),
        (("scatter", "--alt=d1", "--v0=1", "--width=1e130", "--emin=1e35", "--emax=1e247", "--steps=9"), "--width"),
    ],
)
def test_invalid_number_exits_2_with_message(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def test_count_at_the_ceiling_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "match", "--catalog", CATALOG_576, "--top-k", "1000000")
    assert code == 0
    assert len(out.splitlines()) > 2


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("zbw", "--dwidth", "1000", "--tmax", "0.2", "--tsteps", "20"), "coarse"),
        (("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "20", "--p0", "1e5"), "narrow"),
    ],
)
def test_packet_the_grid_cannot_hold_exits_2_with_message(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert reason in err


def test_thick_barrier_sweep_succeeds(capsys):
    code, out, _ = run_cli(
        capsys, "scatter", "--alt", "d1", "--v0", "1533", "--width", "1.7", "--emin", "933", "--emax", "2133", "--steps", "50"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 50
    for _, t, r, _ in rows:
        assert 0.0 <= float(t) <= 1.0
        assert abs(float(t) + float(r) - 1.0) <= 1e-9


@pytest.mark.parametrize("x_text", ["NaN", "Infinity"])
def test_match_non_finite_beam_energy_exits_2_with_message(tmp_path, capsys, x_text):
    path = tmp_path / "catalog.json"
    path.write_text(
        '[{"system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic",'
        f' "observed_keV": 576, "x_mev_per_u": {x_text}}}]'
    )
    code, out, err = run_cli(capsys, "match", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert "beam energy" in err


# --- CSV writer -------------------------------------------------------------------
#
# _emit is handed columns and writes the CSV body with one % over all rows; the
# per-row join it replaced is the oracle, and the two must agree byte for byte.
# Its JSON must equal the document it built when it was handed rows.


def _row_oracle(row):
    return ",".join(map(_fmt, row))


def _emitted(columns, fmt="csv"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(argparse.Namespace(format=fmt), DEFAULT_CONSTANTS, columns)
    return out.getvalue()


def _row_document(columns, rows):
    """The JSON document _emit wrote when it was handed rows."""
    constants = {
        "m_e_keV": DEFAULT_CONSTANTS.electron_rest_energy,
        "alpha0": DEFAULT_CONSTANTS.fine_structure,
        "numeric_tolerance": DEFAULT_CONSTANTS.numeric_tolerance,
    }
    doc = {"constants": constants, "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300, math.inf, -math.inf, math.nan)),
)
_CELLS = {
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "int": st.integers(-(10**40), 10**40),
    "bool": st.booleans(),
    "None": st.none(),
    "str": st.text(alphabet="%,.-e0a", max_size=6),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def _tables(draw):
    """Columns name -> cells: 1-4 columns, each of one cell kind, and 0-6 rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 6))
    return {f"c{i}": draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)) for i, kind in enumerate(kinds)}


@settings(max_examples=300, deadline=None)
@given(columns=_tables())
@example(columns={"c0": []})
@example(columns={"c0": [1.0]})
@example(columns={"c0": [True, False], "c1": [1.0, -0.0]})
@example(columns={"c0": [1.5, np.float64(2.5)], "c1": ["100%,", "%s%%"]})
def test_csv_body_matches_the_per_row_join(columns):
    rows = list(zip(*columns.values()))
    expected = _emitted({name: [] for name in columns}) + "".join(_row_oracle(row) + "\n" for row in rows)
    assert _emitted(columns) == expected
    assert _emitted(columns, "json") == _row_document(list(columns), rows)


# --- parser reuse ---------------------------------------------------------------
#
# main() builds its parser once per process; these tests pin down that a call
# sees nothing of the calls made before it.

CONFIG_M511 = str(Path(__file__).parent / "data" / "constants_m511.json")


def first_call(capsys, *args):
    """Run ``args`` on a freshly built parser, as the first call of a process would."""
    _build_parser.cache_clear()
    return run_cli(capsys, *args)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_config_call_leaves_default_header(capsys):
    fresh = first_call(capsys, "levels", "--ion", "Pb", "--shells", "K")
    assert run_cli(capsys, "--config", CONFIG_M511, "levels", "--ion", "Pb", "--shells", "K")[1].startswith("# m_e_keV=511 ")
    again = run_cli(capsys, "levels", "--ion", "Pb", "--shells", "K")
    assert again == fresh
    assert again[1].startswith("# m_e_keV=510.99895")


# The README examples, shrunk where they are slow, a --config call, and
# rejected calls.
_REUSE_POOL = (
    ("--format", "json", "algebra-check", "--n-random", "2"),
    ("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"),
    ("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600"),
    ("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039"),
    ("levels", "--ion", "Pb", "--shells", "K,L1,L2"),
    ("--config", CONFIG_M511, "levels", "--ion", "Pb", "--shells", "K,L1,L2"),
    ("transitions", "--ion", "Pb"),
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "20", "--p0", "1022"),
    ("kinematics", "--deps", "818.8", "--x", "6", "--theta", "45", "--branch", "+", "--format", "json"),
    ("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"),
    ("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "10", "--steps", "200"),
    ("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "200"),
    ("scatter", "--alt", "d1", "--v0", "nan", "--emin", "600", "--emax", "3000"),
    ("levels", "--ion", "Xx"),
    ("kinematics", "invert", "--deps", "818.835", "--branch", "+"),
    ("levels", "--ion", "Pb", "--bogus", "1"),
    ("scatter", "--alt", "d1"),
    ("--format", "xml", "transitions", "--ion", "Pb"),
)


def _quiet_call(argv):
    """(exit code, stdout) of one in-process call, with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fresh_outputs():
    outputs = {}
    for argv in _REUSE_POOL:
        _build_parser.cache_clear()
        outputs[argv] = _quiet_call(argv)
    return outputs


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(_REUSE_POOL))
def test_output_does_not_depend_on_earlier_calls(fresh_outputs, order):
    for argv in order:
        assert _quiet_call(argv) == fresh_outputs[argv], argv


# --- lazy numpy -------------------------------------------------------------------
#
# numpy and the modules built on it load only in the subcommands that use them.

_NUMPY_FREE_ARGVS = (
    ("transitions", "--ion", "Pb"),
    ("levels", "--ion", "Pb", "--shells", "K,L1,L2"),
    ("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"),
    ("reproduce-tables",),
)


def run_fresh(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())


def test_numpy_free_subcommands_do_not_import_numpy():
    code = f"""
import contextlib, io, sys
import diracpair
assert "numpy" not in sys.modules, "import diracpair"
import diracpair.cli
assert "numpy" not in sys.modules, "import diracpair.cli"
for argv in {_NUMPY_FREE_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = diracpair.cli.main(list(argv))
    assert exit_code == 0, (argv, exit_code)
    assert "numpy" not in sys.modules, argv
"""
    cp = run_fresh(code)
    assert cp.returncode == 0, cp.stderr


def test_scatter_loads_numpy_on_demand():
    code = """
import contextlib, io, sys
import diracpair.cli
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    exit_code = diracpair.cli.main(["scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "20"])
assert exit_code == 0, exit_code
assert "numpy" in sys.modules
assert len(out.getvalue().splitlines()) == 2 + 20
"""
    cp = run_fresh(code)
    assert cp.returncode == 0, cp.stderr


# --- BLAS threads ---------------------------------------------------------------
#
# main() asks BLAS for one thread unless the caller chose a number.

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_BLAS_CHILD = """
import contextlib, io, os, sys
import diracpair.cli
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = diracpair.cli.main(["scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "20"])
assert exit_code == 0, exit_code
assert "numpy" in sys.modules
print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""


def run_blas_child(**blas_env):
    env = {k: v for k, v in child_env().items() if k not in _BLAS_VARS}
    cmd = [sys.executable, "-c", _BLAS_CHILD]
    return subprocess.run(cmd, capture_output=True, text=True, env={**env, **blas_env})


def test_blas_defaults_to_one_thread():
    cp = run_blas_child()
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["1", "1"]


def test_blas_thread_count_set_by_the_caller_wins():
    cp = run_blas_child(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.split() == ["2", "3"]


# --- whole-domain argv property -----------------------------------------------------
#
# Every argv ends in exit 0 with finite output, or in exit 2 with a message.

_LOG_UNIFORM = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)),
)


# about one draw in twenty builds a packet; the rest exit 2 in a few ms
@settings(max_examples=200, deadline=None)
@given(dwidth=_LOG_UNIFORM, tmax=_LOG_UNIFORM, p0=_LOG_UNIFORM, tsteps=st.integers(1, 20))
# once printed nan currents with exit 0
@example(dwidth=1e-200, tmax=0.2, p0=0.0, tsteps=2)
@example(dwidth=0.002, tmax=1e306, p0=0.0, tsteps=2)
def test_zbw_argv_exits_0_with_finite_output_or_2(dwidth, tmax, p0, tsteps):
    # --flag=value, because argparse would read "-1e-3" as an option
    argv = ("zbw", f"--dwidth={dwidth!r}", f"--tmax={tmax!r}", f"--p0={p0!r}", f"--tsteps={tsteps}")
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv


# a sweep needs 1 <= x0 and 0 < xmin < xmax, which few random draws meet (none
# in 600 of hypothesis's); the README-shaped example always does
@settings(max_examples=200, deadline=None)
@given(x0=_LOG_UNIFORM, xmin=_LOG_UNIFORM, xmax=_LOG_UNIFORM, steps=st.integers(1, 20))
@example(x0=1.0, xmin=0.1, xmax=10.0, steps=20)
# the per-flag overflow cases of test_invalid_number_exits_2_with_message
@example(x0=1e155, xmin=0.1, xmax=10.0, steps=2)
@example(x0=1.0, xmin=1e-310, xmax=10.0, steps=2)
def test_counting_time_argv_exits_0_with_finite_output_or_2(x0, xmin, xmax, steps):
    argv = ("counting-time", f"--x0={x0!r}", f"--xmin={xmin!r}", f"--xmax={xmax!r}", f"--steps={steps}")
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv


# a grid needs tmin < tmax and a positive scale and bin width: about one
# draw in forty of hypothesis's, and the README-shaped example
@settings(max_examples=200, deadline=None)
@given(
    deps=_LOG_UNIFORM, tmin=_LOG_UNIFORM, tmax=_LOG_UNIFORM, scale=_LOG_UNIFORM, shift=_LOG_UNIFORM,
    bin_width=_LOG_UNIFORM, steps=st.integers(1, 20),
)
@example(deps=818.8, tmin=800.0, tmax=900.0, scale=1.0, shift=0.0, bin_width=1.0, steps=20)
# each once printed inf or nan with exit 0
@example(deps=800.0, tmin=800.0, tmax=801.0, scale=1e300, shift=0.0, bin_width=1e-300, steps=2)
@example(deps=0.0, tmin=-1e308, tmax=1e308, scale=1.0, shift=0.0, bin_width=1.0, steps=3)
@example(deps=800.0, tmin=800.0, tmax=801.0, scale=3.3e289, shift=0.0, bin_width=1.3e-60, steps=2)
def test_lineshape_argv_exits_0_with_finite_output_or_2(deps, tmin, tmax, scale, shift, bin_width, steps):
    argv = (
        "lineshape", f"--deps={deps!r}", f"--tmin={tmin!r}", f"--tmax={tmax!r}", f"--scale={scale!r}",
        f"--shift={shift!r}", f"--bin-width={bin_width!r}", f"--steps={steps}",
    )
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv


# a sweep needs m < emin < emax and a bound-state run a positive well: about
# one draw in ten exits 0, most of them wells; the README-shaped examples do
@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(("step", "barrier", "well")), alt=st.sampled_from(("d1", "d2")),
    fmt=st.sampled_from(("csv", "json")), v0=_LOG_UNIFORM, width=_LOG_UNIFORM, emin=_LOG_UNIFORM,
    emax=_LOG_UNIFORM, well_depth=_LOG_UNIFORM, well_width=_LOG_UNIFORM, steps=st.integers(1, 20),
)
@example(mode="step", alt="d2", fmt="json", v0=1533.0, width=0.0, emin=520.0, emax=5110.0, well_depth=0.0, well_width=0.0, steps=20)
@example(mode="barrier", alt="d1", fmt="csv", v0=1533.0, width=0.004, emin=600.0, emax=2600.0, well_depth=0.0, well_width=0.0, steps=20)
@example(mode="well", alt="d1", fmt="csv", v0=0.0, width=0.0, emin=0.0, emax=0.0, well_depth=766.5, well_width=0.0039, steps=1)
# each once printed nan with exit 0: E - V0 overflows; the barrier phase p * width overflows
@example(mode="step", alt="d1", fmt="csv", v0=-1e308, width=0.0, emin=1e307, emax=1e308, well_depth=0.0, well_width=0.0, steps=2)
@example(
    mode="barrier", alt="d1", fmt="csv", v0=1.337103928840983e-46, width=1.9288181272733165e130,
    emin=9.087402182063725e34, emax=4.7665105555205924e247, well_depth=0.0, well_width=0.0, steps=9,
)
def test_scatter_argv_exits_0_with_finite_output_or_2(mode, alt, fmt, v0, width, emin, emax, well_depth, well_width, steps):
    if mode == "well":
        flags = (f"--well-depth={well_depth!r}", f"--well-width={well_width!r}")
    else:
        flags = (f"--v0={v0!r}", f"--emin={emin!r}", f"--emax={emax!r}", f"--steps={steps}")
        flags += (f"--width={width!r}",) if mode == "barrier" else ()
    argv = ("scatter", f"--alt={alt}", f"--format={fmt}", *flags)
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv
