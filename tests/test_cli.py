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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600", "--well-width", "1"), "--well-width"),
        (("scatter", "--alt", "d1", "--v0", "1533", "--emin", "600", "--emax", "2600", "--well-depth", "766.5", "--well-width", "0.0039"), "--v0, --emin, --emax"),
        (("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039", "--steps", "50"), "--steps"),
        (("kinematics", "--deps", "818.8", "--branch", "+", "--target", "576"), "--target"),
        (("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576", "--theta", "10"), "--theta"),
    ],
)
def test_flag_of_the_other_mode_exits_2_naming_it(capsys, argv, flag):
    # each ran the other mode and dropped the flag, with exit 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and flag in err


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


# pytest captures warnings, so only the mark can see a numpy warning that a
# real process would print to stderr before the error
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        # numpy's "expected non-negative integer" named no flag
        (("algebra-check", "--seed=-1"), "--seed"),
    ],
)
def test_invalid_number_exits_2_with_message(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


# each once exited 0 printing nan or inf, or exited 1
@pytest.mark.parametrize(
    "kind, entry, field",
    [
        ("catalog", {"observed_keV": "nan"}, "observed_keV"),
        ("catalog", {"observed_keV": "1e999"}, "observed_keV"),
        ("catalog", {"uncertainty_keV": []}, "uncertainty_keV"),
        ("catalog", {"uncertainty_keV": {}}, "uncertainty_keV"),
        ("catalog", {"flags": 5}, "flags"),
        ("config", {"m_e_keV": [1]}, "m_e_keV"),
        ("config", {"alpha0": None}, "alpha0"),
        ("config", {"m_e_keV": "nan"}, "m_e_keV"),
        # a positron peak is doubled; this one printed residual_keV -inf
        ("catalog", {"observable": "positron_energy", "observed_keV": 1e308}, "observed_keV"),
        # a null took the place of the default: exit 1, and exit 2 naming only the beam energy
        ("catalog", {"observed_keV": None}, "observed_keV"),
        ("catalog", {"x_mev_per_u": None}, "x_mev_per_u"),
        # float(True) is 1.0: each ran with exit 0 as a 1-keV mass or peak
        ("config", {"m_e_keV": True}, "m_e_keV"),
        ("catalog", {"observed_keV": True}, "observed_keV"),
        # text went through str() and bool through bool(): each exited 0, printing
        # None or a list's repr as the spectrometer, or reading "no" as true
        ("catalog", {"spectrometer": None}, "spectrometer"),
        ("catalog", {"spectrometer": ["sum"]}, "spectrometer"),
        ("catalog", {"note": None}, "note"),
        ("catalog", {"note": 5}, "note"),
        ("catalog", {"marginal": "no"}, "marginal"),
        ("catalog", {"marginal": 0}, "marginal"),
        # went through str(): named no field, showing a repr or a KeyError
        ("catalog", {"system": ["U+Pb"]}, "system"),
        ("catalog", {"system": "U+Pb+Pb"}, "system"),
        ("catalog", {"ion": None}, "ion"),
        ("catalog", {"ion": "U", "upper": ["K"], "lower": "K"}, "upper"),
        ("catalog", {"ion": "U"}, "upper"),
        # a numeric string went through float(): each ran with exit 0
        ("catalog", {"observed_keV": "576"}, "observed_keV"),
        ("config", {"m_e_keV": "511"}, "m_e_keV"),
        # an int beyond the float range: float() raised OverflowError, exit 1
        ("catalog", {"observed_keV": 10**400}, "observed_keV"),
        ("config", {"m_e_keV": 10**400}, "m_e_keV"),
    ],
)
def test_bad_input_file_field_exits_2_naming_it(tmp_path, capsys, kind, entry, field):
    path = tmp_path / f"{kind}.json"
    if kind == "catalog":
        (record,) = json.loads(Path(CATALOG_576).read_text())
        path.write_text(json.dumps([{**record, **entry}]))
        argv = ("match", "--catalog", str(path))
    else:
        path.write_text(json.dumps(entry))
        argv = ("--config", str(path), "levels", "--ion", "Pb")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    # one line that leads with the field, after the entry it belongs to
    assert re.fullmatch(rf"error: (catalog entry 0: )?{field}\b.*\n", err), err


@pytest.mark.parametrize("entry", [1, None, "U+Pb"])
def test_catalog_entry_that_is_not_an_object_exits_2_naming_it(tmp_path, capsys, entry):
    # each exited 1: "'int' object is not subscriptable" and the like
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run_cli(capsys, "match", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: catalog entry 0: must be a JSON object") and err.count("\n") == 1, err


def test_match_names_the_entry_whose_beam_energy_overflows(tmp_path, capsys):
    # a finite beam energy whose T_lab leaves the float range named no entry and no field
    (record,) = json.loads(Path(CATALOG_576).read_text())
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record, {**record, "x_mev_per_u": 1e308}]))
    code, out, err = run_cli(capsys, "match", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: catalog entry 1: x_mev_per_u: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("top_k", [None, 1, 2, 3, 4, 5, 6, 28])
def test_match_exits_the_same_way_for_every_top_k(tmp_path, capsys, top_k):
    # at 1e308 the 45-degree ranking is finite but 26 of the 28 candidates
    # overflow at 90 degrees: --top-k 1 and 2 exited 0, 3 and above exited 2
    (record,) = json.loads(Path(CATALOG_576).read_text())
    top = () if top_k is None else ("--top-k", str(top_k))
    for x, code_expected in ((1e308, 2), (5e307, 0)):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{**record, "x_mev_per_u": x}]))
        code, out, err = run_cli(capsys, "match", "--catalog", str(path), *top)
        assert code == code_expected, (x, err)
        if code == 2:
            assert out == ""
            assert err.startswith("error: catalog entry 0: x_mev_per_u: ") and err.count("\n") == 1, err
        else:
            assert err == "" and len(out.splitlines()) == 2 + (top_k or 6)


def test_match_does_not_blame_the_beam_energy_for_a_supercritical_alpha0(tmp_path, capsys):
    # a level that leaves the real domain was reported as "catalog entry 0: x_mev_per_u: supercritical: ..."
    cfg = tmp_path / "constants.json"
    cfg.write_text(json.dumps({"alpha0": 0.05}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "match", "--catalog", CATALOG_576)
    assert code == 2
    assert out == ""
    assert err.startswith("error: supercritical: ") and "x_mev_per_u" not in err and err.count("\n") == 1, err


def test_reproduce_tables_that_fail_their_check_exit_3(tmp_path, capsys):
    # a mass inside the domain, far from the electron's: the full table and exit 1 with empty stderr
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m_e_keV": 1.3e154}))
    code, out, err = run_cli(capsys, "--config", str(path), "reproduce-tables")
    assert code == 3
    assert len(out.splitlines()) == 2 + 23 + 30
    assert re.fullmatch(r"check failed: [1-9]\d* headline rows out of tolerance\n", err), err


def test_algebra_check_that_fails_its_check_exits_3(monkeypatch, capsys):
    # no config breaks an identity, so one residual is made to fail
    from diracpair import algebra

    real = algebra.clifford_residuals
    monkeypatch.setattr(algebra, "clifford_residuals", lambda *a: {**real(*a), "beta_squared": 1e-3})
    code, out, err = run_cli(capsys, "--format", "json", "algebra-check", "--n-random", "2")
    assert code == 3
    doc = json.loads(out)["result"]
    assert doc["passed"] is False and doc["clifford_beta_squared"] == 1e-3
    assert err == "check failed: clifford_beta_squared residual at or above 1e-10\n"


def test_cli_checks_script_passes(tmp_path):
    # the workflow runs tests/cli_checks.sh through the installed console script
    script = Path(__file__).parent / "cli_checks.sh"
    cp = subprocess.run(["bash", str(script), f"{sys.executable} -m diracpair", str(tmp_path)], capture_output=True, text=True, env=child_env())
    assert cp.returncode == 0, cp.stdout + cp.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-308, -160, 156, 300, 308])
def test_algebra_check_rejects_a_mass_whose_energy_leaves_the_float_range(tmp_path, capsys, k):
    # p.p + m^2 overflows or underflows: each exited 0 or 1, most after numpy warnings
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m_e_keV": 10.0**k}))
    code, out, err = run_cli(capsys, "--config", str(path), "algebra-check", "--n-random", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: m_e_keV") and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alt", ["d1", "d2"])
@pytest.mark.parametrize("m", [1e-320, 1e-160, 1.4e154, 1e300])
def test_square_well_rejects_a_mass_whose_square_is_not_a_normal_float(tmp_path, capsys, m, alt):
    # m^2 overflows, underflows to 0, or is subnormal: each exited 0, with no
    # levels after numpy warnings or with levels from a mass short of bits.
    # The config file is at fault, so the message names no flag.
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m_e_keV": m}))
    code, out, err = run_cli(capsys, "--config", str(path), "scatter", f"--alt={alt}", "--well-depth=766.5", "--well-width=0.0039")
    assert code == 2
    assert out == ""
    assert err.startswith("error: m_e_keV") and "--" not in err and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [("scatter", "--alt", "d1", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "3"), ("levels", "--ion", "Pb")],
    ids=["step", "levels"],
)
@pytest.mark.parametrize("m", [5e-324, 1e-320, 2.2e-308])
def test_subnormal_mass_exits_2_naming_it(tmp_path, capsys, m, argv):
    # a step sweep printed klein_zone rows with T = 1 under m_e_keV 1e-320, with exit 0
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m_e_keV": m}))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: m_e_keV") and err.count("\n") == 1, err


# the README argv of each subcommand, with short sweeps
_EXAMPLES = [
    ("algebra-check", "--n-random", "3"),
    ("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "3"),
    ("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600", "--steps", "3"),
    ("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039"),
    ("levels", "--ion", "Pb"),
    ("transitions", "--ion", "Pb"),
    ("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "4", "--p0", "1022"),
    ("kinematics", "--deps", "818.8", "--branch", "+"),
    ("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"),
    ("match", "--catalog", CATALOG_576),
    ("reproduce-tables",),
    ("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "10", "--steps", "3"),
    ("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "3"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    _EXAMPLES,
    ids=["algebra-check", "step", "barrier", "well", "levels", "transitions", "zbw", "solve", "invert", "match", "reproduce-tables", "counting-time", "lineshape"],
)
@pytest.mark.parametrize("m", [1e155, 1e-160, 2.2e-308])
def test_mass_outside_the_domain_exits_2_naming_it_in_every_subcommand(tmp_path, capsys, m, argv):
    # m^2 overflows, is subnormal or underflows to 0.  Before, levels, match and
    # others exited 0 from such a mass, and zbw, kinematics and scatter sweeps
    # blamed their flags for it
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"m_e_keV": m}))
    code, out, err = run_cli(capsys, "--config", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: m_e_keV") and "--" not in err and err.count("\n") == 1, err


@pytest.mark.parametrize("tol", [10.0, 1e-300])
def test_algebra_check_names_a_numeric_tolerance_that_does_not_pin_c(tmp_path, capsys, tol):
    # the message gave only the solution space's dimension, 16 or 0
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"numeric_tolerance": tol}))
    code, out, err = run_cli(capsys, "--config", str(path), "algebra-check", "--n-random", "3")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: numeric_tolerance={tol!r}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("transitions", "--ion=--"), "--ion"),
        (("levels", "--ion", "Pb", "--shells=--"), "--shells"),
        (("scatter", "--alt=--", "--v0", "1533", "--emin", "520", "--emax", "5110"), "--alt"),
        (("scatter", "--alt", "d1", "--v0=--", "--emin", "520", "--emax", "5110"), "--v0"),
        (("match", "--catalog=--"), "--catalog"),
        (("algebra-check", "--n-random=--"), "--n-random"),
        # these two ran with the default output format or constants, exit 0
        (("--format=--", "levels", "--ion", "Pb"), "--format"),
        (("levels", "--ion", "Pb", "--config=--"), "--config"),
    ],
)
def test_flag_given_as_double_dash_exits_2_naming_it(capsys, argv, flag):
    # argparse reads "--flag=--" as an empty list, past the flag's type and choices
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} needs a value\n"


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


# --- CSV and JSON writer ----------------------------------------------------------
#
# _emit is handed columns and writes each body with one % over all rows; the
# per-row join it replaced, with a text cell that holds a comma, a quote or a
# line break quoted as in RFC 4180, is the CSV oracle, and the two must agree
# byte for byte.  Its JSON must equal json.dumps of the document with the rows
# as dicts.


def _row_oracle(row):
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if isinstance(cell, str) and any(c in cell for c in ',"\r\n') else _fmt(cell)
        for cell in row
    )


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


def _assert_same_text(got, expected):
    # the first differing line first: pytest's diff of two long texts that differ on every row runs for minutes
    first = next((pair for pair in zip(got.splitlines(), expected.splitlines()) if pair[0] != pair[1]), None)
    assert first is None, first
    assert got == expected


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
    # quotes, backslashes, control characters and non-ASCII text, which JSON escapes
    "str": st.text(alphabet='%,.-e0a"\\\x00\x1f\n\t\x7fé€\u2028\U0001f600', max_size=6),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())
# names whose sorted order, which JSON writes, differs from the order given
_NAMES = st.one_of(st.sampled_from(("T", "E_keV", "R", "classification", "level", "100%", "%s")), _CELLS["str"])


@st.composite
def _tables(draw):
    """Columns name -> cells: 1-4 columns, each of one cell kind, and 0-6 rows.

    A float column is a list or, as the numpy subcommands hand it over, a
    float64 ndarray.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    names = draw(st.lists(_NAMES, min_size=len(kinds), max_size=len(kinds), unique=True))
    n_rows = draw(st.integers(0, 6))
    columns = {}
    for name, kind in zip(names, kinds):
        cells = draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
        columns[name] = np.array(cells, dtype=np.float64) if kind == "float" and draw(st.booleans()) else cells
    return columns


@settings(max_examples=300, deadline=None)
@given(columns=_tables())
@example(columns={"c0": []})
@example(columns={"c0": [1.0]})
@example(columns={"c0": [True, False], "c1": [1.0, -0.0]})
@example(columns={"c0": [1.5, np.float64(2.5)], "c1": ["100%,", "%s%%"]})
@example(columns={"T": [0.5, 1.0], "E_keV": [520.0, 600.0], "R": [0.5, 0.0], "classification": ["klein_zone", "classical"]})
@example(columns={"x": [math.nan, math.inf, -math.inf], "y": [1.0, 2.0, 3.0]})
@example(columns={"zero": [-0.0, 0.0, -0.0]})
# finite cells whose sum overflows
@example(columns={"big": [1e308, 1e308]})
@example(columns={'a"\\\x01é': ['"\\\x1f\n', "\U0001f600€"]})
@example(columns={"spectrometer": ["EPOS, run 2\r\n", "sum"], "flags": ['a "b"', None]})
# a long text column whose two distinct values are each rendered once
@example(columns={"flags": ['no "root", 90 deg', "ok"] * 500, "E": np.linspace(520.0, 5110.0, 1000)})
@example(columns={"classification": ["klein_zone", "classical"] * 500})
# values that hash equal but render differently must not share a rendering
@example(columns={"c0": [True, 1, 1, True], "c1": [1, True, 0, False]})
@example(columns={"zero": [np.float64(-0.0), np.float64(0.0), np.float64(-0.0)]})
@example(columns={"E": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]), "c1": ["a"] * 6})
@example(columns={"E": np.array([]), "T": []})
def test_csv_body_matches_the_per_row_join(columns):
    rows = list(zip(*columns.values()))
    expected = _emitted({name: [] for name in columns}) + "".join(_row_oracle(row) + "\n" for row in rows)
    _assert_same_text(_emitted(columns), expected)
    _assert_same_text(_emitted(columns, "json"), _row_document(list(columns), rows))


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


# Every README example, and the modules of _WATCHED that it loads.
_WATCHED = (
    "numpy", "json", "diracpair.algebra", "diracpair.decaymodel", "diracpair.hydrogenic",
    "diracpair.kinematics", "diracpair.matcher", "diracpair.scatter1d", "diracpair.wavepacket",
)
_README_LOADS = (
    (("algebra-check", "--format", "json"), "numpy json diracpair.algebra"),
    (("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"), "numpy diracpair.scatter1d"),
    (("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600"), "numpy diracpair.scatter1d"),
    (("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039"), "numpy diracpair.scatter1d"),
    (("levels", "--ion", "Pb", "--shells", "K,L1,L2"), "json diracpair.hydrogenic"),
    (("transitions", "--ion", "Pb"), "json diracpair.hydrogenic"),
    (("zbw", "--dwidth", "0.002", "--tmax", "0.2", "--tsteps", "400", "--p0", "1022"), "numpy diracpair.wavepacket"),
    (("kinematics", "--deps", "818.8", "--x", "6", "--theta", "45", "--branch", "+", "--format", "json"), "json diracpair.kinematics"),
    (("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"), "diracpair.kinematics"),
    (("match", "--catalog", CATALOG_576, "--top-k", "6"), "json diracpair.hydrogenic diracpair.kinematics diracpair.matcher"),
    (("reproduce-tables",), "json diracpair.hydrogenic diracpair.kinematics diracpair.matcher"),
    (("counting-time", "--x0", "1", "--xmin", "0.1", "--xmax", "10", "--steps", "200"), "numpy diracpair.decaymodel"),
    (("lineshape", "--deps", "818.8", "--tmin", "800", "--tmax", "900", "--steps", "200"), "numpy diracpair.decaymodel"),
)


@pytest.mark.parametrize("argv, loads", _README_LOADS, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(_README_LOADS)])
def test_each_subcommand_loads_only_what_it_runs(argv, loads):
    code = f"""
import contextlib, io, sys
import diracpair.cli
loaded = lambda: " ".join(m for m in {_WATCHED!r} if m in sys.modules)
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = diracpair.cli.main({list(argv)!r})
print(loaded())
sys.exit(exit_code)
"""
    cp = run_fresh(code)
    assert cp.returncode == 0, cp.stderr
    after_import, after_run = cp.stdout.split("\n")[:2]
    assert after_import == "", "import diracpair.cli"
    assert set(after_run.split()) == set(loads.split())


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
# every finite float, subnormals and the largest included, drawn both ways
_ANY_FLOAT = st.one_of(_LOG_UNIFORM, st.floats(allow_nan=False, allow_infinity=False))


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


# solve mode needs a positive --x and --deps, invert mode a positive --target
# too: about one draw in four exits 0
@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(("solve", "invert")), branch=st.sampled_from(("+", "-")), fmt=st.sampled_from(("csv", "json")),
    deps=_ANY_FLOAT, x=_ANY_FLOAT, target=_ANY_FLOAT,
)
@example(mode="solve", branch="+", fmt="json", deps=818.8, x=6.0, target=0.0)
@example(mode="invert", branch="+", fmt="csv", deps=818.835, x=6.0, target=576.0)
# each once printed T_lab_keV = inf with exit 0: gamma_I deps overflows
@example(mode="solve", branch="+", fmt="csv", deps=1e100, x=1e290, target=0.0)
@example(mode="solve", branch="-", fmt="csv", deps=1e100, x=1e290, target=0.0)
# the --deps overflow cases of test_invalid_number_exits_2_with_message
@example(mode="solve", branch="+", fmt="csv", deps=1e300, x=6.0, target=0.0)
@example(mode="invert", branch="-", fmt="csv", deps=1e300, x=6.0, target=576.0)
# printed T_lab_keV = -8.157899124 with exit 0: below about 65.6 keV the "+"
# branch emits no pair at 45 degrees
@example(mode="solve", branch="+", fmt="csv", deps=50.0, x=6.0, target=0.0)
def test_kinematics_argv_exits_0_with_finite_output_or_2(mode, branch, fmt, deps, x, target):
    argv = ("kinematics", mode, f"--deps={deps!r}", f"--x={x!r}", f"--branch={branch}", f"--format={fmt}")
    argv += (f"--target={target!r}",) if mode == "invert" else ()
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv
        if mode == "solve":
            if fmt == "json":
                t_lab = json.loads(out)["result"]["T_lab_keV"]
            else:
                header, row = out.splitlines()[1:]
                t_lab = float(dict(zip(header.split(","), row.split(",")))["T_lab_keV"])
            assert t_lab >= 0.0, argv


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


# ions and shell labels: the known ones, near misses, and any short text
_ION = st.one_of(st.sampled_from(("U", "Pb", "Th", "Ta", "Cm", "Au", "pb", " Pb", "Xx", "")), st.text(max_size=3))
_SHELLS = st.lists(st.one_of(st.sampled_from(("K", "L1", "L2", "M", "Z", "L3", "k", " K ", "")), st.text(max_size=3)), max_size=4).map(",".join)


@settings(max_examples=100, deadline=None)
@given(ion=_ION, shells=_SHELLS, fmt=st.sampled_from(("csv", "json")))
@example(ion="Pb", shells="K,L1,L2", fmt="csv")
@example(ion="Cm", shells="K,K, Z ,M", fmt="json")
@example(ion="Pb", shells=" , ", fmt="csv")
# "--flag=--" once reached the handler as an empty list and exited 1
@example(ion="--", shells="K", fmt="csv")
@example(ion="Pb", shells="--", fmt="csv")
def test_levels_argv_exits_0_with_finite_output_or_2(ion, shells, fmt):
    _assert_finite_or_2(("levels", f"--ion={ion}", f"--shells={shells}", f"--format={fmt}"))


@settings(max_examples=100, deadline=None)
@given(ion=_ION, fmt=st.sampled_from(("csv", "json")))
@example(ion="Pb", fmt="csv")
@example(ion="--", fmt="csv")
def test_transitions_argv_exits_0_with_finite_output_or_2(ion, fmt):
    _assert_finite_or_2(("transitions", f"--ion={ion}", f"--format={fmt}"))


def _assert_finite_or_2_with_one_line(argv, prefix="error: --", label=None):
    """Exit 0 with finite output, or exit 2 with one stderr line that starts with ``prefix`` (by default, a flag).

    ``label``, when given, is free text that every CSV row echoes in its
    second cell (``"nan"`` is a valid spectrometer name): each row must carry
    it there, and the finiteness check reads every cell but that one.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), argv
    if code == 0:
        lines = out.getvalue().splitlines()
        if label is not None:
            # the comment lines, then the column names, then the rows
            first_row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
            for i in range(first_row, len(lines)):
                first, rest = lines[i].split(",", 1)
                assert rest.startswith(label + ","), (argv, lines[i])
                lines[i] = first + "," + rest[len(label) + 1 :]
        assert not re.search(r"\b(nan|inf|infinity)\b", "\n".join(lines), re.IGNORECASE), argv
    else:
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1, (argv, err.getvalue())


@settings(max_examples=50, deadline=None)
@given(n_random=st.integers(1, 5), seed=st.integers(), fmt=st.sampled_from(("csv", "json")))
@example(n_random=3, seed=0, fmt="csv")
# numpy's own message, "expected non-negative integer", named no flag
@example(n_random=1, seed=-1, fmt="csv")
@example(n_random=1, seed=2**200, fmt="json")
def test_algebra_check_argv_exits_0_with_finite_output_or_2(n_random, seed, fmt):
    _assert_finite_or_2_with_one_line(("algebra-check", f"--n-random={n_random}", f"--seed={seed}", f"--format={fmt}"))


@settings(max_examples=100, deadline=None)
@given(top_k=st.integers(), fmt=st.sampled_from(("csv", "json")))
@example(top_k=6, fmt="csv")
@example(top_k=0, fmt="csv")
@example(top_k=10**6 + 1, fmt="json")
def test_match_argv_exits_0_with_finite_output_or_2(top_k, fmt):
    _assert_finite_or_2_with_one_line(("match", "--catalog", CATALOG_576, f"--top-k={top_k}", f"--format={fmt}"))


# --- whole-domain input-file properties ---------------------------------------------
#
# Every catalog entry and every config object ends in exit 0 with finite
# output, or in exit 2 with a message.  Each is a valid object whose drawn
# fields take a JSON value of any kind.

_JSON_VALUE = st.one_of(
    # positive numbers, the one kind of value that can pass, get a branch of their own
    st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent),
    _LOG_UNIFORM,
    st.sampled_from(("nan", "1e999", "576", None, True)),
    # text that some catalog field accepts
    st.sampled_from(("U+Pb", "Pb+Pb", "U+Xx", "U", "Pb", "K", "L1", "+", "-", "sum", "")),
    st.lists(_LOG_UNIFORM, max_size=2),
    st.lists(st.sampled_from(("published_theta_inconsistent", "K")), max_size=2),
    st.dictionaries(st.just("x"), _LOG_UNIFORM, max_size=1),
)


def _overrides(*keys):
    """Some of ``keys``, each with a JSON value."""
    return st.dictionaries(st.sampled_from(keys), _JSON_VALUE)


def _assert_finite_or_2(argv):
    code, out = _quiet_call(argv)
    assert code in (0, 2), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), argv


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(
    observable=st.sampled_from(("pair_sum_kinetic", "positron_energy")),
    fields=_overrides(
        "observed_keV", "uncertainty_keV", "x_mev_per_u", "published_theory_at_45_keV", "published_theta_deg",
        "system", "ion", "upper", "lower", "branch", "flags", "spectrometer",
    ),
)
@example(observable="pair_sum_kinetic", fields={})
# the nulls of test_bad_input_file_field_exits_2_naming_it
@example(observable="pair_sum_kinetic", fields={"observed_keV": None})
@example(observable="positron_energy", fields={"x_mev_per_u": None})
@example(observable="pair_sum_kinetic", fields={"ion": "Pb", "upper": "K", "lower": "L1", "branch": "-", "flags": ["K"]})
# T_lab overflows: the message named no entry
@example(observable="pair_sum_kinetic", fields={"x_mev_per_u": 1.7e308})
# a spectrometer named "nan" is echoed as it is, and is no number
@example(observable="pair_sum_kinetic", fields={"spectrometer": "nan"})
def test_catalog_entry_exits_0_with_finite_output_or_2(input_dir, observable, fields):
    (record,) = json.loads(Path(CATALOG_576).read_text())
    entry = {**record, "observable": observable, **fields}
    path = input_dir / "catalog.json"
    path.write_text(json.dumps([entry]))
    argv = ("match", "--catalog", str(path), "--top-k", "2")
    _assert_finite_or_2_with_one_line(argv, prefix="error: catalog entry 0: ", label=entry.get("spectrometer", ""))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(config=_overrides("m_e_keV", "alpha0", "numeric_tolerance"), alt=st.sampled_from(("d1", "d2")))
@example(config={}, alt="d1")
# the masses of test_square_well_rejects_a_mass_whose_square_is_not_a_normal_float
@example(config={"m_e_keV": 1e-320}, alt="d1")
@example(config={"m_e_keV": 1e-160}, alt="d2")
@example(config={"m_e_keV": 1.4e154}, alt="d1")
@example(config={"m_e_keV": 1e300}, alt="d2")
def test_config_exits_0_with_finite_output_or_2(input_dir, config, alt):
    path = input_dir / "constants.json"
    path.write_text(json.dumps(config))
    for argv in (
        ("levels", "--ion", "Pb"),
        ("kinematics", "invert", "--deps", "818.835", "--branch", "+", "--target", "576"),
        ("scatter", f"--alt={alt}", "--well-depth=766.5", "--well-width=0.0039"),
    ):
        _assert_finite_or_2(("--config", str(path), *argv))
