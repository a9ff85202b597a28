import json
import subprocess
import sys

import pytest

from diracpair.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*args):
    # exercise python -m diracpair end to end
    cmd = [sys.executable, "-m", "diracpair", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


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
    ],
)
def test_invalid_number_exits_2_with_message(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


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
