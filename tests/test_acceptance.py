"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else.  For the experiment-table
regressions, rows whose published cells are internally contradictory carry
machine-checked exclusion flags in the bundled catalogs (each flag's note
documents the quantitative proof); the suite verifies both that every
unflagged row reproduces within tolerance and that every flagged row still
exhibits its documented inconsistency.
"""

import math

import numpy as np
import pytest

from diracpair import algebra, decaymodel, hydrogenic, kinematics, matcher, scatter1d, wavepacket
from diracpair.core import Alternative, DEFAULT_CONSTANTS, bisect_root, energy_of_momentum
from oracles import defining_residual, evolve, gaussian_packet

M = DEFAULT_CONSTANTS.electron_rest_energy
D1, D2 = Alternative.D1, Alternative.D2


def _ok(label: str, detail: str = "") -> None:
    print(f"[{label}] PASS {detail}".rstrip())


def test_criterion_01_hydrogenic_levels():
    pb = hydrogenic.get_ion("Pb")
    expected = {"K": 409.4, "L1": 484.9, "L2": 487.6}
    for label, value in expected.items():
        got = hydrogenic.level_energy(pb, hydrogenic.Shell.from_label(label))
        assert abs(got - value) <= 0.1, (label, got)
    _ok("criterion 1", "Pb K/L1/L2 levels within 0.1 keV")


def test_criterion_02_pb_transition_table():
    pb = hydrogenic.get_ion("Pb")
    five = {("K", "K"), ("K", "L1"), ("K", "L2"), ("L1", "L1"), ("L2", "L2")}
    rows = [r for r in hydrogenic.transition_table(pb) if (r.upper.label, r.lower.label) in five]
    expected = [818.8, 894.3, 897.0, 969.8, 975.2]
    assert len(rows) == 5
    for row, value in zip(rows, expected):
        assert abs(row.delta_eps - value) <= 0.2, (row.name, row.delta_eps)
    _ok("criterion 2", "five Pb pair transitions within 0.2 keV, ascending")


def _assert_table(reports, table: str):
    rows = [r for r in reports if r.as_row()["table"] == table]
    assert rows
    for rep in rows:
        if rep.theory_headline:
            assert rep.theory_ok, (rep.record.system_name, rep.record.observed, rep.computed_theory_at_45, rep.record.published_theory_at_45)
        elif "published_theory_inconsistent" in rep.record.flags:
            assert not rep.theory_ok  # the documented defect must still be real
        if rep.theta_headline:
            assert rep.theta_ok, (rep.record.system_name, rep.record.observed, rep.computed_theta_deg, rep.record.published_theta_deg)
        elif "published_theta_inconsistent" in rep.record.flags:
            assert not rep.theta_ok
    n_theory = sum(r.theory_headline for r in rows)
    n_theta = sum(r.theta_headline for r in rows)
    return rows, n_theory, n_theta


@pytest.fixture(scope="module")
def reports():
    return matcher.reproduce_tables()


def test_criterion_03_table1_regression(reports):
    rows, n_theory, n_theta = _assert_table(reports, "1")
    by = {
        (r.record.ion.symbol, r.record.upper.label, r.record.lower.label, r.record.branch, r.record.observed): r
        for r in rows
    }
    # named exemplar theory values (0.5%)
    for key, value in (
        (("U", "K", "K", "+", 576), 521.4),
        (("Pb", "K", "K", "+", 576), 571.0),
        (("Pb", "K", "L1", "-", 680), 677.6),
        (("Th", "M", "M", "-", 760), 763.3),
        (("Pb", "Z", "Z", "-", 787), 784.5),
    ):
        assert abs(by[key].computed_theory_at_45 - value) / value <= 0.005
    # named exemplar angles (0.5 deg); 44.6 and 69.2 belong to rows whose
    # published angle cells are provably inconsistent with their own rows
    # (see the catalog notes) and are asserted inconsistent above
    assert abs(by[("Pb", "K", "K", "+", 576)].computed_theta_deg - 46.4) <= 0.5
    assert abs(by[("U", "K", "K", "+", 576)].computed_theta_deg - 56.0) <= 0.5
    _ok("criterion 3", f"table 1: {n_theory} theory and {n_theta} angle cells reproduced")


def test_criterion_04_table2_regression(reports):
    rows, n_theory, n_theta = _assert_table(reports, "2")
    by = {
        (r.record.system_name, r.record.ion.symbol, r.record.upper.label, r.record.lower.label, r.record.branch): r
        for r in rows
    }
    for key, value, angle in (
        (("U+U", "U", "K", "K", "-"), 281.7, 46.1),
        (("U+Ta", "Ta", "K", "K", "+"), 304.2, 44.3),
        (("U+Au", "U", "K", "K", "+"), 260.7, 45.5),
    ):
        rep = by[key]
        assert abs(rep.computed_theory_at_45 - value) / value <= 0.005
        assert abs(rep.computed_theta_deg - angle) <= 0.5
    _ok("criterion 4", f"table 2: {n_theory} theory and {n_theta} angle cells reproduced")


def test_criterion_05_scattering():
    # (a) unitarity across 1000 random propagating configurations, both couplings
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        v0 = float(rng.uniform(0.2, 4.0)) * M
        width = float(rng.uniform(0.2, 2.5)) / M
        alt = D1 if rng.integers(2) else D2
        if alt is D2 or rng.integers(2) or v0 <= 2.0 * M:
            e = v0 + M * float(rng.uniform(1.01, 4.0))
        else:
            e = M * float(rng.uniform(1.01, (v0 - M) / M))  # Klein zone (D1 only)
        profile = (
            scatter1d.PotentialProfile(edges=(0.0,), values=(0.0, v0))
            if rng.integers(2)
            else scatter1d.PotentialProfile.barrier(v0, width)
        )
        res = scatter1d.barrier_transmission(alt, profile, e)
        assert abs(res.R + res.T - 1.0) < 1e-9, (alt, v0 / M, e / M)
        checked += 1
    # (b) the D2 step carries no current anywhere in (m, V0 + m]
    v0 = 3.0 * M
    for e in np.linspace(1.0001 * M, 4.0 * M, 200):
        assert scatter1d.step_transmission(D2, v0, float(e)).T == 0.0
    # (c) the D1 step turns transparent below the gap and opens fully at high energy
    hump = max(scatter1d.step_transmission(D1, v0, float(e)).T for e in np.linspace(1.05 * M, 1.95 * M, 50))
    assert hump > 0.0
    assert abs(scatter1d.step_transmission(D1, v0, 50.0 * M).T - 1.0) < 0.01
    # (d) both couplings coincide above the step edge
    for e in np.linspace(4.05 * M, 60.0 * M, 50):
        t1 = scatter1d.step_transmission(D1, v0, float(e)).T
        t2 = scatter1d.step_transmission(D2, v0, float(e)).T
        assert abs(t1 - t2) < 1e-12
    _ok("criterion 5", "unitarity 1e-9, D2 window closed, D1 hump + high-energy limit, D1=D2 above edge")


def test_criterion_06_bound_state_sweep():
    width = 2.0 / M
    depths = np.linspace(0.3, 2.2, 12) * M
    lowest = []
    for depth in depths:
        d1_levels = scatter1d.square_well_bound_states(D1, float(depth), width)
        assert d1_levels
        lowest.append(d1_levels[0])
        for level in scatter1d.square_well_bound_states(D2, float(depth), width):
            assert 0.0 < level < M
    assert all(b < a for a, b in zip(lowest, lowest[1:]))
    assert lowest[0] > 0.0 and lowest[-1] < 0.0
    _ok("criterion 6", "D1 lowest level dives through zero; D2 positive branch stays in (0, m)")


def test_criterion_07_algebra_identities():
    tol = 1e-10
    rng = np.random.default_rng(7)
    mats = algebra.build_matrices()
    worst = max(algebra.clifford_residuals(mats.alpha, mats.beta).values())
    conj = algebra.find_conjugation_matrix(mats)
    cinv = np.linalg.inv(conj)
    worst = max(worst, float(np.max(np.abs(conj @ conj.conj().T - np.eye(4)))))
    for a in mats.alpha:
        worst = max(worst, float(np.max(np.abs(conj @ a.conj() @ cinv - a))))
    worst = max(worst, float(np.max(np.abs(conj @ mats.beta.conj() @ cinv + mats.beta))))
    for _ in range(100):
        p = rng.uniform(-4.0, 4.0, size=3) * M
        A, Phi = rng.uniform(-2.0, 2.0, size=3) * M, float(rng.uniform(-2.0, 2.0) * M)
        b_plus, b_minus = algebra.casimir_projectors(p)
        worst = max(worst, float(np.max(np.abs(b_plus @ b_plus - b_plus))))
        worst = max(worst, float(np.max(np.abs(b_plus + b_minus - np.eye(4)))))
        h = algebra.free_hamiltonian(mats, p)
        e = float(np.sqrt(p @ p + M * M))
        worst = max(worst, float(np.max(np.abs((b_plus - b_minus) - h / e))))
        for axis in range(3):
            worst = max(worst, algebra.charge_current_identity(p, axis))
        worst = max(worst, max(algebra.transformation_checks(p, A, Phi).values()))
        worst = max(worst, max(algebra.appendix_identities(p, A, Phi).values()))
    assert worst < tol
    _ok("criterion 7", f"all operator identities, max residual {worst:.2e}")


def test_criterion_08_wave_packet():
    # positive-only packet: current constant over t in [0, 100/m]
    pos = gaussian_packet(3.0 / M, wavepacket.default_grid(3.0 / M), center=0.7 * M, d_scale=0.0)
    currents = wavepacket.probability_current(pos, 5.0 / M, 21)
    assert np.max(np.abs(currents - currents[0])) < 1e-9
    # mixed packet: interference line within 1% of 2 E at the spectral peak
    mixed = wavepacket.gaussian_amplitudes(6.0 / M, center=2.0 * M)
    qstar = float(mixed.p_grid[np.argmax(np.abs(wavepacket.zitterbewegung_weight(mixed)))])
    omega_expected = 2.0 * float(energy_of_momentum(qstar))
    dt, n = 0.05 / M, 4096
    sig = wavepacket.probability_current(mixed, dt, n)
    sig -= sig.mean()
    spectrum = np.abs(np.fft.rfft(sig * np.hanning(n), n=16 * n))
    peak = float((np.fft.rfftfreq(16 * n, dt) * 2.0 * math.pi)[int(np.argmax(spectrum))])
    assert abs(peak - omega_expected) / omega_expected < 0.01
    # charge current: time-independent by contract; after free evolution the
    # phases drop out of the branch weights up to float rounding
    j_charge = wavepacket.charge_current(mixed)
    assert wavepacket.charge_current(evolve(mixed, 1000.0 / M)) == pytest.approx(j_charge, rel=1e-12)
    # amplitude ratio at p = m, on a grid with m on a node, of the reference
    # packet that is the program's on its default grid
    ref = gaussian_packet(1.0 / M, wavepacket.default_grid(1.0 / M))
    prog = wavepacket.gaussian_amplitudes(1.0 / M)
    assert np.allclose([ref.b, ref.dstar], [prog.b, prog.dstar], rtol=1e-15, atol=1e-300)
    pk = gaussian_packet(1.0 / M, np.linspace(-8 * M, 8 * M, 4097))
    i = int(np.argmin(np.abs(pk.p_grid - M)))
    ratio = (pk.dstar[i] / pk.b[i]).real
    assert abs(ratio - 1.0 / (1.0 + math.sqrt(2.0))) < 1e-12
    _ok("criterion 8", f"currents and interference line verified (peak at {peak / M:.4f} m)")


def test_criterion_09_kinematics():
    rng = np.random.default_rng(9)
    boost = kinematics.boost_from_beam_energy(6.0)
    worst = 0.0
    for _ in range(1000):
        deps = float(rng.uniform(100.0, 1900.0))
        r = float(rng.uniform(0.0, 0.4))
        gp, gm = (1.0 + excess for excess in kinematics._gamma_excess(deps, r, DEFAULT_CONSTANTS))
        for g, branch in ((gp, "+"), (gm, "-")):
            worst = max(worst, abs(defining_residual(g, deps, r, branch)))
            f = lambda x: defining_residual(x, deps, r, branch)
            oracle = bisect_root(f, max(1.0, g - 0.25), g + 0.25, 1e-12)
            worst = max(worst, abs(oracle - g))
    assert worst < 1e-9
    for theta_deg in np.linspace(5.0, 85.0, 9):
        for branch in ("+", "-"):
            deps = float(rng.uniform(100.0, 1900.0))
            target = kinematics.lab_pair_energy(boost, deps, math.radians(float(theta_deg)), branch).t_lab
            solved = kinematics.solve_theta(boost, deps, branch, target)
            assert solved is not None and abs(math.degrees(solved) - theta_deg) < 1e-3
    _ok("criterion 9", f"branch roots vs bisection oracle ({worst:.1e}) and angle round trips")


def test_criterion_10_decay_model():
    rng = np.random.default_rng(10)
    for _ in range(5):
        x0 = float(rng.uniform(0.1, 10.0))
        x_min, tau_min = decaymodel.optimal_current(x0)
        xs = np.linspace(1e-3, 20.0 * x0, 100000)
        taus = (x0 + xs) ** 2 / xs
        assert abs(float(xs[np.argmin(taus)]) - x_min) <= float(xs[1] - xs[0])
        assert tau_min == pytest.approx(4.0 * x0, rel=1e-15)
        for _ in range(20):
            r = float(rng.uniform(0.05, 20.0))
            a = decaymodel.counting_time(x0 * r, x0)
            b = decaymodel.counting_time(x0 / r, x0)
            assert abs(a - b) / a < 1e-12
        xs_hi = np.linspace(1.05 * x0, 8.0 * x0, 40)
        meta = [decaymodel.counting_time(float(x), x0) for x in xs_hi]
        base = [decaymodel.counting_time(float(x), x0, "baseline") for x in xs_hi]
        assert all(b > a for a, b in zip(meta, meta[1:]))
        assert all(b < a for a, b in zip(base, base[1:]))
    _ok("criterion 10", "counting-time minimum, symmetry, and crossover")
