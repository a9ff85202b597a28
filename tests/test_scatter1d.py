import math

import numpy as np
import pytest

from diracpair import scatter1d as sc
from diracpair.core import Alternative, DEFAULT_CONSTANTS, ROOT_TOLERANCE, bisect_root

M = DEFAULT_CONSTANTS.electron_rest_energy
D1, D2 = Alternative.D1, Alternative.D2


# --- dispersion ---------------------------------------------------------------


def test_dispersion_d1_klein_zone_mode():
    mode = sc.dispersion(D1, 3 * M, 1.5 * M)
    assert mode.regime == sc.PROPAGATING
    assert mode.k == pytest.approx(M * math.sqrt(1.25), rel=1e-14)


def test_dispersion_d2_forbidden_window():
    assert sc.dispersion(D2, 3 * M, 1.5 * M).regime == sc.FORBIDDEN
    # no possible current anywhere inside |E| <= V0
    for e in np.linspace(-2.9 * M, 2.9 * M, 17):
        if e == 0.0:
            continue
        assert sc.dispersion(D2, 3 * M, float(e)).regime == sc.FORBIDDEN


def test_dispersion_free_case():
    mode = sc.dispersion(D2, 0.0, 2.0 * M)
    assert mode.regime == sc.PROPAGATING
    assert mode.k == pytest.approx(M * math.sqrt(3.0), rel=1e-14)
    # boundary E = m is the kappa -> 0 edge of the evanescent window
    just_inside = sc.dispersion(D2, 0.0, M * (1 - 1e-9))
    assert just_inside.regime == sc.EVANESCENT
    assert just_inside.k < 1e-3 * M


def test_dispersion_regime_invariants():
    rng = np.random.default_rng(11)
    for _ in range(300):
        v0 = float(rng.uniform(0.0, 4.0)) * M
        e = float(rng.uniform(-6.0, 6.0)) * M
        for alt in (D1, D2):
            mode = sc.dispersion(alt, v0, e)
            if mode.regime == sc.PROPAGATING:
                eps = e - v0 if alt is D1 else math.copysign(abs(e) - v0, e)
                assert mode.k**2 == pytest.approx(eps * eps - M * M, rel=1e-12)
                if alt is D2:
                    assert abs(e) > v0 + M
            elif mode.regime == sc.EVANESCENT:
                eps = e - v0 if alt is D1 else math.copysign(abs(e) - v0, e)
                assert mode.k**2 == pytest.approx(M * M - eps * eps, rel=1e-12)
                assert 0.0 < mode.k < M
            else:
                assert alt is D2 and abs(e) <= v0


def test_propagating_spinor_ratio():
    # upper-branch ratio k/(m + sqrt(m^2 + k^2)) for the rightward mode
    for v0, e in ((0.0, 1.7 * M), (0.4 * M, 2.1 * M)):
        mode = sc.dispersion(D1, v0, e)
        k = mode.k
        assert mode.spinor_ratio == pytest.approx(k / (M + math.sqrt(M * M + k * k)), rel=1e-12)


def test_evanescent_spinor_ratio_is_imaginary():
    mode = sc.dispersion(D2, 3 * M, 3.5 * M)
    assert mode.regime == sc.EVANESCENT
    kappa = mode.k
    expect = 1j * kappa / (M + math.sqrt(M * M - kappa * kappa))
    assert mode.spinor_ratio == pytest.approx(expect, rel=1e-12)


def test_d2_interacting_spectrum_symmetric_pairs():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = float(rng.uniform(0.1, 3.0)) * M
        v0 = float(rng.uniform(0.0, 3.0)) * M
        e_plus = v0 + math.sqrt(M * M + k * k)
        e_minus = -e_plus
        for e in (e_plus, e_minus):
            mode = sc.dispersion(D2, v0, e)
            assert mode.regime == sc.PROPAGATING
            assert mode.k == pytest.approx(k, rel=1e-12)


# --- step transmission --------------------------------------------------------


def test_step_no_potential_is_transparent():
    for alt in (D1, D2):
        for e in (1.1 * M, 2.0 * M, 7.0 * M):
            res = sc.step_transmission(alt, 0.0, e)
            assert res.T == pytest.approx(1.0, abs=1e-12)


def test_free_space_below_minus_m_is_classical():
    # the propagating eps < 0 of E < -m is E's own branch, not the Klein zone
    for alt in (D1, D2):
        res = sc.step_transmission(alt, 0.0, -2.0 * M)
        assert res.classification == sc.CLASSICAL
        assert res.T == pytest.approx(1.0, abs=1e-12)


def test_step_requires_incident_mode():
    with pytest.raises(ValueError):
        sc.step_transmission(D1, 2 * M, 0.5 * M)


def test_barrier_requires_incident_mode():
    prof = sc.PotentialProfile.barrier(2 * M, 1.0 / M)
    with pytest.raises(ValueError):
        sc.barrier_transmission(D1, prof, 0.5 * M)  # gap energy on the free side


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transmission_fails_closed_on_overflow():
    # E - V0 and a barrier phase p * width beyond the float range gave T = R = nan
    with pytest.raises(ValueError, match="not finite"):
        sc.step_transmission(D1, -1e308, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        sc.barrier_transmission(D1, sc.PotentialProfile.barrier(1.0, 1e130), np.array([2.0 * M, 1e247]))


def test_d2_step_zero_inside_window():
    for e in np.linspace(1.001 * M, 4.0 * M, 40):
        res = sc.step_transmission(D2, 3 * M, float(e))
        assert res.T == 0.0
        assert res.R == 1.0


def test_d1_klein_zone_value_is_five_ninths():
    # exact analytic value at V0 = 3m, E = 1.5m where both wavenumbers coincide
    res = sc.step_transmission(D1, 3 * M, 1.5 * M)
    assert res.classification == sc.KLEIN_ZONE
    assert res.T == pytest.approx(5.0 / 9.0, rel=1e-12)


def test_d1_matches_d2_above_the_step_edge():
    for e in (4.2 * M, 5.0 * M, 10.0 * M, 50.0 * M):
        t1 = sc.step_transmission(D1, 3 * M, float(e)).T
        t2 = sc.step_transmission(D2, 3 * M, float(e)).T
        assert abs(t1 - t2) < 1e-12


def test_step_transmission_approaches_one():
    t_prev = 0.0
    for e in (5.0 * M, 10.0 * M, 20.0 * M, 50.0 * M):
        t = sc.step_transmission(D2, 3 * M, float(e)).T
        assert t > t_prev
        t_prev = t
    assert t_prev > 0.99


def test_fig1_shape_d1_step():
    # V0 = 3m: nonzero hump on (m, 2m), exact zero on (2m, 4m), rise above 4m
    hump = [sc.step_transmission(D1, 3 * M, float(e)).T for e in np.linspace(1.05 * M, 1.95 * M, 25)]
    assert max(hump) > 0.3
    assert all(t > 0.0 for t in hump)
    for e in np.linspace(2.05 * M, 3.95 * M, 25):
        assert sc.step_transmission(D1, 3 * M, float(e)).T == 0.0
    above = [sc.step_transmission(D1, 3 * M, float(e)).T for e in np.linspace(4.05 * M, 9.0 * M, 25)]
    assert all(b > a for a, b in zip(above, above[1:]))


# --- barrier / transfer matrix ------------------------------------------------


def test_single_edge_profile_equals_step():
    prof = sc.PotentialProfile.step(2.4 * M)
    for alt in (D1, D2):
        for e in (1.3 * M, 3.6 * M, 5.2 * M):
            a = sc.step_transmission(alt, 2.4 * M, float(e))
            b = sc.barrier_transmission(alt, prof, float(e))
            assert b.T == pytest.approx(a.T, abs=1e-12)
            assert b.R == pytest.approx(a.R, abs=1e-12)
            assert b.classification == a.classification


def test_transfer_matrix_flux_conservation():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v0 = float(rng.uniform(0.2, 4.0)) * M
        width = float(rng.uniform(0.2, 3.0)) / M
        prof = sc.PotentialProfile.barrier(v0, width)
        for alt in (D1, D2):
            if alt is D2:
                e = v0 + M * float(rng.uniform(1.01, 4.0))
            else:
                e = M * float(rng.uniform(1.01, 8.0))
            res = sc.barrier_transmission(alt, prof, e)
            assert res.R + res.T == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= res.T <= 1.0 + 1e-12


def test_evanescent_barrier_decays_with_width():
    v0, e = 0.5 * M, 1.2 * M
    kappa = sc.dispersion(D1, v0, e).k
    widths = np.array([2.0, 3.0, 4.0, 5.0]) / M
    ts = np.array([sc.barrier_transmission(D1, sc.PotentialProfile.barrier(v0, float(w)), e).T for w in widths])
    assert np.all(np.diff(ts) < 0.0)
    # asymptotic decay rate exp(-2 kappa w): check the log-slope on the wide side
    rate = (np.log(ts[-2]) - np.log(ts[-1])) / (widths[-1] - widths[-2])
    assert rate == pytest.approx(2.0 * kappa, rel=0.02)
    assert ts[-1] < 1e-2


def test_d2_forbidden_barrier_blocks_any_width():
    for w in (0.5 / M, 2.0 / M, 10.0 / M):
        res = sc.barrier_transmission(D2, sc.PotentialProfile.barrier(3 * M, float(w)), 1.5 * M)
        assert res.T == 0.0
        assert res.R == 1.0
        assert res.classification == sc.GAP_BLOCKED


def test_d2_evanescent_window_tunnels_through_barrier():
    # V0 < E < V0 + m: evanescent interior carries tunneling current under D2
    v0 = 0.8 * M
    e = 1.5 * M  # inside (V0, V0 + m)
    res = sc.barrier_transmission(D2, sc.PotentialProfile.barrier(v0, 1.0 / M), e)
    assert res.classification == sc.EVANESCENT_TUNNELING
    assert 0.0 < res.T < 1.0
    assert res.R + res.T == pytest.approx(1.0, abs=1e-9)


def test_d1_klein_barrier_flux():
    prof = sc.PotentialProfile.barrier(3 * M, 1.7 / M)
    res = sc.barrier_transmission(D1, prof, 1.5 * M)
    assert res.classification == sc.KLEIN_ZONE
    assert res.R + res.T == pytest.approx(1.0, abs=1e-9)
    assert res.T > 0.0


def test_double_barrier_resonance():
    # two identical sub-gap barriers develop a sharp transmission resonance
    # that a single barrier of the same total width cannot reach
    v0, w, gap = 0.6 * M, 0.8 / M, 1.2 / M
    prof = sc.PotentialProfile(edges=(0.0, w, w + gap, 2 * w + gap), values=(0.0, v0, 0.0, v0, 0.0))
    results = [sc.barrier_transmission(D1, prof, float(e)) for e in np.linspace(1.01 * M, 1.55 * M, 300)]
    assert max(abs(r.T + r.R - 1.0) for r in results) < 1e-9
    single = sc.barrier_transmission(D1, sc.PotentialProfile.barrier(v0, 2 * w), 1.3 * M).T
    assert max(r.T for r in results) > 0.999 > 2 * single


def test_profile_validation():
    with pytest.raises(ValueError):
        sc.PotentialProfile(edges=(1.0, 0.5), values=(0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        sc.PotentialProfile(edges=(0.0,), values=(0.0,))


# --- bound states ---------------------------------------------------------------


def test_no_bound_states_for_vanishing_depth():
    assert sc.square_well_bound_states(D1, 0.0, 2.0 / M) == []
    # a well too shallow to pull a level measurably off the gap edge
    assert sc.square_well_bound_states(D1, 1e-4 * M, 2.0 / M) == []


def test_d1_lowest_level_dives_through_zero():
    depths = np.linspace(0.3, 2.2, 12) * M
    lowest = []
    for d in depths:
        levels = sc.square_well_bound_states(D1, float(d), 2.0 / M)
        assert levels, f"no bound state at depth {d / M} m"
        lowest.append(levels[0])
    assert all(b < a for a, b in zip(lowest, lowest[1:]))  # strictly decreasing
    assert lowest[0] > 0.0
    assert lowest[-1] < 0.0  # pulled below zero, heading for the lower gap edge


def test_d2_positive_branch_levels_stay_positive():
    for d in np.linspace(0.3, 2.2, 12) * M:
        for level in sc.square_well_bound_states(D2, float(d), 2.0 / M):
            assert 0.0 < level < M


def test_d1_d2_bound_levels_agree_on_positive_part():
    # the positive-energy problem is identical in both couplings
    for d in (0.7 * M, 1.4 * M, 2.0 * M):
        d1 = [x for x in sc.square_well_bound_states(D1, float(d), 2.0 / M) if x > 0.0]
        d2 = sc.square_well_bound_states(D2, float(d), 2.0 / M)
        assert len(d1) == len(d2)
        for a, b in zip(d1, d2):
            assert a == pytest.approx(b, abs=1e-6 * M)


def test_bound_state_wavefunction_matches_at_edges():
    # carry the left decaying solution across the well with the exponential of
    # the real-form generator (phi1' = -a phi2, phi2' = b phi1) and verify the
    # right-edge matching residual is at the root-finding tolerance
    depth, width = 1.5 * M, 2.0 / M
    levels = sc.square_well_bound_states(D1, depth, width)
    assert levels
    for e in levels:
        kappa = math.sqrt(M * M - e * e)
        mu_l = -kappa / (e + M)
        mu_r = kappa / (e + M)
        generator = np.array([[0.0, -(e + depth + M)], [e + depth - M, 0.0]]) * width
        w, v = np.linalg.eig(generator)
        transfer = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
        phi_w = transfer @ np.array([1.0, mu_l])
        residual = abs(phi_w[1] - mu_r * phi_w[0]) / (abs(phi_w[0]) + abs(phi_w[1]))
        assert residual < 1e-6


def test_level_just_inside_the_window_end_is_found():
    # the ninth level lies between the window end m(1 - 1e-6) and the edge
    # margin below it; a dense scan of the window, ends included, puts it at
    # 510.99843851 keV
    levels = sc.square_well_bound_states(D2, 428.324, 0.0318909)
    assert len(levels) == 9
    assert levels[-1] == pytest.approx(510.99843851, abs=1e-6)


def test_wide_well_scan_brackets_every_level():
    # the levels crowd toward the regime boundary E = m - depth, where k rises
    # like a square root: a 2000-point scan uniform in E found 533 of these
    # 4,527.  Oracle: the level condition on a grid uniform in k, 64 points
    # per pi of k * width; every level must sit in its own bracket.
    depth, width = 1000.0, 10.0
    levels = np.array(sc.square_well_bound_states(D1, depth, width))

    def secular(e):
        a, b = e + depth + M, e + depth - M
        k = np.sqrt(a * b)
        c, s = np.cos(k * width), np.sin(k * width) / k
        mu = np.sqrt(M * M - e * e) / (e + M)
        phi1, phi2 = c + a * mu * s, b * s - mu * c  # carried from (1, -mu) at the left edge
        return phi2 - mu * phi1

    hi = M * (1.0 - 1e-6)
    k_max = math.sqrt((hi + depth + M) * (hi + depth - M))
    k = np.linspace(k_max * 1e-6, k_max, int(64 * k_max * width / math.pi))
    grid = np.sqrt(k * k + M * M) - depth
    f = secular(grid)
    brackets = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)[0]
    assert len(brackets) == 4527
    assert np.array_equal(np.searchsorted(grid, levels) - 1, brackets)
    # the batched bisection closed each bracket to the root tolerance
    xtol = ROOT_TOLERANCE * M
    assert (np.sign(secular(levels - xtol)) * np.sign(secular(levels + xtol)) < 0.0).all()


def _levels_and_scans(monkeypatch, alt, depth, width, secular):
    """Levels of the well with ``secular`` as its level condition, and every scan grid it evaluated."""
    scans = []

    def spy(e, *args):
        if e.size >= 2000:  # the scan of a segment; no batch of these wells has that many brackets
            scans.append((e, args))
        return secular(e, *args)

    monkeypatch.setattr(sc, "_well_secular", spy)
    return sc.square_well_bound_states(alt, depth, width), scans


def _bisect_root_levels(scans, secular):
    """Oracle: core.bisect_root on every sign change of every scan, one bracket at a time."""
    xtol, levels = ROOT_TOLERANCE * M, []
    for grid, args in scans:
        f = secular(grid, *args)
        for i in np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]:
            g = lambda x: float(secular(np.array([x]), *args)[0])
            levels.append(bisect_root(g, float(grid[i]), float(grid[i + 1]), xtol, fa=float(f[i]), fb=float(f[i + 1])))
    return sorted(levels)


@pytest.mark.parametrize(
    ("alt", "depth", "width"),
    [
        (D1, 766.5, 0.0039),  # the README well
        (D2, 400.0, 0.035),
        (D2, 1000.0, 10.0),  # 1,791 levels from a scan split by phase
        (D1, 3500.0, 0.004),  # D1 levels below zero
        (D1, 0.001, 10.0),  # both brackets start narrower than the tolerance: no step at all
    ],
)
def test_levels_are_bisect_root_on_the_scan_brackets_bit_for_bit(monkeypatch, alt, depth, width):
    # one bisection batched over all brackets must take core.bisect_root's steps
    secular = sc._well_secular
    levels, scans = _levels_and_scans(monkeypatch, alt, depth, width, secular)
    assert levels
    assert levels == _bisect_root_levels(scans, secular)


def test_batched_bisection_stops_on_an_exact_zero(monkeypatch):
    # a linear level condition whose root is the midpoint of a scan cell: the
    # first step lands on it, as core.bisect_root's does
    _, ((grid, _),) = _levels_and_scans(monkeypatch, D2, 1000.0, 1e-3, sc._well_secular)
    root = 0.5 * (grid[700] + grid[701])
    line = lambda e, *args: e - root
    levels, scans = _levels_and_scans(monkeypatch, D2, 1000.0, 1e-3, line)
    assert levels == [root] == _bisect_root_levels(scans, line)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize(("depth", "width"), [(1e300, 1e300), (1.0, 1e300), (1e200, 1e-300), (1e3, 1e4)])
def test_square_well_fails_closed_on_a_scan_too_large(depth, width):
    # k * width overflows (k = inf where (E + depth)^2 does), or the scan
    # would pass 10^6 points; the first printed no levels with exit 0
    with pytest.raises(ValueError, match="too deep or too wide"):
        sc.square_well_bound_states(D1, depth, width)


def test_profile_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="finite"):
        sc.PotentialProfile(edges=(0.0, 1.0 / M), values=(0.0, math.nan, 0.0))
    with pytest.raises(ValueError, match="finite"):
        sc.PotentialProfile(edges=(0.0, math.inf), values=(0.0, M, 0.0))
    with pytest.raises(ValueError):
        sc.PotentialProfile.barrier(M, math.nan)
