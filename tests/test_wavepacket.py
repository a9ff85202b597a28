import math

import numpy as np
import pytest

from diracpair import wavepacket as wp
from diracpair.core import DEFAULT_CONSTANTS, energy_of_momentum

M = DEFAULT_CONSTANTS.electron_rest_energy

# grid with +-m exactly on a node (span 8m, 4097 points -> spacing m/256)
GRID_WITH_M = np.linspace(-8 * M, 8 * M, 4097)


def test_amplitude_ratio_at_p_equals_m():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), grid=GRID_WITH_M)
    i = int(np.argmin(np.abs(pk.p_grid - M)))
    assert pk.p_grid[i] == pytest.approx(M, rel=1e-14)
    ratio = (pk.dstar[i] / pk.b[i]).real
    assert ratio == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), abs=1e-12)


def test_amplitude_vanishes_at_zero_momentum():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), grid=GRID_WITH_M)
    i = int(np.argmin(np.abs(pk.p_grid)))
    assert pk.p_grid[i] == 0.0
    assert pk.dstar[i] == 0.0


def test_packet_is_normalized():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=2.0 / M))
    assert pk.density_sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_narrow_rejection():
    with pytest.raises(ValueError):
        wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), grid=np.linspace(-4 * M, 4 * M, 512))
    # wide enough span but the packet hangs off the edge
    with pytest.raises(ValueError):
        wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), center=7.5 * M)


def test_negative_energy_fraction_frozen_value():
    # frozen against a 10x-resolution quadrature of the same weights
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M))
    frac = wp.negative_energy_fraction(pk)
    assert frac == pytest.approx(0.07545614718454714, abs=1e-10)
    fine = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), grid=np.linspace(-8 * M, 8 * M, 40960))
    assert frac == pytest.approx(wp.negative_energy_fraction(fine), rel=1e-9)


def test_negative_energy_fraction_shrinks_for_wide_packets():
    tight = wp.negative_energy_fraction(wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M)))
    wide = wp.negative_energy_fraction(wp.gaussian_amplitudes(wp.GaussianSpec(d_width=10.0 / M)))
    assert wide < tight / 10.0


def test_pure_positive_packet_has_zero_fraction():
    base = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), d_scale=0.0)
    assert wp.negative_energy_fraction(base) == 0.0


def test_positive_only_current_is_constant():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=3.0 / M), center=0.7 * M, d_scale=0.0)
    j0 = wp.probability_current(pk, 0.0)
    drift = float(np.sum(np.abs(pk.b) ** 2 * pk.p_grid / energy_of_momentum(pk.p_grid)) * pk.dp)
    assert j0 == pytest.approx(drift, rel=1e-12)
    for t in np.linspace(0.0, 100.0 / M, 11):
        assert abs(wp.probability_current(pk, float(t)) - j0) < 1e-9


def test_mixed_packet_oscillates_at_twice_the_energy():
    # packet away from the band edge: the interference line sits at 2 E(q*)
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=6.0 / M), center=2.0 * M)
    weight = np.abs(wp.zitterbewegung_weight(pk))
    qstar = float(pk.p_grid[np.argmax(weight)])
    omega_expected = 2.0 * float(energy_of_momentum(qstar))
    dt = 0.05 / M
    n = 4096
    sig = np.array([wp.probability_current(pk, i * dt) for i in range(n)])
    sig -= sig.mean()
    spectrum = np.abs(np.fft.rfft(sig * np.hanning(n), n=16 * n))
    freqs = np.fft.rfftfreq(16 * n, dt) * 2.0 * math.pi
    peak = float(freqs[int(np.argmax(spectrum))])
    assert peak == pytest.approx(omega_expected, rel=0.01)


def test_time_average_returns_to_drift():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=6.0 / M), center=2.0 * M)
    e = energy_of_momentum(pk.p_grid)
    drift = float(np.sum((np.abs(pk.b) ** 2 - np.abs(pk.dstar) ** 2) * pk.p_grid / e) * pk.dp)
    avg = float(np.mean([wp.probability_current(pk, float(t)) for t in np.linspace(0.0, 400.0 / M, 2001)]))
    assert avg == pytest.approx(drift, rel=1e-3)


def test_interference_amplitude_linear_in_dstar():
    # bilinear in (b, dstar): amplitude / (|b| |d|) is scale-invariant
    times = np.linspace(0.0, 20.0 / M, 400)
    ratios = []
    for scale in (0.5, 1.0, 2.0):
        pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), center=0.8 * M, d_scale=scale)
        vals = [wp.probability_current(pk, float(t)) for t in times]
        amp = (max(vals) - min(vals)) / 2.0
        nb = math.sqrt(float(np.sum(np.abs(pk.b) ** 2) * pk.dp))
        nd = math.sqrt(float(np.sum(np.abs(pk.dstar) ** 2) * pk.dp))
        ratios.append(amp / (nb * nd))
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_charge_current_time_independent():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), center=0.8 * M)
    j0 = wp.charge_current(pk)
    j_late = wp.charge_current(pk.evolve(1000.0 / M))
    # no interference term exists; only |amplitude|^2 rounding survives
    assert j_late == pytest.approx(j0, rel=1e-12)


def test_charge_current_symmetric_packet_vanishes():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M))
    assert abs(wp.charge_current(pk)) < 1e-15


def test_charge_current_boosted_packet():
    # narrow packet rides at e p0 / E_p0; quadrature oracle at 10x resolution
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=8.0 / M), center=2.0 * M)
    got = wp.charge_current(pk)
    assert got == pytest.approx(-2.0 * M / energy_of_momentum(2.0 * M), rel=1e-3)
    fine = wp.gaussian_amplitudes(
        wp.GaussianSpec(d_width=8.0 / M), center=2.0 * M, grid=np.linspace(-8 * M, 8 * M, 40960)
    )
    assert got == pytest.approx(wp.charge_current(fine), rel=1e-6)


def test_grid_refinement_converges():
    coarse = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), center=0.8 * M)
    fine = wp.gaussian_amplitudes(
        wp.GaussianSpec(d_width=1.0 / M), center=0.8 * M, grid=np.linspace(-8 * M, 8 * M, 8192)
    )
    for t in (0.0, 1.0 / M):
        a = wp.probability_current(coarse, t)
        b = wp.probability_current(fine, t)
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
    assert wp.charge_current(coarse) == pytest.approx(wp.charge_current(fine), rel=1e-6)
    assert wp.negative_energy_fraction(coarse) == pytest.approx(
        wp.negative_energy_fraction(fine), rel=1e-6
    )


def test_matrix_elements_match_algebra_spinors():
    # the closed forms used in the current sums equal the spinor sandwiches of
    # the shared 1-D representation
    from diracpair import algebra

    alpha, _ = algebra.dirac_matrices_1d()
    for q in (-900.0, -256.0, 100.0, 511.0, 1500.0):
        e = float(energy_of_momentum(q))
        u = algebra.spinor_u_1d(q)
        v = algebra.spinor_v_1d(q)
        assert np.vdot(u, alpha @ u).real == pytest.approx(q / e, rel=1e-12)
        assert np.vdot(v, alpha @ v).real == pytest.approx(-q / e, rel=1e-12)
        assert np.vdot(u, alpha @ v) == pytest.approx(M / e, rel=1e-12)


def test_unnormalized_packet_rejected():
    pk = wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M))
    broken = wp.Packet(p_grid=pk.p_grid, b=2.0 * pk.b, dstar=pk.dstar)
    with pytest.raises(ValueError):
        wp.probability_current(broken, 0.0)
    with pytest.raises(ValueError):
        wp.charge_current(broken)


def test_non_finite_packet_parameters_rejected():
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            wp.GaussianSpec(d_width=bad)
    with pytest.raises(ValueError):
        wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1.0 / M), center=math.nan)


def test_unresolved_or_off_grid_packet_rejected():
    with pytest.raises(ValueError, match="coarse"):
        wp.gaussian_amplitudes(wp.GaussianSpec(d_width=1000.0))
    with pytest.raises(ValueError, match="narrow"):
        wp.gaussian_amplitudes(wp.GaussianSpec(d_width=0.002), center=1e5)
