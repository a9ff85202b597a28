import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diracpair import wavepacket as wp
from diracpair.core import DEFAULT_CONSTANTS, energy_of_momentum
from oracles import ALPHA_1D, BETA_1D, evolve, gaussian_packet, spinor_u_1d, spinor_v_1d

M = DEFAULT_CONSTANTS.electron_rest_energy

# grid with +-m exactly on a node (span 8m, 4097 points -> spacing m/256)
GRID_WITH_M = np.linspace(-8 * M, 8 * M, 4097)


@pytest.mark.parametrize("d_width, center", [(1.0 / M, 0.0), (3.0 / M, 0.7 * M), (6.0 / M, 2.0 * M), (3e-4, 240.0), (0.0075, 750.0)])
def test_reference_packet_is_the_programs_packet(d_width, center):
    # so the tests that build gaussian_packet on other grids, or with dstar
    # scaled, hold the program's amplitudes
    pk = wp.gaussian_amplitudes(d_width, center=center)
    ref = gaussian_packet(d_width, wp.default_grid(d_width), center=center)
    assert np.array_equal(pk.p_grid, ref.p_grid)
    np.testing.assert_allclose(pk.b, ref.b, rtol=1e-15, atol=1e-300)
    np.testing.assert_allclose(pk.dstar, ref.dstar, rtol=1e-15, atol=1e-300)


def test_amplitude_ratio_at_p_equals_m():
    pk = gaussian_packet(1.0 / M, GRID_WITH_M)
    i = int(np.argmin(np.abs(pk.p_grid - M)))
    assert pk.p_grid[i] == pytest.approx(M, rel=1e-14)
    ratio = (pk.dstar[i] / pk.b[i]).real
    assert ratio == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), abs=1e-12)


def test_amplitude_vanishes_at_zero_momentum():
    pk = gaussian_packet(1.0 / M, GRID_WITH_M)
    i = int(np.argmin(np.abs(pk.p_grid)))
    assert pk.p_grid[i] == 0.0
    assert pk.dstar[i] == 0.0


def test_packet_is_normalized():
    pk = wp.gaussian_amplitudes(2.0 / M)
    assert pk.density_sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_narrow_rejection():
    # wide enough span but the packet hangs off the edge
    with pytest.raises(ValueError):
        wp.gaussian_amplitudes(1.0 / M, center=7.5 * M)


def test_negative_energy_fraction_frozen_value():
    # frozen against a 10x-resolution quadrature of the same weights
    pk = wp.gaussian_amplitudes(1.0 / M)
    frac = wp.negative_energy_fraction(pk)
    assert frac == pytest.approx(0.07545614718454714, abs=1e-10)
    fine = gaussian_packet(1.0 / M, np.linspace(-8 * M, 8 * M, 40960))
    assert frac == pytest.approx(wp.negative_energy_fraction(fine), rel=1e-9)


def test_negative_energy_fraction_shrinks_for_wide_packets():
    tight = wp.negative_energy_fraction(wp.gaussian_amplitudes(1.0 / M))
    wide = wp.negative_energy_fraction(wp.gaussian_amplitudes(10.0 / M))
    assert wide < tight / 10.0


def test_pure_positive_packet_has_zero_fraction():
    base = gaussian_packet(1.0 / M, wp.default_grid(1.0 / M), d_scale=0.0)
    assert wp.negative_energy_fraction(base) == 0.0


def test_positive_only_current_is_constant():
    pk = gaussian_packet(3.0 / M, wp.default_grid(3.0 / M), center=0.7 * M, d_scale=0.0)
    currents = wp.probability_current(pk, 10.0 / M, 11)
    j0 = currents[0]
    drift = float(np.sum(np.abs(pk.b) ** 2 * pk.p_grid / energy_of_momentum(pk.p_grid)) * pk.dp)
    assert j0 == pytest.approx(drift, rel=1e-12)
    assert np.max(np.abs(currents - j0)) < 1e-9


def test_mixed_packet_oscillates_at_twice_the_energy():
    # packet away from the band edge: the interference line sits at 2 E(q*)
    pk = wp.gaussian_amplitudes(6.0 / M, center=2.0 * M)
    weight = np.abs(wp.zitterbewegung_weight(pk))
    qstar = float(pk.p_grid[np.argmax(weight)])
    omega_expected = 2.0 * float(energy_of_momentum(qstar))
    dt = 0.05 / M
    n = 4096
    sig = wp.probability_current(pk, dt, n)
    sig -= sig.mean()
    spectrum = np.abs(np.fft.rfft(sig * np.hanning(n), n=16 * n))
    freqs = np.fft.rfftfreq(16 * n, dt) * 2.0 * math.pi
    peak = float(freqs[int(np.argmax(spectrum))])
    assert peak == pytest.approx(omega_expected, rel=0.01)


def test_time_average_returns_to_drift():
    pk = wp.gaussian_amplitudes(6.0 / M, center=2.0 * M)
    e = energy_of_momentum(pk.p_grid)
    drift = float(np.sum((np.abs(pk.b) ** 2 - np.abs(pk.dstar) ** 2) * pk.p_grid / e) * pk.dp)
    avg = float(np.mean(wp.probability_current(pk, 0.2 / M, 2001)))
    assert avg == pytest.approx(drift, rel=1e-3)


def test_interference_amplitude_linear_in_dstar():
    # bilinear in (b, dstar): amplitude / (|b| |d|) is scale-invariant
    ratios = []
    for scale in (0.5, 1.0, 2.0):
        pk = gaussian_packet(1.0 / M, wp.default_grid(1.0 / M), center=0.8 * M, d_scale=scale)
        vals = wp.probability_current(pk, 20.0 / M / 399, 400)
        amp = float(np.ptp(vals)) / 2.0
        nb = math.sqrt(float(np.sum(np.abs(pk.b) ** 2) * pk.dp))
        nd = math.sqrt(float(np.sum(np.abs(pk.dstar) ** 2) * pk.dp))
        ratios.append(amp / (nb * nd))
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_charge_current_time_independent():
    pk = wp.gaussian_amplitudes(1.0 / M, center=0.8 * M)
    j0 = wp.charge_current(pk)
    j_late = wp.charge_current(evolve(pk, 1000.0 / M))
    # no interference term exists; only |amplitude|^2 rounding survives
    assert j_late == pytest.approx(j0, rel=1e-12)


def test_charge_current_symmetric_packet_vanishes():
    pk = wp.gaussian_amplitudes(1.0 / M)
    assert abs(wp.charge_current(pk)) < 1e-15


def test_charge_current_boosted_packet():
    # narrow packet rides at e p0 / E_p0; quadrature oracle at 10x resolution
    pk = wp.gaussian_amplitudes(8.0 / M, center=2.0 * M)
    got = wp.charge_current(pk)
    assert got == pytest.approx(-2.0 * M / energy_of_momentum(2.0 * M), rel=1e-3)
    fine = gaussian_packet(8.0 / M, np.linspace(-8 * M, 8 * M, 40960), center=2.0 * M)
    assert got == pytest.approx(wp.charge_current(fine), rel=1e-6)


def test_grid_refinement_converges():
    coarse = wp.gaussian_amplitudes(1.0 / M, center=0.8 * M)
    fine = gaussian_packet(1.0 / M, np.linspace(-8 * M, 8 * M, 8192), center=0.8 * M)
    # the currents at t = 0 and 1/m
    a = wp.probability_current(coarse, 1.0 / M, 2)
    b = wp.probability_current(fine, 1.0 / M, 2)
    assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
    assert wp.charge_current(coarse) == pytest.approx(wp.charge_current(fine), rel=1e-6)
    assert wp.negative_energy_fraction(coarse) == pytest.approx(
        wp.negative_energy_fraction(fine), rel=1e-6
    )


def test_matrix_elements_match_algebra_spinors():
    # the closed forms used in the current sums equal the spinor sandwiches of
    # the shared 1-D representation
    for q in (-900.0, -256.0, 100.0, 511.0, 1500.0):
        e = float(energy_of_momentum(q))
        u = spinor_u_1d(q)
        v = spinor_v_1d(q)
        assert np.vdot(u, ALPHA_1D @ u).real == pytest.approx(q / e, rel=1e-12)
        assert np.vdot(v, ALPHA_1D @ v).real == pytest.approx(-q / e, rel=1e-12)
        assert np.vdot(u, ALPHA_1D @ v) == pytest.approx(M / e, rel=1e-12)


@pytest.mark.parametrize("d_width", [3e-4, 0.0075])
def test_charge_current_operator_has_no_interference_element(d_width):
    # O = (1/2){sgn(E), alpha} with sgn(E) = (alpha q + beta m)/E_q has no u-v
    # element, so the charge current has no zitterbewegung, and gives both
    # branches the velocity q/E_q.  u^+ alpha v = m/E_q is the difference of
    # two terms near 1/2, so where m/E_q = 0.019 (the d = 3e-4 grid's edge)
    # rounding alone is 1.1e-14 of it.
    pk = wp.gaussian_amplitudes(d_width, center=0.8 * M)
    assert np.array_equal(pk.p_grid, wp.default_grid(d_width))
    velocity_u, velocity_v, interference = [], [], []
    for q in pk.p_grid.tolist():
        e = math.hypot(q, M)
        sign_e = (ALPHA_1D * q + BETA_1D * M) / e
        o = 0.5 * (sign_e @ ALPHA_1D + ALPHA_1D @ sign_e)
        u, v = spinor_u_1d(q), spinor_v_1d(q)
        assert abs(np.vdot(u, o @ v)) <= 1e-15
        velocity_u.append(np.vdot(u, o @ u).real)
        velocity_v.append(np.vdot(v, o @ v).real)
        interference.append(np.vdot(u, ALPHA_1D @ v))
        assert (velocity_u[-1], velocity_v[-1]) == pytest.approx((q / e, q / e), rel=1e-14, abs=0.0)
        assert interference[-1] == pytest.approx(M / e, rel=2e-14, abs=0.0)
    # the program's current and interference weight are these sandwiches
    current = -np.sum(np.abs(pk.b) ** 2 * velocity_u + np.abs(pk.dstar) ** 2 * velocity_v) * pk.dp
    assert wp.charge_current(pk) == pytest.approx(current, rel=1e-12)
    weight = np.conj(pk.b) * pk.dstar * np.array(interference) * pk.dp
    assert np.allclose(wp.zitterbewegung_weight(pk), weight, rtol=1e-13, atol=0.0)


def test_unnormalized_packet_rejected():
    pk = wp.gaussian_amplitudes(1.0 / M)
    broken = wp.Packet(p_grid=pk.p_grid, b=2.0 * pk.b, dstar=pk.dstar)
    with pytest.raises(ValueError):
        wp.probability_current(broken, 0.0, 1)
    with pytest.raises(ValueError, match="not normalized"):
        wp.probability_current(broken, 0.25 / M, 5)
    with pytest.raises(ValueError):
        wp.charge_current(broken)


def test_non_finite_packet_parameters_rejected():
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="d_width"):
            wp.gaussian_amplitudes(bad)
    with pytest.raises(ValueError):
        wp.gaussian_amplitudes(1.0 / M, center=math.nan)


def test_unresolved_or_off_grid_packet_rejected():
    with pytest.raises(ValueError, match="coarse"):
        wp.gaussian_amplitudes(1000.0)
    with pytest.raises(ValueError, match="narrow"):
        wp.gaussian_amplitudes(0.002, center=1e5)


def _per_time_currents(packet, times):
    """The per-time sum the batched kernel replaced, for each of times.

    Still one complex exponential per q and time, and no phase tables.  The
    drift and the weight are formed once, and a block of times, about 2**14
    phases, shares each array operation; much larger blocks run slower.
    """
    q = packet.p_grid
    e = energy_of_momentum(q)
    diag = np.sum((np.abs(packet.b) ** 2 - np.abs(packet.dstar) ** 2) * (q / e)) * packet.dp
    weight = np.conj(packet.b) * packet.dstar * (M / e)
    times = np.asarray(times, dtype=float)
    block = max(1, (1 << 14) // q.size)
    cross = [
        2.0 * np.sum(np.real(weight * np.exp(2.0j * e * t[:, None])), axis=1) * packet.dp
        for t in np.split(times, range(block, times.size, block))
    ]
    return diag + np.concatenate(cross)


@settings(max_examples=40, deadline=None)
@given(
    d_width=st.floats(0.2 / M, 20.0 / M),
    center=st.floats(-2.0 * M, 2.0 * M),
    d_scale=st.floats(0.0, 3.0),
    t0=st.floats(-20.0 / M, 20.0 / M),
    times=hnp.arrays(float, st.integers(0, 10), elements=st.floats(-50.0 / M, 50.0 / M)),
)
def test_array_times_match_per_time_sum(d_width, center, d_scale, t0, times):
    # irregular times, each the second of a two-time series; evolving to t0
    # makes the interference weight complex (a Gaussian's is real)
    pk = evolve(gaussian_packet(d_width, wp.default_grid(d_width), center=center, d_scale=d_scale), t0)
    for t in times:
        got = wp.probability_current(pk, t, 2)
        want = _per_time_currents(pk, [0.0, t])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_long_series_crosses_phase_blocks():
    # more offsets per momentum than one block holds: two momentum chunks, one row block
    pk = evolve(wp.gaussian_amplitudes(6.0 / M, center=2.0 * M), 3.0 / M)
    n = 3 * wp._PHASE_BLOCK // pk.p_grid.size + 7
    dt = 40.0 / M / (n - 1)
    got = wp.probability_current(pk, dt, n)
    want = _per_time_currents(pk, np.arange(n) * dt)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n, blocks", [(10_000, 2), (100_000, 13)])
def test_long_series_crosses_row_blocks(n, blocks):
    # the kernel's row blocks: B = ceil(sqrt(n)) offsets, at most
    # _PHASE_BLOCK // B momenta per chunk, and _PHASE_BLOCK // max(cols, B)
    # block starts per product; the series starts at -5/m, the packet evolved there
    pk = evolve(wp.gaussian_amplitudes(6.0 / M, center=2.0 * M), 3.0 / M)
    t0, dt = -5.0 / M, 405.0 / M / (n - 1)
    width = math.isqrt(n - 1) + 1
    starts = -(-n // width)
    cols = min(pk.p_grid.size, wp._PHASE_BLOCK // width)
    rows = wp._PHASE_BLOCK // max(cols, width)
    assert -(-starts // rows) == blocks
    edges = np.arange(rows, starts, rows) * width
    picks = np.unique(np.concatenate([np.linspace(0, n - 1, 400).astype(int), edges - 1, edges]))
    got = wp.probability_current(evolve(pk, t0), dt, n)
    want = _per_time_currents(pk, t0 + picks * dt)
    assert np.max(np.abs(got[picks] - want)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    d_width=st.floats(0.2 / M, 20.0 / M),
    center=st.floats(-2.0 * M, 2.0 * M),
    t_evolve=st.floats(-20.0 / M, 20.0 / M),
    t0=st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)), st.floats(1e-6 / M, 50.0 / M)),
    span=st.floats(-80.0 / M, 80.0 / M),
    n=st.one_of(
        st.sampled_from((1, 2, 3)),
        st.integers(2, 44).flatmap(lambda b: st.sampled_from((b * b - 1, b * b, b * b + 1))),
        st.integers(1, 2000),
    ),
)
def test_uniform_series_match_per_time_sum(d_width, center, t_evolve, t0, span, n):
    # a negative span gives a descending series; evolving makes w complex, and
    # evolving on to t0 starts the series there
    pk = evolve(wp.gaussian_amplitudes(d_width, center=center), t_evolve)
    dt = span / (n - 1) if n > 1 else 0.0
    got = wp.probability_current(evolve(pk, t0), dt, n)
    want = _per_time_currents(pk, t0 + np.arange(n) * dt)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_overflowing_grid_rejected():
    # q^2 d^2 is inf * 0 = nan at the grid's ends, so the loss estimate is nan
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflowing"):
        wp.gaussian_amplitudes(1e-200)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d_width", [1e-155, 1e-160, 1e-200, 1e-320])
def test_grid_too_wide_for_floats_rejected_without_warnings(d_width):
    # E_q overflows on the whole grid; at 1e-160 every amplitude underflowed
    # too and the loss estimate divided 0.0 by 0.0 (an internal error); at
    # 1e-320 the span 8/d is itself inf
    with pytest.raises(ValueError, match="overflowing|too narrow"):
        wp.gaussian_amplitudes(d_width)


def test_nan_packet_rejected():
    pk = wp.gaussian_amplitudes(1.0 / M)
    broken = wp.Packet(p_grid=pk.p_grid, b=np.where(pk.p_grid > 0.0, np.nan, pk.b), dstar=pk.dstar)
    for fn in (wp.negative_energy_fraction, wp.charge_current, lambda p: wp.probability_current(p, 0.0, 1)):
        with pytest.raises(ValueError, match="not normalized"):
            fn(broken)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, (math.nan, 2), (1e308, 3), 1e306])
def test_non_finite_times_rejected(t):
    # a scalar is a step tried at several lengths; a pair (dt, n) is one series
    # whose first time, 0, is finite and whose last, (n - 1) dt, is not
    dt, lengths = (t[0], (t[1],)) if isinstance(t, tuple) else (t, (2, 3, 100))
    pk = wp.gaussian_amplitudes(1.0 / M)
    for n in lengths:
        with pytest.raises(ValueError, match="finite"):
            wp.probability_current(pk, dt, n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_whose_last_phase_overflows_rejected():
    # on this grid (E_q up to 4120 keV) 2 E_q dt is finite and twice it is
    # not: two times run without a warning, three are rejected
    pk = wp.gaussian_amplitudes(1.0 / M)
    assert np.isfinite(wp.probability_current(pk, 1.5e304, 2)).all()
    with pytest.raises(ValueError, match="finite"):
        wp.probability_current(pk, 1.5e304, 3)
