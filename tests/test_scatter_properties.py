"""Property tests of the scattering core: flux conservation, batching, a dense reference and D2's mirror symmetry."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracpair import scatter1d as sc
from diracpair.core import Alternative, DEFAULT_CONSTANTS, ROOT_TOLERANCE

M = DEFAULT_CONSTANTS.electron_rest_energy
D1, D2 = Alternative.D1, Alternative.D2

alts = st.sampled_from((D1, D2))
# incident energies on the free side, in units of m
energy_factors = st.floats(1.0001, 10.0)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def profiles(draw, max_regions=400, max_length=0.05):
    """Seeded piecewise-constant profiles of 3..max_regions regions, free on both sides."""
    n = draw(st.integers(3, max_regions))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vmax = draw(st.floats(0.05, 4.0)) * M
    length = draw(st.floats(1e-4, max_length))  # 1/keV
    widths = rng.uniform(0.5, 1.5, n - 2)
    edges = np.concatenate(([0.0], np.cumsum(widths * (length / widths.sum()))))
    values = np.concatenate(([0.0], rng.uniform(-vmax, vmax, n - 2), [0.0]))
    return sc.PotentialProfile(edges=tuple(edges.tolist()), values=tuple(values.tolist()))


def _assert_physical(res):
    assert 0.0 <= res.T <= 1.0
    assert abs(res.T + res.R - 1.0) <= 1e-9
    if res.classification == sc.GAP_BLOCKED:
        assert (res.T, res.R) == (0.0, 1.0)


@PROPERTY
@given(alts, st.floats(-5.0, 5.0), energy_factors)
def test_step_conserves_flux(alt, v, f):
    _assert_physical(sc.step_transmission(alt, v * M, f * M))


@PROPERTY
@given(alts, st.floats(-5.0, 5.0), st.floats(1e-5, 2.5), energy_factors)
def test_barrier_conserves_flux_up_to_thick_widths(alt, v, width, f):
    _assert_physical(sc.barrier_transmission(alt, sc.PotentialProfile.barrier(v * M, width), f * M))


@PROPERTY
@given(alts, profiles(), energy_factors)
def test_profile_conserves_flux(alt, profile, f):
    _assert_physical(sc.barrier_transmission(alt, profile, f * M))


@PROPERTY
@given(alts, profiles(max_regions=40), st.lists(energy_factors, min_size=1, max_size=20))
def test_array_call_equals_scalar_calls(alt, profile, factors):
    energies = np.array(factors) * M
    batch = sc.barrier_transmission(alt, profile, energies)
    for i, e in enumerate(energies):
        one = sc.barrier_transmission(alt, profile, float(e))
        assert type(one.T) is float and type(one.R) is float and type(one.classification) is str
        assert (one.T, one.R, one.classification) == (batch.T[i], batch.R[i], batch.classification[i])


@PROPERTY
@given(st.floats(-5.0, 5.0), st.floats(0.0, 10.0))
def test_d2_spectrum_is_symmetric(v, f):
    # D2 couples the potential through sgn(E): the modes at -E mirror those at +E
    up, down = sc.dispersion(D2, v * M, f * M), sc.dispersion(D2, v * M, -f * M)
    assert up.regime == down.regime
    assert math.isclose(up.k, down.k, rel_tol=1e-12, abs_tol=0.0)


# --- D2's mirror symmetry ------------------------------------------------------
#
# D2 couples V through sgn(E), so its spectrum is the mirror of its positive
# half: transmission at -E equals that at E, nothing is ever Klein, and the
# well levels are D1's positive ones with no level at or below zero.

# 1-7 interior regions with V within +-4m; |E| in (1.001m, 8m)
few_region_profiles = profiles(max_regions=9)
mirror_energies = st.floats(1.001, 8.0, exclude_min=True)
# a barrier whose top sits 1.5m above E = 1.5m: under D1 it propagates on the lower branch
KLEIN_BARRIER = sc.PotentialProfile.barrier(3.0 * M, 0.002)


@settings(max_examples=80, deadline=None)
@given(few_region_profiles, mirror_energies)
@example(KLEIN_BARRIER, 1.5)
def test_d2_transmission_is_the_same_at_minus_e(profile, f):
    up, down = sc.barrier_transmission(D2, profile, f * M), sc.barrier_transmission(D2, profile, -f * M)
    assert abs(up.T - down.T) <= 1e-12
    assert abs(up.R - down.R) <= 1e-12
    assert up.classification == down.classification
    assert sc.KLEIN_ZONE not in (up.classification, down.classification)


def test_d1_breaks_the_mirror_in_its_klein_zone():
    up, down = sc.barrier_transmission(D1, KLEIN_BARRIER, 1.5 * M), sc.barrier_transmission(D1, KLEIN_BARRIER, -1.5 * M)
    assert (up.classification, down.classification) == (sc.KLEIN_ZONE, sc.CLASSICAL)
    assert abs(up.T - down.T) > 1e-3


@settings(max_examples=40, deadline=None)
@given(st.floats(10.0, 20000.0), st.floats(1e-4, 0.5))
# D1 has a level at about -180.5 keV, which D2 does not mirror
@example(1000.0, 0.0039)
def test_d2_well_levels_are_the_positive_d1_levels(depth, width):
    d1 = [e for e in sc.square_well_bound_states(D1, depth, width) if 0.0 < e < M]
    d2 = sc.square_well_bound_states(D2, depth, width)
    assert all(e > 0.0 for e in d2)
    assert len(d2) == len(d1)
    assert all(abs(a - b) <= 2.0 * ROOT_TOLERANCE * M for a, b in zip(d1, d2))


def test_array_call_rejects_a_non_propagating_incident_side():
    with pytest.raises(ValueError):
        sc.barrier_transmission(D1, sc.PotentialProfile.barrier(M, 1.0 / M), np.array([2.0 * M, 0.5 * M]))
    with pytest.raises(ValueError):
        sc.step_transmission(D2, M, np.array([0.5 * M, 2.0 * M]))


# --- dense matching reference ---------------------------------------------------


def _eps(alt, v, e):
    if alt is D1:
        return e - v
    return math.copysign(abs(e) - v, e) if abs(e) > v else None


def _reference_modes(alt, v, e):
    """(exponent, spinor ratio) of the forward and backward mode, or None if D2-forbidden."""
    eps = _eps(alt, v, e)
    if eps is None:
        return None
    if abs(eps) > M:
        q = math.copysign(math.sqrt(eps * eps - M * M), eps)  # positive-current wavenumber
        return (1j * q, (eps - M) / q), (-1j * q, -(eps - M) / q)
    kappa = math.sqrt(M * M - eps * eps)
    return (-kappa, 1j * (eps - M) / -kappa), (kappa, 1j * (eps - M) / kappa)


def dense_reference(alt, profile, e):
    """T, R from matching both spinor components at every edge in one linear system.

    Unknowns: the reflected amplitude, two amplitudes per interior region (each
    mode referenced to its region's left edge) and the transmitted amplitude.
    Growing modes make this unusable for thick profiles, hence thin ones only.
    """
    values, edges = profile.values, profile.edges
    modes = [_reference_modes(alt, v, e) for v in values]
    if any(mode is None for mode in modes):
        return 0.0, 1.0
    n = len(values)
    size = 2 * (n - 1)
    a = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    def spinor(j, which, x):
        q, ratio = modes[j][which]
        return np.exp(q * (x - edges[max(j - 1, 0)])) * np.array([1.0, ratio])

    def column(j, which):
        return 0 if j == 0 else size - 1 if j == n - 1 else 2 * j - 1 + which

    for i, x in enumerate(edges):
        rows = slice(2 * i, 2 * i + 2)
        if i == 0:
            rhs[rows] = -spinor(0, 0, x)
            a[rows, 0] += spinor(0, 1, x)
        else:
            for which in (0, 1):
                a[rows, column(i, which)] += spinor(i, which, x)
        for which in (0,) if i + 1 == n - 1 else (0, 1):
            a[rows, column(i + 1, which)] -= spinor(i + 1, which, x)
    sol = np.linalg.solve(a, rhs)
    lam_out = modes[-1][0][1].real  # zero for an evanescent far side
    return abs(sol[-1]) ** 2 * lam_out / modes[0][0][1].real, abs(sol[0]) ** 2


@settings(max_examples=150, deadline=None)
@given(alts, profiles(max_regions=20, max_length=0.005), energy_factors)
def test_matches_dense_reference_on_thin_profiles(alt, profile, f):
    e = f * M
    # the reference's mode basis degenerates at the gap edges |eps| = m
    assume(all(abs(abs(eps) - M) > 1e-3 * M for v in profile.values if (eps := _eps(alt, v, e)) is not None))
    t_ref, r_ref = dense_reference(alt, profile, e)
    res = sc.barrier_transmission(alt, profile, e)
    assert abs(res.T - t_ref) <= 1e-12
    assert abs(res.R - r_ref) <= 1e-12


def test_dense_reference_reproduces_the_step_closed_form():
    # guards the reference itself: a two-region profile is the analytic step
    for alt in (D1, D2):
        for e in (1.3 * M, 3.6 * M, 5.2 * M):
            t_ref, r_ref = dense_reference(alt, sc.PotentialProfile.step(2.4 * M), e)
            step = sc.step_transmission(alt, 2.4 * M, e)
            assert t_ref == pytest.approx(step.T, abs=1e-12)
            assert r_ref == pytest.approx(step.R, abs=1e-12)


@pytest.mark.parametrize("alt", (D1, D2))
def test_thick_barrier_returns_instead_of_overflowing(alt):
    res = sc.barrier_transmission(alt, sc.PotentialProfile.barrier(1533.0, 1.7), 1800.0)
    assert res.classification == sc.EVANESCENT_TUNNELING
    assert 0.0 <= res.T < 1e-300
    assert res.R == pytest.approx(1.0, abs=1e-12)
