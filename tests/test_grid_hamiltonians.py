"""Charge conjugation and the Ehrenfest equations on computed states of dense 1-D grid Hamiltonians.

``oracles.grid_hamiltonians`` gives D1 = H0 + V and D2 = H0 + {S, V}/2 with
S = H0/E_p on a periodic grid.  That D2 is the Hermitian operator form of the
coupling, not ``scatter1d``'s per-energy rule, so these tests hold the two
claims on spectra and evolved packets rather than on that module.  Each
tolerance is set from the figure measured with numpy 2.4 on x86-64, which the
test's comment states.
"""

import math

import numpy as np

from diracpair.core import Alternative
from oracles import M, grid_hamiltonians, grid_points, spinor_u_1d, spinor_v_1d


def _coulomb_hamiltonians(sign):
    """(D1, D2) for sign * V, V = -g/sqrt(x^2 + a^2), g = 2, a = 0.002/keV, 384 points over 0.4/keV."""
    x, _ = grid_points(384, 0.4)
    return grid_hamiltonians(sign * -2.0 / np.sqrt(x * x + 0.002**2), 0.4)


def _mirror_gap(spectrum, other):
    """Largest |lambda_i + other_(n-1-i)| of two ascending spectra, relative to the largest |lambda|."""
    return np.abs(spectrum + other[::-1]).max() / np.abs(spectrum).max()


def test_d2_grid_spectrum_is_its_own_mirror_image():
    # C maps D2 to -D2, so its spectrum is symmetric about zero: measured 3.4e-15, bound 1e-13
    spectrum = np.linalg.eigvalsh(_coulomb_hamiltonians(1.0)[1])
    assert _mirror_gap(spectrum, spectrum) < 1e-13


def test_d1_grid_spectrum_mirrors_only_the_flipped_potential():
    # C maps D1 for V to -(D1 for -V): measured 0.21 against its own mirror and 8.1e-15 against -V's
    spectrum = np.linalg.eigvalsh(_coulomb_hamiltonians(1.0)[0])
    flipped = np.linalg.eigvalsh(_coulomb_hamiltonians(-1.0)[0])
    assert _mirror_gap(spectrum, spectrum) > 0.1
    assert _mirror_gap(spectrum, flipped) < 1e-12


# uniform force: V = F x, F = 100 keV^2, packets at p0 = 150 keV of width 0.02/keV
FORCE, P0, WIDTH = 100.0, 150.0, 0.02
# d^2 x/dt^2 = -F m^2/E^3 of a classical particle at p0, about -0.1729
CLASSICAL = -FORCE * M * M / math.hypot(P0, M) ** 3


def _packet_accelerations(alt):
    """d^2<x>/dt^2 of the positive- and negative-energy packet, from a quadratic fit to <x> at t = 0, 0.01, ..., 0.1/keV.

    256 points over 1/keV.  Each packet is a Gaussian in p, centred on p0,
    made of one branch's spinors of H0, so it holds no zitterbewegung term.
    """
    x, p = grid_points(256, 1.0)
    d1, d2 = grid_hamiltonians(FORCE * x, 1.0)
    energies, states = np.linalg.eigh(d1 if alt is Alternative.D1 else d2)
    amplitude = np.exp(-0.5 * ((p - P0) * WIDTH) ** 2)
    waves = np.exp(1j * np.outer(x, p))
    t = np.linspace(0.0, 0.1, 11)
    out = []
    for spinor in (spinor_u_1d, spinor_v_1d):
        spinors = np.array([spinor(q) for q in p])
        psi = np.concatenate((waves @ (amplitude * spinors[:, 0]), waves @ (amplitude * spinors[:, 1])))
        evolved = states @ (np.exp(-1j * np.outer(energies, t)) * (states.conj().T @ psi)[:, None])
        density = np.abs(evolved) ** 2
        mean_x = (np.concatenate((x, x)) @ density) / density.sum(axis=0)
        out.append(2.0 * np.polyfit(t, mean_x, 2)[0])
    return out


def test_d2_packets_of_both_signs_accelerate_with_the_force():
    # measured -0.1735 and -0.1708, within 1.2 % of the classical value; bound 3 %
    for acceleration in _packet_accelerations(Alternative.D2):
        assert abs(acceleration / CLASSICAL - 1.0) < 0.03


def test_d1_negative_energy_packet_accelerates_against_the_force():
    # measured -0.1736 and +0.1736, within 0.4 % of -+ the classical value; bound 3 %
    positive, negative = _packet_accelerations(Alternative.D1)
    assert abs(positive / CLASSICAL - 1.0) < 0.03
    assert abs(negative / -CLASSICAL - 1.0) < 0.03
