"""References the tests compare the program against.

Each reference is written from its formula, independently of the code it
checks, and this module imports nothing private from ``diracpair``: a
reference that called the private code would compare that code with itself.
"""

import math

import numpy as np

from diracpair.core import Alternative, DEFAULT_CONSTANTS
from diracpair.wavepacket import Packet

M = DEFAULT_CONSTANTS.electron_rest_energy

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


# --- 1-D scattering modes -------------------------------------------------------


def _eps(alt, v, e):
    """Effective kinetic energy of a region at potential v, or None where D2 admits no mode."""
    if alt is Alternative.D1:
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


# --- pair kinematics --------------------------------------------------------------


def gamma_quadratic_roots(delta_eps, r):
    """(gamma_plus, gamma_minus) of the emission equation by the plain quadratic formula.

    Squaring d + 1 - gamma = -+R sqrt(gamma^2 - 1), d = delta_eps/(2m), gives
    (1 - R^2) gamma^2 - 2 (1 + d) gamma + (1 + d)^2 + R^2 = 0, whose
    discriminant is 4 R^2 (d (2 + d) + R^2).  gamma_minus comes out of a
    difference, so its gamma - 1 keeps few digits where R^2 >> d: compare
    gamma, not gamma - 1.
    """
    d = delta_eps / (2.0 * M)
    half_root = r * math.sqrt(d * (2.0 + d) + r * r)
    return (1.0 + d + half_root) / (1.0 - r * r), (1.0 + d - half_root) / (1.0 - r * r)


def defining_residual(gamma, delta_eps, r, branch):
    """Residual of the branch-signed emission equation at gamma.

    The "-" branch satisfies d + 1 - gamma = +R sqrt(gamma^2 - 1); the "+"
    branch carries the opposite sign of the square-root term.
    """
    sign = 1.0 if branch == "+" else -1.0
    d = delta_eps / (2.0 * M)
    return d + 1.0 - gamma + sign * r * math.sqrt(max(gamma * gamma - 1.0, 0.0))


# --- Dirac spinors ------------------------------------------------------------------

# the 2x2 one-dimensional reduction: alpha = sigma_x, beta = sigma_z
ALPHA_1D, BETA_1D = PAULI[0], PAULI[2]


def spinor_u_1d(q):
    """Unit-normalised +E eigenspinor (1, q/(E + m)) of sigma_x q + sigma_z m."""
    out = np.array([1.0, q / (math.hypot(q, M) + M)], dtype=complex)
    return out / np.linalg.norm(out)


def spinor_v_1d(q):
    """Unit-normalised -E eigenspinor (-q/(E + m), 1) of sigma_x q + sigma_z m."""
    out = np.array([-q / (math.hypot(q, M) + M), 1.0], dtype=complex)
    return out / np.linalg.norm(out)


def spinor_u(p, s):
    """Unit-normalised +E eigenspinor (chi, sigma.p chi/(E + m)) of alpha.p + beta m, spin index s in {1, 2}."""
    p = np.asarray(p, dtype=float)
    chi = np.eye(2, dtype=complex)[s - 1]
    sigma_p = sum(si * pi for si, pi in zip(PAULI, p))
    out = np.concatenate([chi, sigma_p @ chi / (math.sqrt(p @ p + M * M) + M)])
    return out / np.linalg.norm(out)


# --- wave packets -------------------------------------------------------------------


def evolve(packet, t):
    """Free time evolution of a Packet: phase e^{-iEt} on b and e^{+iEt} on dstar, E = sqrt(q^2 + m^2)."""
    q = packet.p_grid
    e = (q * q + M * M) ** 0.5
    return Packet(p_grid=q, b=packet.b * np.exp(-1.0j * e * t), dstar=packet.dstar * np.exp(+1.0j * e * t))


def gaussian_packet(d_width, grid, center=0.0, d_scale=1.0):
    """Normalised Gaussian Packet on any uniform ``grid``, with dstar scaled by ``d_scale``.

    b(q) ~ exp(-(q - center)^2 d^2 / 2) and dstar(q) = d_scale b(q) q / (E_q + m),
    scaled together so that sum(|b|^2 + |dstar|^2) dq = 1: the program's
    ``gaussian_amplitudes`` on its default grid is the case d_scale = 1.
    """
    q = np.asarray(grid, dtype=float)
    b = np.exp(-0.5 * (q - center) ** 2 * d_width**2).astype(complex)
    dstar = d_scale * b * q / ((q * q + M * M) ** 0.5 + M)
    norm = math.sqrt(float(np.sum(np.abs(b) ** 2 + np.abs(dstar) ** 2)) * (q[1] - q[0]))
    return Packet(p_grid=q, b=b / norm, dstar=dstar / norm)
