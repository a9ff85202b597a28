"""Finite-matrix verification of the Dirac operator content.

Everything here is exact 4x4 complex linear algebra: Clifford relations,
the charge-conjugation matrix, energy projectors, the sign-of-energy operator,
the charge-current identity, and the C/P/tau transformation laws for both
potential couplings.  Residuals are reported relative to the scale of the
compared operators so keV-sized entries do not inflate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Constants, DEFAULT_CONSTANTS

__all__ = [
    "DiracMatrices",
    "appendix_identities",
    "build_matrices",
    "casimir_projectors",
    "charge_current_identity",
    "clifford_residuals",
    "energy_p",
    "find_conjugation_matrix",
    "free_hamiltonian",
    "interaction_hamiltonian",
    "sign_energy",
    "spin_matrices",
    "spinor_v",
    "transformation_checks",
]

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_E_CHARGE = -1.0  # the electron's charge e, in units of the elementary charge


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


@dataclass(frozen=True)
class DiracMatrices:
    """The three alpha matrices and beta in a concrete representation."""

    alpha: tuple[np.ndarray, np.ndarray, np.ndarray]
    beta: np.ndarray


def build_matrices() -> DiracMatrices:
    """Construct the standard (Dirac) representation.

    alpha_i has the Pauli matrices on the off-diagonal blocks, beta is
    diag(1, 1, -1, -1).
    """
    z = np.zeros((2, 2), dtype=complex)
    alpha = tuple(_block(z, s, s, z) for s in _PAULI)
    beta = _block(_I2, z, z, -_I2)
    return DiracMatrices(alpha=alpha, beta=beta)


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal 4x4 spin matrices Sigma_i = diag(sigma_i, sigma_i)."""
    z = np.zeros((2, 2), dtype=complex)
    return tuple(_block(s, z, z, s) for s in _PAULI)


def clifford_residuals(alphas, beta) -> dict[str, float]:
    """Max relative residuals of the Clifford relations for any alpha/beta set.

    Works for the 4x4 representation and the 2x2 one-dimensional reduction
    alike (pass a 1-tuple of alphas for the latter).
    """
    n = beta.shape[0]
    eye = np.eye(n, dtype=complex)
    res: dict[str, float] = {}
    worst_aa = 0.0
    for i, ai in enumerate(alphas):
        for j, aj in enumerate(alphas):
            target = 2.0 * eye if i == j else np.zeros_like(eye)
            worst_aa = max(worst_aa, _rel_residual(ai @ aj + aj @ ai, target))
    res["alpha_anticommutators"] = worst_aa
    res["alpha_beta_anticommutators"] = max(
        _rel_residual(ai @ beta + beta @ ai, np.zeros_like(eye)) for ai in alphas
    )
    res["beta_squared"] = _rel_residual(beta @ beta, eye)
    res["hermiticity"] = max(
        [_rel_residual(m, m.conj().T) for m in (*alphas, beta)]
    )
    return res


def _rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / (1 + max |b|): absolute for O(1) targets, relative for large."""
    scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    return float(np.max(np.abs(a - b))) / scale


def energy_p(p, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """E_p = sqrt(p.p + m^2) for a momentum 3-vector p (keV), without a numpy warning.

    Constants keeps m^2 a normal float, so p.p + m^2 cannot underflow.
    Raises ValueError naming m_e_keV when p.p + m^2 overflows or is not a
    number.
    """
    m = constants.m
    with np.errstate(over="ignore", under="ignore"):
        e2 = float(p @ p + m * m)
    if not e2 < np.inf:
        raise ValueError(f"m_e_keV={m!r} gives p.p + m^2 = {e2!r}, which is not a finite float")
    return float(np.sqrt(e2))


def free_hamiltonian(m: DiracMatrices, p, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """H0(p) = alpha . p + beta m for a momentum 3-vector p (keV)."""
    p = np.asarray(p, dtype=float)
    h = constants.m * m.beta
    for ai, pi in zip(m.alpha, p):
        h = h + pi * ai
    return h


def interaction_hamiltonian(m: DiracMatrices, A=(0.0, 0.0, 0.0), Phi: float = 0.0) -> np.ndarray:
    """H1 = -e alpha . A + e Phi for constant external fields A and Phi (keV)."""
    h = _E_CHARGE * Phi * _I4
    for ai, Ai in zip(m.alpha, A):
        h = h - _E_CHARGE * Ai * ai
    return h


def spinor_v(p, s: int, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Negative-energy eigenspinor of H0(p), unit normalized, spin index s in {1, 2}."""
    if s not in (1, 2):
        raise ValueError("spin index must be 1 or 2")
    p = np.asarray(p, dtype=float)
    e = energy_p(p, constants)
    chi = np.zeros(2, dtype=complex)
    chi[s - 1] = 1.0
    sp = sum(si * pi for si, pi in zip(_PAULI, p))
    out = np.concatenate([-(sp @ chi) / (e + constants.m), chi])
    return out / np.linalg.norm(out)


def find_conjugation_matrix(m: DiracMatrices, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """The unitary C with C alpha_i* C^-1 = alpha_i and C beta* C^-1 = -beta, solved as a joint linear system.

    The four similarity constraints are assembled as a 64x16 linear map acting
    on vec(C); the solution space must be one-dimensional (anything else
    signals a representation these constraints do not pin down).  The solution
    is normalized to be unitary with its largest-magnitude entry real positive,
    which makes downstream output deterministic.
    """
    eye = _I4
    rows = []
    for ai in m.alpha:
        # C @ conj(ai) - ai @ C = 0  ->  (conj(ai).T (x) I - I (x) ai) vec(C) = 0
        rows.append(np.kron(ai.conj().T, eye) - np.kron(eye, ai))
    rows.append(np.kron(m.beta.conj().T, eye) + np.kron(eye, m.beta))
    system = np.vstack(rows)
    _, svals, vh = np.linalg.svd(system)
    tol = constants.numeric_tolerance * max(1.0, float(svals[0]))
    null_dim = int(np.sum(svals < tol))
    if null_dim != 1:
        raise ValueError(f"numeric_tolerance={constants.numeric_tolerance!r} gives the conjugation constraints a solution space of dimension {null_dim}, expected 1")
    c = vh[-1].reshape(4, 4)
    # Rescale to unitary: the constraints force C C^dagger to be a multiple of I.
    gram = c @ c.conj().T
    c = c / np.sqrt(np.abs(gram[0, 0]))
    # Canonical phase: largest-magnitude entry real positive.
    idx = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    phase = c[idx] / abs(c[idx])
    return c / phase


def sign_energy(p, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """sgn(E)(p) = H0(p) / E_p = (alpha . p + beta m) / E_p."""
    p = np.asarray(p, dtype=float)
    e = energy_p(p, constants)
    return free_hamiltonian(build_matrices(), p, constants) / e


def casimir_projectors(p, constants: Constants = DEFAULT_CONSTANTS) -> tuple[np.ndarray, np.ndarray]:
    """Energy projectors B+-(p) = (1 +- sgn(E)(p)) / 2 onto the +E_p and -E_p eigenspaces of H0."""
    s = sign_energy(p, constants)
    return 0.5 * (_I4 + s), 0.5 * (_I4 - s)


def charge_current_identity(p, axis: int, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Residual of (1/2){sgn(E), alpha_i} = (p_i / E_p) I4.

    The symmetrized product of the sign operator with alpha_i collapses, via
    the Clifford relations alone, to a multiple of the identity carrying the
    classical velocity p_i / E_p.  Returns the relative residual.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1, or 2")
    mats = build_matrices()
    p = np.asarray(p, dtype=float)
    e = energy_p(p, constants)
    s = sign_energy(p, constants)
    ai = mats.alpha[axis]
    lhs = 0.5 * (s @ ai + ai @ s)
    rhs = (p[axis] / e) * _I4
    return _rel_residual(lhs, rhs)


# --- C / P / tau transformation machinery ------------------------------------
#
# C and tau act as M O* M^-1 and P as M O M^-1 on an operator-valued function
# O(p, A); each result is compared against the stated law evaluated at flipped
# arguments, where the flip sends every polar vector (p and A) to its
# negative.  All three matrices (C, beta and i*C) are unitary, so M^-1 is
# M^dagger.  The tau matrix is fixed only up to a phase by the laws it must
# satisfy (they coincide with the charge-conjugation constraints), so it is
# represented as i*C by convention.


def _similar(u: np.ndarray, op: np.ndarray) -> np.ndarray:
    """u op u^dagger, the similarity transform by a unitary u."""
    return u @ op @ u.conj().T


def transformation_checks(
    p,
    A=(0.0, 0.0, 0.0),
    Phi: float = 0.0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> dict[str, float]:
    """Verify the C/P/tau laws for H0, sgn(E), H1, and both coupled Hamiltonians.

    A (a 3-vector) and Phi are constant external fields in keV, seen by a
    charge e = -1.  Returns a dict of relative residuals.  All laws are
    phase-insensitive similarity statements:

    - C H0(p) C^-1 = -H0(-p), P H0(p) P^-1 = H0(-p), tau H0(p) tau^-1 = -H0(-p)
      (the same three signs hold for sgn(E));
    - H1 is invariant under all three, with the parity comparison taken at the
      parity-flipped vector potential (A is a polar vector);
    - D2 composite: C (H0(p) + sgnE(p) H1) C^-1 = -(H0(-p) + sgnE(-p) H1);
    - D1 breakdown: C (H0(p) + H1) C^-1 = -(H0(-p) - H1), an exact sign flip
      of the interaction block.
    """
    mats = build_matrices()
    c = find_conjugation_matrix(mats, constants)
    par = mats.beta
    tau = 1.0j * c

    p = np.asarray(p, dtype=float)
    A = np.asarray(A, dtype=float)
    h0 = free_hamiltonian(mats, p, constants)
    h0_flip = free_hamiltonian(mats, -p, constants)
    sgn = sign_energy(p, constants)
    sgn_flip = sign_energy(-p, constants)
    h1 = interaction_hamiltonian(mats, A, Phi)
    h1_parity = interaction_hamiltonian(mats, -A, Phi)

    out: dict[str, float] = {}
    out["C_H0"] = _rel_residual(_similar(c, h0.conj()), -h0_flip)
    out["P_H0"] = _rel_residual(_similar(par, h0), h0_flip)
    out["tau_H0"] = _rel_residual(_similar(tau, h0.conj()), -h0_flip)
    out["C_sgnE"] = _rel_residual(_similar(c, sgn.conj()), -sgn_flip)
    out["P_sgnE"] = _rel_residual(_similar(par, sgn), sgn_flip)
    out["tau_sgnE"] = _rel_residual(_similar(tau, sgn.conj()), -sgn_flip)
    out["C_H1"] = _rel_residual(_similar(c, h1.conj()), h1)
    out["P_H1"] = _rel_residual(_similar(par, h1), h1_parity)
    out["tau_H1"] = _rel_residual(_similar(tau, h1.conj()), h1)
    out["D2_composite"] = _rel_residual(
        _similar(c, (h0 + sgn @ h1).conj()), -(h0_flip + sgn_flip @ h1)
    )
    out["D1_breakdown"] = _rel_residual(_similar(c, (h0 + h1).conj()), -(h0_flip - h1))
    return out


def appendix_identities(
    p,
    A=(0.0, 0.0, 0.0),
    Phi: float = 0.0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> dict[str, float]:
    """Operator identities behind the equations of motion, for constant fields.

    With H = alpha . (p - eA) + beta m + e Phi (uniform fields treated as
    c-numbers):

    - momentum form: alpha_i (H - e Phi) + (H - e Phi) alpha_i = 2 (p - eA)_i I4;
    - spin form: (1/i) [Sigma_i, H] = 2 ((p - eA) x alpha)_i.

    Returns relative residuals per identity (worst component).
    """
    mats = build_matrices()
    p = np.asarray(p, dtype=float)
    kin = p - _E_CHARGE * np.asarray(A, dtype=float)  # kinetic momentum p - eA
    h_kin = free_hamiltonian(mats, kin, constants)
    h = h_kin + _E_CHARGE * Phi * _I4

    worst_a3 = 0.0
    for i, ai in enumerate(mats.alpha):
        lhs = ai @ h_kin + h_kin @ ai
        rhs = 2.0 * kin[i] * _I4
        worst_a3 = max(worst_a3, _rel_residual(lhs, rhs))

    worst_b3 = 0.0
    sigmas = spin_matrices()
    for i in range(3):
        lhs = (sigmas[i] @ h - h @ sigmas[i]) / 1.0j
        j, k = (i + 1) % 3, (i + 2) % 3
        rhs = 2.0 * (kin[j] * mats.alpha[k] - kin[k] * mats.alpha[j])
        worst_b3 = max(worst_b3, _rel_residual(lhs, rhs))

    return {"momentum_identity": worst_a3, "spin_identity": worst_b3}
