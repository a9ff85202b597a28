import numpy as np
import pytest

from diracpair import algebra
from diracpair.core import Constants, DEFAULT_CONSTANTS
from oracles import ALPHA_1D, BETA_1D, spinor_u, spinor_u_1d, spinor_v_1d

M = DEFAULT_CONSTANTS.electron_rest_energy
TOL = 1e-12
I4 = np.eye(4)


@pytest.fixture(scope="module")
def mats():
    return algebra.build_matrices()


@pytest.fixture(scope="module")
def conj(mats):
    return algebra.find_conjugation_matrix(mats)


def random_momenta(n, seed=0, scale=4.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, 3)) * M


def test_clifford_relations(mats):
    res = algebra.clifford_residuals(mats.alpha, mats.beta)
    assert max(res.values()) < TOL
    # spot checks of the defining relations
    a1 = mats.alpha[0]
    assert np.allclose(a1 @ a1 + a1 @ a1, 2.0 * I4)
    assert np.allclose(a1 @ mats.beta + mats.beta @ a1, 0.0)
    assert np.allclose(mats.beta @ mats.beta, I4)


def test_clifford_checker_covers_1d_reduction():
    res = algebra.clifford_residuals((ALPHA_1D,), BETA_1D)
    assert max(res.values()) < TOL


def test_conjugation_solve_rejects_bad_representation(mats):
    # beta = identity admits no solution of C beta* C^-1 = -beta
    broken = algebra.DiracMatrices(alpha=mats.alpha, beta=np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        algebra.find_conjugation_matrix(broken)


def test_conjugation_matrix_satisfies_constraints(mats, conj):
    c = conj
    cinv = np.linalg.inv(c)
    assert np.max(np.abs(c @ c.conj().T - I4)) < TOL
    for a in mats.alpha:
        assert np.max(np.abs(c @ a.conj() @ cinv - a)) < TOL
    assert np.max(np.abs(c @ mats.beta.conj() @ cinv + mats.beta)) < TOL


def test_conjugation_phase_is_canonical(mats, conj):
    # any rescaled solution also satisfies the constraints; normalization must
    # bring it back to the same canonical matrix
    scaled = conj * (0.3 - 0.4j)
    c2 = scaled / np.sqrt(np.abs((scaled @ scaled.conj().T)[0, 0]))
    idx = np.unravel_index(np.argmax(np.abs(c2)), c2.shape)
    c2 = c2 / (c2[idx] / abs(c2[idx]))
    assert np.max(np.abs(c2 - conj)) < TOL
    idx = np.unravel_index(np.argmax(np.abs(conj)), conj.shape)
    assert abs(conj[idx].imag) < TOL and conj[idx].real > 0.0


def test_spinors_are_eigenvectors(mats):
    for p in random_momenta(10, seed=1):
        h = algebra.free_hamiltonian(mats, p)
        e = float(np.sqrt(p @ p + M * M))
        for s in (1, 2):
            u = spinor_u(p, s)
            v = algebra.spinor_v(p, s)
            assert np.max(np.abs(h @ u - e * u)) / e < TOL
            assert np.max(np.abs(h @ v + e * v)) / e < TOL
            assert abs(np.vdot(u, u) - 1.0) < TOL
            assert abs(np.vdot(v, v) - 1.0) < TOL


def test_conjugation_maps_v_to_u(mats, conj):
    # C v*(-p) is a positive-energy eigenspinor equal to some u(p, s') up to a
    # global phase, at every test momentum
    for p in random_momenta(25, seed=2):
        for s in (1, 2):
            mapped = conj @ algebra.spinor_v(-p, s).conj()
            overlaps = [abs(np.vdot(spinor_u(p, t), mapped)) for t in (1, 2)]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-12)
            assert min(overlaps) == pytest.approx(0.0, abs=1e-12)


def test_conjugation_involution(mats, conj):
    # applying the map twice returns the original spinor up to phase (here exactly)
    p = np.array([0.6, -1.1, 0.4]) * M
    v = algebra.spinor_v(p, 2)
    twice = conj @ (conj @ v.conj()).conj()
    phase = np.vdot(v, twice)
    assert abs(abs(phase) - 1.0) < TOL
    assert np.max(np.abs(twice - phase * v)) < TOL


def test_casimir_projectors_at_rest(mats):
    b_plus, b_minus = algebra.casimir_projectors(np.zeros(3))
    assert np.max(np.abs(b_plus - 0.5 * (I4 + mats.beta))) < TOL
    assert np.max(np.abs(b_minus - 0.5 * (I4 - mats.beta))) < TOL


def test_casimir_projector_properties(mats):
    for p in random_momenta(10, seed=3):
        b_plus, b_minus = algebra.casimir_projectors(p)
        assert np.max(np.abs(b_plus + b_minus - I4)) < TOL
        assert np.max(np.abs(b_plus @ b_plus - b_plus)) < TOL
        assert np.max(np.abs(b_minus @ b_minus - b_minus)) < TOL
        assert np.max(np.abs(b_plus @ b_minus)) < TOL
        assert round(np.trace(b_plus).real) == 2
        assert round(np.trace(b_minus).real) == 2
        for s in (1, 2):
            u = spinor_u(p, s)
            v = algebra.spinor_v(p, s)
            assert np.max(np.abs(b_plus @ u - u)) < TOL
            assert np.max(np.abs(b_plus @ v)) < TOL
            assert np.max(np.abs(b_minus @ v - v)) < TOL
            assert np.max(np.abs(b_minus @ u)) < TOL


def test_sign_energy_matches_projector_difference(mats):
    for p in random_momenta(10, seed=4):
        h = algebra.free_hamiltonian(mats, p)
        e = float(np.sqrt(p @ p + M * M))
        b_plus, b_minus = algebra.casimir_projectors(p)
        assert np.max(np.abs((b_plus - b_minus) - h / e)) < TOL


def test_spectrum_symmetry(mats):
    for p in random_momenta(10, seed=5):
        h = algebra.free_hamiltonian(mats, p)
        e = float(np.sqrt(p @ p + M * M))
        eig = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eig, [-e, -e, e, e], rtol=1e-12)


def test_charge_current_identity_zero_momentum():
    assert algebra.charge_current_identity(np.zeros(3), 0) < TOL


def test_charge_current_identity_explicit_value(mats):
    # at p = m e_x the symmetrized product is (1/sqrt(2)) I4
    p = np.array([M, 0.0, 0.0])
    s = algebra.sign_energy(p)
    lhs = 0.5 * (s @ mats.alpha[0] + mats.alpha[0] @ s)
    assert np.max(np.abs(lhs - I4 / np.sqrt(2.0))) < TOL


def test_charge_current_identity_random_sweep():
    worst = 0.0
    for p in random_momenta(100, seed=6):
        for axis in range(3):
            worst = max(worst, algebra.charge_current_identity(p, axis))
    assert worst < TOL


def random_fields(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng.uniform(-2.0, 2.0, size=3) * M, float(rng.uniform(-2.0, 2.0) * M)


def test_transformation_laws_random():
    worst = 0.0
    for p, fields in zip(random_momenta(25, seed=7), random_fields(25, seed=8)):
        res = algebra.transformation_checks(p, *fields)
        worst = max(worst, max(res.values()))
    assert worst < TOL


def test_transformation_laws_at_rest():
    res = algebra.transformation_checks(np.zeros(3))
    assert max(res.values()) < TOL


def test_d1_breakdown_is_exact_sign_flip(mats, conj):
    # C(H0 + H1)C^-1 equals -(H0(-p) - H1) and differs from -(H0(-p) + H1)
    # by exactly 2 H1
    p = np.array([0.8, 0.1, -0.5]) * M
    h0 = algebra.free_hamiltonian(mats, p)
    h0f = algebra.free_hamiltonian(mats, -p)
    h1 = algebra.interaction_hamiltonian(mats, (300.0, -100.0, 40.0), 90.0)
    cinv = np.linalg.inv(conj)
    lhs = conj @ (h0 + h1).conj() @ cinv
    assert np.max(np.abs(lhs + (h0f - h1))) / (1.0 + np.max(np.abs(h0f))) < TOL
    defect = lhs + (h0f + h1)
    assert np.max(np.abs(defect - 2.0 * h1)) / (1.0 + np.max(np.abs(h1))) < TOL


def test_appendix_identities_trivial_case():
    res = algebra.appendix_identities(np.zeros(3))
    assert max(res.values()) < TOL


def test_appendix_identities_random():
    worst = 0.0
    for p, fields in zip(random_momenta(25, seed=9), random_fields(25, seed=10)):
        res = algebra.appendix_identities(p, *fields)
        worst = max(worst, max(res.values()))
    assert worst < TOL


def test_spin_matrices_properties():
    for s in algebra.spin_matrices():
        assert np.max(np.abs(s - s.conj().T)) < TOL
        assert np.max(np.abs(s @ s - I4)) < TOL


def test_1d_spinors():
    for p in (-700.0, -51.0, 0.0, 123.0, 900.0):
        h = ALPHA_1D * p + BETA_1D * M
        e = np.sqrt(p * p + M * M)
        u = spinor_u_1d(p)
        v = spinor_v_1d(p)
        assert np.max(np.abs(h @ u - e * u)) / e < TOL
        assert np.max(np.abs(h @ v + e * v)) / e < TOL
        assert abs(np.vdot(u, v)) < TOL


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_energy_p_fails_closed_outside_the_normal_float_range():
    for p in random_momenta(5):
        assert algebra.energy_p(p) == float(np.sqrt(p @ p + M * M))
    # a mass outside Constants' domain never gets here; a momentum can still overflow
    for p in (np.full(3, 1e200), np.full(3, 1e308)):
        with pytest.raises(ValueError, match="m_e_keV"):
            algebra.energy_p(p, Constants(electron_rest_energy=1.0))
