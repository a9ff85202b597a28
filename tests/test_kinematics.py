import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diracpair import kinematics as kin
from diracpair.core import Constants, DEFAULT_CONSTANTS, bisect_root
from oracles import defining_residual, gamma_quadratic_roots

M = DEFAULT_CONSTANTS.electron_rest_energy
BOOST6 = kin.boost_from_beam_energy(6.0)


def _gammas(delta_eps, r):
    """The program's (gamma_plus, gamma_minus), from its cancellation-free excesses."""
    plus, minus = kin._gamma_excess(delta_eps, r, DEFAULT_CONSTANTS)
    return 1.0 + plus, 1.0 + minus


def test_boost_from_beam_energy():
    assert BOOST6.gamma_i == pytest.approx(1.006, rel=1e-15)
    assert BOOST6.beta_i == pytest.approx(0.10906, abs=1e-5)
    for x in (0.5, 3.0, 6.0, 20.0):
        b = kin.boost_from_beam_energy(x)
        assert b.gamma_i**2 * (1.0 - b.beta_i**2) == pytest.approx(1.0, rel=1e-14)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beam energy"):
            kin.boost_from_beam_energy(bad)


def test_small_beam_energy_limit():
    b = kin.boost_from_beam_energy(1e-6)
    assert b.beta_i < 2e-3


def test_gamma_solutions_zero_r_collapse():
    gp, gm = _gammas(900.0, 0.0)
    assert gp == gm == pytest.approx(1.0 + 900.0 / (2.0 * M), rel=1e-15)
    assert gamma_quadratic_roots(900.0, 0.0) == pytest.approx((gp, gm), rel=1e-15)


def test_gamma_minus_is_one_without_excitation():
    r = 0.07
    gp, gm = _gammas(0.0, r)
    assert gm == pytest.approx(1.0, abs=1e-14)
    assert gp > 1.0


def test_gamma_solutions_published_example():
    r = (BOOST6.beta_i / BOOST6.gamma_i) * math.cos(math.radians(45.0))
    gp, gm = _gammas(818.8, r)
    assert gp == pytest.approx(1.9275, abs=2e-4)
    assert gm == pytest.approx(1.6962, abs=2e-4)
    assert defining_residual(gp, 818.8, r, "+") == pytest.approx(0.0, abs=1e-12)
    assert defining_residual(gm, 818.8, r, "-") == pytest.approx(0.0, abs=1e-12)
    assert gamma_quadratic_roots(818.8, r) == pytest.approx((gp, gm), rel=1e-14)


def test_gamma_solutions_reject_bad_r():
    with pytest.raises(ValueError):
        kin._gamma_excess(500.0, 1.0, DEFAULT_CONSTANTS)


def test_closed_form_against_bisection_oracle():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        deps = float(rng.uniform(100.0, 1900.0))
        r = float(rng.uniform(0.0, 0.4))
        gp, gm = _gammas(deps, r)
        for g, branch in ((gp, "+"), (gm, "-")):
            worst = max(worst, abs(defining_residual(g, deps, r, branch)))
            f = lambda x: defining_residual(x, deps, r, branch)
            oracle = bisect_root(f, max(1.0, g - 0.25), g + 0.25, 1e-12)
            worst = max(worst, abs(oracle - g))
    assert worst < 1e-9


def test_lab_energy_no_boost_limit():
    still = kin.IonBoost(gamma_i=1.0, beta_i=0.0)
    sol = kin.lab_pair_energy(still, 818.8, math.radians(37.0), "-")
    assert sol.t_lab == pytest.approx(818.8, rel=1e-14)


def test_lab_energy_published_table_values():
    # branch +, theta = 45 deg, x = 6; tolerances are the published-table 0.5%
    sol = kin.lab_pair_energy(BOOST6, 818.8, math.radians(45.0), "+")
    assert sol.t_lab == pytest.approx(571.0, rel=0.005)
    sol = kin.lab_pair_energy(BOOST6, 757.44, math.radians(45.0), "+")
    assert sol.t_lab == pytest.approx(521.4, rel=0.005)


def test_pair_solution_fields():
    theta = math.radians(52.0)
    sol = kin.lab_pair_energy(BOOST6, 900.0, theta, "-")
    assert sol.r_parameter == pytest.approx((BOOST6.beta_i / BOOST6.gamma_i) * math.cos(theta), rel=1e-14)
    assert 0.0 <= sol.r_parameter < 1.0
    assert sol.e_cm == pytest.approx(2.0 * M * sol.gamma_e, rel=1e-14)
    beta_e = math.sqrt(1.0 - 1.0 / sol.gamma_e**2)
    assert sol.p_cm == pytest.approx(-2.0 * M * sol.gamma_e * beta_e * math.cos(theta), rel=1e-12)
    assert sol.delta_ke == 0.0 and sol.k_cm == 0.0


def test_pair_solution_is_immutable_hashable_and_equal_by_fields():
    theta = math.radians(52.0)
    sol = kin.lab_pair_energy(BOOST6, 900.0, theta, "-")
    again = kin.lab_pair_energy(BOOST6, 900.0, theta, "-")
    assert sol is not again and sol == again and hash(sol) == hash(again)
    assert len({sol, again}) == 1
    for name, value in (("t_lab", 0.0), ("branch", "+"), ("unlisted", 1.0)):
        with pytest.raises(AttributeError):
            setattr(sol, name, value)
    assert sol == again
    bare = kin.PairSolution(branch="+", theta_e=theta, r_parameter=0.1, gamma_e=1.5, t_lab=500.0, e_cm=1533.0, p_cm=-300.0)
    assert bare.delta_ke == 0.0 and bare.k_cm == 0.0


def test_lorentz_transform_consistency_minus_branch():
    # 2m + T_lab = gamma_I (E' + beta_I P') holds exactly on the '-' branch
    for deps in (500.0, 818.8, 1000.0):
        for deg in (20.0, 45.0, 70.0, 90.0):
            sol = kin.lab_pair_energy(BOOST6, deps, math.radians(deg), "-")
            lhs = 2.0 * M + sol.t_lab
            rhs = BOOST6.gamma_i * (sol.e_cm + BOOST6.beta_i * sol.p_cm)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def test_recoil_free_endpoint():
    deps = 818.8
    sol = kin.lab_pair_energy(BOOST6, deps, math.radians(90.0), "-")
    assert sol.r_parameter == pytest.approx(0.0, abs=1e-16)
    expected = (BOOST6.gamma_i - 1.0) * 2.0 * M + BOOST6.gamma_i * deps
    assert sol.t_lab == pytest.approx(expected, rel=1e-12)


def test_theta_domain():
    with pytest.raises(ValueError):
        kin.lab_pair_energy(BOOST6, 800.0, 0.0, "-")
    with pytest.raises(ValueError):
        kin.lab_pair_energy(BOOST6, 800.0, math.radians(91.0), "-")
    with pytest.raises(ValueError):
        kin.lab_pair_energy(BOOST6, 800.0, math.radians(45.0), "x")


def test_solve_theta_published_angles():
    # U+Pb observed 576 keV: Pb:K->K' (+) at 46.4 deg and U:K->K' (+) at 56.0 deg
    theta = kin.solve_theta(BOOST6, 818.835, "+", 576.0)
    assert theta is not None
    assert math.degrees(theta) == pytest.approx(46.4, abs=0.5)
    theta = kin.solve_theta(BOOST6, 757.438, "+", 576.0)
    assert theta is not None
    assert math.degrees(theta) == pytest.approx(56.0, abs=0.5)


def test_solve_theta_round_trip_exactness():
    theta = math.radians(45.0)
    target = kin.lab_pair_energy(BOOST6, 900.0, theta, "-").t_lab
    solved = kin.solve_theta(BOOST6, 900.0, "-", target)
    assert solved is not None
    assert math.degrees(solved) == pytest.approx(45.0, abs=1e-3)


def test_solve_theta_empty_when_unreachable():
    assert kin.solve_theta(BOOST6, 500.0, "-", 5000.0) is None


def test_round_trip_grid():
    rng = np.random.default_rng(22)
    for _ in range(60):
        deps = float(rng.uniform(100.0, 1900.0))
        theta = math.radians(float(rng.uniform(5.0, 85.0)))
        branch = "+" if rng.integers(2) else "-"
        target = kin.lab_pair_energy(BOOST6, deps, theta, branch).t_lab
        solved = kin.solve_theta(BOOST6, deps, branch, target)
        assert solved is not None and abs(math.degrees(solved - theta)) < 1e-3


def test_t_lab_monotone_in_cos_theta_minus_branch():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deps = float(rng.uniform(100.0, 1900.0))
        degs = np.linspace(5.0, 90.0, 60)
        ts = [kin.lab_pair_energy(BOOST6, deps, math.radians(float(d)), "-").t_lab for d in degs]
        # decreasing cos => increasing T on the '-' branch
        assert all(b > a for a, b in zip(ts, ts[1:]))


# --- properties -------------------------------------------------------------------

_branches = st.sampled_from(("+", "-"))
_beam_energies = st.floats(0.5, 500.0)  # MeV/u
_transition_energies = st.floats(1.0, 1021.0)  # keV
# opening half-angles in degrees; below 1e-300 the radian value underflows to 0
_angles = st.floats(1e-300, 90.0)


@settings(max_examples=300, deadline=None)
@given(deps=st.floats(1.0, 2000.0), r=st.floats(0.0, 0.9))
def test_branch_roots_agree_with_bisection_oracle(deps, r):
    # Both residuals are d > 0 at gamma = 1.  The "-" one falls monotonically
    # and is <= 0 at 1 + d; the "+" one is <= -1 at (2 + d)/(1 - R) and
    # changes sign once on the way.  Each bracket therefore holds exactly one
    # root, found without the closed form.
    d = deps / (2.0 * M)
    gp, gm = _gammas(deps, r)
    for g, branch, upper in ((gp, "+", (2.0 + d) / (1.0 - r)), (gm, "-", 1.0 + d)):
        oracle = bisect_root(lambda x: defining_residual(x, deps, r, branch), 1.0, upper, 1e-13)
        assert g == pytest.approx(oracle, rel=1e-10, abs=0.0), branch


@settings(max_examples=300, deadline=None)
@given(deps=st.floats(0.0, 2000.0), r=st.floats(0.0, 0.95))
# R^2 >> d: gamma_minus - 1 = 5.9e-13, of which the quadratic's difference keeps three digits
@example(deps=1e-3, r=0.9)
def test_gamma_excess_matches_the_plain_quadratic(deps, r):
    # the cancellation-free excesses against the textbook roots, compared as gamma
    plus, minus = gamma_quadratic_roots(deps, r)
    assert _gammas(deps, r) == pytest.approx((plus, minus), rel=1e-14, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(
    x=_beam_energies,
    deps=_transition_energies,
    branch=_branches,
    a=_angles,
    b=_angles,
)
# gamma_minus - 1 = 8e-6 here, below the rounding of a difference of two O(1) numbers
@example(x=33.0, deps=1.0, branch="-", a=1e-3, b=1e-300)
def test_t_lab_increases_strictly_with_theta(x, deps, branch, a, b):
    # the precondition for solving T_lab(theta) = target with a single bracket on (0, 90]
    lo, hi = sorted((a, b))
    assume(hi - lo >= 1e-3)
    boost = kin.boost_from_beam_energy(x)
    t_lo = kin.lab_pair_energy(boost, deps, math.radians(lo), branch).t_lab
    t_hi = kin.lab_pair_energy(boost, deps, math.radians(hi), branch).t_lab
    assert t_lo < t_hi


# solve_theta cases: a target on the T_lab curve at theta, one in ten scaled so
# that some fall out of reach
_solve_cases = dict(
    x=st.floats(math.log(0.5), math.log(500.0)).map(math.exp),  # log-uniform MeV/u
    deps=_transition_energies,
    branch=_branches,
    theta=st.floats(0.1, 90.0),
    miss=st.integers(0, 9),
    scale=st.floats(0.5, 1.5),
)


def _solve_target(x, deps, branch, theta, miss, scale):
    boost = kin.boost_from_beam_energy(x)
    return boost, kin.lab_pair_energy(boost, deps, math.radians(theta), branch).t_lab * (scale if miss == 0 else 1.0)


@settings(max_examples=200, deadline=None)
@given(**_solve_cases)
def test_solve_theta_finds_the_one_root_a_bisection_oracle_finds(x, deps, branch, theta, miss, scale):
    # one target in ten is scaled, so that some fall out of reach.  T_lab is
    # monotone in theta, so a root exists exactly when [0.1, 90] degrees
    # brackets a sign change, and bisection over that bracket is the oracle.
    boost, target = _solve_target(x, deps, branch, theta, miss, scale)
    assume(target > 0.0)  # the "+" branch's T_lab is negative at small angles; solve_theta takes positive targets

    def f(deg):
        return kin.lab_pair_energy(boost, deps, math.radians(deg), branch).t_lab - target

    lo, hi = f(0.1), f(90.0)
    solved = kin.solve_theta(boost, deps, branch, target)
    if (lo > 0.0) == (hi > 0.0) and lo != 0.0 and hi != 0.0:
        assert solved is None
    else:
        oracle = bisect_root(f, 0.1, 90.0, 1e-9, fa=lo, fb=hi)
        assert solved is not None
        assert abs(math.degrees(solved) - oracle) <= 1e-4


def _every_scan_root(boost, deps, branch, target):
    """Every root of a full 900-point scan, ascending in radians: solve_theta's former body, as a reference."""

    def f(deg):
        return kin.lab_pair_energy(boost, deps, math.radians(deg), branch).t_lab - target

    grid = [0.1 + i * 0.1 for i in range(900)]
    grid[-1] = min(grid[-1], 90.0)
    vals = [f(deg) for deg in grid]
    roots = [a for a, fa in zip(grid, vals) if fa == 0.0]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa != 0.0 and (fa > 0.0) != (fb > 0.0):
            roots.append(bisect_root(f, a, b, 1e-4, fa=fa, fb=fb))
    return [math.radians(deg) for deg in sorted(set(roots))]


@settings(max_examples=200, deadline=None)
@given(**_solve_cases)
@example(x=6.0, deps=818.835, branch="-", theta=0.1 + 449 * 0.1, miss=1, scale=1.0)  # exact zero at a grid angle
@example(x=6.0, deps=818.835, branch="-", theta=0.1, miss=0, scale=0.5)  # below reach
@example(x=6.0, deps=818.835, branch="-", theta=90.0, miss=0, scale=1.5)  # above reach
def test_solve_theta_returns_the_one_root_a_full_scan_finds(x, deps, branch, theta, miss, scale):
    # stopping at the first bracket loses nothing: the full scan never finds
    # a second root, and the one it finds is the same float
    boost, target = _solve_target(x, deps, branch, theta, miss, scale)
    assume(target > 0.0)
    roots = _every_scan_root(boost, deps, branch, target)
    assert len(roots) <= 1
    assert kin.solve_theta(boost, deps, branch, target) == (roots[0] if roots else None)


@pytest.mark.parametrize("branch", ["+", "-"])
def test_lab_pair_energy_fails_closed_on_overflow(branch):
    # gamma_I delta_eps overflows: T_lab was inf
    with pytest.raises(ValueError, match="float range"):
        kin.lab_pair_energy(kin.boost_from_beam_energy(1e290), 1e100, math.radians(45.0), branch)
    # a huge electron mass inside Constants' domain: the terms in 2 m overflow
    huge = Constants(electron_rest_energy=1e154)
    with pytest.raises(ValueError, match="float range"):
        kin.lab_pair_energy(BOOST6, 1e308, math.radians(45.0), branch, huge)


def test_overflowing_delta_eps_rejected():
    for branch in ("+", "-"):
        with pytest.raises(ValueError, match="delta_eps is too large"):
            kin.lab_pair_energy(BOOST6, 1e300, math.radians(45.0), branch)
    with pytest.raises(ValueError, match="delta_eps is too large"):
        kin._gamma_excess(1e300, 0.0, DEFAULT_CONSTANTS)
    # at theta = 90 degrees (R = 0) the bound is where d (2 + d) overflows
    root_max = math.sqrt(np.finfo(float).max)
    inside = kin.lab_pair_energy(BOOST6, 2.0 * M * 0.999 * root_max, 0.5 * math.pi, "-")
    assert math.isfinite(inside.gamma_e) and inside.gamma_e > 1e153
    assert math.isfinite(inside.t_lab) and inside.t_lab > 0.0
    inside = kin.lab_pair_energy(BOOST6, 2.0 * M * 0.999 * root_max, 0.5 * math.pi, "+")
    assert math.isfinite(inside.gamma_e) and math.isfinite(inside.t_lab)
    with pytest.raises(ValueError, match="delta_eps is too large"):
        kin.lab_pair_energy(BOOST6, 2.0 * M * 1.001 * root_max, 0.5 * math.pi, "-")
