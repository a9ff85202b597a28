"""Kinematics of free electron-positron pairs emitted by a moving excited ion.

An ion carrying a bound-pair excitation of energy delta_eps moves with the
beam velocity (gamma_I = 1 + 0.001 x for a beam energy of x MeV/nucleon).  In
the ion frame the pair leaves with opening half-angle theta_e and Lorentz
factor gamma_e solving

    delta_eps/(2m) + 1 - gamma_e = +- R sqrt(gamma_e^2 - 1),
    R = (beta_I/gamma_I) cos(theta_e),

with the minus sign defining the "+" branch (both quadratic roots are kept as
first-class solutions).  The laboratory pair kinetic energy follows as

    T_lab = (gamma_I - 1) 2m
            + gamma_I (delta_eps - 2m (1+gamma_I)/gamma_I sqrt(gamma_e^2-1) beta_I cos(theta_e)),

applied to either branch's gamma_e; the experiment tables are reproduced by
exactly this form.  Inversion for the one theta_e at a target T_lab bisects
the first 0.1-degree grid step that brackets the target.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .core import Constants, DEFAULT_CONSTANTS, bisect_root, require_finite

__all__ = [
    "IonBoost",
    "PairSolution",
    "boost_from_beam_energy",
    "lab_pair_energy",
    "solve_theta",
]

_BRANCHES = ("+", "-")


@dataclass(frozen=True)
class IonBoost:
    """Ion boost after scattering, assumed equal to the beam velocity."""

    gamma_i: float
    beta_i: float


class PairSolution(
    namedtuple("PairSolution", "branch theta_e r_parameter gamma_e t_lab e_cm p_cm delta_ke k_cm", defaults=(0.0, 0.0))
):
    """One branch solution at a given opening half-angle.

    ``theta_e`` is in radians and the energies ``t_lab``, ``e_cm``, ``p_cm``
    in keV.  ``e_cm``/``p_cm`` are the pair energy and longitudinal momentum
    in the ion frame; ``delta_ke`` (ion kinetic-energy change entering the
    line position) and ``k_cm`` (pair center-of-mass kinetic energy) are
    retained as explicit fields but fixed to zero under the near-threshold
    assumptions.  A named tuple, not a frozen dataclass: the angle scan
    builds one per evaluation.
    """

    __slots__ = ()


def boost_from_beam_energy(x: float) -> IonBoost:
    """Boost for a beam energy of x MeV per nucleon: gamma_I = 1 + 0.001 x."""
    require_finite("beam energy", x, positive=True)
    gamma_i = 1.0 + 0.001 * x
    beta_i = math.sqrt(1.0 - 1.0 / (gamma_i * gamma_i))
    return IonBoost(gamma_i=gamma_i, beta_i=beta_i)


def _check_branch(branch: str) -> float:
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    return +1.0 if branch == "+" else -1.0


def _gamma_excess(delta_eps: float, r: float, constants: Constants) -> tuple[float, float]:
    """Both roots of the emission equation as (gamma_plus - 1, gamma_minus - 1).

    The closed form gamma_minus = (1 + d - R root)/(1 - R^2), with
    root = sqrt(d (2 + d) + R^2), loses the digits of gamma_minus - 1 when
    R^2 >> d, and sqrt(gamma^2 - 1) taken from gamma loses more.  The two excesses multiply to d^2/(1 - R^2), so
    gamma_minus - 1 follows from gamma_plus - 1 as a quotient of positive
    terms.  Raises once gamma_plus^2 - 1 = e (e + 2), e = gamma_plus - 1,
    overflows; at R = 0 that is where d (2 + d) does, and for R > 0 it is
    earlier.  gamma_minus <= gamma_plus, so both roots' gamma beta stay finite.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("R must lie in [0, 1)")
    if delta_eps < 0.0:
        raise ValueError("delta_eps must be non-negative")
    d = delta_eps / (2.0 * constants.m)
    lifted = d + r * (r + math.sqrt(d * (2.0 + d) + r * r))
    plus = lifted / (1.0 - r * r)
    if not math.isfinite(plus * (plus + 2.0)):
        raise ValueError("delta_eps is too large: the pair's Lorentz factor overflows")
    return plus, (d * (d / lifted) if d > 0.0 else 0.0)


def lab_pair_energy(
    boost: IonBoost,
    delta_eps: float,
    theta_e: float,
    branch: str,
    constants: Constants = DEFAULT_CONSTANTS,
) -> PairSolution:
    """Laboratory total pair kinetic energy for one branch at theta_e (radians).

    theta_e must lie in (0, pi/2]; at pi/2 the pair leaves back-to-back, the
    ion takes no recoil, and T_lab reduces to (gamma_I - 1) 2m + gamma_I delta_eps.
    """
    if not 0.0 < theta_e <= 0.5 * math.pi + 1e-15:
        raise ValueError("theta_e must lie in (0, pi/2]")
    sign = _check_branch(branch)
    m = constants.m
    r = (boost.beta_i / boost.gamma_i) * math.cos(theta_e)
    plus, minus = _gamma_excess(delta_eps, r, constants)
    excess = plus if sign > 0 else minus
    gamma_e = 1.0 + excess
    gb = math.sqrt(excess * (excess + 2.0))  # gamma_e * beta_e
    t_lab = (boost.gamma_i - 1.0) * 2.0 * m + boost.gamma_i * (
        delta_eps
        - 2.0 * m * ((1.0 + boost.gamma_i) / boost.gamma_i) * gb * boost.beta_i * math.cos(theta_e)
    )
    e_cm = 2.0 * m * gamma_e
    p_cm = -2.0 * m * gb * math.cos(theta_e)
    if not (math.isfinite(t_lab) and math.isfinite(e_cm) and math.isfinite(p_cm)):
        raise ValueError("T_lab, E_cm or P_cm is beyond the float range")
    return PairSolution(
        branch=branch,
        theta_e=theta_e,
        r_parameter=r,
        gamma_e=gamma_e,
        t_lab=t_lab,
        e_cm=e_cm,
        p_cm=p_cm,
    )


def solve_theta(
    boost: IonBoost,
    delta_eps: float,
    branch: str,
    t_target: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float | None:
    """The opening half-angle in (0, 90] degrees with T_lab = t_target.

    Radians, or None when the target is out of reach; T_lab rises strictly
    with the angle on both branches, so there is no second one.  theta = 0 is
    excluded (collinear emission carries no opening) and 90 degrees enters as
    the recoil-free endpoint.  The first 0.1-degree step from 0.1 to 90
    degrees that brackets the target is bisected to 1e-4 degrees.
    """
    if t_target <= 0.0:
        raise ValueError("target energy must be positive")

    def f(theta_deg: float) -> float:
        return lab_pair_energy(boost, delta_eps, math.radians(theta_deg), branch, constants).t_lab - t_target

    a, fa = 0.1, f(0.1)
    for i in range(1, 900):
        b = min(0.1 + i * 0.1, 90.0)
        fb = f(b)
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0):
            return math.radians(bisect_root(f, a, b, 1e-4, fa=fa, fb=fb))
        a, fa = b, fb
    return None
