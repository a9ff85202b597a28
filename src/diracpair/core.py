"""Shared constants, units, and the coupling-alternative switch.

Internal unit system: hbar = c = 1.  Every energy and momentum is in keV,
lengths and times are in 1/keV, angles are in radians unless a function
explicitly says degrees.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Alternative",
    "Constants",
    "DEFAULT_CONSTANTS",
    "ROOT_TOLERANCE",
    "bisect_root",
    "energy_of_momentum",
    "load_constants",
    "require_finite",
]

# Convergence target for every bracketed bisection solve in the package.
ROOT_TOLERANCE = 1e-9


class Alternative(enum.Enum):
    """How a static potential enters the one-particle Dirac Hamiltonian.

    D1 adds the potential as-is (the conventional coupling).  D2 multiplies
    the potential by the sign-of-energy operator, which keeps the spectrum
    symmetric about zero energy.
    """

    D1 = "d1"
    D2 = "d2"

    @classmethod
    def from_string(cls, text: str) -> "Alternative":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown alternative {text!r}, expected 'd1' or 'd2'") from None


@dataclass(frozen=True)
class Constants:
    """Physical constants and numeric tolerances used by every module.

    Defaults are the CODATA 2018 values; they can be overridden from a JSON
    config file (keys ``m_e_keV`` and ``alpha0``) via :func:`load_constants`.
    """

    electron_rest_energy: float = 510.998950  # m_e c^2 in keV
    fine_structure: float = 7.2973525693e-3  # alpha_0, dimensionless
    numeric_tolerance: float = 1e-12  # relative, for algebraic identities

    def __post_init__(self) -> None:
        if self.electron_rest_energy <= 0.0:
            raise ValueError("electron_rest_energy must be positive")
        if not 0.0 < self.fine_structure < 1.0:
            raise ValueError("fine_structure must lie in (0, 1)")
        if self.numeric_tolerance <= 0.0:
            raise ValueError("numeric_tolerance must be positive")

    @property
    def m(self) -> float:
        """Electron rest energy in keV (shorthand used throughout)."""
        return self.electron_rest_energy


DEFAULT_CONSTANTS = Constants()


def load_constants(path: str | Path) -> Constants:
    """Build :class:`Constants` from a JSON file overriding the defaults.

    Recognized keys: ``m_e_keV``, ``alpha0``, ``numeric_tolerance``.  Unknown
    keys are rejected so typos do not silently fall back to defaults.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("constants config must be a JSON object")
    known = {"m_e_keV", "alpha0", "numeric_tolerance"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown constants config keys: {sorted(unknown)}")
    return Constants(
        electron_rest_energy=float(raw.get("m_e_keV", DEFAULT_CONSTANTS.electron_rest_energy)),
        fine_structure=float(raw.get("alpha0", DEFAULT_CONSTANTS.fine_structure)),
        numeric_tolerance=float(raw.get("numeric_tolerance", DEFAULT_CONSTANTS.numeric_tolerance)),
    )


def energy_of_momentum(p, constants: Constants = DEFAULT_CONSTANTS):
    """Free-particle energy sqrt(p^2 + m^2) in keV.

    Accepts a scalar or a numpy array; even in p and >= m everywhere.
    """
    m = constants.electron_rest_energy
    return (p * p + m * m) ** 0.5


def require_finite(name: str, value, positive: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` (a number or a sequence) is finite.

    With ``positive`` every number must also be > 0.  The one input check of
    the package: dataclasses, packet construction and the CLI all call it, so
    a nan or inf never reaches the numerics.  A Python ``int`` or ``float``
    is checked with ``math``; anything else goes through numpy, imported
    here so that importing the package does not load it.
    """
    if isinstance(value, (int, float)):
        finite, pos = math.isfinite(value), value > 0.0
    else:
        import numpy as np

        x = np.asarray(value, dtype=float)
        finite, pos = bool(np.all(np.isfinite(x))), bool(np.all(x > 0.0))
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not pos:
        raise ValueError(f"{name} must be positive, got {value!r}")


def bisect_root(f, a: float, b: float, xtol: float, fa: float | None = None, fb: float | None = None) -> float:
    """Bisection on a bracketing interval [a, b] with f(a)*f(b) <= 0.

    Plain bisection is used everywhere a root is bracketed: it is branch-free,
    deterministic, and accurate to the requested ``xtol`` on the abscissa.
    """
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("bisect_root requires a sign change on [a, b]")
    while (b - a) > xtol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)
