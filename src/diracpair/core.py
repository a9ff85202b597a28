"""Shared constants, units, and the coupling-alternative switch.

Internal unit system: hbar = c = 1.  Every energy and momentum is in keV,
lengths and times are in 1/keV, angles are in radians unless a function
explicitly says degrees.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass

__all__ = [
    "Alternative",
    "Constants",
    "DEFAULT_CONSTANTS",
    "MAX_COUNT",
    "ROOT_TOLERANCE",
    "bisect_root",
    "energy_of_momentum",
    "json_field",
    "load_constants",
    "require_finite",
]

# Convergence target, relative to m, of the square-well level bisection.
ROOT_TOLERANCE = 1e-9

# Largest count a flag (steps, top-k, n-random) accepts and largest scan a
# solver builds: far above any real sweep, and small enough that the grids it
# sizes fit in memory.
MAX_COUNT = 10**6


def require_finite(name: str, value, positive: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` (a number, or a tuple or list of them) is finite.

    With ``positive`` every number must also be > 0.  The one input check of
    the package: dataclasses, packet construction and the CLI all call it, so
    a nan or inf never reaches the numerics; only
    ``scatter1d.PotentialProfile`` passes a sequence.  Every number goes
    through ``math.isfinite``, so the check loads no numpy.
    """
    numbers = value if isinstance(value, (tuple, list)) else (value,)
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not all(x > 0.0 for x in numbers):
        raise ValueError(f"{name} must be positive, got {value!r}")


def json_field(obj: dict, key: str, kind: type, default=..., positive: bool = False, label: str | None = None):
    """Return ``obj[key]``, a value read by ``json``, checked as a JSON value of ``kind``.

    ``kind`` is ``float`` (an int or float, not a bool, finite, > 0 with
    ``positive``; returned as a float), ``str``, ``bool`` or ``list`` (of
    strings).  Without a ``default`` the field is required; with one it takes
    the default when absent and fails on null; with ``default=None`` it is
    optional, None when absent or null.  The one reader of config and catalog
    fields: each failure is a ValueError that starts with ``label`` or ``key``.
    """
    value = obj.get(key, default)
    if value is ...:
        raise ValueError(f"{label or key} is missing")
    if value is None and default is None:
        return None
    if kind is float:
        # exact for an int of any size, and false for nan
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max and (value > 0 or not positive)
    else:
        ok = type(value) is kind and (kind is not list or all(type(item) is str for item in value))
    if not ok:
        what = {float: f"a finite{' positive' * positive} number", str: "a JSON string", bool: "a JSON bool", list: "a list of strings"}[kind]
        raise ValueError(f"{label or key} must be {what}, got {value!r}")
    return float(value) if kind is float else value


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
    config file (keys ``m_e_keV``, ``alpha0`` and ``numeric_tolerance``) via
    :func:`load_constants`.
    """

    electron_rest_energy: float = 510.998950  # m_e c^2 in keV
    fine_structure: float = 7.2973525693e-3  # alpha_0, dimensionless
    numeric_tolerance: float = 1e-12  # relative, for algebraic identities

    def __post_init__(self) -> None:
        # named by their config keys, which every report header prints; D1 and D2
        # are compared through m^2 (E_p^2 = p^2 + m^2, the gap edges +-m)
        m = self.electron_rest_energy
        if not (m > 0.0 and sys.float_info.min <= m * m <= sys.float_info.max):
            raise ValueError(f"m_e_keV must be positive with m^2 a finite normal float (about 1.5e-154 to 1.3e154), got {m!r}")
        if not 0.0 < self.fine_structure < 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1), got {self.fine_structure!r}")
        require_finite("numeric_tolerance", self.numeric_tolerance, positive=True)

    @property
    def m(self) -> float:
        """Electron rest energy in keV (shorthand used throughout)."""
        return self.electron_rest_energy


DEFAULT_CONSTANTS = Constants()


def load_constants(path: str | os.PathLike) -> Constants:
    """Build :class:`Constants` from a JSON file overriding the defaults.

    Recognized keys: ``m_e_keV``, ``alpha0``, ``numeric_tolerance``.  Unknown
    keys are rejected so typos do not silently fall back to defaults, and so
    is a value that is not a finite JSON number (:func:`json_field`).
    """
    import json

    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError("constants config must be a JSON object")
    fields = {"m_e_keV": "electron_rest_energy", "alpha0": "fine_structure", "numeric_tolerance": "numeric_tolerance"}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValueError(f"unknown constants config keys: {sorted(unknown)}")
    return Constants(**{fields[key]: json_field(raw, key, float) for key in raw})


def energy_of_momentum(p, constants: Constants = DEFAULT_CONSTANTS):
    """Free-particle energy sqrt(p^2 + m^2) in keV.

    Accepts a scalar or a numpy array; even in p and >= m everywhere.
    """
    m = constants.electron_rest_energy
    return (p * p + m * m) ** 0.5


def bisect_root(f, a: float, b: float, xtol: float, fa: float | None = None, fb: float | None = None) -> float:
    """Bisection on a bracketing interval [a, b] with f(a)*f(b) <= 0.

    Branch-free, deterministic, and accurate to ``xtol`` on the abscissa;
    ``kinematics.solve_theta`` refines the one bracketed angle with it.
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
