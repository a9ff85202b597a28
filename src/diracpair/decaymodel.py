"""Metastable-state decay phenomenology: current-dependent yields and line shape.

A metastable bound-pair state decays by photon emission, by conversion of an
incident free pair, and by current-induced channels whose rate grows like the
square of the beam current.  Factoring one power of current out of every rate
leaves a pair-production cross section

    sigma_ep(J) = sigma0 / (x0 + eta J),        x0 = (R_phi + R_ep) / R_ep >= 1,

and a counting time to reach a z-sigma signal that, in the dimensionless
current x = eta J, behaves as tau = 1/x without the induced channel but as
tau = (x0 + x)^2 / x with it: past x = x0 more beam makes the measurement
slower, not faster.

The near-threshold line shape of the pair-sum spectrum is a one-sided
inverse-square-root density: with x = T_sum - delta_eps + delta_shift,
density = scale * step(x) / sqrt(x), integrable at the edge and rendered as a
bin-averaged cap inside the first bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayParams",
    "LineShapeParams",
    "counting_time",
    "optimal_current",
    "pair_cross_section",
    "threshold_lineshape",
]


@dataclass(frozen=True)
class DecayParams:
    """Parameters of the current-dependent pair yield."""

    sigma0: float = 1.0  # cross-section scale, arbitrary units
    x0: float = 1.0  # (R_phi + R_ep)/R_ep, dimensionless
    eta: float = 1.0  # converts beam current to the dimensionless x

    def __post_init__(self) -> None:
        if self.x0 < 1.0:
            raise ValueError("x0 = (R_phi + R_ep)/R_ep cannot be below 1")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class LineShapeParams:
    """Threshold line-shape parameters; density_scale absorbs the matrix element."""

    density_scale: float = 1.0
    delta_eps_shift: float = 0.0  # keV; kinetic-energy offset, zero near threshold
    bin_width: float = 1.0  # keV; regularization bin for the integrable edge

    def __post_init__(self) -> None:
        if self.density_scale <= 0.0:
            raise ValueError("density_scale must be positive")
        if self.bin_width <= 0.0:
            raise ValueError("bin_width must be positive")


def pair_cross_section(current: float, params: DecayParams) -> float:
    """sigma_ep(J) = sigma0 / (x0 + eta J); strictly decreasing in the current."""
    if current < 0.0:
        raise ValueError("beam current cannot be negative")
    return params.sigma0 / (params.x0 + params.eta * current)


def counting_time(x, x0: float = 1.0, mode: str = "metastable"):
    """Dimensionless counting time to significance at dimensionless current x.

    mode 'baseline' gives 1/x (more current, faster); 'metastable' gives
    (x0 + x)^2 / x, minimized at x = x0 and rising for stronger beams.
    Accepts a scalar or an array of currents; the square is the correctly
    rounded y * y, y = x0 + x, so an array gives each element's scalar
    value exactly.  Raises ValueError for any current that is not a positive
    finite number and for any time beyond the float range.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise ValueError("dimensionless current must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "baseline":
            out = 1.0 / xs
        elif mode == "metastable":
            y = x0 + xs
            out = y * y / xs
        else:
            raise ValueError(f"mode must be 'baseline' or 'metastable', got {mode!r}")
    if not np.all(np.isfinite(out)):
        raise ValueError("counting time is beyond the float range")
    if np.isscalar(x):
        return float(out)
    return out


def optimal_current(x0: float) -> tuple[float, float]:
    """Minimum of the metastable counting time: at x = x0 with tau = 4 x0."""
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    return x0, 4.0 * x0


def threshold_lineshape(t_sum, delta_eps: float, params: LineShapeParams):
    """Pair-sum spectral density scale * step(x)/sqrt(x), x = T_sum - delta_eps + shift.

    Below threshold the density vanishes; within the first bin [0, bin_width]
    the integrable divergence is reported as its bin average
    2 * scale / sqrt(bin_width), which preserves the integral exactly.
    Accepts a scalar or an array of T_sum values (keV).  Raises ValueError
    when the cap or any x is not a finite float.
    """
    t = np.asarray(t_sum, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = t - delta_eps + params.delta_eps_shift
    eps = params.bin_width
    cap = 2.0 * params.density_scale / math.sqrt(eps)
    if not math.isfinite(cap):
        raise ValueError("edge cap 2*scale/sqrt(bin_width) is beyond the float range")
    if not np.all(np.isfinite(x)):
        raise ValueError("x = T_sum - delta_eps + shift must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = params.density_scale / np.sqrt(np.where(x > 0.0, x, np.inf))
    out = np.where(x < 0.0, 0.0, np.where(x <= eps, cap, tail))
    if np.isscalar(t_sum):
        return float(out)
    return out
