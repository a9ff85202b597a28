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

import numpy as np

__all__ = [
    "counting_time",
    "optimal_current",
    "pair_cross_section",
    "threshold_lineshape",
]


def _require_x0(x0: float) -> None:
    """x0 = (R_phi + R_ep)/R_ep is a finite ratio of rates, at least 1."""
    if not 1.0 <= x0 < math.inf:
        raise ValueError("x0 = (R_phi + R_ep)/R_ep cannot be below 1")


def pair_cross_section(current: float, x0: float) -> float:
    """sigma_ep/sigma0 = 1/(x0 + x) at dimensionless current x; strictly decreasing in x."""
    _require_x0(x0)
    if current < 0.0:
        raise ValueError("beam current cannot be negative")
    return 1.0 / (x0 + current)


def counting_time(x, x0: float = 1.0, mode: str = "metastable"):
    """Dimensionless counting time to significance at dimensionless current x.

    mode 'baseline' gives 1/x (more current, faster); 'metastable' gives
    (x0 + x)^2 / x, minimized at x = x0 and rising for stronger beams.
    Accepts a scalar or an array of currents; the square is the correctly
    rounded y * y, y = x0 + x, so an array gives each element's scalar
    value exactly.  Raises ValueError for an x0 that is not finite and at
    least 1, for any current that is not a positive finite number and for
    any time beyond the float range.
    """
    _require_x0(x0)
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
    if np.ndim(x) == 0:
        return float(out)
    return out


def optimal_current(x0: float) -> tuple[float, float]:
    """Minimum of the metastable counting time: at x = x0 with tau = 4 x0."""
    _require_x0(x0)
    return x0, 4.0 * x0


def threshold_lineshape(
    t_sum,
    delta_eps: float,
    density_scale: float = 1.0,
    delta_eps_shift: float = 0.0,
    bin_width: float = 1.0,
):
    """Pair-sum spectral density scale * step(x)/sqrt(x), x = T_sum - delta_eps + shift.

    ``density_scale`` absorbs the matrix element; ``delta_eps_shift`` (keV)
    is a kinetic-energy offset, zero near threshold.  Below threshold the
    density vanishes; within the first bin [0, bin_width] (keV) the
    integrable divergence is reported as its bin average
    2 * scale / sqrt(bin_width), which preserves the integral exactly.
    Accepts a scalar or an array of T_sum values (keV).  Raises ValueError
    when the scale or the bin width is not positive, or when the cap or any
    x is not a finite float.
    """
    if density_scale <= 0.0:
        raise ValueError("density_scale must be positive")
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    t = np.asarray(t_sum, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = t - delta_eps + delta_eps_shift
    cap = 2.0 * density_scale / math.sqrt(bin_width)
    if not math.isfinite(cap):
        raise ValueError("edge cap 2*scale/sqrt(bin_width) is beyond the float range")
    if not np.all(np.isfinite(x)):
        raise ValueError("x = T_sum - delta_eps + shift must be finite")
    # an overflowing tail lies inside the first bin, where the cap replaces it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tail = density_scale / np.sqrt(np.where(x > 0.0, x, np.inf))
    out = np.where(x < 0.0, 0.0, np.where(x <= bin_width, cap, tail))
    if np.ndim(t_sum) == 0:
        return float(out)
    return out
