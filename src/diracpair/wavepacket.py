"""Free momentum-space wave packets: probability current vs. charge current.

Amplitudes are indexed by the spatial momentum q on a uniform symmetric grid.
At each q the positive-energy component multiplies the +E_q eigenspinor u(q)
of the 2x2 reduction and evolves as e^{-i E_q t}; the negative-energy
component ("dstar") multiplies the -E_q eigenspinor v(q) and evolves as
e^{+i E_q t}.  Because u(q) and v(q) are orthogonal eigenvectors of the same
Hermitian operator, the charge current e <p/E> has no cross terms and is a
constant of the motion, while the probability current <alpha> picks up the
interference terms oscillating at angular frequency 2 E_q whose amplitude is
set by |dstar|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, DEFAULT_CONSTANTS, energy_of_momentum, require_finite

__all__ = [
    "GaussianSpec",
    "Packet",
    "charge_current",
    "default_grid",
    "gaussian_amplitudes",
    "negative_energy_fraction",
    "probability_current",
    "zitterbewegung_weight",
]


@dataclass(frozen=True)
class GaussianSpec:
    """Gaussian packet parameters: position-space confinement width d (1/keV)."""

    d_width: float

    def __post_init__(self) -> None:
        require_finite("d_width", self.d_width, positive=True)


@dataclass(frozen=True)
class Packet:
    """Normalized two-branch packet on a symmetric momentum grid (keV)."""

    p_grid: np.ndarray
    b: np.ndarray
    dstar: np.ndarray
    norm: float = 1.0

    @property
    def dp(self) -> float:
        return float(self.p_grid[1] - self.p_grid[0])

    def density_sum(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2 + np.abs(self.dstar) ** 2) * self.dp)

    def evolve(self, t: float, constants: Constants = DEFAULT_CONSTANTS) -> "Packet":
        """Free time evolution: phase e^{-iEt} on b and e^{+iEt} on dstar."""
        e = energy_of_momentum(self.p_grid, constants)
        return Packet(
            p_grid=self.p_grid,
            b=self.b * np.exp(-1.0j * e * t),
            dstar=self.dstar * np.exp(+1.0j * e * t),
            norm=self.norm,
        )


def default_grid(d_width: float, n: int = 4096, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Symmetric momentum grid spanning +-8 max(m, 1/d_width)."""
    span = 8.0 * max(constants.m, 1.0 / d_width)
    return np.linspace(-span, span, n)


def gaussian_amplitudes(
    spec: GaussianSpec,
    grid: np.ndarray | None = None,
    center: float = 0.0,
    d_scale: float = 1.0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> Packet:
    """Packet for a Gaussian of confinement width d, optionally boosted to ``center``.

    b(q) ~ exp(-(q - center)^2 d^2 / 2) and dstar(q) = b(q) q / (E_q + m); the
    ratio grows toward 1 only when q approaches m, so wide packets are almost
    purely positive-energy.  ``d_scale`` multiplies dstar before normalization
    (used to probe how interference scales with the negative-energy content).
    Raises when the grid does not hold the packet: ``center`` +- 6/d off
    the grid, a spacing wider than the packet's momentum width 1/d, or an
    estimated normalization loss > 1e-6.
    """
    require_finite("center", center)
    if grid is None:
        grid = default_grid(spec.d_width, constants=constants)
    grid = np.asarray(grid, dtype=float)
    reach = 6.0 / spec.d_width
    if not grid[0] + reach <= center <= grid[-1] - reach:
        raise ValueError("grid too narrow: it must cover center +- 6/d_width")
    dp = float(grid[1] - grid[0])
    if dp * spec.d_width > 1.0:
        raise ValueError("grid too coarse to resolve the packet: need a spacing of at most 1/d_width")
    m = constants.m
    e = energy_of_momentum(grid, constants)
    b = np.exp(-0.5 * (grid - center) ** 2 * spec.d_width**2).astype(complex)
    dstar = d_scale * b * grid / (e + m)
    density = np.abs(b) ** 2 + np.abs(dstar) ** 2
    total = float(np.sum(density) * dp)
    # Estimate of probability sitting outside the grid from the edge cells.
    loss = float((density[0] + density[-1]) * dp) / total
    if loss > 1e-6:
        raise ValueError("grid too narrow: estimated normalization loss exceeds 1e-6")
    scale = 1.0 / math.sqrt(total)
    return Packet(p_grid=grid, b=b * scale, dstar=dstar * scale, norm=1.0)


def _require_normalized(packet: Packet) -> None:
    if abs(packet.density_sum() - 1.0) > 1e-9:
        raise ValueError("packet is not normalized")


def negative_energy_fraction(packet: Packet) -> float:
    """Share of the packet's norm carried by the negative-energy branch."""
    _require_normalized(packet)
    dp = packet.dp
    return float(np.sum(np.abs(packet.dstar) ** 2) * dp)


def probability_current(packet: Packet, t: float, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """<alpha>(t): drift term plus interference oscillating at 2 E_q.

    The diagonal term weights each branch with its group velocity +-q/E_q;
    the cross term couples b and dstar through the spinor matrix element
    u(q)^dag alpha v(q) = m/E_q and rotates with phase e^{2 i E_q t}.
    """
    _require_normalized(packet)
    q = packet.p_grid
    e = energy_of_momentum(q, constants)
    dp = packet.dp
    diag = np.sum((np.abs(packet.b) ** 2 - np.abs(packet.dstar) ** 2) * (q / e)) * dp
    cross = 2.0 * np.sum(
        np.real(np.conj(packet.b) * packet.dstar * (constants.m / e) * np.exp(2.0j * e * t))
    ) * dp
    return float(diag + cross)


def zitterbewegung_weight(packet: Packet, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Complex interference weight per grid point: conj(b) dstar m/E (times dp)."""
    e = energy_of_momentum(packet.p_grid, constants)
    return np.conj(packet.b) * packet.dstar * (constants.m / e) * packet.dp


def charge_current(
    packet: Packet,
    constants: Constants = DEFAULT_CONSTANTS,
    e_charge: float = -1.0,
) -> float:
    """Charge current e <p/E> over the full packet; time-independent by construction.

    The current operator is proportional to the identity in spinor space, and
    the two branches at one momentum are orthogonal, so no interference term
    exists: both branches simply add their weight at velocity q/E_q.
    """
    _require_normalized(packet)
    q = packet.p_grid
    e = energy_of_momentum(q, constants)
    dp = packet.dp
    weight = np.abs(packet.b) ** 2 + np.abs(packet.dstar) ** 2
    return float(e_charge * np.sum(weight * (q / e)) * dp)
