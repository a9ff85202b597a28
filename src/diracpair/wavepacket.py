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

``probability_current`` takes one time or an array of times; a whole series
is one call.  On a uniform series t_0 + k dt the interference phase factorises
as e^{2iE(t_J + j dt)}: two phase tables of about 2 sqrt(n) rows per momentum
in all and a small complex matrix product replace the n complex exponentials
per momentum of a direct sum.  Each table is filled from one seed row and one
ratio by repeated doubling, so the two cost 3 complex exponentials per
momentum.  No phase table, and no product of two, exceeds ``_PHASE_BLOCK``
complex elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Constants, DEFAULT_CONSTANTS, energy_of_momentum, require_finite

# Largest temporary of the probability-current kernel, in complex elements
# (128 KiB): each phase table and each product of two is chunked under it.
# Temporaries of 1 MiB left about 3.5-4 MB more peak RSS in a long in-process
# run; 2^13 to 2^15 elements left none.
_PHASE_BLOCK = 1 << 13

__all__ = [
    "Packet",
    "charge_current",
    "default_grid",
    "gaussian_amplitudes",
    "negative_energy_fraction",
    "probability_current",
    "zitterbewegung_weight",
]


@dataclass(frozen=True)
class Packet:
    """Normalized two-branch packet on a symmetric momentum grid (keV)."""

    p_grid: np.ndarray
    b: np.ndarray
    dstar: np.ndarray

    @property
    def dp(self) -> float:
        return float(self.p_grid[1] - self.p_grid[0])

    def density_sum(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2 + np.abs(self.dstar) ** 2) * self.dp)


def default_grid(d_width: float, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Symmetric 4096-point momentum grid spanning +-8 max(m, 1/d_width)."""
    span = 8.0 * max(constants.m, 1.0 / d_width)
    return np.linspace(-span, span, 4096)


@np.errstate(over="ignore", invalid="ignore")  # overflow leaves a nan grid or loss or an infinite E_q, rejected below
def gaussian_amplitudes(
    d_width: float,
    grid: np.ndarray | None = None,
    center: float = 0.0,
    d_scale: float = 1.0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> Packet:
    """Packet for a Gaussian of confinement width d (1/keV), optionally boosted to ``center``.

    b(q) ~ exp(-(q - center)^2 d^2 / 2) and dstar(q) = b(q) q / (E_q + m); the
    ratio grows toward 1 only when q approaches m, so wide packets are almost
    purely positive-energy.  ``d_scale`` multiplies dstar before normalization
    (used to probe how interference scales with the negative-energy content).
    Raises when the grid does not hold the packet: ``center`` +- 6/d off
    the grid, a spacing wider than the packet's momentum width 1/d, or an
    estimated normalization loss > 1e-6.
    """
    require_finite("d_width", d_width, positive=True)
    require_finite("center", center)
    if grid is None:
        grid = default_grid(d_width, constants=constants)
    grid = np.asarray(grid, dtype=float)
    reach = 6.0 / d_width
    if not grid[0] + reach <= center <= grid[-1] - reach:
        raise ValueError("grid too narrow: it must cover center +- 6/d_width")
    dp = float(grid[1] - grid[0])
    if dp * d_width > 1.0:
        raise ValueError("grid too coarse to resolve the packet: need a spacing of at most 1/d_width")
    m = constants.m
    e = energy_of_momentum(grid, constants)
    b = np.exp(-0.5 * (grid - center) ** 2 * d_width**2).astype(complex)
    dstar = d_scale * b * grid / (e + m)
    density = np.abs(b) ** 2 + np.abs(dstar) ** 2
    total = np.sum(density) * dp
    # Estimate of probability sitting outside the grid from the edge cells.
    loss = (density[0] + density[-1]) * dp / total
    # written to fail closed: a nan loss (overflow, or every amplitude underflowing) and an infinite E_q are rejected too
    if not (loss <= 1e-6 and np.isfinite(e).all()):
        raise ValueError("grid too narrow or overflowing: an E_q is not finite or the estimated normalization loss exceeds 1e-6")
    scale = 1.0 / math.sqrt(total)
    return Packet(p_grid=grid, b=b * scale, dstar=dstar * scale)


def _require_normalized(packet: Packet) -> None:
    if not abs(packet.density_sum() - 1.0) <= 1e-9:
        raise ValueError("packet is not normalized")


def negative_energy_fraction(packet: Packet) -> float:
    """Share of the packet's norm carried by the negative-energy branch."""
    _require_normalized(packet)
    dp = packet.dp
    return float(np.sum(np.abs(packet.dstar) ** 2) * dp)


def probability_current(packet: Packet, t, constants: Constants = DEFAULT_CONSTANTS):
    """<alpha>(t): drift term plus interference oscillating at 2 E_q.

    The diagonal term weights each branch with its group velocity +-q/E_q;
    the cross term couples b and dstar through the spinor matrix element
    u(q)^dag alpha v(q) = m/E_q and rotates with phase e^{2 i E_q t}.

    ``t`` is a scalar or an array of finite times.  A scalar (or 0-d array)
    gives a float, an array gives an array of its shape.  The interference
    term is 2 Re(w_q e^{2iE_q t}) summed over q, with w from
    :func:`zitterbewegung_weight`.  Each time is written t_J + j dt: row J of
    a base table w_q e^{2iE_q t_J} times column j of an offset table
    e^{2iE_q j dt}, summed over q, gives it.  A uniform series of n times
    (see :func:`_phase_tables`) uses ceil(sqrt(n)) offsets and as many block
    starts or fewer, about 2 sqrt(n) table rows per momentum.  Both tables
    are geometric in their row: the offset table grows from a row of ones by
    the ratio e^{2iE_q dt} and the base table from the row w_q e^{2iE_q t_0} by
    e^{2iE_q B dt}, each filled by repeated doubling (:func:`_geometric_rows`),
    so the series costs 3 complex exponentials per momentum.  Any other input
    uses each time as a base, with e^{2iE_q t} evaluated directly, and the one
    offset 0.  The sum runs over chunks of momenta and base rows, so memory
    stays bounded for any number of times.
    """
    _require_normalized(packet)
    q = packet.p_grid
    e = energy_of_momentum(q, constants)
    drift = np.sum((np.abs(packet.b) ** 2 - np.abs(packet.dstar) ** 2) * (q / e)) * packet.dp
    w = zitterbewegung_weight(packet, constants)
    times = np.asarray(t, dtype=float)
    flat = times.ravel()
    if not math.isfinite(2.0 * float(np.max(e)) * float(np.max(np.abs(flat), initial=0.0))):
        raise ValueError("times must be finite, and so must the phases 2 E_q t")
    starts, offsets = _phase_tables(flat)
    uniform = offsets.size > 1
    # momenta per chunk, then block rows per chunk, so that neither phase
    # table nor their product exceeds _PHASE_BLOCK elements; a uniform series
    # has no more starts than offsets (up to _PHASE_BLOCK**2 times), so a
    # chunk's whole base table fits and is built once
    cols = min(q.size, _PHASE_BLOCK // offsets.size)
    rows = _PHASE_BLOCK // max(cols, offsets.size)
    cross = np.zeros((starts.size, offsets.size))
    for k in range(0, q.size, cols):
        e2 = 2.0 * e[k : k + cols]
        if uniform:
            step = offsets[1]
            offset = _geometric_rows(np.ones(e2.size, dtype=complex), np.exp(1.0j * step * e2), offsets.size)
            base = _geometric_rows(w[k : k + cols] * np.exp(1.0j * starts[0] * e2), np.exp(1.0j * (step * offsets.size) * e2), starts.size)
        else:
            offset = np.exp(1.0j * np.multiply.outer(offsets, e2))
        for r in range(0, starts.size, rows):
            block = base[r : r + rows] if uniform else w[k : k + cols] * np.exp(1.0j * np.multiply.outer(starts[r : r + rows], e2))
            cross[r : r + rows] += (block @ offset.T).real
    current = drift + 2.0 * cross.ravel()[: flat.size]
    if times.ndim == 0:
        return float(current[0])
    return current.reshape(times.shape)


def _phase_tables(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block start times and in-block offsets whose sums, row by row, give ``flat``.

    A series of three or more times that lies within 4 eps max|t| of
    t_0 + k dt splits into B = ceil(sqrt(n)) offsets j dt (at most
    ``_PHASE_BLOCK``) and ceil(n/B) block starts t_0 + J B dt; the last block
    may run past the series.  Any other input is its own block start with
    the single offset 0.
    """
    n = flat.size
    if n > 2:
        step = (flat[-1] - flat[0]) / (n - 1)
        uniform = flat[0] + step * np.arange(n)
        if np.max(np.abs(flat - uniform)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(flat)):
            width = min(math.isqrt(n - 1) + 1, _PHASE_BLOCK)
            return flat[0] + (step * width) * np.arange(-(-n // width)), step * np.arange(width)
    return flat, np.zeros(1)


def _geometric_rows(seed: np.ndarray, ratio: np.ndarray, n: int) -> np.ndarray:
    """The n rows seed * ratio**j (j < n), filled by repeated doubling.

    Rows [k, 2k) are rows [0, k) times ratio**k, and ratio**k is squared
    between steps, so row j is the seed times one power ratio**(2**b) per set
    bit b of j: at most log2(n) products instead of j.
    """
    table = np.empty((n, seed.size), dtype=complex)
    table[0] = seed
    k = 1
    while k < n:
        np.multiply(table[: min(k, n - k)], ratio, out=table[k : 2 * k])
        ratio = ratio * ratio
        k *= 2
    return table


def zitterbewegung_weight(packet: Packet, constants: Constants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Complex interference weight per grid point: conj(b) dstar m/E (times dp)."""
    e = energy_of_momentum(packet.p_grid, constants)
    return np.conj(packet.b) * packet.dstar * (constants.m / e) * packet.dp


def charge_current(packet: Packet, constants: Constants = DEFAULT_CONSTANTS) -> float:
    """Charge current e <p/E> over the full packet, e = -1; time-independent by construction.

    The current operator is proportional to the identity in spinor space, and
    the two branches at one momentum are orthogonal, so no interference term
    exists: both branches simply add their weight at velocity q/E_q.
    """
    _require_normalized(packet)
    q = packet.p_grid
    e = energy_of_momentum(q, constants)
    dp = packet.dp
    weight = np.abs(packet.b) ** 2 + np.abs(packet.dstar) ** 2
    return -float(np.sum(weight * (q / e)) * dp)
