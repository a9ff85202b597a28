"""One-dimensional two-component Dirac scattering for piecewise-constant potentials.

The 2x2 reduction uses alpha = sigma_x and beta = sigma_z, so a region at
constant potential V has local eigenproblem (sigma_x q + sigma_z m) w = eps w
with the effective kinetic energy

    eps = E - V                 (D1)
    eps = E - sgn(E) V          (D2, equivalently sgn(E)(|E| - V))

A region propagates when |eps| > m (wavenumber k = sqrt(eps^2 - m^2)), decays
when |eps| < m (kappa = sqrt(m^2 - eps^2)), and under D2 supports no mode at
all when sgn(eps) != sgn(E), i.e. |E| <= V: increasing a barrier only widens
the interval where nothing propagates.

Transmitted/incident modes are always selected by the sign of their carried
current, which for these spinors equals the sign of the group velocity; with
the opposite choice T falls outside [0, 1] in the regime where the D1 barrier
turns transparent.

Profiles are solved with scattering matrices rather than transfer matrices:
every interface gets a 2x2 S-matrix from the modes on its two sides, every
interior region contributes its propagation factor e^{ipw} (|.| <= 1, so an
evanescent region only ever forms its decaying exponential), and the chain is
joined by Redheffer star products, batched over regions and energies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alternative, Constants, DEFAULT_CONSTANTS, ROOT_TOLERANCE, bisect_root, require_finite

__all__ = [
    "CLASSICAL",
    "EVANESCENT",
    "EVANESCENT_TUNNELING",
    "FORBIDDEN",
    "GAP_BLOCKED",
    "KLEIN_ZONE",
    "PROPAGATING",
    "PotentialProfile",
    "RegionMode",
    "ScatterResult",
    "barrier_transmission",
    "dispersion",
    "square_well_bound_states",
    "step_transmission",
]

PROPAGATING = "propagating"
EVANESCENT = "evanescent"
FORBIDDEN = "forbidden"

CLASSICAL = "classical"
KLEIN_ZONE = "klein_zone"
GAP_BLOCKED = "gap_blocked"
EVANESCENT_TUNNELING = "evanescent_tunneling"

# in the order _transmission tests them; an object array hands out the shared str constants
_CLASSIFICATIONS = np.array([GAP_BLOCKED, EVANESCENT_TUNNELING, KLEIN_ZONE, CLASSICAL], dtype=object)

# Sweeps stay clear of the measure-zero mode boundaries E = V +- m where k or
# kappa vanishes; behaviour there is defined by one-sided limits.
_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered piecewise-constant regions; the first extends to -inf, the last to +inf.

    ``edges[i]`` is the boundary between region i and region i+1, strictly
    increasing; ``values[i]`` is the constant potential of region i in keV.
    """

    edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        require_finite("profile edges", self.edges)
        require_finite("profile values", self.values)
        if len(self.values) != len(self.edges) + 1:
            raise ValueError("need exactly one more region value than edges")
        if any(not b > a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("region edges must be strictly increasing")

    @classmethod
    def step(cls, v0: float) -> "PotentialProfile":
        """V = V0 for z > 0."""
        return cls(edges=(0.0,), values=(0.0, float(v0)))

    @classmethod
    def barrier(cls, v0: float, width: float) -> "PotentialProfile":
        """V = V0 on (0, width)."""
        if width <= 0.0:
            raise ValueError("barrier width must be positive")
        return cls(edges=(0.0, float(width)), values=(0.0, float(v0), 0.0))


@dataclass(frozen=True)
class RegionMode:
    """Local mode content of a region at energy E.

    For a propagating regime ``k`` is the wavenumber of the positive-current
    mode and ``spinor_ratio`` its second/first component ratio; for an
    evanescent regime ``k`` holds the decay constant kappa and the ratio is
    that of the rightward-decaying mode.  Forbidden regions carry k = 0.
    """

    regime: str
    k: float
    spinor_ratio: complex


@dataclass(frozen=True)
class ScatterResult:
    """T, R and regime: Python floats and a str for one energy, arrays for an energy array."""

    T: float
    R: float
    classification: str


def _mode_table(alt: Alternative, values, e: np.ndarray, m: float):
    """Mode content of every region at every energy, as arrays of shape (regions, energies).

    Returns ``(forbidden, eps, lam)``: True where D2 admits no mode, the
    effective kinetic energy, and the spinor ratio lam = sqrt((eps - m)/(eps + m))
    of the right-moving mode e^{ipz} (1, lam); the left-moving mode is
    e^{-ipz} (1, -lam), with p = lam (eps + m).  A propagating region has lam
    real and positive and p = +-k (the sign of eps); an evanescent one has lam
    and p = i kappa on the positive imaginary axis, so e^{ipz} decays
    rightward.  The exact gap edges |eps| = m, where the two modes coincide,
    are moved into the gap by the edge margin (the one-sided limit).
    """
    v = np.asarray(values, dtype=float)[:, None]
    if alt is Alternative.D1:
        eps = e - v
        forbidden = np.zeros(eps.shape, dtype=bool)
    else:
        xi = np.abs(e) - v
        eps = np.sign(e) * xi
        forbidden = (xi <= 0.0) | (e == 0.0)
    eps = np.where(np.abs(eps) == m, eps * (1.0 - _EDGE_MARGIN), eps)
    lam = np.sqrt((eps - m) / (eps + m) + 0j)
    return forbidden, eps, lam


def dispersion(alt: Alternative, v0: float, e: float, constants: Constants = DEFAULT_CONSTANTS) -> RegionMode:
    """Classify the mode content of a constant-potential region at energy E."""
    m = constants.m
    forbidden, eps, lam = _mode_table(alt, (v0,), np.array([float(e)]), m)
    if forbidden[0, 0]:
        return RegionMode(regime=FORBIDDEN, k=0.0, spinor_ratio=0.0j)
    eps, lam = float(eps[0, 0]), complex(lam[0, 0])
    regime = PROPAGATING if abs(eps) > m else EVANESCENT
    return RegionMode(regime=regime, k=abs(lam * (eps + m)), spinor_ratio=lam)


def _star_reduce(s):
    """Compose a chain of 2x2 scattering matrices by pairwise Redheffer star products.

    ``s`` stacks (S11, S12, S21, S22) along its first axis, the chain along the
    second and energies along the third.  Each level joins neighbours (0, 1),
    (2, 3), ... in one set of array operations, so a chain of n matrices takes
    log2(n) levels.  Returns the (S11, S21) of the whole chain.
    """
    while s.shape[1] > 1:
        even = s.shape[1] // 2 * 2
        a11, a12, a21, a22 = s[:, 0:even:2]
        b11, b12, b21, b22 = s[:, 1:even:2]
        d = 1.0 / (1.0 - a22 * b11)
        joined = np.stack(
            (a11 + a12 * b11 * a21 * d, a12 * b12 * d, b21 * a21 * d, b22 + b21 * a22 * b12 * d)
        )
        s = np.concatenate((joined, s[:, even:]), axis=1)
    return s[0, 0], s[2, 0]


def _transmission(alt: Alternative, values, edges, e, constants: Constants) -> ScatterResult:
    """T, R and regime across the regions ``values`` at one energy or an array of them."""
    m = constants.m
    energies = np.atleast_1d(np.asarray(e, dtype=float))
    forbidden, eps, lam = _mode_table(alt, values, energies, m)
    propagating = ~forbidden & (np.abs(eps) > m)
    if not propagating[0].all():
        raise ValueError("no incident propagating mode in the leftmost region")
    blocked = forbidden.any(axis=0) | ~propagating[-1]
    tunnelling = (~propagating[1:-1]).any(axis=0)
    klein = (propagating & (eps < 0.0)).any(axis=0)
    classification = _CLASSIFICATIONS[np.select([blocked, tunnelling, klein], [0, 1, 2], 3)]

    # Interface j joins region j to region j+1, with amplitudes referenced at
    # the interface; the propagation across region j+1 is folded into it.
    total = lam[:-1] + lam[1:]
    s11 = (lam[:-1] - lam[1:]) / total
    phase = np.ones_like(total)
    phase[:-1] = np.exp(1j * lam[1:-1] * (eps[1:-1] + m) * np.diff(np.asarray(edges, dtype=float))[:, None])
    rho, tau = _star_reduce(
        np.stack((s11, 2.0 * lam[1:] / total * phase, 2.0 * lam[:-1] / total * phase, -s11 * phase**2))
    )

    # T >= 0 by construction; the bound T <= 1 can be missed by an ulp near full transparency
    t = np.where(blocked, 0.0, np.minimum(np.abs(tau) ** 2 * lam[-1].real / lam[0].real, 1.0))
    r = np.where(blocked, 1.0, np.abs(rho) ** 2)
    if np.ndim(e) == 0:
        return ScatterResult(T=float(t[0]), R=float(r[0]), classification=classification[0])
    return ScatterResult(T=t, R=r, classification=classification)


def step_transmission(alt: Alternative, v0: float, e, constants: Constants = DEFAULT_CONSTANTS) -> ScatterResult:
    """Transmission/reflection for the semi-infinite step V(z>0) = V0.

    Incidence is from the free side at E > m.  D2 for E > V0 + m follows
    T = 4r/(1+r)^2 with r = lam_out/lam_in; everywhere below that edge no
    current can enter the step and T = 0.  D1 also transmits in the Klein
    zone m < E < V0 - m, where the step supports lower-branch propagating
    modes.  ``e`` is one energy or a 1-D array of them.
    """
    return _transmission(alt, (0.0, float(v0)), (0.0,), e, constants)


def barrier_transmission(
    alt: Alternative,
    profile: PotentialProfile,
    e,
    constants: Constants = DEFAULT_CONSTANTS,
) -> ScatterResult:
    """T and R across an arbitrary piecewise-constant profile.

    One scattering matrix per interface, built from the region modes, is
    combined with the propagation factor e^{ipw} of each interior region and
    the chain is joined by Redheffer star products.  Only the decaying
    exponential of an evanescent region is ever formed, so thick barriers
    cannot overflow and T >= 0 holds by construction.  Interior D2-forbidden
    regions act as hard walls (T = 0, R = 1); an evanescent far side gives
    T = 0, R = 1 exactly.  Requires propagating asymptotic modes on the
    incident side.  ``e`` is one energy (the result holds Python floats and a
    str) or a 1-D array of them (the result holds arrays).
    """
    return _transmission(alt, profile.values, profile.edges, e, constants)


# --- bound states -------------------------------------------------------------
#
# In the real form phi1' = -(E - V + m) phi2, phi2' = (E - V - m) phi1
# (obtained from psi = (phi1, i phi2)) every piecewise-constant solution is
# real, so the square-well level condition is a real-valued, sign-changing
# function of E suitable for a scan + bisection.


def _well_secular(e, depth: float, width: float, m: float, oscillating: bool):
    """Level condition of the well V = -depth on (0, width); zero at bound states.

    The left decaying solution (phi1, phi2) = (1, -mu), mu = kappa/(E + m), is
    carried across the well by phi1(w) = C phi1 - a S phi2 and
    phi2(w) = C phi2 + b S phi1 (a = E + depth + m, b = E + depth - m,
    C = cos kw, S = sin(kw)/k, k^2 = ab) and must arrive with the right
    decaying ratio phi2/phi1 = mu.  Where ab < 0 the cosh/sinh transfer is
    divided by cosh(kw), which keeps the sign and cannot overflow.  ``e`` may
    be an array; ``oscillating`` (ab > 0) must hold for all of it.
    """
    a = e + depth + m
    b = e + depth - m
    k = np.sqrt(np.abs(a * b))
    if oscillating:
        c, s = np.cos(k * width), np.sin(k * width) / k
    else:
        c, s = 1.0, np.tanh(k * width) / k
    mu = np.sqrt(m * m - e * e) / (e + m)
    return (b * s - mu * c) - mu * (c + a * mu * s)


def square_well_bound_states(
    alt: Alternative,
    depth: float,
    width: float,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[float]:
    """Discrete levels of the attractive square well V = -depth on (0, width).

    D1 admits levels anywhere in the gap (-m, m); deep wells pull the lowest
    one below zero and toward -m.  Under D2 a positive-energy state sees the
    same equation, but only roots with 0 < E < m exist on the positive branch
    (the mirror negatives follow by the spectrum symmetry), so the search
    window shrinks accordingly.  Roots come from a uniform 2000-point scan of
    the closed-form level condition plus bisection.
    """
    if depth < 0.0 or width <= 0.0:
        raise ValueError("need depth >= 0 and width > 0")
    m = constants.m
    if depth == 0.0:
        return []
    lo = -m * (1.0 - 1e-6) if alt is Alternative.D1 else m * 1e-6
    hi = m * (1.0 - 1e-6)

    # Split the scan at interior regime boundaries E = -depth +- m where the
    # interior basis switches between trig and hyperbolic behaviour.
    breaks = sorted({lo, hi, *(b for b in (-depth - m, -depth + m) if lo < b < hi)})
    roots: list[float] = []
    xtol = ROOT_TOLERANCE * m
    for seg_lo, seg_hi in zip(breaks, breaks[1:]):
        a = seg_lo + _EDGE_MARGIN * m
        b = seg_hi - _EDGE_MARGIN * m
        if not b > a:
            continue
        grid = np.linspace(a, b, 2000)
        oscillating = abs(0.5 * (a + b) + depth) > m
        vals = _well_secular(grid, depth, width, m, oscillating)
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for idx in sign_change:
            root = bisect_root(
                lambda x: float(_well_secular(x, depth, width, m, oscillating)),
                float(grid[idx]),
                float(grid[idx + 1]),
                xtol,
                fa=float(vals[idx]),
                fb=float(vals[idx + 1]),
            )
            roots.append(root)
    return sorted(roots)
