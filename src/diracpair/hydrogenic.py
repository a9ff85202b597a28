"""Relativistic hydrogenic levels and bound electron-positron pair transitions.

Point-nucleus levels for a one-electron ion of charge Z:

    E_pm(n, j) = +-m [1 + (Z a0 / (n - (j+1/2) + sqrt((j+1/2)^2 - (Z a0)^2)))^2]^(-1/2)

Under the sign-of-energy coupling (D2) the mirror levels E_-(n, j) = -E_+(n, j)
are genuine bound states in the lower half of the mass gap, and exciting a
filled mirror level into an empty upper level costs

    delta_eps(S; S') = E_+(S) + E_+(S'),

always below 2m.  Shells use X-ray notation: K=(1,1/2), L1=(2,1/2),
L2=(2,3/2), M=(3,1/2), and Z=(50,1/2) for the near-gap-edge ladder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .core import Constants, DEFAULT_CONSTANTS

__all__ = [
    "ION_DATABASE",
    "DEFAULT_SHELL_PAIRS",
    "IonSpecies",
    "Shell",
    "Transition",
    "get_ion",
    "level_energy",
    "pair_transition_energy",
    "transition_table",
]

_SHELL_LABELS = {
    "K": (1, 0.5),
    "L1": (2, 0.5),
    "L2": (2, 1.5),
    "M": (3, 0.5),
    "Z": (50, 0.5),
}

# The five low-lying transitions plus the two higher ones needed by the
# bundled experiment catalogs.
DEFAULT_SHELL_PAIRS = (
    ("K", "K"),
    ("K", "L1"),
    ("K", "L2"),
    ("L1", "L1"),
    ("L2", "L2"),
    ("M", "M"),
    ("Z", "Z"),
)


@dataclass(frozen=True)
class Shell:
    """Hydrogenic shell: principal quantum number n and total angular momentum j."""

    n: int
    j: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("principal quantum number must be >= 1")
        if (2.0 * self.j) % 2 != 1.0 or self.j < 0.5:
            raise ValueError("j must be a positive half-integer (1/2, 3/2, ...)")
        if self.j + 0.5 > self.n:
            raise ValueError(f"j = {self.j} too large for n = {self.n}")
        if not self.label:
            object.__setattr__(self, "label", f"n{self.n}j{self.j:g}")

    @classmethod
    def from_label(cls, label: str) -> "Shell":
        try:
            n, j = _SHELL_LABELS[label]
        except KeyError:
            raise ValueError(f"unknown shell label {label!r}; known: {sorted(_SHELL_LABELS)}") from None
        return cls(n=n, j=j, label=label)


@dataclass(frozen=True)
class IonSpecies:
    symbol: str
    Z: int

    def __post_init__(self) -> None:
        if self.Z <= 0:
            raise ValueError("nuclear charge must be positive")


@dataclass(frozen=True)
class Transition:
    """Bound-pair transition: upper shell S and (mirror) lower shell S'."""

    ion: IonSpecies
    upper: Shell
    lower: Shell
    delta_eps: float  # keV

    @property
    def name(self) -> str:
        return f"{self.ion.symbol}:{self.upper.label}->{self.lower.label}'"


def _load_ion_database() -> dict[str, IonSpecies]:
    raw = json.loads(resources.files("diracpair.data").joinpath("ions.json").read_text(encoding="utf-8"))
    return {sym: IonSpecies(symbol=sym, Z=int(z)) for sym, z in raw.items()}


ION_DATABASE: dict[str, IonSpecies] = _load_ion_database()


def get_ion(symbol: str) -> IonSpecies:
    """Look up an ion by symbol in the built-in database."""
    try:
        return ION_DATABASE[symbol]
    except KeyError:
        raise ValueError(f"unknown ion symbol {symbol!r}; known: {sorted(ION_DATABASE)}") from None


def level_energy(
    ion: IonSpecies,
    shell: Shell,
    constants: Constants = DEFAULT_CONSTANTS,
) -> float:
    """Upper level energy E_+(n, j) in keV; its mirror level is E_-(n, j) = -E_+(n, j).

    Raises for supercritical input j + 1/2 <= Z alpha0, where the point-nucleus
    formula leaves the real domain, rather than returning complex values.
    """
    za = ion.Z * constants.fine_structure
    kq = shell.j + 0.5
    if kq <= za:
        raise ValueError(
            f"supercritical: j + 1/2 = {kq:g} <= Z*alpha0 = {za:.6f} for {ion.symbol} {shell.label}"
        )
    denom = shell.n - kq + (kq * kq - za * za) ** 0.5
    return constants.m * (1.0 + (za / denom) ** 2) ** -0.5


def pair_transition_energy(
    ion: IonSpecies,
    upper: Shell,
    lower: Shell,
    constants: Constants = DEFAULT_CONSTANTS,
) -> Transition:
    """Transition energy delta_eps(S; S') = E_+(S) + E_+(S')."""
    delta = level_energy(ion, upper, constants) + level_energy(ion, lower, constants)
    return Transition(ion=ion, upper=upper, lower=lower, delta_eps=delta)


def transition_table(
    ion: IonSpecies,
    pairs=DEFAULT_SHELL_PAIRS,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[Transition]:
    """All listed shell-pair transitions for one ion, ascending in delta_eps."""
    if not pairs:
        raise ValueError("empty shell-pair list")
    rows = [
        pair_transition_energy(ion, Shell.from_label(up), Shell.from_label(lo), constants)
        for up, lo in pairs
    ]
    return sorted(rows, key=lambda t: (t.delta_eps, t.upper.label, t.lower.label))
