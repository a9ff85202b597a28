"""Match experimental pair/positron peaks against bound-pair transitions.

Catalog records carry one observed peak together with the published
identification (ion, shells, branch, theory value at 45 degrees, solved
angle).  The matching machinery recomputes the candidate transition energies
for beam and target, ranks them by closeness to the observed peak at a
45-degree opening half-angle, and solves for the exact angle that reproduces
the peak.  Positron-only spectra are compared in pair-sum space using twice
the observed positron energy (the positron is assumed to carry half the pair
energy), so a single code path serves both observables.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .core import Constants, DEFAULT_CONSTANTS, json_field
from .hydrogenic import IonSpecies, Shell, Transition, get_ion, pair_transition_energy, transition_table
from .kinematics import IonBoost, boost_from_beam_energy, lab_pair_energy, solve_theta

__all__ = [
    "Candidate",
    "ExperimentRecord",
    "MatchResult",
    "RowReport",
    "THEORY_REL_TOL",
    "THETA_ABS_TOL",
    "bundled_catalog",
    "candidate_transitions",
    "load_catalog",
    "match_peak",
    "reproduce_tables",
]

_OBSERVABLES = ("pair_sum_kinetic", "positron_energy")
THEORY_REL_TOL = 0.005  # 0.5% on theory values at 45 degrees
THETA_ABS_TOL = 0.5  # degrees


@dataclass(frozen=True)
class ExperimentRecord:
    """One catalog entry: an observed peak plus the published identification."""

    system: tuple[IonSpecies, IonSpecies]
    spectrometer: str
    observable: str
    observed: float  # keV, in the observable's own units
    beam_energy_x: float
    flagged_marginal: bool
    ion: IonSpecies | None = None
    upper: Shell | None = None
    lower: Shell | None = None
    branch: str | None = None
    published_theory_at_45: float | None = None
    published_theta_deg: float | None = None
    flags: tuple[str, ...] = ()

    @property
    def comparison_value(self) -> float:
        """Observed peak mapped to pair-sum space (2x for positron spectra)."""
        if self.observable == "positron_energy":
            return 2.0 * self.observed
        return self.observed

    @property
    def system_name(self) -> str:
        return f"{self.system[0].symbol}+{self.system[1].symbol}"


@dataclass(frozen=True)
class Candidate:
    transition: Transition
    branch: str
    theory_at_45: float  # pair-sum keV


@dataclass(frozen=True)
class MatchResult:
    transition: Transition
    branch: str
    theory_at_45: float  # pair-sum keV
    solved_theta: float | None  # radians
    residual_at_45: float  # keV, pair-sum space

    @property
    def solved_theta_deg(self) -> float | None:
        return None if self.solved_theta is None else math.degrees(self.solved_theta)


def _parse_record(raw, index: int) -> ExperimentRecord:
    try:
        if type(raw) is not dict:
            raise ValueError(f"must be a JSON object, got {raw!r}")
        system = json_field(raw, "system", str)
        if system.count("+") != 1:
            raise ValueError(f"system must be two ion symbols joined by '+', e.g. 'U+Pb', got {system!r}")
        beam, target = map(get_ion, system.split("+"))
        observable = json_field(raw, "observable", str)
        if observable not in _OBSERVABLES:
            raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
        ion = upper = lower = None
        if any(key in raw for key in ("ion", "upper", "lower")):
            ion = get_ion(json_field(raw, "ion", str))
            upper = Shell.from_label(json_field(raw, "upper", str))
            lower = Shell.from_label(json_field(raw, "lower", str))
        branch = json_field(raw, "branch", str, None)
        if branch not in (None, "+", "-"):
            raise ValueError(f"branch must be '+' or '-', got {branch!r}")
        observed = json_field(raw, "observed_keV", float, positive=True)
        if observable == "positron_energy" and not math.isfinite(2.0 * observed):
            raise ValueError(f"observed_keV of a positron peak is doubled, so must be at most half the float range, got {observed!r}")
        json_field(raw, "uncertainty_keV", float, None)  # checked, though nothing reads it
        json_field(raw, "note", str, "")  # checked, though nothing reads it
        return ExperimentRecord(
            system=(beam, target),
            spectrometer=json_field(raw, "spectrometer", str, ""),
            observable=observable,
            observed=observed,
            beam_energy_x=json_field(raw, "x_mev_per_u", float, 6.0, positive=True, label="x_mev_per_u (the beam energy)"),
            flagged_marginal=json_field(raw, "marginal", bool, False),
            ion=ion,
            upper=upper,
            lower=lower,
            branch=branch,
            published_theory_at_45=json_field(raw, "published_theory_at_45_keV", float, None),
            published_theta_deg=json_field(raw, "published_theta_deg", float, None),
            flags=tuple(json_field(raw, "flags", list, [])),
        )
    except ValueError as exc:
        raise ValueError(f"catalog entry {index}: {exc}") from None


def load_catalog(source: str | os.PathLike) -> list[ExperimentRecord]:
    """Parse and validate a catalog file; raises with entry-level diagnostics."""
    with open(source, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise ValueError("catalog must be a JSON array of records")
    return [_parse_record(entry, i) for i, entry in enumerate(raw)]


def bundled_catalog(name: str) -> list[ExperimentRecord]:
    """Load one of the shipped catalogs: 'table1' (pair sums) or 'table2' (positrons)."""
    if name not in ("table1", "table2"):
        raise ValueError("bundled catalogs are 'table1' and 'table2'")
    return load_catalog(os.path.join(os.path.dirname(__file__), "data", f"{name}.json"))


def _theory_at_45(
    boost: IonBoost, transition: Transition, branch: str, constants: Constants
) -> float:
    return lab_pair_energy(boost, transition.delta_eps, math.radians(45.0), branch, constants).t_lab


def candidate_transitions(
    beam: IonSpecies,
    target: IonSpecies,
    constants: Constants = DEFAULT_CONSTANTS,
    x: float = 6.0,
) -> list[Candidate]:
    """All (transition, branch) candidates for a collision system at a beam energy of x MeV/u.

    Each ion's default transition table times both branch signs, each with
    its pair-sum theory value at 45 degrees.  T_lab is monotone in the
    angle, so evaluating each at the angle scan's ends (0.1 and 90 degrees)
    raises here for a beam energy that any solve would overflow.
    """
    boost = boost_from_beam_energy(x)
    ions = [beam] if beam.symbol == target.symbol else [beam, target]
    out = []
    for ion in ions:
        for tr in transition_table(ion, constants=constants):
            for branch in ("+", "-"):
                for theta_deg in (0.1, 90.0):
                    lab_pair_energy(boost, tr.delta_eps, math.radians(theta_deg), branch, constants)
                out.append(Candidate(transition=tr, branch=branch, theory_at_45=_theory_at_45(boost, tr, branch, constants)))
    return out


def match_peak(
    record: ExperimentRecord,
    top_k: int = 6,
    constants: Constants = DEFAULT_CONSTANTS,
) -> list[MatchResult]:
    """Rank the record's candidates by closeness at 45 degrees and solve each for the angle that gives the peak.

    The candidates are those of the record's system at its own beam energy.
    They are ordered by |theory_at_45 - comparison_value| with a
    deterministic tie-break on (ion symbol, shell labels, branch).
    At most one angle gives it; a candidate whose curve cannot reach the
    observed value gets ``solved_theta = None``.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k!r}")
    target = record.comparison_value
    ranked = sorted(
        candidate_transitions(*record.system, constants, x=record.beam_energy_x),
        key=lambda c: (
            abs(c.theory_at_45 - target),
            c.transition.ion.symbol,
            c.transition.upper.label,
            c.transition.lower.label,
            c.branch,
        ),
    )
    boost = boost_from_beam_energy(record.beam_energy_x)
    results = []
    for cand in ranked[:top_k]:
        results.append(
            MatchResult(
                transition=cand.transition,
                branch=cand.branch,
                theory_at_45=cand.theory_at_45,
                solved_theta=solve_theta(boost, cand.transition.delta_eps, cand.branch, target, constants),
                residual_at_45=cand.theory_at_45 - target,
            )
        )
    return results


@dataclass(frozen=True)
class RowReport:
    """Regression result for one published table row."""

    record: ExperimentRecord
    transition: Transition
    computed_theory_at_45: float  # same observable space as the published value
    computed_theta_deg: float | None
    theory_ok: bool
    theta_ok: bool
    # Participation in the headline acceptance set: marginal rows are out of
    # both, and rows whose published theory/angle is internally inconsistent
    # are excluded from the corresponding comparison only.
    theory_headline: bool
    theta_headline: bool

    def as_row(self) -> dict:
        rec = self.record
        return {
            "table": "2" if rec.observable == "positron_energy" else "1",
            "system": rec.system_name,
            "spectrometer": rec.spectrometer,
            "observed_keV": rec.observed,
            "transition": self.transition.name,
            "branch": rec.branch,
            "published_theory_keV": rec.published_theory_at_45,
            "computed_theory_keV": self.computed_theory_at_45,
            "published_theta_deg": rec.published_theta_deg,
            "computed_theta_deg": self.computed_theta_deg,
            "theory_ok": self.theory_ok,
            "theta_ok": self.theta_ok,
            "marginal": rec.flagged_marginal,
            "flags": ",".join(rec.flags),
        }


def reproduce_tables(constants: Constants = DEFAULT_CONSTANTS) -> list[RowReport]:
    """Recompute every published table row and compare at the acceptance tolerances.

    Theory values are compared in the row's own observable space (positron
    rows at half the pair energy); angles by solving for the observed peak.
    Rows flagged as internally inconsistent in the source table and rows
    marked marginal stay in the report but are excluded from the headline
    acceptance set.
    """
    reports: list[RowReport] = []
    for name in ("table1", "table2"):
        for rec in bundled_catalog(name):
            boost = boost_from_beam_energy(rec.beam_energy_x)
            tr = pair_transition_energy(rec.ion, rec.upper, rec.lower, constants)
            theory_pair = _theory_at_45(boost, tr, rec.branch, constants)
            theory_obs = theory_pair / 2.0 if rec.observable == "positron_energy" else theory_pair
            theta = solve_theta(boost, tr.delta_eps, rec.branch, rec.comparison_value, constants)
            theta_deg = None if theta is None else math.degrees(theta)
            reports.append(
                RowReport(
                    record=rec,
                    transition=tr,
                    computed_theory_at_45=theory_obs,
                    computed_theta_deg=theta_deg,
                    theory_ok=abs(theory_obs - rec.published_theory_at_45) / rec.published_theory_at_45 <= THEORY_REL_TOL,
                    theta_ok=theta_deg is not None and abs(theta_deg - rec.published_theta_deg) <= THETA_ABS_TOL,
                    theory_headline=not rec.flagged_marginal and "published_theory_inconsistent" not in rec.flags,
                    theta_headline=not rec.flagged_marginal and "published_theta_inconsistent" not in rec.flags,
                )
            )
    return reports
