"""Command-line entry point: one subcommand per operation, CSV or JSON output.

Every run prints the constants in effect in the report header.  Floating
output is rendered with 10 significant digits, all energies on the wire are
keV, and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import algebra, decaymodel, hydrogenic, kinematics, matcher, scatter1d, wavepacket
from .core import Alternative, Constants, DEFAULT_CONSTANTS, load_constants, require_finite

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.10g}"
    if x is None:
        return ""
    return str(x)


def _constants_header(constants: Constants) -> list[str]:
    return [
        f"# m_e_keV={_fmt(constants.electron_rest_energy)}"
        f" alpha0={_fmt(constants.fine_structure)}"
        f" numeric_tolerance={_fmt(constants.numeric_tolerance)}"
    ]


def _emit(args, constants, columns, rows, payload=None, extra_header=None) -> None:
    """Write CSV (default) or JSON to stdout with the constants header.

    ``extra_header`` is a dict of derived scalars printed as an extra comment
    line (CSV) or merged into the document (JSON).
    """
    if args.format == "json":
        doc = {
            "constants": {
                "m_e_keV": constants.electron_rest_energy,
                "alpha0": constants.fine_structure,
                "numeric_tolerance": constants.numeric_tolerance,
            },
        }
        if extra_header:
            doc["derived"] = dict(extra_header)
        if payload is not None:
            doc["result"] = payload
        else:
            doc["rows"] = [dict(zip(columns, row)) for row in rows]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    out = _constants_header(constants)
    if extra_header:
        out.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in extra_header.items()))
    if payload is not None and not rows:
        for key, value in payload.items():
            out.append(f"{key},{_fmt(value)}")
    else:
        out.append(",".join(columns))
        for row in rows:
            out.append(",".join(_fmt(v) for v in row))
    sys.stdout.write("\n".join(out) + "\n")


# --- subcommand implementations -----------------------------------------------


def _cmd_algebra_check(args, constants) -> int:
    rng = np.random.default_rng(args.seed)
    mats = algebra.build_matrices()
    worst: dict[str, float] = {}

    def keep(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    for name, value in algebra.clifford_residuals(mats.alpha, mats.beta).items():
        keep(f"clifford_{name}", value)
    conj = algebra.find_conjugation_matrix(mats, constants)
    keep("conjugation_unitarity", np.max(np.abs(conj.C @ conj.C.conj().T - np.eye(4))))
    spin_rng = np.random.default_rng(args.seed + 1)
    for _ in range(min(args.n_random, 20)):
        p = spin_rng.uniform(-4.0, 4.0, size=3) * constants.m
        b_plus, _ = algebra.casimir_projectors(p, constants)
        for s in (1, 2):
            mapped = conj.C @ algebra.spinor_v(-p, s, constants).conj()
            # the conjugated spinor must live entirely in the +E subspace
            keep("conjugation_spinor_map", np.max(np.abs(b_plus @ mapped - mapped)))
    for _ in range(args.n_random):
        p = rng.uniform(-4.0, 4.0, size=3) * constants.m
        fields = algebra.FieldConfig(A=tuple(rng.uniform(-2.0, 2.0, size=3) * constants.m), Phi=float(rng.uniform(-2.0, 2.0) * constants.m))
        for axis in range(3):
            keep("charge_current", algebra.charge_current_identity(p, axis, constants))
        for name, value in algebra.transformation_checks(p, fields, constants).items():
            keep(f"transform_{name}", value)
        for name, value in algebra.appendix_identities(p, fields, constants).items():
            keep(f"appendix_{name}", value)
    tol = 1e-10
    payload = {name: worst[name] for name in sorted(worst)}
    payload["max_residual"] = max(worst.values())
    payload["passed"] = bool(payload["max_residual"] < tol)
    rows = [(name, value) for name, value in payload.items()]
    _emit(args, constants, ("identity", "max_residual"), rows, payload=payload if args.format == "json" else None)
    return 0 if payload["passed"] else 1


def _cmd_scatter(args, constants) -> int:
    alt = Alternative.from_string(args.alt)
    if args.well_depth is not None:
        # bound-state mode: levels of the attractive square well
        if args.well_width is None:
            raise ValueError("--well-depth needs --well-width")
        levels = scatter1d.square_well_bound_states(alt, args.well_depth, args.well_width, constants)
        rows = [(i, e) for i, e in enumerate(levels)]
        _emit(args, constants, ("level", "E_keV"), rows)
        return 0
    if args.v0 is None or args.emin is None or args.emax is None:
        raise ValueError("transmission sweep needs --v0, --emin, and --emax")
    if args.emin <= 0 or args.emax <= args.emin:
        raise ValueError("need 0 < emin < emax")
    energies = np.linspace(args.emin, args.emax, args.steps)
    if args.width is not None:
        profile = scatter1d.PotentialProfile.barrier(args.v0, args.width)
        res = scatter1d.barrier_transmission(alt, profile, energies, constants)
    else:
        res = scatter1d.step_transmission(alt, args.v0, energies, constants)
    rows = list(zip(energies.tolist(), res.T.tolist(), res.R.tolist(), res.classification.tolist()))
    _emit(args, constants, ("E", "T", "R", "classification"), rows)
    return 0


def _cmd_levels(args, constants) -> int:
    ion = hydrogenic.get_ion(args.ion)
    labels = [s.strip() for s in args.shells.split(",") if s.strip()]
    if not labels:
        raise ValueError("no shells given")
    rows = []
    for label in labels:
        shell = hydrogenic.Shell.from_label(label)
        e_plus = hydrogenic.level_energy(ion, shell, +1, constants)
        rows.append((ion.symbol, label, shell.n, shell.j, e_plus, -e_plus))
    _emit(args, constants, ("ion", "shell", "n", "j", "E_plus_keV", "E_minus_keV"), rows)
    return 0


def _cmd_transitions(args, constants) -> int:
    ion = hydrogenic.get_ion(args.ion)
    rows = [
        (tr.name, tr.upper.label, tr.lower.label, tr.delta_eps)
        for tr in hydrogenic.transition_table(ion, constants=constants)
    ]
    _emit(args, constants, ("transition", "upper", "lower", "delta_eps_keV"), rows)
    return 0


def _cmd_zbw(args, constants) -> int:
    spec = wavepacket.GaussianSpec(d_width=args.dwidth)
    packet = wavepacket.gaussian_amplitudes(spec, center=args.p0, constants=constants)
    times = np.linspace(0.0, args.tmax, args.tsteps)
    charge = wavepacket.charge_current(packet, constants)
    rows = [
        (float(t), wavepacket.probability_current(packet, float(t), constants), charge)
        for t in times
    ]
    extra = {"neg_energy_fraction": wavepacket.negative_energy_fraction(packet)}
    _emit(args, constants, ("t", "prob_current", "charge_current"), rows, extra_header=extra)
    return 0


def _pair_solution_payload(sol: kinematics.PairSolution) -> dict:
    return {
        "branch": sol.branch,
        "theta_e_deg": math.degrees(sol.theta_e),
        "R": sol.r_parameter,
        "gamma_e": sol.gamma_e,
        "T_lab_keV": sol.t_lab,
        "E_cm_keV": sol.e_cm,
        "P_cm_keV": sol.p_cm,
        "delta_KE_keV": sol.delta_ke,
        "K_cm_keV": sol.k_cm,
    }


def _cmd_kinematics(args, constants) -> int:
    boost = kinematics.boost_from_beam_energy(args.x)
    if args.mode == "invert":
        if args.target is None:
            raise ValueError("invert mode needs --target")
        roots = kinematics.solve_theta(boost, args.deps, args.branch, args.target, constants)
        rows = [(math.degrees(t),) for t in roots]
        _emit(args, constants, ("theta_e_deg",), rows)
        return 0
    sol = kinematics.lab_pair_energy(boost, args.deps, math.radians(args.theta), args.branch, constants)
    payload = _pair_solution_payload(sol)
    _emit(args, constants, tuple(payload), [tuple(payload.values())], payload=payload)
    return 0


def _cmd_match(args, constants) -> int:
    records = matcher.load_catalog(args.catalog)
    rows = []
    for rec in records:
        cands = matcher.candidate_transitions(
            rec.system[0], rec.system[1], constants=constants, x=rec.beam_energy_x
        )
        for res in matcher.match_peak(rec, cands, top_k=args.top_k, constants=constants):
            rows.append(
                (
                    rec.system_name,
                    rec.spectrometer,
                    rec.observed,
                    res.transition.name,
                    res.branch,
                    res.theory_at_45,
                    res.residual_at_45,
                    res.solved_theta_deg,
                )
            )
    _emit(
        args,
        constants,
        ("system", "spectrometer", "observed_keV", "transition", "branch", "theory_at_45_keV", "residual_keV", "theta_e_deg"),
        rows,
    )
    return 0


def _cmd_reproduce_tables(args, constants) -> int:
    reports = matcher.reproduce_tables(constants)
    columns = (
        "table", "system", "spectrometer", "observed_keV", "transition", "branch",
        "published_theory_keV", "computed_theory_keV", "published_theta_deg", "computed_theta_deg",
        "theory_ok", "theta_ok", "marginal", "flags",
    )
    rows = [tuple(rep.as_row()[c] for c in columns) for rep in reports]
    _emit(args, constants, columns, rows)
    headline = [r for r in reports if r.theory_headline] + [r for r in reports if r.theta_headline]
    ok = all(r.theory_ok for r in reports if r.theory_headline) and all(
        r.theta_ok for r in reports if r.theta_headline
    )
    return 0 if ok and headline else 1


def _cmd_counting_time(args, constants) -> int:
    if args.xmin <= 0 or args.xmax <= args.xmin:
        raise ValueError("need 0 < xmin < xmax")
    xs = np.linspace(args.xmin, args.xmax, args.steps)
    rows = [
        (float(x), decaymodel.counting_time(float(x), args.x0, "baseline"), decaymodel.counting_time(float(x), args.x0, "metastable"))
        for x in xs
    ]
    x_opt, tau_min = decaymodel.optimal_current(args.x0)
    # relative pair yield at the optimum current (sigma0 = eta = 1 units)
    sigma_opt = decaymodel.pair_cross_section(x_opt, decaymodel.DecayParams(x0=args.x0))
    extra = {"optimal_x": x_opt, "tau_min": tau_min, "sigma_ep_rel_at_optimum": sigma_opt}
    _emit(args, constants, ("x", "tau_baseline", "tau_metastable"), rows, extra_header=extra)
    return 0


def _cmd_lineshape(args, constants) -> int:
    if args.tmax <= args.tmin:
        raise ValueError("need tmin < tmax")
    params = decaymodel.LineShapeParams(
        density_scale=args.scale, delta_eps_shift=args.shift, bin_width=args.bin_width
    )
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    dens = decaymodel.threshold_lineshape(ts, args.deps, params)
    rows = [(float(t), float(d)) for t, d in zip(ts, dens)]
    _emit(args, constants, ("T_sum_keV", "density"), rows)
    return 0


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpair",
        description="Dirac-coupling workbench: operator identities, 1-D scattering, "
        "hydrogenic pair transitions, pair-emission kinematics, and experiment-table regression.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--config", default=None, help="JSON file overriding constants (m_e_keV, alpha0)")
    # The same two flags are accepted after the subcommand as well; SUPPRESS
    # keeps a value given before the subcommand from being clobbered.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("algebra-check", help="verify the operator identities, emit max residual per identity")
    p.add_argument("--n-random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_algebra_check)

    p = add_parser("scatter", help="transmission sweep for a step/barrier, or square-well bound states")
    p.add_argument("--alt", required=True, choices=("d1", "d2"))
    p.add_argument("--v0", type=float, default=None, help="step/barrier height in keV")
    p.add_argument("--width", type=float, default=None, help="barrier width in 1/keV (omit for a step)")
    p.add_argument("--emin", type=float, default=None)
    p.add_argument("--emax", type=float, default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--well-depth", type=float, default=None, help="bound-state mode: well depth in keV")
    p.add_argument("--well-width", type=float, default=None, help="bound-state mode: well width in 1/keV")
    p.set_defaults(func=_cmd_scatter)

    p = add_parser("levels", help="hydrogenic level energies")
    p.add_argument("--ion", required=True)
    p.add_argument("--shells", default="K,L1,L2")
    p.set_defaults(func=_cmd_levels)

    p = add_parser("transitions", help="bound-pair transition table for one ion")
    p.add_argument("--ion", required=True)
    p.set_defaults(func=_cmd_transitions)

    p = add_parser("zbw", help="probability current vs charge current of a free packet")
    p.add_argument("--dwidth", type=float, required=True, help="confinement width in 1/keV")
    p.add_argument("--tmax", type=float, required=True, help="endpoint of the time sweep in 1/keV")
    p.add_argument("--tsteps", type=int, default=200)
    p.add_argument("--p0", type=float, default=0.0, help="packet center momentum in keV")
    p.set_defaults(func=_cmd_zbw)

    p = add_parser("kinematics", help="pair emission kinematics (solve or invert)")
    p.add_argument("mode", nargs="?", choices=("solve", "invert"), default="solve")
    p.add_argument("--deps", type=float, required=True, help="transition energy in keV")
    p.add_argument("--x", type=float, default=6.0, help="beam energy in MeV per nucleon")
    p.add_argument("--theta", type=float, default=45.0, help="opening half-angle in degrees (solve mode)")
    p.add_argument("--branch", choices=("+", "-"), required=True)
    p.add_argument("--target", type=float, default=None, help="target T_lab in keV (invert mode)")
    p.set_defaults(func=_cmd_kinematics)

    p = add_parser("match", help="rank candidate transitions for each catalog peak")
    p.add_argument("--catalog", required=True)
    p.add_argument("--top-k", type=int, default=6)
    p.set_defaults(func=_cmd_match)

    p = add_parser("reproduce-tables", help="regression against the bundled experiment tables")
    p.set_defaults(func=_cmd_reproduce_tables)

    p = add_parser("counting-time", help="counting-time-to-significance curves")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=_cmd_counting_time)

    p = add_parser("lineshape", help="near-threshold pair-sum line shape")
    p.add_argument("--deps", type=float, required=True, help="transition energy in keV")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--bin-width", type=float, default=1.0)
    p.set_defaults(func=_cmd_lineshape)

    return parser


def _check_numbers(args) -> None:
    """Reject a non-finite number flag or a step count below one before any work."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float):
            require_finite(flag, value)
        elif name.endswith("steps"):
            require_finite(flag, value, positive=True)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        constants = load_constants(args.config) if args.config else DEFAULT_CONSTANTS
        return args.func(args, constants)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
