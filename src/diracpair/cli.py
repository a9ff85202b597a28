"""Command-line entry point: one subcommand per operation, CSV or JSON output.

Every run prints the constants in effect in the report header.  Floating
output is rendered with 10 significant digits, all energies on the wire are
keV, and identical invocations produce byte-identical output.

Only the pure-``math`` modules are imported here.  numpy and the modules
built on it load inside the handlers that use them, so the subcommands that
never touch numpy (``levels``, ``transitions``, ``kinematics``, ``match``,
``reproduce-tables``) do not pay for its import.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import hydrogenic, kinematics, matcher
from .core import Alternative, DEFAULT_CONSTANTS, load_constants, require_finite

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, bool):
        return str(x).lower()
    if x is None:
        return ""
    return str(x)


def _emit(args, constants, columns, payload=None, extra_header=None) -> None:
    """Write CSV (default) or JSON to stdout with the constants header.

    ``columns`` maps each column name, in output order, to the sequence of
    its cells; every column has the same length.  ``extra_header`` is a dict
    of derived scalars printed as an extra comment line (CSV) or merged into
    the document (JSON).  ``payload``, a dict, stands in for the rows in the
    JSON document; CSV always writes the columns.

    The CSV body is one ``%`` of the per-column template repeated once per
    row: a column whose cells are all exactly ``float`` is rendered by
    ``%.10g``, every other column (str, int, bool, None, numpy scalars,
    mixed) by ``_fmt`` once per cell and ``%s``.  The flat argument list is
    filled a column at a time.  The bytes are identical to
    ``",".join(map(_fmt, row))`` per row.
    """
    header = {
        "m_e_keV": constants.electron_rest_energy,
        "alpha0": constants.fine_structure,
        "numeric_tolerance": constants.numeric_tolerance,
    }
    names, cols = list(columns), list(columns.values())
    if args.format == "json":
        doc = {"constants": header}
        if extra_header:
            doc["derived"] = dict(extra_header)
        if payload is not None:
            doc["result"] = payload
        else:
            doc["rows"] = [dict(zip(names, row)) for row in zip(*cols)]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    out = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in d.items()) for d in (header, extra_header) if d]
    out.append(",".join(names))
    k, n = len(cols), len(cols[0])
    flat = [None] * (k * n)
    template = []
    for i, col in enumerate(cols):
        if set(map(type, col)) <= {float}:
            template.append("%.10g")
            flat[i::k] = col
        else:
            template.append("%s")
            flat[i::k] = map(_fmt, col)
    sys.stdout.write("\n".join(out) + "\n" + (",".join(template) + "\n") * n % tuple(flat))


# --- subcommand implementations -----------------------------------------------

# Largest float whose square is finite: the domain checks below keep the
# numbers a handler squares under it.
_ROOT_MAX = math.sqrt(sys.float_info.max)


def _cmd_algebra_check(args, constants) -> int:
    import numpy as np

    from . import algebra

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
    _emit(args, constants, {"identity": list(payload), "max_residual": list(payload.values())}, payload=payload)
    return 0 if payload["passed"] else 1


def _cmd_scatter(args, constants) -> int:
    import numpy as np

    from . import scatter1d

    alt = Alternative.from_string(args.alt)
    if args.well_depth is not None:
        # bound-state mode: levels of the attractive square well
        if args.well_width is None:
            raise ValueError("--well-depth needs --well-width")
        levels = scatter1d.square_well_bound_states(alt, args.well_depth, args.well_width, constants)
        _emit(args, constants, {"level": list(range(len(levels))), "E_keV": list(levels)})
        return 0
    if args.v0 is None or args.emin is None or args.emax is None:
        raise ValueError("transmission sweep needs --v0, --emin, and --emax")
    if args.emin <= 0 or args.emax <= args.emin:
        raise ValueError("need 0 < emin < emax")
    # every region's momentum is at most |E| + |V0| + m, and a barrier's
    # propagation phase is that momentum times its width
    reach = args.emax + abs(args.v0) + constants.m
    if not math.isfinite(reach):
        raise ValueError("--v0 and --emax put E - V0 beyond the float range")
    if args.width is not None and not math.isfinite(reach * args.width):
        raise ValueError("--width is too large for this sweep: the phase p * width overflows")
    energies = np.linspace(args.emin, args.emax, args.steps)
    if args.width is not None:
        profile = scatter1d.PotentialProfile.barrier(args.v0, args.width)
        res = scatter1d.barrier_transmission(alt, profile, energies, constants)
    else:
        res = scatter1d.step_transmission(alt, args.v0, energies, constants)
    columns = {
        "E": energies.tolist(),
        "T": res.T.tolist(),
        "R": res.R.tolist(),
        "classification": res.classification.tolist(),
    }
    _emit(args, constants, columns)
    return 0


def _cmd_levels(args, constants) -> int:
    ion = hydrogenic.get_ion(args.ion)
    labels = [s.strip() for s in args.shells.split(",") if s.strip()]
    if not labels:
        raise ValueError("no shells given")
    shells = [hydrogenic.Shell.from_label(label) for label in labels]
    e_plus = [hydrogenic.level_energy(ion, shell, +1, constants) for shell in shells]
    columns = {
        "ion": [ion.symbol] * len(shells),
        "shell": labels,
        "n": [shell.n for shell in shells],
        "j": [shell.j for shell in shells],
        "E_plus_keV": e_plus,
        "E_minus_keV": [-e for e in e_plus],
    }
    _emit(args, constants, columns)
    return 0


def _cmd_transitions(args, constants) -> int:
    ion = hydrogenic.get_ion(args.ion)
    table = hydrogenic.transition_table(ion, constants=constants)
    columns = {
        "transition": [tr.name for tr in table],
        "upper": [tr.upper.label for tr in table],
        "lower": [tr.lower.label for tr in table],
        "delta_eps_keV": [tr.delta_eps for tr in table],
    }
    _emit(args, constants, columns)
    return 0


def _cmd_zbw(args, constants) -> int:
    import numpy as np

    from . import wavepacket

    spec = wavepacket.GaussianSpec(d_width=args.dwidth)
    grid = wavepacket.default_grid(args.dwidth, constants)
    # E_q = sqrt(q^2 + m^2) and the phases 2 E_q t, with E_q about as large as
    # the grid's reach, must be finite floats
    reach = float(grid[-1])
    if not reach < _ROOT_MAX:
        raise ValueError("--dwidth is too small: the momentum grid, +-8/dwidth keV wide, overflows")
    if not abs(args.tmax) * reach < sys.float_info.max / 4:
        raise ValueError("--tmax is too large for this packet: the phases 2 E t overflow")
    packet = wavepacket.gaussian_amplitudes(spec, grid, center=args.p0, constants=constants)
    times = np.linspace(0.0, args.tmax, args.tsteps)
    charge = wavepacket.charge_current(packet, constants)
    prob = wavepacket.probability_current(packet, times, constants)
    columns = {"t": times.tolist(), "prob_current": prob.tolist(), "charge_current": [charge] * len(times)}
    extra = {"neg_energy_fraction": wavepacket.negative_energy_fraction(packet)}
    _emit(args, constants, columns, extra_header=extra)
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
    # gamma_e - 1 is at most twice deps/2m (R <= 1/2), and T_lab squares it
    if not args.deps < _ROOT_MAX * constants.m / 2:
        raise ValueError("--deps is too large: the pair's Lorentz factor overflows")
    boost = kinematics.boost_from_beam_energy(args.x)
    if args.mode == "invert":
        if args.target is None:
            raise ValueError("invert mode needs --target")
        roots = kinematics.solve_theta(boost, args.deps, args.branch, args.target, constants)
        _emit(args, constants, {"theta_e_deg": [math.degrees(t) for t in roots]})
        return 0
    sol = kinematics.lab_pair_energy(boost, args.deps, math.radians(args.theta), args.branch, constants)
    payload = _pair_solution_payload(sol)
    _emit(args, constants, {name: [value] for name, value in payload.items()}, payload=payload)
    return 0


def _cmd_match(args, constants) -> int:
    records = matcher.load_catalog(args.catalog)
    hits = []
    for rec in records:
        cands = matcher.candidate_transitions(
            rec.system[0], rec.system[1], constants=constants, x=rec.beam_energy_x
        )
        hits += [(rec, res) for res in matcher.match_peak(rec, cands, top_k=args.top_k, constants=constants)]
    columns = {
        "system": [rec.system_name for rec, _ in hits],
        "spectrometer": [rec.spectrometer for rec, _ in hits],
        "observed_keV": [rec.observed for rec, _ in hits],
        "transition": [res.transition.name for _, res in hits],
        "branch": [res.branch for _, res in hits],
        "theory_at_45_keV": [res.theory_at_45 for _, res in hits],
        "residual_keV": [res.residual_at_45 for _, res in hits],
        "theta_e_deg": [res.solved_theta_deg for _, res in hits],
    }
    _emit(args, constants, columns)
    return 0


def _cmd_reproduce_tables(args, constants) -> int:
    reports = matcher.reproduce_tables(constants)
    columns = (
        "table", "system", "spectrometer", "observed_keV", "transition", "branch",
        "published_theory_keV", "computed_theory_keV", "published_theta_deg", "computed_theta_deg",
        "theory_ok", "theta_ok", "marginal", "flags",
    )
    rows = [rep.as_row() for rep in reports]
    _emit(args, constants, {c: [row[c] for row in rows] for c in columns})
    headline = [r for r in reports if r.theory_headline] + [r for r in reports if r.theta_headline]
    ok = all(r.theory_ok for r in reports if r.theory_headline) and all(
        r.theta_ok for r in reports if r.theta_headline
    )
    return 0 if ok and headline else 1


def _cmd_counting_time(args, constants) -> int:
    import numpy as np

    from . import decaymodel

    if args.xmin <= 0 or args.xmax <= args.xmin:
        raise ValueError("need 0 < xmin < xmax")
    x_opt, tau_min = decaymodel.optimal_current(args.x0)
    # relative pair yield at the optimum current (sigma0 = eta = 1 units); x0 >= 1 from here on
    sigma_opt = decaymodel.pair_cross_section(x_opt, decaymodel.DecayParams(x0=args.x0))
    # (x0 + x)^2 and tau = (x0 + x)^2 / x >= 1/x peak at the ends of the sweep
    if not max((args.x0 + x) * max(1.0, 1.0 / math.sqrt(x)) for x in (args.xmin, args.xmax)) < _ROOT_MAX / 2:
        raise ValueError("--x0, --xmin and --xmax put the counting time (x0 + x)^2/x beyond the float range")
    xs = np.linspace(args.xmin, args.xmax, args.steps)
    columns = {
        "x": xs.tolist(),
        "tau_baseline": decaymodel.counting_time(xs, args.x0, "baseline").tolist(),
        "tau_metastable": decaymodel.counting_time(xs, args.x0, "metastable").tolist(),
    }
    extra = {"optimal_x": x_opt, "tau_min": tau_min, "sigma_ep_rel_at_optimum": sigma_opt}
    _emit(args, constants, columns, extra_header=extra)
    return 0


def _cmd_lineshape(args, constants) -> int:
    import numpy as np

    from . import decaymodel

    if args.tmax <= args.tmin:
        raise ValueError("need tmin < tmax")
    params = decaymodel.LineShapeParams(
        density_scale=args.scale, delta_eps_shift=args.shift, bin_width=args.bin_width
    )
    # the edge cap bounds every density value; x = T_sum - deps + shift is
    # monotone in T_sum, so its ends bound it over the whole grid
    if not math.isfinite(2.0 * args.scale / math.sqrt(args.bin_width)):
        raise ValueError("--scale and --bin-width put the edge cap 2*scale/sqrt(bin_width) beyond the float range")
    if not math.isfinite(args.tmax - args.tmin):
        raise ValueError("--tmin and --tmax are too far apart: tmax - tmin overflows")
    if not all(math.isfinite(t - args.deps + args.shift) for t in (args.tmin, args.tmax)):
        raise ValueError("--deps and --shift put T_sum - deps + shift beyond the float range at an end of the grid")
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    dens = decaymodel.threshold_lineshape(ts, args.deps, params)
    _emit(args, constants, {"T_sum_keV": ts.tolist(), "density": dens.tolist()})
    return 0


# --- parser -------------------------------------------------------------------


@functools.cache
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


# Largest count a flag (steps, top-k, n-random) accepts: far above any real
# sweep, and small enough that the grids it sizes fit in memory.
_MAX_COUNT = 10**6


def _check_numbers(args) -> None:
    """Reject a non-finite number flag or a count (steps, top-k, n-random) outside [1, 10^6] before any work."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float):
            require_finite(flag, value)
        elif name.endswith("steps") or name in ("top_k", "n_random"):
            if value > _MAX_COUNT:
                raise ValueError(f"{flag} must be at most {_MAX_COUNT}")
            require_finite(flag, value, positive=True)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process, so each subcommand's handler is the one bound at that
    first build.  BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS``
    or ``OMP_NUM_THREADS`` says otherwise: no product here is large enough
    to gain from more, and starting them slows a one-shot run.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = _build_parser().parse_args(argv)
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
