"""Command-line entry point: one subcommand per operation, CSV or JSON output.

Every run prints the constants in effect in the report header.  Floating
output is rendered with 10 significant digits, all energies on the wire are
keV, and identical invocations produce byte-identical output.

Handlers compute and return; ``main`` emits and sets the exit code.  Each
``_cmd_*`` returns a dict of ``_emit``'s arguments (``columns``, and where it
has them ``payload`` and ``extra_header``) and, for a self-check that failed,
``failed``, the message.  ``main`` emits once, then writes that message as one
stderr line after the full output and exits 3; otherwise it exits 0.

Each handler imports what it runs: the package modules it calls, and numpy
where it needs it, load when the handler starts, and ``json`` loads only to
write JSON.  So a subcommand pays for no module that it never calls, and the
five that never touch numpy (``levels``, ``transitions``, ``kinematics``,
``match``, ``reproduce-tables``) do not pay for its import.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from .core import Alternative, DEFAULT_CONSTANTS, MAX_COUNT, load_constants, require_finite

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, bool):
        return str(x).lower()
    if x is None:
        return ""
    return str(x)


# a CSV cell holding one of these is quoted as in RFC 4180
_CSV_SPECIAL = ',"\r\n'


def _csv_quoted(x) -> str:
    text = _fmt(x)
    if any(c in text for c in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _float64_array(col) -> bool:
    # an ndarray's dtype says every cell is a float, with no scan of the cells and no numpy import
    return getattr(col, "dtype", None) == "float64"


def _csv_cell(col):
    types = {float} if _float64_array(col) else set(map(type, col))
    if types <= {float}:
        return "%.10g", None
    if types <= {str}:
        # the distinct values decide the quoting, and each is quoted once
        distinct = set(col)
        if any(c in "".join(distinct) for c in _CSV_SPECIAL):
            return "%s", {x: _csv_quoted(x) for x in distinct}.__getitem__
        return "%s", None
    # one scan of the column's text decides whether any of its cells needs quoting
    text = "".join(x for x in col if isinstance(x, str))
    if any(c in text for c in _CSV_SPECIAL):
        return "%s", _csv_quoted
    return "%s", _fmt


def _json_cell(col):
    import json
    from json.encoder import encode_basestring_ascii

    if _float64_array(col):
        import numpy as np  # loaded already: col is an ndarray

        return ("%r", None) if np.isfinite(col).all() else ("%s", json.dumps)
    types = set(map(type, col))
    # a sum of floats is finite only if every cell is; a sum that overflows
    # merely sends a finite column down the per-cell path
    if types <= {float} and math.isfinite(sum(col)):
        return "%r", None
    if types <= {str}:
        return "%s", {x: encode_basestring_ascii(x) for x in set(col)}.__getitem__
    return "%s", json.dumps


def _render(cols, cell, row_template) -> str:
    """The rows of ``cols`` as one ``%`` of a per-column row template repeated once per row.

    ``cell(col)`` picks a column's ``%`` spec and the function that renders
    each of its cells to text, or None to hand the cells to the spec as they
    are; ``row_template(specs)`` builds one row from the specs.  The flat
    argument list is filled a column at a time, and an ndarray column is
    turned into a list of Python scalars once, after its renderer is picked.
    """
    k, n = len(cols), len(cols[0])
    flat = [None] * (k * n)
    specs = []
    for i, col in enumerate(cols):
        spec, render = cell(col)
        specs.append(spec)
        if hasattr(col, "dtype"):
            col = col.tolist()
        flat[i::k] = col if render is None else map(render, col)
    return row_template(specs) * n % tuple(flat)


def _emit(fmt, constants, columns, payload=None, extra_header=None) -> None:
    """Write the columns to stdout as CSV or JSON, as ``fmt`` says, under a header of the constants.

    ``main`` passes the format (``"csv"`` or ``"json"``) and the constants the
    command ran with, and the dict the handler returned as the other
    arguments.  ``columns`` maps each column name, in output order, to the
    sequence of its cells, a list or a 1-D ndarray; every column has the same
    length.  An ndarray is written as its ``.tolist()`` would be.
    ``extra_header`` is a dict of derived scalars printed as an extra comment
    line (CSV) or merged into the document (JSON).  ``payload``, a dict,
    stands in for the rows in the JSON document; CSV always writes the columns.

    Both bodies are one ``%`` of a per-column row template repeated once per
    row, filled a column at a time (``_render``), and each column's renderer
    is picked once, on one of three paths:

    - floats: a float64 ndarray, known from its dtype, or a list whose cells
      are all exactly ``float``.  CSV writes them with ``%.10g``; JSON with
      ``%r`` (``float.__repr__``, as ``json`` does) when every cell is
      finite, and otherwise with ``json.dumps`` once per cell.
    - text: a column whose cells are all exactly ``str``.  Its distinct
      values decide and render it: in CSV a column in which none holds
      ``,``, ``"``, CR or LF goes to ``%s`` as it is, and otherwise each
      distinct value is quoted once, as in RFC 4180 with ``"`` doubled
      inside, and looked up per cell; in JSON each distinct value is
      escaped once by ``encode_basestring_ascii`` and looked up per cell.
    - everything else (int, bool, None, numpy scalars, mixed): ``_fmt`` in
      CSV, with a text cell quoted as above, and ``json.dumps`` in JSON,
      once per cell.  Values that hash equal but render differently
      (``True`` and ``1``, ``0.0`` and ``-0.0``) never share a rendering.

    So the CSV body is ``",".join(map(_fmt, row))`` per row, with the text
    cells that need it quoted.  In JSON the columns go in sorted key order,
    the rest of the document goes through ``json.dumps``, and ``"rows"``
    sorts after ``"constants"`` and ``"derived"``, so the bytes are those
    of ``json.dumps(doc, indent=2, sort_keys=True)`` with the rows as dicts.
    """
    header = {
        "m_e_keV": constants.electron_rest_energy,
        "alpha0": constants.fine_structure,
        "numeric_tolerance": constants.numeric_tolerance,
    }
    names, cols = list(columns), list(columns.values())
    if fmt == "json":
        import json

        doc = {"constants": header}
        if extra_header:
            doc["derived"] = dict(extra_header)
        if payload is not None:
            doc["result"] = payload
        text = json.dumps(doc, indent=2, sort_keys=True)
        if payload is None:
            rows = "[]"
            if len(cols[0]):
                order = sorted(range(len(names)), key=names.__getitem__)
                keys = [json.dumps(names[i]).replace("%", "%%") for i in order]
                body = _render(
                    [cols[i] for i in order],
                    _json_cell,
                    lambda specs: "    {\n" + ",\n".join(f"      {key}: {spec}" for key, spec in zip(keys, specs)) + "\n    },\n",
                )
                rows = "[\n" + body[:-2] + "\n  ]"
            # "rows" is the last key: drop the closing "\n}" and append it
            text = text[:-2] + ',\n  "rows": ' + rows + "\n}"
        sys.stdout.write(text + "\n")
        return
    out = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in d.items()) for d in (header, extra_header) if d]
    out.append(",".join(names))
    sys.stdout.write("\n".join(out) + "\n" + _render(cols, _csv_cell, lambda specs: ",".join(specs) + "\n"))


# --- subcommand implementations -----------------------------------------------


@contextlib.contextmanager
def _flags(*names):
    """Prefix a ValueError from the library calls inside, which check their own domain, with the flags that fed them."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{', '.join(names)}: {exc}") from None


def _cmd_algebra_check(args, constants) -> dict:
    import numpy as np

    from . import algebra

    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    mats = algebra.build_matrices()
    worst: dict[str, float] = {}

    def keep(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    for name, value in algebra.clifford_residuals(mats.alpha, mats.beta).items():
        keep(f"clifford_{name}", value)
    c = algebra.find_conjugation_matrix(mats, constants)
    keep("conjugation_unitarity", np.max(np.abs(c @ c.conj().T - np.eye(4))))
    spin_rng = np.random.default_rng(args.seed + 1)
    for _ in range(min(args.n_random, 20)):
        p = spin_rng.uniform(-4.0, 4.0, size=3) * constants.m
        b_plus, _ = algebra.casimir_projectors(p, constants)
        for s in (1, 2):
            mapped = c @ algebra.spinor_v(-p, s, constants).conj()
            # the conjugated spinor must live entirely in the +E subspace
            keep("conjugation_spinor_map", np.max(np.abs(b_plus @ mapped - mapped)))
    for _ in range(args.n_random):
        p = rng.uniform(-4.0, 4.0, size=3) * constants.m
        A = rng.uniform(-2.0, 2.0, size=3) * constants.m
        Phi = float(rng.uniform(-2.0, 2.0) * constants.m)
        for axis in range(3):
            keep("charge_current", algebra.charge_current_identity(p, axis, constants))
        for name, value in algebra.transformation_checks(p, A, Phi, constants).items():
            keep(f"transform_{name}", value)
        for name, value in algebra.appendix_identities(p, A, Phi, constants).items():
            keep(f"appendix_{name}", value)
    tol = 1e-10
    payload = {name: worst[name] for name in sorted(worst)}
    payload["max_residual"] = max(worst.values())
    payload["passed"] = bool(payload["max_residual"] < tol)
    failed = [name for name in sorted(worst) if not worst[name] < tol]
    message = None if payload["passed"] else f"{', '.join(failed)} residual at or above {tol:g}"
    return dict(columns={"identity": list(payload), "max_residual": list(payload.values())}, payload=payload, failed=message)


def _cmd_scatter(args, constants) -> dict:
    import numpy as np

    from . import scatter1d

    alt = Alternative.from_string(args.alt)
    if args.well_depth is None and args.well_width is not None:
        raise ValueError("--well-width needs --well-depth")
    if args.well_depth is not None:
        # bound-state mode: levels of the attractive square well
        if args.well_width is None:
            raise ValueError("--well-depth needs --well-width")
        given = [f"--{name}" for name in ("v0", "width", "emin", "emax", "steps") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"bound-state mode (--well-depth) does not read {', '.join(given)}")
        with _flags("--well-depth", "--well-width"):
            levels = scatter1d.square_well_bound_states(alt, args.well_depth, args.well_width, constants)
        return dict(columns={"level": list(range(len(levels))), "E_keV": list(levels)})
    if args.v0 is None or args.emin is None or args.emax is None:
        raise ValueError("transmission sweep needs --v0, --emin, and --emax")
    if args.emin <= 0 or args.emax <= args.emin:
        raise ValueError("need 0 < emin < emax")
    energies = np.linspace(args.emin, args.emax, 100 if args.steps is None else args.steps)
    if args.width is not None:
        with _flags("--v0", "--width", "--emin", "--emax"):
            profile = scatter1d.PotentialProfile.barrier(args.v0, args.width)
            res = scatter1d.barrier_transmission(alt, profile, energies, constants)
    else:
        with _flags("--v0", "--emin", "--emax"):
            res = scatter1d.step_transmission(alt, args.v0, energies, constants)
    return dict(columns={"E": energies, "T": res.T, "R": res.R, "classification": res.classification.tolist()})


def _cmd_levels(args, constants) -> dict:
    from . import hydrogenic

    ion = hydrogenic.get_ion(args.ion)
    labels = [s.strip() for s in args.shells.split(",") if s.strip()]
    if not labels:
        raise ValueError("no shells given")
    shells = [hydrogenic.Shell.from_label(label) for label in labels]
    e_plus = [hydrogenic.level_energy(ion, shell, constants) for shell in shells]
    return dict(columns={
        "ion": [ion.symbol] * len(shells),
        "shell": labels,
        "n": [shell.n for shell in shells],
        "j": [shell.j for shell in shells],
        "E_plus_keV": e_plus,
        "E_minus_keV": [-e for e in e_plus],
    })


def _cmd_transitions(args, constants) -> dict:
    from . import hydrogenic

    ion = hydrogenic.get_ion(args.ion)
    table = hydrogenic.transition_table(ion, constants=constants)
    return dict(columns={
        "transition": [tr.name for tr in table],
        "upper": [tr.upper.label for tr in table],
        "lower": [tr.lower.label for tr in table],
        "delta_eps_keV": [tr.delta_eps for tr in table],
    })


def _cmd_zbw(args, constants) -> dict:
    import numpy as np

    from . import wavepacket

    with _flags("--dwidth", "--p0"):
        packet = wavepacket.gaussian_amplitudes(args.dwidth, center=args.p0, constants=constants)
        charge = wavepacket.charge_current(packet, constants)
        extra = {"neg_energy_fraction": wavepacket.negative_energy_fraction(packet)}
    times = np.linspace(0.0, args.tmax, args.tsteps)
    dt = args.tmax / (args.tsteps - 1) if args.tsteps > 1 else 0.0
    with _flags("--dwidth", "--p0", "--tmax"):
        prob = wavepacket.probability_current(packet, dt, args.tsteps, constants)
    return dict(columns={"t": times, "prob_current": prob, "charge_current": [charge] * len(times)}, extra_header=extra)


def _cmd_kinematics(args, constants) -> dict:
    from . import kinematics

    with _flags("--x"):
        boost = kinematics.boost_from_beam_energy(args.x)
    if args.mode == "invert":
        if args.target is None:
            raise ValueError("invert mode needs --target")
        if args.theta is not None:
            raise ValueError("--theta is read only in solve mode")
        with _flags("--deps", "--x", "--target"):
            theta = kinematics.solve_theta(boost, args.deps, args.branch, args.target, constants)
        return dict(columns={"theta_e_deg": [] if theta is None else [math.degrees(theta)]})
    if args.target is not None:
        raise ValueError("--target is read only in invert mode")
    theta = math.radians(45.0 if args.theta is None else args.theta)
    with _flags("--deps", "--x", "--theta"):
        sol = kinematics.lab_pair_energy(boost, args.deps, theta, args.branch, constants)
        if sol.t_lab < 0.0:
            raise ValueError(f"no pair is emitted at this angle on the {args.branch} branch: T_lab would be {sol.t_lab:.10g} keV")
    payload = {
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
    return dict(columns={name: [value] for name, value in payload.items()}, payload=payload)


def _cmd_match(args, constants) -> dict:
    from . import hydrogenic, matcher

    records = matcher.load_catalog(args.catalog)
    # the levels depend on the ions and alpha0 alone, so a supercritical one
    # is reported as `levels` reports it, before any entry's kinematics
    for ion in dict.fromkeys(ion for rec in records for ion in rec.system):
        hydrogenic.transition_table(ion, constants=constants)
    hits = []
    for i, rec in enumerate(records):
        # the levels are finite and the observed peak only meets T_lab in a
        # difference, so what overflows from here on is the beam energy's
        with _flags(f"catalog entry {i}: x_mev_per_u"):
            hits += [(rec, res) for res in matcher.match_peak(rec, top_k=args.top_k, constants=constants)]
    return dict(columns={
        "system": [rec.system_name for rec, _ in hits],
        "spectrometer": [rec.spectrometer for rec, _ in hits],
        "observed_keV": [rec.observed for rec, _ in hits],
        "transition": [res.transition.name for _, res in hits],
        "branch": [res.branch for _, res in hits],
        "theory_at_45_keV": [res.theory_at_45 for _, res in hits],
        "residual_keV": [res.residual_at_45 for _, res in hits],
        "theta_e_deg": [res.solved_theta_deg for _, res in hits],
    })


def _cmd_reproduce_tables(args, constants) -> dict:
    from . import matcher

    reports = matcher.reproduce_tables(constants)
    rows = [rep.as_row() for rep in reports]
    failed = sum((r.theory_headline and not r.theory_ok) or (r.theta_headline and not r.theta_ok) for r in reports)
    message = f"{failed} headline rows out of tolerance" if failed else None
    return dict(columns={c: [row[c] for row in rows] for c in rows[0]}, failed=message)


def _cmd_counting_time(args, constants) -> dict:
    import numpy as np

    from . import decaymodel

    if args.xmin <= 0 or args.xmax <= args.xmin:
        raise ValueError("need 0 < xmin < xmax")
    with _flags("--x0"):
        x_opt, tau_min = decaymodel.optimal_current(args.x0)
        # relative pair yield sigma_ep/sigma0 at the optimum current
        sigma_opt = decaymodel.pair_cross_section(x_opt, args.x0)
    xs = np.linspace(args.xmin, args.xmax, args.steps)
    with _flags("--x0", "--xmin", "--xmax"):
        columns = {
            "x": xs,
            "tau_baseline": decaymodel.counting_time(xs, args.x0, "baseline"),
            "tau_metastable": decaymodel.counting_time(xs, args.x0, "metastable"),
        }
    return dict(columns=columns, extra_header={"optimal_x": x_opt, "tau_min": tau_min, "sigma_ep_rel_at_optimum": sigma_opt})


def _cmd_lineshape(args, constants) -> dict:
    import numpy as np

    from . import decaymodel

    # the grid's own guard: np.linspace needs a positive, finite tmax - tmin
    if not 0.0 < args.tmax - args.tmin < math.inf:
        raise ValueError("--tmin, --tmax: need tmin < tmax and a finite tmax - tmin")
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    with _flags("--deps", "--tmin", "--tmax", "--scale", "--shift", "--bin-width"):
        dens = decaymodel.threshold_lineshape(ts, args.deps, args.scale, args.shift, args.bin_width)
    return dict(columns={"T_sum_keV": ts, "density": dens})


# --- parser -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpair",
        description="Dirac-coupling workbench: operator identities, 1-D scattering, "
        "hydrogenic pair transitions, pair-emission kinematics, and experiment-table regression.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--config", default=None, help="JSON file overriding constants (m_e_keV, alpha0, numeric_tolerance)")
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
    p.add_argument("--steps", type=int, default=None, help="energies in the sweep (default 100)")
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
    p.add_argument("--theta", type=float, default=None, help="opening half-angle in degrees (solve mode, default 45)")
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
    """Reject a flag without a value, a non-finite number flag or a count (steps, top-k, n-random) outside [1, 10^6] before any work."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, list):  # argparse reads "--flag=--" as an empty list, skipping type and choices
            raise ValueError(f"{flag} needs a value")
        if isinstance(value, float):
            require_finite(flag, value)
        elif value is not None and (name.endswith("steps") or name in ("top_k", "n_random")):
            if value > MAX_COUNT:
                raise ValueError(f"{flag} must be at most {MAX_COUNT}")
            require_finite(flag, value, positive=True)


def main(argv=None) -> int:
    """Run one subcommand, emit what its handler returned, and return the exit code.

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
        out = args.func(args, constants)
        failed = out.pop("failed", None)
        _emit(args.format, constants, **out)
        if failed:
            print(f"check failed: {failed}", file=sys.stderr)
        return 3 if failed else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
