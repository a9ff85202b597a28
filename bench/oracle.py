"""Reference physics and output checks for benchmark requests.

The closed forms here are written from the definitions in the package's
documentation, not from its code, so a check does not pass merely because the
program agrees with itself.  Tolerances are fixed by physics or by the
acceptance criteria (0.5 % on theory values, 0.5 degrees on solved angles,
1e-9 on unitarity, 1e-10 on operator identities) and do not depend on how the
program computes its numbers.  The one deliberate exception: a solved angle is
re-evaluated through the public ``kinematics.lab_pair_energy``, as the
definition of "solved" requires.

Every check takes the request and its captured output and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from diracpair.kinematics import boost_from_beam_energy, lab_pair_energy

M_E = 510.998950  # keV, CODATA 2018
ALPHA0 = 7.2973525693e-3
HEADER = f"# m_e_keV={M_E:.10g} alpha0={ALPHA0:.10g} numeric_tolerance=1e-12"

SHELLS = {"K": (1, 0.5), "L1": (2, 0.5), "L2": (2, 1.5), "M": (3, 0.5), "Z": (50, 0.5)}
SHELL_PAIRS = (("K", "K"), ("K", "L1"), ("K", "L2"), ("L1", "L1"), ("L2", "L2"), ("M", "M"), ("Z", "Z"))

THEORY_REL_TOL = 0.005
THETA_ABS_TOL_DEG = 0.5
UNITARITY_TOL = 1e-9
IDENTITY_TOL = 1e-10
CLOSED_FORM_REL_TOL = 1e-9
LEVEL_ABS_TOL = 1e-6 * M_E
THETA_GRID_DEG = np.round(np.arange(1, 901) * 0.1, 10)  # (0, 90] at 0.1 degrees


# --- reference physics ----------------------------------------------------------


def level_energy(z: int, shell: str) -> float:
    """Point-nucleus Dirac level E+(n, j) in keV."""
    n, j = SHELLS[shell]
    za = z * ALPHA0
    k = j + 0.5
    return M_E / math.sqrt(1.0 + (za / (n - k + math.sqrt(k * k - za * za))) ** 2)


def delta_eps(z: int, upper: str, lower: str) -> float:
    """Bound-pair transition energy E+(S) + E+(S')."""
    return level_energy(z, upper) + level_energy(z, lower)


def t_lab(x: float, deps: float, theta_deg, branch: str):
    """Laboratory pair kinetic energy (keV) at opening half-angle theta (degrees)."""
    g_i = 1.0 + 0.001 * x
    b_i = math.sqrt(1.0 - 1.0 / (g_i * g_i))
    c = np.cos(np.radians(theta_deg))
    r = (b_i / g_i) * c
    d = deps / (2.0 * M_E)
    root = np.sqrt(d * (2.0 + d) + r * r)
    base = (1.0 + d) / (1.0 - r * r)
    shift = r * root / (1.0 - r * r)
    gamma_e = base + shift if branch == "+" else base - shift
    gb = np.sqrt(np.maximum(gamma_e * gamma_e - 1.0, 0.0))
    return (g_i - 1.0) * 2.0 * M_E + g_i * (deps - 2.0 * M_E * ((1.0 + g_i) / g_i) * gb * b_i * c)


def root_count(x: float, deps: float, branch: str, target: float) -> int:
    """Sign changes of T_lab - target on the 0.1-degree grid over (0, 90]."""
    f = t_lab(x, deps, THETA_GRID_DEG, branch) - target
    return int(np.count_nonzero(f[:-1] * f[1:] < 0.0) + np.count_nonzero(f == 0.0))


def brackets_target(x: float, deps: float, branch: str, target: float, theta_deg: float) -> bool:
    """True when a root of T_lab = target lies within 0.5 degrees of theta."""
    lo = max(theta_deg - THETA_ABS_TOL_DEG, 1e-6)
    hi = min(theta_deg + THETA_ABS_TOL_DEG, 90.0)
    f = t_lab(x, deps, np.array([lo, hi]), branch) - target
    return bool(f[0] * f[1] <= 0.0)


def classify(alt: str, values, energies) -> np.ndarray:
    """Scattering regime of a piecewise-constant profile at each energy.

    eps = E - V (D1) or sgn(E)(|E| - V) (D2, where |E| <= V admits no mode).
    A D2-forbidden region anywhere, or a non-propagating far side, blocks
    transmission; an interior region inside the gap means tunnelling; a
    lower-branch propagating region (eps < -m) puts the energy in the Klein zone.
    """
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    v = np.asarray(values, dtype=float)[:, None]
    if alt == "d1":
        eps, forbidden = e - v, np.zeros((len(v), len(e)), dtype=bool)
    else:
        xi = np.abs(e) - v
        eps, forbidden = np.sign(e) * xi, (xi <= 0.0) | (e == 0.0)
    blocked = forbidden.any(axis=0) | (np.abs(eps[-1]) <= M_E)
    tunnelling = (np.abs(eps[1:-1]) <= M_E).any(axis=0)
    klein = (eps < -M_E).any(axis=0)
    return np.select([blocked, tunnelling, klein], ["gap_blocked", "evanescent_tunneling", "klein_zone"], "classical")


def classify_step(alt: str, v0: float, energies) -> np.ndarray:
    """Regime of the semi-infinite step V(z > 0) = v0 for incident energies E > m."""
    e = np.atleast_1d(np.asarray(energies, dtype=float))
    klein = (e < v0 - M_E) if alt == "d1" else np.zeros(e.shape, dtype=bool)
    return np.select([e > v0 + M_E, klein], ["classical", "klein_zone"], "gap_blocked")


def well_secular(e, depth: float, width: float):
    """Matching function of the square well V = -depth on (0, width); zero at levels.

    With phi1' = -a phi2, phi2' = b phi1 (a = E + depth + m, b = E + depth - m)
    the interior transfer is phi1(w) = C phi1 + S phi1', with C = cos(kw),
    S = sin(kw)/k and k^2 = ab (cosh/sinh when ab < 0).  Starting from the
    left decaying solution, the level condition is that the right decaying
    ratio phi2/phi1 = kappa/(E + m) is met at z = w.  The function has no
    poles inside the gap, so every sign change on a grid brackets a level.
    """
    e = np.asarray(e, dtype=float)
    a = e + depth + M_E
    b = e + depth - M_E
    k2 = a * b
    k = np.sqrt(np.abs(k2))
    kw = k * width
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(k2 > 0.0, np.cos(kw), np.cosh(kw))
        s = np.where(k2 > 0.0, np.sin(kw), np.sinh(kw)) / k
    s = np.where(k == 0.0, width, s)
    kappa = np.sqrt(M_E * M_E - e * e)
    mu_left = -kappa / (e + M_E)
    mu_right = kappa / (e + M_E)
    phi1 = c - a * mu_left * s
    phi2 = b * s + mu_left * c
    return phi2 - mu_right * phi1


def well_levels(alt: str, depth: float, width: float, n_scan: int = 20001) -> list[float]:
    """Bound levels by a dense scan of the matching function plus bisection.

    The search window is the documented one: the whole gap for D1, the
    positive half for D2, each 1e-6 m clear of its edges.
    """
    lo = -M_E * (1.0 - 1e-6) if alt == "d1" else M_E * 1e-6
    hi = M_E * (1.0 - 1e-6)
    grid = np.linspace(lo, hi, n_scan)
    f = well_secular(grid, depth, width)
    idx = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)[0]
    a, b, fa = grid[idx], grid[idx + 1], f[idx]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = well_secular(mid, depth, width)
        left = np.sign(fm) == np.sign(fa)
        a, fa = np.where(left, mid, a), np.where(left, fm, fa)
        b = np.where(left, b, mid)
    return sorted(float(x) for x in 0.5 * (a + b))


# --- output parsing ---------------------------------------------------------------


def parse_columns(text: str) -> tuple[dict, dict[str, list]]:
    """Split CLI output into (header scalars, column name -> values).

    CSV values stay strings ('' for empty); JSON values keep their JSON type.
    The constants header is checked separately by :func:`header_problems`.
    """
    if text.startswith("{"):
        doc = json.loads(text)
        rows = doc.get("rows", [])
        return dict(doc.get("derived", {})), {name: [row[name] for row in rows] for name in (rows[0] if rows else ())}
    lines = text.splitlines()
    scalars: dict = {}
    for line in lines[1:]:
        if not line.startswith("#"):
            break
        for item in line[2:].split(" "):
            key, _, value = item.partition("=")
            scalars[key] = value
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return scalars, {}
    names = body[0].split(",")
    values = list(zip(*(line.split(",") for line in body[1:]))) or [()] * len(names)
    return scalars, {name: list(col) for name, col in zip(names, values)}


def parse_output(text: str) -> tuple[dict, list[dict]]:
    """Like :func:`parse_columns`, with the data as one dict per row."""
    scalars, columns = parse_columns(text)
    return scalars, [dict(zip(columns, row)) for row in zip(*columns.values())]


def header_problems(text: str) -> list[str]:
    if text.startswith("{"):
        const = json.loads(text).get("constants", {})
        ok = const.get("m_e_keV") == M_E and const.get("alpha0") == ALPHA0
    else:
        ok = text.split("\n", 1)[0] == HEADER
    return [] if ok else ["constants header differs from CODATA 2018 defaults"]


def number(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# --- checks per request kind ----------------------------------------------------


def _grid_problem(cols: dict, name: str, n: int) -> list[str]:
    got = len(cols.get(name, ()))
    return [] if got == n else [f"expected {n} rows, got {got}"]


def _check_sweep(p: dict, text: str) -> list[str]:
    _, cols = parse_columns(text)
    energies = np.linspace(p["emin"], p["emax"], p["steps"])
    if (problems := _grid_problem(cols, "E", len(energies))) or not len(energies):
        return problems
    got_e, t, r = (np.array(cols[c], dtype=float) for c in ("E", "T", "R"))
    if p["width"] is None:
        want = classify_step(p["alt"], p["v0"], energies)
    else:
        want = classify(p["alt"], (0.0, p["v0"], 0.0), energies)
    for mask, what in (
        (~np.isclose(got_e, energies, rtol=1e-9, atol=0.0), "E differs from the requested grid"),
        (~((t >= 0.0) & (t <= 1.0)), "T outside [0, 1]"),
        (~(np.abs(t + r - 1.0) <= UNITARITY_TOL), f"|T+R-1| > {UNITARITY_TOL}"),
        (np.array(cols["classification"]) != want, "classification differs from the regime"),
    ):
        if mask.any():
            problems.append(f"{what} at {int(mask.sum())} energies, first E={energies[mask.argmax()]}")
    return problems


def _check_well(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    got = [float(row["E_keV"]) for row in rows]
    want = well_levels(p["alt"], p["depth"], p["width"])
    if len(got) != len(want):
        return [f"{len(got)} levels reported, the scan oracle finds {len(want)}"]
    return [f"level {g} differs from oracle {w}" for g, w in zip(got, want) if abs(g - w) > LEVEL_ABS_TOL]


def _check_profile(p: dict, text: str) -> list[str]:
    t_str, r_str, cls = text.split(",")
    t, r = float(t_str), float(r_str)
    problems = []
    if not 0.0 <= t <= 1.0:
        problems.append(f"T={t} outside [0, 1]")
    if not abs(t + r - 1.0) <= UNITARITY_TOL:
        problems.append(f"|T+R-1|={abs(t + r - 1.0):.3g}")
    want = classify(p["alt"], p["values"], p["energy"])[0]
    if cls != want:
        problems.append(f"classification {cls} != {want}")
    return problems


def _solved_angle_problems(x, deps, branch, target, theta_deg) -> list[str]:
    if not 0.0 < theta_deg <= 90.0:
        return [f"angle {theta_deg} outside (0, 90]"]
    t = lab_pair_energy(boost_from_beam_energy(x), deps, math.radians(theta_deg), branch).t_lab
    problems = []
    if abs(t - target) > THEORY_REL_TOL * target:
        problems.append(f"angle {theta_deg} gives T_lab {t}, target {target}")
    if not brackets_target(x, deps, branch, target, theta_deg):
        problems.append(f"no root within {THETA_ABS_TOL_DEG} deg of {theta_deg}")
    return problems


def _check_invert(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    args = (p["x"], p["deps"], p["branch"], p["target"])
    expected = root_count(*args)
    if len(rows) != expected:
        return [f"{len(rows)} angles reported, the grid oracle finds {expected}"]
    problems = []
    for row in rows:
        problems += _solved_angle_problems(*args, float(row["theta_e_deg"]))
    return problems


def _candidates(rec: dict, ions: dict) -> list[tuple[str, str, float, float]]:
    """(transition name, branch, delta_eps, theory at 45 deg) for every candidate."""
    beam, target = rec["system"].split("+")
    out = []
    for sym in dict.fromkeys((beam, target)):
        for up, lo in SHELL_PAIRS:
            de = delta_eps(ions[sym], up, lo)
            for branch in ("+", "-"):
                out.append((f"{sym}:{up}->{lo}'", branch, de, float(t_lab(rec["x_mev_per_u"], de, 45.0, branch))))
    return out


def _check_match(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    problems = []
    cursor = 0
    for rec in p["records"]:
        cands = _candidates(rec, p["ions"])
        n = min(p["top_k"], len(cands))
        block, cursor = rows[cursor : cursor + n], cursor + n
        if len(block) != n:
            return problems + [f"expected {n} rows for peak {rec['observed_keV']}"]
        target = rec["observed_keV"] * (2.0 if rec["observable"] == "positron_energy" else 1.0)
        by_key = {(name, br): (de, th) for name, br, de, th in cands}
        best = min(abs(th - target) for *_, th in cands)
        last = 0.0
        for i, row in enumerate(block):
            key = (row["transition"], row["branch"])
            if key not in by_key:
                problems.append(f"unknown candidate {key}")
                continue
            de, th = by_key[key]
            theory, resid = float(row["theory_at_45_keV"]), float(row["residual_keV"])
            if not _rel_close(theory, th, 1e-9) or abs(resid - (th - target)) > 1e-9 * th:
                problems.append(f"theory at 45 deg for {key} is {theory}, expected {th}")
            if abs(resid) < last - 1e-9 * th or (i == 0 and abs(abs(resid) - best) > 1e-9 * th):
                problems.append(f"candidate {key} ranked out of order")
            last = abs(resid)
            theta = number(row["theta_e_deg"])
            if theta is None:
                if root_count(rec["x_mev_per_u"], de, key[1], target):
                    problems.append(f"no angle reported for {key} although T_lab reaches {target}")
            else:
                problems += _solved_angle_problems(rec["x_mev_per_u"], de, key[1], target, theta)
    if cursor != len(rows):
        problems.append(f"{len(rows) - cursor} unexpected extra rows")
    return problems


def _check_reproduce(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    records = p["records"]
    if len(rows) != len(records):
        return [f"expected {len(records)} table rows, got {len(rows)}"]
    problems = []
    for rec, row in zip(records, rows):
        positron = rec["observable"] == "positron_energy"
        de = delta_eps(p["ions"][rec["ion"]], rec["upper"], rec["lower"])
        th = float(t_lab(rec["x_mev_per_u"], de, 45.0, rec["branch"])) / (2.0 if positron else 1.0)
        computed = float(row["computed_theory_keV"])
        if not _rel_close(computed, th, 1e-9):
            problems.append(f"theory for {row['transition']} is {computed}, expected {th}")
        ok = abs(computed - rec["published_theory_at_45_keV"]) <= THEORY_REL_TOL * rec["published_theory_at_45_keV"]
        if (row["theory_ok"] == "true") != ok:
            problems.append(f"theory_ok wrong for {row['transition']}")
        theta = number(row["computed_theta_deg"])
        target = rec["observed_keV"] * (2.0 if positron else 1.0)
        if theta is not None:
            problems += _solved_angle_problems(rec["x_mev_per_u"], de, rec["branch"], target, theta)
    return problems


def _check_transitions(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    z = p["ions"][p["ion"]]
    want = sorted((delta_eps(z, up, lo), up, lo) for up, lo in SHELL_PAIRS)
    got = [(float(r["delta_eps_keV"]), r["upper"], r["lower"]) for r in rows]
    if [g[1:] for g in got] != [w[1:] for w in want]:
        return ["transition table order or content differs"]
    return [f"{g[1]}->{g[2]}' is {g[0]}, expected {w[0]}" for g, w in zip(got, want) if not _rel_close(g[0], w[0], CLOSED_FORM_REL_TOL)]


def _check_algebra(p: dict, text: str) -> list[str]:
    _, rows = parse_output(text)
    values = {r["identity"]: r["max_residual"] for r in rows}
    if values.get("passed") != "true":
        return ["algebra-check did not pass"]
    residuals = [float(v) for k, v in values.items() if k != "passed"]
    if len(residuals) < 10 or max(residuals) >= IDENTITY_TOL:
        return [f"identity residual {max(residuals, default=math.nan)} not below {IDENTITY_TOL}"]
    return []


def _check_zbw(p: dict, text: str) -> list[str]:
    scalars, cols = parse_columns(text)
    times = np.linspace(0.0, p["tmax"], p["tsteps"])
    if problems := _grid_problem(cols, "t", len(times)):
        return problems
    got_t, prob, charge = (np.array(cols[c], dtype=float) for c in ("t", "prob_current", "charge_current"))
    if np.ptp(charge) > 1e-12 * max(1.0, float(np.max(np.abs(charge)))):
        problems.append(f"charge current varies by {np.ptp(charge):.3g} across rows")
    if not (np.all(np.isfinite(prob)) and np.max(np.abs(prob)) <= 1.0 + 1e-9 and np.max(np.abs(charge)) <= 1.0 + 1e-9):
        problems.append("a current exceeds the speed of light or is not finite")
    if not np.allclose(got_t, times, rtol=1e-9, atol=0.0):
        problems.append("time grid differs from the request")
    if not 0.0 <= float(scalars.get("neg_energy_fraction", "nan")) <= 0.5:
        problems.append("negative-energy fraction outside [0, 1/2]")
    return problems


def _check_counting(p: dict, text: str) -> list[str]:
    scalars, cols = parse_columns(text)
    xs = np.linspace(p["xmin"], p["xmax"], p["steps"])
    if problems := _grid_problem(cols, "x", len(xs)):
        return problems
    x0 = p["x0"]
    base, meta = (np.array(cols[c], dtype=float) for c in ("tau_baseline", "tau_metastable"))
    if not np.allclose(base, 1.0 / xs, rtol=CLOSED_FORM_REL_TOL, atol=0.0):
        problems.append("tau_baseline differs from 1/x")
    if not np.allclose(meta, (x0 + xs) ** 2 / xs, rtol=CLOSED_FORM_REL_TOL, atol=0.0):
        problems.append("tau_metastable differs from (x0 + x)^2 / x")
    if not (_rel_close(float(scalars["optimal_x"]), x0, 1e-9) and _rel_close(float(scalars["tau_min"]), 4.0 * x0, 1e-9)):
        problems.append("optimum differs from x = x0, tau = 4 x0")
    return problems


def _check_lineshape(p: dict, text: str) -> list[str]:
    _, cols = parse_columns(text)
    ts = np.linspace(p["tmin"], p["tmax"], p["steps"])
    if problems := _grid_problem(cols, "T_sum_keV", len(ts)):
        return problems
    x = ts - p["deps"] + p["shift"]
    cap = 2.0 * p["scale"] / math.sqrt(p["bin_width"])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(x < 0.0, 0.0, np.where(x <= p["bin_width"], cap, p["scale"] / np.sqrt(x)))
    got = np.array(cols["density"], dtype=float)
    if not np.allclose(got, want, rtol=CLOSED_FORM_REL_TOL, atol=0.0):
        return ["density differs from scale * step(x) / sqrt(x)"]
    return []


_CHECKS = {
    "invert": _check_invert,
    "match": _check_match,
    "reproduce": _check_reproduce,
    "sweep": _check_sweep,
    "well": _check_well,
    "profile": _check_profile,
    "transitions": _check_transitions,
    "algebra": _check_algebra,
    "zbw": _check_zbw,
    "counting": _check_counting,
    "lineshape": _check_lineshape,
}


def check(kind: str, params: dict, text: str) -> list[str]:
    """Problems with one successful request's output (empty when correct)."""
    if kind == "invalid":
        return []
    try:
        problems = [] if kind == "profile" else header_problems(text)
        return problems + _CHECKS[kind](params, text)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
