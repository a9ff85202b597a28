"""Seeded request lists for the three benchmark workloads.

A workload is run as a sequence of passes.  Every pass has the same shape (the
same request kinds, sizes and region counts in fixed slots), and the seed only
draws the physical parameters inside each slot and the order of the requests.
That keeps the work per pass nearly equal across seeds while no two passes
send the same inputs, except for the deliberate replays that check
byte-identical output.

The program receives only what is generated here: a CLI argv (plus, for
``match``, a catalog file written to the work directory) or, for
many-region profiles that the CLI cannot express, the arguments of
``scatter1d.barrier_transmission``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("tables", "sweep", "deep")
REPLAYS = 3  # requests per pass sent again to check byte-identical output

# Request sizes come in cost tiers so that each latency percentile falls inside
# a group of requests of similar cost rather than on the edge between two: the
# median inside the middle tier, the 95th percentile inside the top one.  The
# replays are drawn from the cheapest tier, so they do not shift either.


@dataclass
class Request:
    """One client request: a CLI argv, or a library call when ``argv`` is None."""

    kind: str  # selects the output check in oracle.check
    label: str  # finer grouping for reports
    argv: tuple[str, ...] | None
    params: dict = field(default_factory=dict)
    expect: int = 0  # exit code a correct program returns
    key: str = ""  # identical keys must give byte-identical output

    def __post_init__(self) -> None:
        if not self.key:
            self.key = " ".join(self.argv) if self.argv is not None else repr(sorted(self.params.items()))


@dataclass(frozen=True)
class Context:
    """Inputs shared by every pass: bundled data and the directory for catalogs."""

    workdir: Path
    ions: dict  # symbol -> Z, from the package's bundled ions.json
    table_records: tuple  # bundled table1 + table2 records, in report order

    @classmethod
    def from_source(cls, src: Path, workdir: Path) -> "Context":
        data = src / "diracpair" / "data"
        ions = {sym: int(z) for sym, z in json.loads((data / "ions.json").read_text()).items()}
        records = []
        for name in ("table1", "table2"):
            records += json.loads((data / f"{name}.json").read_text())
        return cls(workdir=workdir, ions=ions, table_records=tuple(records))


def _g(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate(workload: str, seed: int, pass_index: int, ctx: Context) -> list[Request]:
    """The requests of one pass, in the order the client sends them."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    requests, replay_pool = _GENERATORS[workload](rng, ctx, f"{workload}-s{seed}-p{pass_index}")
    requests += [_replay(r) for r in rng.sample(replay_pool, REPLAYS)]
    rng.shuffle(requests)
    return requests


def _replay(req: Request) -> Request:
    return Request(req.kind, "replay", req.argv, req.params, req.expect, req.key)


# --- tables: kinematics inversion, peak matching, table regression -------------


def _peak(rng: random.Random, ions: dict, syms: list[str]) -> tuple[float, float]:
    """(x, pair-sum energy on a candidate's curve at a seeded angle in 20-80 deg)."""
    sym = rng.choice(syms)
    up, lo = rng.choice(oracle.SHELL_PAIRS)
    x = float(_g(rng.uniform(3.5, 8.0), 4))
    t = float(oracle.t_lab(x, oracle.delta_eps(ions[sym], up, lo), rng.uniform(20.0, 80.0), rng.choice("+-")))
    return x, t


def _catalog_record(rng: random.Random, ions: dict, symmetric: bool, positron: bool) -> dict:
    syms = [rng.choice(sorted(ions))] * 2 if symmetric else rng.sample(sorted(ions), 2)
    x, t = _peak(rng, ions, syms[:1] if symmetric else syms)
    return {
        "system": "+".join(syms),
        "spectrometer": "positron" if positron else "sum",
        "observable": "positron_energy" if positron else "pair_sum_kinetic",
        "observed_keV": float(_g(t / 2.0 if positron else t)),
        "uncertainty_keV": None,
        "x_mev_per_u": x,
        "marginal": False,
        "ref": "bench",
    }


def _write_catalog(ctx: Context, name: str, records: list[dict]) -> tuple[str, str]:
    text = json.dumps(records, sort_keys=True)
    path = ctx.workdir / f"{name}.json"
    path.write_text(text)
    return str(path), text


def _tables(rng: random.Random, ctx: Context, tag: str) -> tuple[list[Request], list[Request]]:
    ions = ctx.ions
    syms = sorted(ions)
    out: list[Request] = []
    for i in range(40):
        sym = rng.choice(syms)
        up, lo = rng.choice(oracle.SHELL_PAIRS)
        branch = rng.choice("+-")
        x = float(_g(rng.uniform(3.5, 8.0), 4))
        deps = float(_g(oracle.delta_eps(ions[sym], up, lo), 10))
        if i % 8 == 7:  # beyond the curve's reach: the correct answer is no angle
            target = float(oracle.t_lab(x, deps, 90.0, branch)) * rng.uniform(1.1, 1.3)
        else:
            target = float(oracle.t_lab(x, deps, rng.uniform(20.0, 80.0), branch))
        target = float(_g(target, 8))
        argv = ("kinematics", "invert", "--deps", _g(deps, 10), "--x", _g(x), "--branch", branch, "--target", _g(target, 8))
        out.append(Request("invert", "invert", argv, {"x": x, "deps": deps, "branch": branch, "target": target}))
    for i in range(16):
        records = [_catalog_record(rng, ions, symmetric=(i % 4 == 0 and j == 0), positron=(j == 1)) for j in range(2)]
        path, text = _write_catalog(ctx, f"{tag}-match{i}", records)
        argv = ("match", "--catalog", path, "--top-k", "3")
        out.append(Request("match", "match", argv, {"records": records, "top_k": 3, "ions": ions}, key=f"match {text}"))
    out.append(
        Request("reproduce", "reproduce", ("reproduce-tables",), {"records": ctx.table_records, "ions": ions})
    )
    for _ in range(8):
        sym = rng.choice(syms)
        out.append(Request("transitions", "transitions", ("transitions", "--ion", sym), {"ion": sym, "ions": ions}))
    bad_path, bad_text = _write_catalog(
        ctx, f"{tag}-badcatalog", [dict(_catalog_record(rng, ions, False, False), observable="photon_energy")]
    )
    for argv in (
        ("kinematics", "invert", "--deps", _g(rng.uniform(600.0, 1000.0)), "--branch", "+", "--target", _g(-rng.uniform(1.0, 500.0))),
        ("transitions", "--ion", "Xx"),
        ("levels", "--ion", rng.choice(syms), "--shells", "Q"),
        ("match", "--catalog", bad_path),
    ):
        out.append(Request("invalid", "invalid", argv, expect=2, key=f"match {bad_text}" if argv[0] == "match" else ""))
    return out, [r for r in out if r.kind == "transitions"]


# --- sweep: energy-wide scattering and square-well levels through the CLI ------

# (depth band, width band): shallow, deep and wide wells, each under D1 and D2.
_WELL_SLOTS = (((100.0, 300.0), (0.003, 0.005)), ((3000.0, 4000.0), (0.003, 0.005)), ((350.0, 450.0), (0.03, 0.04)))


def _sweep_request(rng, alt, v0, width, steps, label, fmt="csv", expect=0, window=None) -> Request:
    """A transmission sweep, by default from just above m to 2m past the step or barrier top."""
    if window is None:
        emin = rng.uniform(515.0, 615.0)
        window = (emin, max(v0, emin) + rng.uniform(1.9, 2.1) * oracle.M_E)
    emin, emax = window
    argv = ["scatter", "--alt", alt, "--v0", _g(v0)]
    if width is not None:
        argv += ["--width", _g(width)]
    argv += ["--emin", _g(emin), "--emax", _g(emax), "--steps", str(steps)]
    if fmt == "json":
        argv += ["--format", "json"]
    params = {"alt": alt, "v0": float(_g(v0)), "width": None if width is None else float(_g(width)),
              "emin": float(_g(emin)), "emax": float(_g(emax)), "steps": steps}
    return Request("sweep" if expect == 0 else "invalid", label, tuple(argv), params, expect)


def _barrier_width(rng: random.Random) -> float:
    return _log_uniform(rng, 5e-4, 1.3)  # thin to thick, below the overflow onset near 1.4/keV


def _sweep(rng: random.Random, ctx: Context, tag: str) -> tuple[list[Request], list[Request]]:
    cheap: list[Request] = []
    out: list[Request] = []
    for i, steps in enumerate((400, 500, 600, 700, 800, 1000) * 2):  # cheapest tier
        alt = "d1" if i % 2 == 0 else "d2"
        cheap.append(_sweep_request(rng, alt, _log_uniform(rng, 100.0, 5000.0), None, steps, "step", "json" if i < 2 else "csv"))
    for _ in range(4):  # D2 barriers mostly below their top: gap-blocked, cheap
        out.append(_sweep_request(rng, "d2", rng.uniform(3000.0, 4000.0), _barrier_width(rng), 300, "barrier"))
    for _ in range(14):  # middle tier: Klein zone, tunnelling and classical rows under D1
        out.append(_sweep_request(rng, "d1", _log_uniform(rng, 200.0, 5000.0), _barrier_width(rng), 350, "barrier"))
    for alt in ("d1", "d2"):  # upper tier
        for (dlo, dhi), (wlo, whi) in _WELL_SLOTS:
            depth, width = float(_g(rng.uniform(dlo, dhi))), float(_g(rng.uniform(wlo, whi)))
            argv = ("scatter", "--alt", alt, "--well-depth", _g(depth), "--well-width", _g(width))
            out.append(Request("well", "well", argv, {"alt": alt, "depth": depth, "width": width}))
        out.append(_sweep_request(rng, alt, _log_uniform(rng, 100.0, 5000.0), None, 4000, "step", "json"))
    for _ in range(4):
        out.append(_sweep_request(rng, "d2", rng.uniform(250.0, 450.0), _barrier_width(rng), 600, "barrier"))
    for _ in range(5):  # top tier
        out.append(_sweep_request(rng, "d1", _log_uniform(rng, 200.0, 5000.0), _barrier_width(rng), 1400, "barrier"))
    # Thick evanescent barriers: every sweep crosses energies where kappa * width
    # exceeds the exponent range of a float, the documented overflow domain.
    for alt in ("d1", "d1", "d2"):
        v0, width = rng.uniform(1200.0, 2500.0), rng.uniform(1.5, 2.5)
        window = (v0 - 600.0, v0 + 600.0) if alt == "d1" else (v0 - 300.0, v0 + 700.0)
        out.append(_sweep_request(rng, alt, v0, width, 300, "thick", window=window))
    out.append(_sweep_request(rng, "d1", math.nan, None, 50, "invalid", expect=2, window=(600.0, rng.uniform(2000.0, 4000.0))))
    out.append(_sweep_request(rng, "d2", rng.uniform(500, 2000), 0.004, 0, "invalid", expect=2, window=(600.0, rng.uniform(2000.0, 4000.0))))
    return cheap + out, cheap


# --- deep: operator identities, packet currents, decay model, deep profiles ----

_PROFILE_ENERGIES = 4


def _profile_requests(rng: random.Random, n_regions: int, alt: str) -> list[Request]:
    """One seeded profile of ``n_regions`` regions, called at a handful of energies."""
    vmax = rng.uniform(300.0, 1500.0)
    length = rng.uniform(0.005, 0.05)
    widths = [rng.uniform(0.5, 1.5) for _ in range(n_regions - 2)]
    scale = length / sum(widths)
    edges, z = [0.0], 0.0
    for w in widths:
        z += w * scale
        edges.append(z)
    values = [0.0] + [rng.uniform(-vmax, vmax) for _ in range(n_regions - 2)] + [0.0]
    top = max(values)
    out = []
    for _ in range(_PROFILE_ENERGIES):
        # D2 energies stay above the highest region so every call solves the full system.
        e = rng.uniform(600.0, 3000.0) if alt == "d1" else max(top, oracle.M_E) + rng.uniform(50.0, 2000.0)
        params = {"alt": alt, "edges": tuple(edges), "values": tuple(values), "energy": e}
        out.append(Request("profile", "profile", None, params))
    return out


def _counting(rng: random.Random, steps: int) -> Request:
    p = {"x0": float(_g(rng.uniform(1.0, 5.0))), "xmin": float(_g(rng.uniform(0.01, 0.5))),
         "xmax": float(_g(rng.uniform(5.0, 50.0))), "steps": steps}
    argv = ("counting-time", "--x0", _g(p["x0"]), "--xmin", _g(p["xmin"]), "--xmax", _g(p["xmax"]), "--steps", str(steps))
    return Request("counting", "counting", argv, p)


def _lineshape(rng: random.Random, steps: int) -> Request:
    deps = rng.uniform(700.0, 1000.0)
    p = {"deps": float(_g(deps)), "tmin": float(_g(deps - rng.uniform(50.0, 100.0))),
         "tmax": float(_g(deps + rng.uniform(50.0, 200.0))), "steps": steps,
         "scale": float(_g(rng.uniform(0.5, 2.0))), "shift": float(_g(rng.uniform(0.0, 5.0))),
         "bin_width": float(_g(rng.uniform(0.5, 2.0)))}
    argv = ("lineshape", "--deps", _g(p["deps"]), "--tmin", _g(p["tmin"]), "--tmax", _g(p["tmax"]),
            "--steps", str(steps), "--scale", _g(p["scale"]), "--shift", _g(p["shift"]), "--bin-width", _g(p["bin_width"]))
    return Request("lineshape", "lineshape", argv, p)


def _deep(rng: random.Random, ctx: Context, tag: str) -> tuple[list[Request], list[Request]]:
    cheap = _profile_requests(rng, 50, "d1") + _profile_requests(rng, 80, "d2")
    out = [_counting(rng, 2000), _lineshape(rng, 3000)]
    for i in range(4):  # middle tier
        out += _profile_requests(rng, 200, "d1" if i % 2 == 0 else "d2")
    out += _profile_requests(rng, 300, "d2") + _profile_requests(rng, 400, "d1")  # upper tier
    out += [_counting(rng, 12000), _lineshape(rng, 15000)]
    # top tier: the operator identities and two long packet-current series
    out.append(Request("algebra", "algebra", ("algebra-check", "--n-random", "300", "--seed", str(rng.randrange(10**6)))))
    for dwidth, p0, tmax in (
        (_log_uniform(rng, 2e-4, 5e-4), rng.uniform(0.0, 500.0), rng.uniform(0.01, 0.05)),  # narrow
        (rng.uniform(0.005, 0.01), rng.uniform(500.0, 1000.0), rng.uniform(0.1, 0.3)),  # boosted
    ):
        p = {"dwidth": float(_g(dwidth)), "p0": float(_g(p0)), "tmax": float(_g(tmax)), "tsteps": 800}
        argv = ("zbw", "--dwidth", _g(dwidth), "--tmax", _g(tmax), "--tsteps", "800", "--p0", _g(p0))
        out.append(Request("zbw", "zbw", argv, p))
    for argv in (
        ("zbw", "--dwidth", "1000", "--tmax", _g(rng.uniform(0.1, 0.3)), "--tsteps", "20"),
        ("zbw", "--dwidth", "0.002", "--tmax", _g(rng.uniform(0.1, 0.3)), "--tsteps", "20", "--p0", "1e5"),
        ("counting-time", "--x0", "1", "--xmin", _g(rng.uniform(0.01, 0.5)), "--xmax", "nan", "--steps", "10"),
    ):
        out.append(Request("invalid", "invalid", argv, expect=2))
    return cheap + out, cheap


_GENERATORS = {"tables": _tables, "sweep": _sweep, "deep": _deep}
