"""Closed-loop client: sends each request when the previous one has finished.

Requests run in-process.  CLI requests go through ``diracpair.cli.main`` with
stdout and stderr captured; profile requests call
``scatter1d.barrier_transmission``.  Each output is checked by ``oracle`` and
compared byte for byte with earlier output for the same key.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import statistics
import time
from dataclasses import dataclass, field

import oracle
from workloads import Request

from diracpair import cli, scatter1d
from diracpair.core import Alternative


@dataclass
class Outcome:
    request: Request
    exit_code: int
    seconds: float
    output: str
    problems: list[str]

    @property
    def failed(self) -> bool:
        return self.exit_code != self.request.expect or bool(self.problems)

    @property
    def wrong(self) -> bool:
        """A silent wrong answer: the expected exit code, but output that fails its check."""
        return self.exit_code == self.request.expect and bool(self.problems)


@dataclass
class PassResult:
    outcomes: list[Outcome]
    wall_s: float

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


@dataclass
class Client:
    """Runs requests and remembers each key's first output to check replays."""

    digests: dict = field(default_factory=dict)

    def send(self, req: Request) -> tuple[int, float, str]:
        if req.argv is None:
            p = req.params
            start = time.perf_counter()
            try:
                profile = scatter1d.PotentialProfile(edges=p["edges"], values=p["values"])
                res = scatter1d.barrier_transmission(Alternative.from_string(p["alt"]), profile, p["energy"])
            except ValueError:
                return 2, time.perf_counter() - start, ""
            except Exception:  # noqa: BLE001 - an internal failure of the program under test
                return 1, time.perf_counter() - start, ""
            return 0, time.perf_counter() - start, f"{res.T!r},{res.R!r},{res.classification}"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - escaped from main: an internal failure
            code = 1
        return code, time.perf_counter() - start, out.getvalue()

    def run(self, req: Request) -> Outcome:
        code, seconds, output = self.send(req)
        problems = []
        if code == req.expect == 0:
            problems = oracle.check(req.kind, req.params, output)
            digest = hashlib.sha256(output.encode()).hexdigest()
            if self.digests.setdefault(req.key, digest) != digest:
                problems.append("output differs from an earlier identical request")
        return Outcome(req, code, seconds, output, problems)

    def run_pass(self, requests: list[Request], tracer=None) -> PassResult:
        """Send the requests in order; a tracer, if given, tags spans with the request index."""
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        for index, req in enumerate(requests):
            if tracer is not None:
                tracer.request_id = index
            outcomes.append(self.run(req))
        return PassResult(outcomes, time.perf_counter() - start)


# --- figures computed from outputs ----------------------------------------------


def health(outcomes: list[Outcome]) -> dict[str, float]:
    """Numerical health read from the outputs, outside the program."""
    unitarity = residual = spread = 0.0
    solves = found = angle_rows = no_angle = internal = 0
    for o in outcomes:
        kind = o.request.kind
        is_scatter = o.request.argv is None or o.request.argv[0] == "scatter"
        if is_scatter and o.exit_code == 1:
            internal += 1
        if o.exit_code != 0 or not o.output:
            continue
        if kind == "profile":
            t, r, _ = o.output.split(",")
            unitarity = max(unitarity, abs(float(t) + float(r) - 1.0))
            continue
        _, rows = oracle.parse_output(o.output)
        if kind == "sweep":
            for row in rows:
                unitarity = max(unitarity, abs(float(row["T"]) + float(row["R"]) - 1.0))
        elif kind == "algebra":
            residual = max([residual] + [float(r["max_residual"]) for r in rows if r["identity"] == "max_residual"])
        elif kind == "zbw":
            charge = [float(r["charge_current"]) for r in rows]
            spread = max(spread, max(charge) - min(charge))
        elif kind == "invert":
            solves += 1
            found += bool(rows)
        elif kind in ("match", "reproduce"):
            column = "theta_e_deg" if kind == "match" else "computed_theta_deg"
            angle_rows += len(rows)
            no_angle += sum(oracle.number(r[column]) is None for r in rows)
    return {
        "scatter1d.max_unitarity_err": unitarity,
        "scatter1d.internal_errors": float(internal),
        "algebra.max_residual": residual,
        "wavepacket.charge_current_spread": spread,
        "kinematics.root_found_ratio": found / solves if solves else 0.0,
        "matcher.no_angle_ratio": no_angle / angle_rows if angle_rows else 0.0,
    }


def rows_out(outcomes: list[Outcome]) -> int:
    """Data rows the CLI emitted (CSV body lines or JSON rows, header lines excluded)."""
    total = 0
    for o in outcomes:
        if o.request.argv is not None and o.output:
            total += len(oracle.parse_output(o.output)[1])
    return total


def fail_ratio(result: PassResult) -> float:
    """Failed / attempted with one added to each, so a pass without failures reads 1/(n+1).

    A ratio that can be exactly zero gives no relative regression bound; the
    add-one form keeps the figure positive and still moves with every failure.
    """
    return (result.failed + 1) / (len(result.outcomes) + 1)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def label_summary(outcomes: list[Outcome]) -> dict[str, dict]:
    """Request count, failures and median latency per request label."""
    groups: dict[str, list[Outcome]] = {}
    for o in outcomes:
        groups.setdefault(o.request.label, []).append(o)
    return {
        label: {
            "requests": len(group),
            "failed": sum(o.failed for o in group),
            "p50_ms": 1e3 * statistics.median(o.seconds for o in group),
        }
        for label, group in sorted(groups.items())
    }
