"""`diracpair scatter` output held to a capture taken before the S-matrix rewrite.

    PYTHONPATH=src python tests/test_golden_cli.py   # rewrites tests/data/golden_scatter.json

Regenerate only to add cases, never to absorb a changed number: the capture
is the reference the scattering core is compared against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from diracpair.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_scatter.json"
ABS_TOL = 1e-12

CASES = (
    # the README examples
    ("scatter", "--alt", "d2", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"),
    ("scatter", "--alt", "d1", "--v0", "1533", "--width", "0.004", "--emin", "600", "--emax", "2600"),
    ("scatter", "--alt", "d1", "--well-depth", "766.5", "--well-width", "0.0039"),
    # steps
    ("scatter", "--alt", "d1", "--v0", "1533", "--emin", "520", "--emax", "5110", "--steps", "100"),
    ("scatter", "--alt", "d1", "--v0", "300", "--emin", "515", "--emax", "2500", "--steps", "80", "--format", "json"),
    ("scatter", "--alt", "d2", "--v0", "-200", "--emin", "520", "--emax", "3000", "--steps", "60"),
    # barriers: Klein zone, tunnelling, forbidden window, thin and wide
    ("scatter", "--alt", "d1", "--v0", "3000", "--width", "0.003", "--emin", "520", "--emax", "4500", "--steps", "150"),
    ("scatter", "--alt", "d1", "--v0", "800", "--width", "0.01", "--emin", "520", "--emax", "3000", "--steps", "200"),
    ("scatter", "--alt", "d1", "--v0", "255", "--width", "0.0005", "--emin", "515", "--emax", "1500", "--steps", "90"),
    ("scatter", "--alt", "d2", "--v0", "1533", "--width", "0.004", "--emin", "520", "--emax", "5110", "--steps", "120"),
    ("scatter", "--alt", "d2", "--v0", "400", "--width", "0.002", "--emin", "520", "--emax", "2000", "--steps", "150"),
    ("scatter", "--alt", "d2", "--v0", "600", "--width", "0.02", "--emin", "1000", "--emax", "2500", "--steps", "70", "--format", "json"),
    # square wells
    ("scatter", "--alt", "d2", "--well-depth", "766.5", "--well-width", "0.0039"),
    ("scatter", "--alt", "d1", "--well-depth", "3500", "--well-width", "0.004"),
    ("scatter", "--alt", "d2", "--well-depth", "400", "--well-width", "0.035"),
    ("scatter", "--alt", "d1", "--well-depth", "200", "--well-width", "0.004"),
)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _rows(text: str) -> list[dict]:
    if text.startswith("{"):
        return json.loads(text)["rows"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    names = body[0].split(",")
    return [dict(zip(names, line.split(","))) for line in body[1:]]


def _header(text: str):
    if text.startswith("{"):
        doc = json.loads(text)
        doc.pop("rows")
        return doc
    return [line for line in text.splitlines() if line.startswith("#")]


@pytest.fixture(scope="module")
def golden() -> dict:
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    return {tuple(c["argv"]): c for c in cases}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv[1:]))
def test_scatter_output_matches_golden(golden, argv):
    case = golden[argv]
    code, text = _run(argv)
    assert code == case["exit"]
    assert _header(text) == _header(case["stdout"])
    got, want = _rows(text), _rows(case["stdout"])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            if key in ("classification", "level"):
                assert g[key] == w[key]
            else:
                assert abs(float(g[key]) - float(w[key])) <= ABS_TOL, (key, g, w)


def test_scatter_output_is_byte_identical_between_runs():
    for argv in CASES:
        assert _run(argv) == _run(argv)


def capture() -> None:
    cases = []
    for argv in CASES:
        code, text = _run(argv)
        cases.append({"argv": list(argv), "exit": code, "stdout": text})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
    sys.exit(0)
