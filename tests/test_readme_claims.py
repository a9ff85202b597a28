"""The README's claims table names only checks that exist.

Each row of the table under "The abstract's claims and the checks that hold them" maps
one claim of the abstract to tests, written ``file::name``, and to
``algebra-check`` identities, written by the name the command prints.  A
renamed or deleted test or identity fails here, so the table cannot rot.
"""

import ast
import json
import re
from pathlib import Path

from diracpair.cli import main

ROOT = Path(__file__).resolve().parent.parent
HEADING = "## The abstract's claims and the checks that hold them"
CLAIMS = (
    "charge conjugation is preserved",
    "the Ehrenfest equations are classical",
    "there is no Klein tunnelling",
    "unstable vacua are forbidden",
    "zitterbewegung is absent from the charge current",
    "every positive-energy result equals D1's",
    "bound electron-positron pairs can be excited in atoms",
    "the energies of low-energy pair production are well described",
    "pairs tend to disappear at higher beam currents",
)


def _claims_table():
    """{claim: [named check, ...]} from the table's body rows."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(HEADING, 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]  # past the header and its rule
    table = {}
    for row in rows:
        claim, checks, _ = (cell.strip() for cell in row.strip("|").split(" | "))
        table[claim] = re.findall(r"`([^`]+)`", checks)
    return table


def _test_names(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _identities(capsys):
    assert main(["--format", "json", "algebra-check", "--n-random", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    return set(result) - {"max_residual", "passed"}


def test_every_claim_has_a_row_with_checks():
    table = _claims_table()
    assert tuple(table) == CLAIMS
    assert all(table.values()), table


def test_every_named_check_exists(capsys):
    identities = _identities(capsys)
    missing = []
    for claim, checks in _claims_table().items():
        for check in checks:
            if "::" in check:
                path, name = check.split("::")
                exists = (ROOT / path).is_file() and name in _test_names(path)
            else:
                exists = check in identities
            if not exists:
                missing.append((claim, check))
    assert not missing
