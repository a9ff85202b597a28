"""src/ holds what the CLI and the bench read: no public name that nothing loads.

Every module-level public function, class and constant of ``src/diracpair``
(no leading underscore, not an import) must be loaded, as a name or as an
attribute, somewhere in ``src/diracpair/*.py`` or ``bench/*.py`` outside its
own definition.  Tests do not count as readers: a helper that only tests call
belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diracpair"


def _public_definitions(tree):
    """(name, node) of each module-level public function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _loads(node):
    """Count of each name loaded under node, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_public_name_in_src_has_a_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    trees.update({path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "bench").glob("*.py"))})
    loaded = sum((_loads(tree) for tree in trees.values()), Counter())
    unread = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, definition in _public_definitions(tree)
        if loaded[name] <= _loads(definition)[name]
    ]
    assert unread == [], f"public names in src/ that neither src/ nor bench/ reads: {unread}"
