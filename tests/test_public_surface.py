"""src/ holds what the CLI and the bench read: no public name that nothing loads.

Every module-level public function, class and constant of ``src/diracpair``
(no leading underscore, not an import) must be loaded, as a name or as an
attribute, somewhere in ``src/diracpair/*.py`` or ``bench/*.py`` outside its
own definition.  So must every non-dunder field, property and method of each
class, as an attribute (``.name``).  Every defaulted parameter of a public
function or method must be passed, by position or by keyword, by some call
of that name in ``src/`` or ``bench/``.  Tests do not count as readers or
callers: a helper or option that only tests use belongs in
``tests/oracles.py``.  Each module's ``__all__`` names exactly what it
defines, since the bench tracer wraps only ``__all__`` names.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diracpair"


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)}


SRC = _parse(PACKAGE.glob("*.py"))
TREES = {**SRC, **_parse((ROOT / "bench").glob("*.py"))}


def _assigned_names(node):
    """Names bound by a plain or annotated assignment statement, else none."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _public_definitions(tree):
    """(name, node) of each module-level public function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = _assigned_names(node)
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _members(tree):
    """(class name, member name, node) of each non-dunder annotated field, property and method of a class.

    A class built on a ``namedtuple("Name", "field ...")`` call also has the fields that call names.
    """
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for base in cls.bases:
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "namedtuple"
                and len(base.args) > 1
                and isinstance(base.args[1], ast.Constant)
            ):
                for name in base.args[1].value.split():
                    yield cls.name, name, base
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue  # an enum member is looked up by value, not only as an attribute
            if not (name.startswith("__") and name.endswith("__")):
                yield cls.name, name, node


def _loads(node, attributes_only=False):
    """Count of each name loaded under node, as an attribute and, unless attributes_only, as a bare name."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, kinds) and isinstance(n.ctx, ast.Load)
    )


def test_every_public_name_in_src_has_a_reader():
    loaded = sum((_loads(tree) for tree in TREES.values()), Counter())
    unread = [
        f"{path.stem}.{name}"
        for path, tree in SRC.items()
        for name, definition in _public_definitions(tree)
        if loaded[name] <= _loads(definition)[name]
    ]
    assert unread == [], f"public names in src/ that neither src/ nor bench/ reads: {unread}"


def test_every_class_member_in_src_has_a_reader():
    loaded = sum((_loads(tree, attributes_only=True) for tree in TREES.values()), Counter())
    unread = [
        f"{path.stem}.{cls}.{name}"
        for path, tree in SRC.items()
        for cls, name, definition in _members(tree)
        if loaded[name] <= _loads(definition, attributes_only=True)[name]
    ]
    assert unread == [], f"class members in src/ that neither src/ nor bench/ reads as an attribute: {unread}"


def _functions(tree):
    """(qualified name, node, bound) of each public module-level function and public method.

    ``bound``: a call through an instance fills the first parameter itself.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not static


def _defaulted(function, bound):
    """(name, position in a call) of each defaulted parameter; keyword-only ones have position None."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first - bound):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, index):
    """Whether a call could fill the parameter; ``*args`` and ``**kwargs`` could fill any."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_defaulted_parameter_in_src_is_passed():
    calls = [node for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = []
    for path, tree in SRC.items():
        for qualname, function, bound in _functions(tree):
            own = {id(node) for node in ast.walk(function)}
            callers = [c for c in calls if _callee(c) == function.name and id(c) not in own]
            unpassed += [
                f"{path.stem}.{qualname}({name})"
                for name, index in _defaulted(function, bound)
                if not any(_passes(call, name, index) for call in callers)
            ]
    assert unpassed == [], f"defaulted parameters in src/ that no call in src/ or bench/ passes: {unpassed}"


def _declared_all(tree):
    for node in tree.body:
        if "__all__" in _assigned_names(node):
            return sorted(ast.literal_eval(node.value))
    return []


def test_all_names_exactly_what_each_module_defines():
    mismatched = {}
    for path, tree in SRC.items():
        if path.name == "__init__.py":
            # the package re-exports what it imports
            expected = [a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]
        else:
            expected = [name for name, _ in _public_definitions(tree)]
        declared = _declared_all(tree)
        if declared != sorted(expected):
            mismatched[path.name] = sorted(set(declared) ^ set(expected))
    assert mismatched == {}, f"names in __all__ or in the module but not both: {mismatched}"
