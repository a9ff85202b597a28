"""Outside-in tracing: spans and counters around the package's public functions.

Every public function of every module is wrapped, and the wrapper is bound
wherever a caller looks the function up: ``kinematics.solve_theta`` and the
copy ``matcher`` imported under the same name, ``core.bisect_root`` in
``core``, ``kinematics`` and ``scatter1d``, and so on.  Each call records a
span (request id, span id, parent span id, name, start, end); its self time
is its duration minus the time its child spans cover.

Wrapping is installed for the traced run only and removed afterwards, so the
untraced runs call the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "algebra", "scatter1d", "hydrogenic", "wavepacket", "kinematics", "matcher", "decaymodel", "cli")


def _size(x) -> int:
    return int(np.size(x))


# Counters recorded at a boundary in addition to calls and self time:
# function name -> (counter name, amount taken from the call's arguments).
_ARG_COUNTERS = {
    "scatter1d.barrier_transmission": ("scatter1d.region_energies", lambda a, k: len(a[1].values) * _size(a[2])),
    "scatter1d.step_transmission": ("scatter1d.region_energies", lambda a, k: 2 * _size(a[2])),
}
# Calls of the first function made while the second is open on the stack.
_NESTED_COUNTERS = {"kinematics.lab_pair_energy": ("kinematics.solve_theta", "kinematics.evals_in_solve")}


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.request_id = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        arg_counter = _ARG_COUNTERS.get(name)
        nested = _NESTED_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans) + len(stack), name, 0.0]
            if arg_counter is not None:
                self.counters[arg_counter[0]] += arg_counter[1](args, kwargs)
            if nested is not None and any(f[1] == nested[0] for f in stack):
                self.counters[nested[1]] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                self.spans.append((self.request_id, frame[0], -1 if parent is None else parent[0], name, start, end))

        return wrapper

    def install(self) -> None:
        """Wrap each public function and rebind it in every module that holds it."""
        modules = {name: importlib.import_module(f"diracpair.{name}") for name in MODULES}
        modules["diracpair"] = importlib.import_module("diracpair")
        wrapped = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
