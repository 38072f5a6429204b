"""Span recorder for the traced benchmark repetitions.

The recorder wraps public functions of a package from outside it.  A
function is looked up by name wherever its callers find it: its home
module, every module of the package that imported it by name (``report``
imports the analysis functions, ``charts`` imports ``evaluate``,
``analysis`` imports ``sectional_curvature``), and the class for a method.
Lazy imports such as ``from .calculus import riemann`` inside a function
read the home module at call time, so patching the home module covers
them.  Every patched name is restored when the recorder is uninstalled.

One span is kept per wrapped call, in memory, as parallel arrays: name,
parent span, target id, start and end.  Spans are appended when a call
starts, so they are in start order and a parent precedes its children.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class MissingLayer(RuntimeError):
    """A function the trace must wrap no longer exists, or is never called."""


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.target = array("i")
        self.start = array("d")
        self.end = array("d")
        self.target_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, after=None):
        """Return fn wrapped to record one span per call.

        ``after(args, result)`` runs after a successful call, outside the
        span, to record counts at the same boundary.
        """
        nid = self._name_id(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.target.append(self.target_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, layers, package: str) -> None:
        """Patch every name of each layer function across the package.

        ``layers`` holds (owner, attribute, span name, after-hook) tuples.
        The owner is a module or a class; for a module, every module of
        ``package`` bound to the same function object is patched too.
        """
        try:
            for owner, attr, span_name, after in layers:
                where = f"{getattr(owner, '__name__', owner)}.{attr}"
                original = vars(owner).get(attr)
                if original is None or not callable(original):
                    raise MissingLayer(f"traced function {where} no longer exists")
                traced = self.wrap(span_name, original, after)
                if isinstance(owner, type):
                    sites = [(owner, attr)]
                else:
                    sites = [
                        (module, name)
                        for key, module in list(sys.modules.items())
                        if key == package or key.startswith(package + ".")
                        for name, value in list(vars(module).items())
                        if value is original
                    ]
                for site, name in sites:
                    self._patches.append((site, name, original))
                    setattr(site, name, traced)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    @contextmanager
    def installed(self, layers, package: str):
        self.install(layers, package)
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed self time and summed duration (s)."""
        own = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
            row["total_s"] += self.end[i] - self.start[i]
        return out

    def durations(self, span_name: str) -> list[float]:
        nid = self._ids.get(span_name)
        return [self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == nid]

    def write(self, path) -> None:
        """Write the spans as one JSON object of parallel arrays."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "target": self.target.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Spans must be in start order with each parent before its children, as
    the recorder appends them.  Overlapping children count once, and a
    child reaching past its parent counts only inside the parent.
    """
    n = len(start)
    covered = [0.0] * n
    cover_end = [-math.inf] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], cover_end[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        cover_end[p] = max(cover_end[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]
