"""Chart files: parsing, validation and pointwise evaluation.

A chart file is line oriented; `#` starts a comment.  Recognized lines:

    dim = <m>                    complex dimension (real dimension is 2m)
    coords = <id> <id> ...       exactly 2m coordinate names
    domain <id> = <lo> <hi>      closed interval, default unbounded; every
                                 point where g or J is evaluated, stencil
                                 points included, must be finite and in it
    g[<i>][<j>] = <expr>         metric entries, 1-based; the symmetric
                                 counterpart is auto-filled; unset entries
                                 default to 0; conflicting duplicates error
    J[<i>][<j>] = <expr>         complex structure entries, default 0
    point = <v1> <v2> ...        default evaluation point (repeatable)

Expressions follow the grammar in `expressions`.  Parsing is total: any
malformed input raises a ChartError with a line (and, for expressions,
column) position instead of crashing.
"""

from __future__ import annotations

import keyword
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import (
    FUNCTIONS,
    Compiled,
    Expr,
    ExprError,
    ExprEvalError,
    Num,
    compile_expressions,
    evaluate,
    parse_expression,
    variables_of,
)
from .tensor_core import HermitianPoint, InvariantViolation

__all__ = [
    "ChartError",
    "ChartSyntaxError",
    "ChartEvalError",
    "DomainError",
    "ChartSpec",
    "parse_chart",
]

UNBOUNDED = (-math.inf, math.inf)
# A ChartSpec keeps the g/J tables of at most this many stencil points,
# evicting the oldest first: several cp3 points (about 460 each) or cp2
# analyses (338), so the point under analysis keeps its tables.
TABLE_CACHE_SIZE = 4096


class ChartError(ValueError):
    pass


class ChartSyntaxError(ChartError):
    pass


class ChartEvalError(ChartError):
    pass


class DomainError(ChartError):
    pass


@dataclass(frozen=True)
class ChartSpec:
    """A parsed chart, immutable after construction; every chart, bundled
    model or file, is one of these.

    Structural equality compares dimensions, names, domains, default points
    and the (normalized) expression tables.  The first table lookup compiles
    every g and J entry into one program, so each new point costs one
    `evaluate`; the tables of the latest TABLE_CACHE_SIZE points are kept.

    It alone decides where g and J may be evaluated: every such point,
    stencil points included, needs 2m coordinates (else ChartEvalError),
    each finite and in its domain interval (else DomainError).
    """

    m: int
    coord_names: tuple[str, ...]
    metric_exprs: tuple[tuple[Expr, ...], ...]
    j_exprs: tuple[tuple[Expr, ...], ...]
    domain: tuple[tuple[float, float], ...]
    default_points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @cached_property
    def _program(self) -> tuple[Compiled, np.ndarray, np.ndarray]:
        """g's upper triangle, then J, row by row, compiled as one program,
        and the position of each g and J entry among its values."""
        n = 2 * self.m
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        slot = {cell: k for k, cell in enumerate(upper)}
        g_index = np.array([[slot[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
        j_index = len(upper) + np.arange(n * n).reshape(n, n)
        exprs = [self.metric_exprs[i][j] for i, j in upper]
        exprs += [e for row in self.j_exprs for e in row]
        return compile_expressions(exprs), g_index, j_index

    def _tables_at(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = p.tobytes()  # exact bits: the point at -0.0 is not the one at 0.0
        cached = self._cache.get(key)
        if cached is not None and p.ndim == 1:
            return cached  # the same bits and rank as a point checked on its miss
        if p.shape != (2 * self.m,):
            raise ChartEvalError(f"point must have {2 * self.m} coordinates, got {p.shape}")
        for name, x, (lo, hi) in zip(self.coord_names, p.tolist(), self.domain):
            if not math.isfinite(x):
                raise DomainError(f"coordinate {name} = {x!r} is not finite")
            if not lo <= x <= hi:
                raise DomainError(f"coordinate {name} = {x!r} outside domain [{lo}, {hi}]")
        program, g_index, j_index = self._program
        try:
            values = evaluate(program, dict(zip(self.coord_names, p.tolist())))
        except ExprEvalError as exc:
            raise ChartEvalError(str(exc)) from exc
        # Indexing with arrays copies, so the cache holds no view of `values`.
        g, J = values[g_index], values[j_index]
        g.setflags(write=False)
        J.setflags(write=False)
        if len(self._cache) >= TABLE_CACHE_SIZE:
            del self._cache[next(iter(self._cache))]  # dicts keep insertion order
        self._cache[key] = (g, J)
        return g, J

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return self._tables_at(np.asarray(p, dtype=float))[0]

    def j_at(self, p: np.ndarray) -> np.ndarray:
        return self._tables_at(np.asarray(p, dtype=float))[1]

    def eval_point(self, p) -> HermitianPoint:
        """g and J at p, with the almost Hermitian invariants verified.

        A violation beyond tensor_core.INVARIANT_TOL is an error, not a
        warning.
        """
        p = np.asarray(p, dtype=float)
        g, J = self._tables_at(p)
        try:
            return HermitianPoint(m=self.m, g=g, J=J)
        except InvariantViolation as exc:
            raise ChartEvalError(f"invariant violation at point {p.tolist()}: {exc}") from exc


_LHS_ENTRY_RE = re.compile(r"^([gJ])\[(\d+)\]\[(\d+)\]$")
_LHS_DOMAIN_RE = re.compile(r"^domain\s+([A-Za-z_]\w*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


def _parse_floats(text: str, line: int, what: str) -> tuple[float, ...]:
    values = []
    for tok in text.split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ChartSyntaxError(f"bad number {tok!r} in {what} (line {line})") from None
    return tuple(values)


def parse_chart(text: str) -> ChartSpec:
    """Parse chart file text into a ChartSpec, or raise a diagnostic ChartError."""
    m: int | None = None
    coords: tuple[str, ...] | None = None
    domains: dict[str, tuple[float, float]] = {}
    g_entries: dict[tuple[int, int], tuple[Expr, int]] = {}
    j_entries: dict[tuple[int, int], tuple[Expr, int]] = {}
    points: list[tuple[float, ...]] = []
    entry_lines: list[tuple[Expr, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ChartSyntaxError(f"expected '<name> = <value>' (line {lineno})")
        lhs_raw, rhs = line.split("=", 1)
        lhs = lhs_raw.strip()
        col_base = len(lhs_raw) + 2  # 1-based column where the rhs starts

        if lhs == "dim":
            if m is not None:
                raise ChartSyntaxError(f"duplicate 'dim' (line {lineno})")
            try:
                m = int(rhs.strip())
            except ValueError:
                raise ChartSyntaxError(f"dim must be an integer (line {lineno})") from None
            if m < 1:
                raise ChartSyntaxError(f"dim must be >= 1 (line {lineno})")
        elif lhs == "coords":
            if coords is not None:
                raise ChartSyntaxError(f"duplicate 'coords' (line {lineno})")
            coords = tuple(rhs.split())
            for name in coords:
                if not _IDENT_RE.match(name) or keyword.iskeyword(name):
                    raise ChartSyntaxError(f"bad coordinate name {name!r} (line {lineno})")
                if name in FUNCTIONS:
                    raise ChartSyntaxError(
                        f"coordinate name {name!r} collides with a function (line {lineno})"
                    )
            if len(set(coords)) != len(coords):
                raise ChartSyntaxError(f"duplicate coordinate name (line {lineno})")
        elif _LHS_DOMAIN_RE.match(lhs):
            name = _LHS_DOMAIN_RE.match(lhs).group(1)
            if name in domains:
                raise ChartSyntaxError(f"duplicate domain for {name!r} (line {lineno})")
            bounds = _parse_floats(rhs, lineno, f"domain of {name}")
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ChartSyntaxError(
                    f"domain needs '<lo> <hi>' with lo <= hi (line {lineno})"
                )
            domains[name] = bounds
        elif lhs == "point":
            points.append(_parse_floats(rhs, lineno, "point"))
        elif _LHS_ENTRY_RE.match(lhs):
            table, si, sj = _LHS_ENTRY_RE.match(lhs).groups()
            i, j = int(si), int(sj)
            if i < 1 or j < 1:
                raise ChartSyntaxError(f"entry indices are 1-based (line {lineno})")
            try:
                expr = parse_expression(rhs, lineno, col_base)
            except ExprError as exc:
                raise ChartSyntaxError(str(exc)) from exc
            entries = g_entries if table == "g" else j_entries
            previous = entries.get((i, j))
            if previous is not None and previous[0] != expr:
                raise ChartSyntaxError(
                    f"conflicting expressions for {table}[{i}][{j}] "
                    f"(lines {previous[1]} and {lineno})"
                )
            entries[(i, j)] = (expr, lineno)
            entry_lines.append((expr, lineno))
        else:
            raise ChartSyntaxError(f"unrecognized directive {lhs!r} (line {lineno})")

    if m is None:
        raise ChartSyntaxError("missing 'dim' line")
    if coords is None:
        raise ChartSyntaxError("missing 'coords' line")
    n = 2 * m
    if len(coords) != n:
        raise ChartSyntaxError(f"dim = {m} needs {n} coordinates, got {len(coords)}")

    for name in domains:
        if name not in coords:
            raise ChartSyntaxError(f"domain given for undeclared coordinate {name!r}")
    for expr, lineno in entry_lines:
        for name in sorted(variables_of(expr)):
            if name not in coords:
                raise ChartSyntaxError(f"undeclared identifier {name!r} (line {lineno})")
    for (i, j), (_, lineno) in list(g_entries.items()) + list(j_entries.items()):
        if i > n or j > n:
            raise ChartSyntaxError(
                f"entry index [{i}][{j}] out of range for dim = {m} (line {lineno})"
            )
    for pt in points:
        if len(pt) != n:
            raise ChartSyntaxError(f"point needs {n} coordinates, got {len(pt)}")

    zero = Num(0.0)
    gtable: list[list[Expr]] = [[zero] * n for _ in range(n)]
    for (i, j), (expr, lineno) in sorted(g_entries.items(), key=lambda kv: kv[1][1]):
        a, b = i - 1, j - 1
        mirror = g_entries.get((j, i))
        if mirror is not None and i != j and mirror[0] != expr:
            raise ChartSyntaxError(
                f"conflicting expressions for g[{i}][{j}] and g[{j}][{i}] "
                f"(lines {lineno} and {mirror[1]})"
            )
        gtable[a][b] = expr
        gtable[b][a] = expr
    jtable: list[list[Expr]] = [[zero] * n for _ in range(n)]
    for (i, j), (expr, _) in j_entries.items():
        jtable[i - 1][j - 1] = expr

    return ChartSpec(
        m=m,
        coord_names=coords,
        metric_exprs=tuple(tuple(row) for row in gtable),
        j_exprs=tuple(tuple(row) for row in jtable),
        domain=tuple(domains.get(name, UNBOUNDED) for name in coords),
        default_points=tuple(points),
    )

