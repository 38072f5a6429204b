"""Chart files: parsing, validation and pointwise evaluation.

A chart file is line oriented; `#` starts a comment.  Recognized lines:

    dim = <m>                    complex dimension (real dimension is 2m)
    coords = <id> <id> ...       exactly 2m coordinate names
    domain <id> = <lo> <hi>      closed interval, default unbounded; every
                                 point where g and J are evaluated (and
                                 differentiated) must be finite and in it
    g[<i>][<j>] = <expr>         metric entries, 1-based; the symmetric
                                 counterpart is auto-filled; unset entries
                                 default to 0; conflicting duplicates error
    J[<i>][<j>] = <expr>         complex structure entries, default 0
    point = <v1> <v2> ...        default evaluation point (repeatable)

Identifiers are ASCII letters, digits and `_`, not starting with a digit;
numbers are ASCII decimals, or inf or nan.  Expressions follow the grammar
in `expressions`.  Parsing is total: any malformed input raises a
ChartError with a line (and, for expressions, column) position instead of
crashing.
"""

from __future__ import annotations

import keyword
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

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
    "Jet",
    "parse_chart",
]

UNBOUNDED = (-math.inf, math.inf)


class ChartError(ValueError):
    pass


class ChartSyntaxError(ChartError):
    pass


class ChartEvalError(ChartError):
    pass


class DomainError(ChartError):
    pass


def _jet_lines(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The C(n+2, 3) directions v with nonnegative integer entries summing to
    3 (Griewank, Utke & Walther, Math. Comp. 69 (2000) 1117-1130), and, for
    k = 1, 2, 3, the (n^k, len(v)) map from degree-k Taylor coefficients
    along them to the flattened k-th derivative: the coefficient is the sum
    over multisets u of size k of d_u f * prod_a v_a^m_a / m_a!, with m_a
    the multiplicity of a in u, a system these directions determine."""
    lines = np.array([np.bincount(c, minlength=n)
                      for c in combinations_with_replacement(range(n), 3)], dtype=float)
    recover = []
    for k in (1, 2, 3):
        cells = list(combinations_with_replacement(range(n), k))
        mult = np.array([np.bincount(c, minlength=n) for c in cells])
        weights = [math.prod(map(math.factorial, row)) for row in mult.tolist()]
        q, r = np.linalg.qr(np.prod(lines[:, None, :] ** mult, axis=-1) / weights)
        where = {c: u for u, c in enumerate(cells)}
        recover.append(np.linalg.solve(r, q.T)[[where[tuple(sorted(ix))]
                                                for ix in np.ndindex(*(n,) * k)]])
    return lines, recover


@dataclass(frozen=True, eq=False)
class Jet:
    """g and J at a point with their derivatives in the chart's coordinates:
    dg[a, i, j] = d_a g_ij, ddg[a, b, i, j], dddg[a, b, c, i, j], dJ[a, i, j] = d_a J^i_j."""

    point: HermitianPoint
    dg: np.ndarray
    ddg: np.ndarray
    dddg: np.ndarray
    dJ: np.ndarray


@dataclass(frozen=True)
class ChartSpec:
    """A parsed chart, immutable after construction; every chart, bundled
    model or file, is one of these.

    Structural equality compares dimensions, names, domains, default points
    and the (normalized) expression tables.  The first table lookup compiles
    every g and J entry into one generated function that computes each
    distinct subexpression once, so each new point costs one `evaluate`;
    `jet_at` runs the same function on Taylor series.

    It alone decides where g and J may be evaluated: every such point
    needs 2m coordinates (else ChartEvalError), each finite and in its
    domain interval (else DomainError).
    """

    m: int
    coord_names: tuple[str, ...]
    metric_exprs: tuple[tuple[Expr, ...], ...]
    j_exprs: tuple[tuple[Expr, ...], ...]
    domain: tuple[tuple[float, float], ...]
    default_points: tuple[tuple[float, ...], ...]

    @cached_property
    def _program(self) -> tuple[Compiled, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
        """g's upper triangle, then J, row by row, compiled as one program,
        the position of each g and J entry among its values, and `_jet_lines`."""
        n = 2 * self.m
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        slot = {cell: k for k, cell in enumerate(upper)}
        g_index = np.array([[slot[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
        j_index = len(upper) + np.arange(n * n).reshape(n, n)
        exprs = [self.metric_exprs[i][j] for i, j in upper]
        exprs += [e for row in self.j_exprs for e in row]
        return compile_expressions(exprs), g_index, j_index, *_jet_lines(n)

    def _values(self, p, lines: np.ndarray | None = None) -> np.ndarray:
        """`evaluate` of the program at p, checked first, along `lines` if given."""
        p = np.asarray(p, dtype=float)
        if p.shape != (2 * self.m,):
            raise ChartEvalError(f"point must have {2 * self.m} coordinates, got {p.shape}")
        for name, x, (lo, hi) in zip(self.coord_names, p.tolist(), self.domain):
            if not math.isfinite(x):
                raise DomainError(f"coordinate {name} = {x!r} is not finite")
            if not lo <= x <= hi:
                raise DomainError(f"coordinate {name} = {x!r} outside domain [{lo}, {hi}]")
        directions = None if lines is None else dict(zip(self.coord_names, lines.T))
        try:
            return evaluate(self._program[0], dict(zip(self.coord_names, p.tolist())), directions)
        except ExprEvalError as exc:
            raise ChartEvalError(str(exc)) from exc

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return self._values(p)[self._program[1]]

    def j_at(self, p: np.ndarray) -> np.ndarray:
        return self._values(p)[self._program[2]]

    def eval_point(self, p) -> HermitianPoint:
        """g and J at p, with the almost Hermitian invariants verified.

        A violation beyond tensor_core.INVARIANT_TOL is an error, not a
        warning.
        """
        p = np.asarray(p, dtype=float)
        try:
            return HermitianPoint(m=self.m, g=self.metric_at(p), J=self.j_at(p))
        except InvariantViolation as exc:
            raise ChartEvalError(f"invariant violation at point {p.tolist()}: {exc}") from exc

    def jet_at(self, p) -> Jet:
        """g, J and their derivatives at p, exact up to rounding: the program
        runs once on Taylor series along the jet lines.  Only p must lie in
        the domain; a derivative that is not finite there is an error."""
        point = self.eval_point(p)
        _, g_index, j_index, lines, recover = self._program
        coeffs = self._values(p, lines)
        n = 2 * self.m

        def derivative(k: int, index: np.ndarray) -> np.ndarray:
            flat = np.einsum("ijd,xd->ijx", coeffs[index, k - 1], recover[k - 1])
            return np.moveaxis(flat.reshape((n,) * (k + 2)), (0, 1), (-2, -1))

        return Jet(point, derivative(1, g_index), derivative(2, g_index),
                   derivative(3, g_index), derivative(1, j_index))


# ASCII only: Python folds 'xﬁ' into 'xfi', and int() and float() read
# '١' as 1 and '1_0' as 10.
_LHS_ENTRY_RE = re.compile(r"^([gJ])\[(\d+)\]\[(\d+)\]$", re.ASCII)
_LHS_DOMAIN_RE = re.compile(r"^domain\s+([A-Za-z_]\w*)$", re.ASCII)
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)",
                       re.ASCII | re.IGNORECASE)


def _parse_floats(text: str, line: int, what: str) -> tuple[float, ...]:
    for tok in text.split():
        if not _FLOAT_RE.fullmatch(tok):
            raise ChartSyntaxError(f"bad number {tok!r} in {what} (line {line})")
    return tuple(map(float, text.split()))


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
            if not _INT_RE.fullmatch(rhs.strip()):
                raise ChartSyntaxError(f"dim must be an integer (line {lineno})")
            m = int(rhs)
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
            if len(bounds) != 2 or not bounds[0] <= bounds[1]:  # NaN bounds fail too
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

