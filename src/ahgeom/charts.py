"""Chart files: parsing, validation and pointwise evaluation.

A chart file is UTF-8 text, line oriented; `#` starts a comment.  A
byte-order mark at its start is not part of the chart: the CLI reads the
file as utf-8-sig, which drops it.
Recognized lines:

    dim = <m>                    complex dimension (real dimension is 2m),
                                 1 <= m <= MAX_DIM = 6, as a jet's memory
                                 grows about as m^5
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

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

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
from .calculus import Gathers, Jet
from .tensor_core import InvariantViolation, hermitian_frames

__all__ = [
    "ChartError",
    "ChartSyntaxError",
    "ChartEvalError",
    "DomainError",
    "ChartSpec",
    "MAX_DIM",
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


# The largest complex dimension a chart file may declare, as MAX_DEPTH bounds
# an expression.  A group's memory grows about as (2m)^5, with nabla R:
# `report.analyze_chart` on 16 points of g = delta/(1+|x|^2)^2 with the
# standard J, drawn uniformly from [-0.9, 0.9]^(2m), peaks at 3.0 MiB of
# allocations traced by tracemalloc at m = 3 and 76 MiB at m = 6, after a
# first run at another point has compiled the chart's programs.  So m = 12
# would need gigabytes.  The bundled models have m <= 3.
MAX_DIM = 6


class _Layout(NamedTuple):
    """Where g's program puts each entry, the tables of the Taylor pass and
    where the kernels find g's derivatives among the distinct ones it
    recovers; the same for every chart of one dimension, so `_layout`
    builds it once."""

    upper: tuple[tuple[int, int], ...]  # g's upper triangle, the order of g's program
    g_index: np.ndarray  # (n, n) positions of g's entries among the program's values
    lines: np.ndarray  # (d, n) directions of the Taylor pass
    recover: tuple[np.ndarray, ...]  # per k: degree-k coefficients -> distinct derivatives
    gathers: Gathers  # distinct derivatives of g -> the arrays the kernels read


@lru_cache(maxsize=8)
def _layout(n: int) -> _Layout:
    """The tables of a chart of real dimension n.

    The lines are the d = C(n+2, 3) directions v with nonnegative integer
    entries summing to 3 (Griewank, Utke & Walther, Math. Comp. 69 (2000)
    1117-1130).  For k = 1, 2, 3, recover[k - 1] maps degree-k Taylor
    coefficients along them to the derivatives d_u f for the C(n+k-1, k)
    multisets u of size k: the coefficient is the sum over u of
    d_u f * prod_a v_a^m_a / m_a!, with m_a the multiplicity of a in u, a
    system these directions determine.  The recovered derivatives of order
    k are flat, upper cell by upper cell and, within a cell, multiset by
    multiset; `gathers` holds the position there of each term the kernels
    read (`calculus.Gathers`).
    """
    upper = tuple((i, j) for i in range(n) for j in range(i, n))
    slot = {cell: k for k, cell in enumerate(upper)}
    g_index = np.array([[slot[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    lines = np.array([np.bincount(c, minlength=n)
                      for c in combinations_with_replacement(range(n), 3)], dtype=float)
    recover, at = [], []
    for k in (1, 2, 3):
        cells = list(combinations_with_replacement(range(n), k))
        mult = np.array([np.bincount(c, minlength=n) for c in cells])
        weights = [math.prod(map(math.factorial, row)) for row in mult.tolist()]
        # integer powers, exact and cheaper than float ones
        powers = np.prod(lines.astype(np.int64)[:, None, :] ** mult, axis=-1)
        q, r = np.linalg.qr(powers / weights)
        # C-contiguous: einsum's rounding follows its operands' memory layout
        recover.append(np.ascontiguousarray(np.linalg.solve(r, q.T)))
        where = {c: u for u, c in enumerate(cells)}
        cell = np.array([where[tuple(sorted(ix))] for ix in np.ndindex(*(n,) * k)])
        # at[k - 1][a_1, ..., a_k, i, j]: the position of d_a1 ... d_ak g_ij
        at.append((cell.reshape((n,) * k + (1, 1)) + len(cells) * g_index).astype(np.intp))
    # the terms d_j g_lk, d_k g_lj and d_l g_jk of Gamma_ljk at [:, ..., l, j, k]
    low, dlow, ddlow = (np.stack([np.swapaxes(D, -3, -2), np.moveaxis(D, -3, -1), D])
                        for D in at)
    # nabla R's running sum takes the second derivatives in the order (..., k, j, l)
    gathers = Gathers(at[0], low, dlow, np.ascontiguousarray(np.swapaxes(ddlow, -3, -1)))
    for table in (g_index, lines, *recover, *gathers):
        table.setflags(write=False)
    return _Layout(upper, g_index, lines, tuple(recover), gathers)


@dataclass(frozen=True)
class ChartSpec:
    """A parsed chart, immutable after construction; every chart, bundled
    model or file, is one of these.

    Structural equality compares dimensions, names, domains, default points
    and the (normalized) expression tables.  g's upper triangle and J, row by
    row, are two programs, each compiled on first use into steps that
    compute each distinct subexpression once.  `metric_at` runs only g's and
    `j_at` only J's; `jet` runs each on Taylor series, once for a whole
    group of points, whose size `report._checked_points` decides.

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
    def _metric_program(self) -> Compiled:
        """g's upper triangle, in `_layout` order."""
        return compile_expressions(self.metric_exprs[i][j] for i, j in _layout(2 * self.m).upper)

    @cached_property
    def _j_program(self) -> Compiled:
        """J, row by row."""
        return compile_expressions(e for row in self.j_exprs for e in row)

    def _values(self, program: Compiled, p) -> np.ndarray:
        """`evaluate` of one of the chart's programs at p, checked first."""
        p = np.asarray(p, dtype=float)
        if p.shape != (2 * self.m,):
            raise ChartEvalError(f"point must have {2 * self.m} coordinates, got {p.shape}")
        for name, x, (lo, hi) in zip(self.coord_names, p.tolist(), self.domain):
            if not math.isfinite(x):
                raise DomainError(f"coordinate {name} = {x!r} is not finite")
            if not lo <= x <= hi:
                raise DomainError(f"coordinate {name} = {x!r} outside domain [{lo}, {hi}]")
        try:
            return evaluate(program, dict(zip(self.coord_names, p.tolist())))
        except ExprEvalError as exc:
            raise ChartEvalError(str(exc)) from exc

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return self._values(self._metric_program, p)[_layout(2 * self.m).g_index]

    def j_at(self, p: np.ndarray) -> np.ndarray:
        return self._values(self._j_program, p).reshape(2 * self.m, 2 * self.m)

    def jet(self, group: list) -> Jet:
        """The `Jet` of a group of points: g, J and their derivatives, exact
        up to rounding, from one Taylor pass along the jet lines, after
        `metric_at` and `j_at` at each point and one `hermitian_frames`
        check of them all.

        Only the points must lie in the domain; a derivative that is not
        finite there is an error.  If any point fails, the whole group
        raises a ChartError, and only a group of one is sure to name the
        failing point.

        The derivatives of g are recovered only for its upper triangle and
        each distinct multiset of directions, and the jet keeps them so,
        one flat array per order, with the tables of where each sits.
        """
        g = np.stack([self.metric_at(p) for p in group])
        J = np.stack([self.j_at(p) for p in group])
        try:
            Linv, K = hermitian_frames(g, J)
        except InvariantViolation as exc:
            # a failing group runs again point by point, so only a lone point's error escapes
            p = np.asarray(group[0], dtype=float)
            raise ChartEvalError(f"invariant violation at point {p.tolist()}: {exc}") from exc
        n, layout = 2 * self.m, _layout(2 * self.m)
        env = dict(zip(self.coord_names, np.array(group, dtype=float).T))
        lines = dict(zip(self.coord_names, layout.lines.T))
        try:
            g_coeffs, j_coeffs = (evaluate(program, env, lines)
                                  for program in (self._metric_program, self._j_program))
        except ExprEvalError as exc:
            raise ChartEvalError(str(exc)) from exc

        def derivatives(coeffs: np.ndarray, k: int) -> np.ndarray:
            flat = np.einsum("upd,xd->pux", coeffs[:, k - 1], layout.recover[k - 1])
            return flat.reshape(len(group), -1)

        dg = tuple(derivatives(g_coeffs, k) for k in (1, 2, 3))
        dJ = derivatives(j_coeffs, 1).reshape(len(group), n, n, n)
        return Jet(g, J, dg, np.moveaxis(dJ, 3, 1), layout.gathers, Linv, K)


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
            if m > MAX_DIM:
                raise ChartSyntaxError(f"dim must be <= {MAX_DIM} (line {lineno})")
        elif lhs == "coords":
            if coords is not None:
                raise ChartSyntaxError(f"duplicate 'coords' (line {lineno})")
            coords = tuple(rhs.split())
            for name in coords:
                if not _IDENT_RE.match(name):
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

