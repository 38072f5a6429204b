"""Parser, printer and evaluator for chart coordinate expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?        # right associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so "-x^2" is -(x^2) and "2^3^2" is 2^(3^2).  `_PREC` is the one table of
these precedences: the parser climbs by it and `to_source` prints by it.
Numbers are finite decimal literals (1e999 is an error) with an optional
exponent; identifiers are ASCII.  The function set is fixed: sin cos tan
exp log sqrt atan.  An expression nests at most MAX_DEPTH levels: each
operator, unary minus, call and parenthesized group is a level, so each
term of a chain like 1+1+1 counts, and whatever parses also evaluates.
Parsing never raises anything but ExprError subclasses, each carrying a
1-based line/column position.

Evaluation works on batches: `compile_expressions` turns a sequence of
expressions into one program, a list of steps that each compute one
distinct subtree once, and `evaluate` runs it once per point and returns
every value, bit for bit what each expression gives on its own.
Given directions, `evaluate` runs the same steps once for a whole group
of points on Taylor series, for the exact derivatives of every expression
along every direction at every point of the group.  Each step applies a
Python float operator or one of the seven functions, which takes a float,
for which it is the `math` function, or a Taylor series.  A series
divides as x * y^-1 and keeps y^-1 for later divisions by the same y
within the run; it is the same function of y's bits each time, so every
coefficient is bit for bit what taking y^-1 afresh gives.
When a group's run fails, `evaluate` raises once for the whole group,
and the caller runs each point alone to find the first that fails
(`report._checked_points`).  At one point it finds the first failing
expression by compiling each on its own, so every error comes from the
same steps.  The program belongs to its caller (a chart keeps its own),
so nothing here caches expressions.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "FUNCTIONS",
    "MAX_DEPTH",
    "ExprError",
    "ExprSyntaxError",
    "ExprNameError",
    "ExprEvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Expr",
    "Compiled",
    "parse_expression",
    "to_source",
    "compile_expressions",
    "evaluate",
    "variables_of",
]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}

# The parser recurses through at most three Python frames per level, and
# `to_source`, `variables_of` and `compile_expressions` through one, so the
# deepest expression stays far inside Python's default recursion limit of
# 1000 frames; the bundled charts nest at most 13 levels.
MAX_DEPTH = 100


class ExprError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class ExprNameError(ExprError):
    """An identifier called as a function is not one of the known functions."""


class ExprEvalError(ValueError):
    """Evaluation left the function domain or produced a non-finite value."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))",
    re.ASCII,  # Python would fold a non-ASCII name such as 'xﬁ' into 'xfi'
)


# Binding strength of each operator, read by the parser and the printer:
# '^' is right associative and binds above unary minus.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    col: int


def _tokenize(src: str, line: int, col_base: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            bad_at = pos + (len(src[pos:]) - len(rest))
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", line, col_base + bad_at)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), col_base + match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", col_base + len(src)))
    return tokens


class _Parser:
    """Precedence climbing over `_PREC`, yielding each node with its depth.

    Unary minus, an exponent, a call and a parenthesized group each go one
    `nested` recursion down; a chain of '+', '-', '*' and '/' is a loop.
    """

    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ExprSyntaxError(message, self.line, tok.col)

    def check_depth(self, depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        return depth

    def parse(self) -> Expr:
        node, _ = self.climb(1)
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r} after expression", tok)
        return node

    def nested(self, tok: _Token, min_prec: int, unclosed: str = "") -> tuple[Expr, int]:
        """(node, depth) one level below `tok`, up to its ')' if `unclosed`
        is the error for a missing one; refuses before the recursion gets deep."""
        self.nesting += 1
        self.check_depth(self.nesting, tok)
        node, depth = self.climb(min_prec)
        if unclosed and (closing := self.advance()).text != ")":
            self.fail(unclosed, closing)
        self.nesting -= 1
        return node, self.check_depth(depth + 1, tok)

    def climb(self, min_prec: int) -> tuple[Expr, int]:
        """An operand and every operator binding at least `min_prec` after it."""
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            operand, depth = self.nested(tok, _PREC["neg"])
            node = Neg(operand)
        else:
            node, depth = self.atom()
        while (tok := self.peek()).kind == "op" and _PREC.get(tok.text, 0) >= min_prec:
            self.advance()
            if tok.text == "^":  # right associative, its exponent may start with '-'
                right, rdepth = self.nested(tok, _PREC["neg"])
                depth = max(depth + 1, rdepth)
            else:
                right, rdepth = self.climb(_PREC[tok.text] + 1)
                depth = max(depth, rdepth) + 1
            node, depth = BinOp(tok.text, node, right), self.check_depth(depth, tok)
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                self.fail(f"number {tok.text!r} is out of range", tok)
            return Num(value), 1
        if tok.kind == "ident":
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprNameError(f"unknown function '{tok.text}'", self.line, tok.col)
                self.advance()
                arg, depth = self.nested(tok, 1, "expected ')' to close function call")
                return Call(tok.text, arg), depth
            return Var(tok.text), 1
        if tok.text == "(":
            return self.nested(tok, 1, "expected ')'")
        if tok.kind == "end":
            self.fail("unexpected end of expression", tok)
        self.fail(f"unexpected {tok.text!r}", tok)


def parse_expression(src: str, line: int = 1, col_base: int = 1) -> Expr:
    """Parse one expression; any identifier that is not a function is a variable."""
    return _Parser(_tokenize(src, line, col_base), line).parse()


def variables_of(expr: Expr) -> set[str]:
    match expr:
        case Num():
            return set()
        case Var(name):
            return {name}
        case Neg(operand):
            return variables_of(operand)
        case BinOp(_, left, right):
            return variables_of(left) | variables_of(right)
        case Call(_, arg):
            return variables_of(arg)
    raise TypeError(f"not an expression node: {expr!r}")


def _prec(expr: Expr) -> int:
    match expr:
        case Num() | Var() | Call():
            return 5
        case Neg():
            return _PREC["neg"]
        case BinOp(op, _, _):
            return _PREC[op]
    raise TypeError(f"not an expression node: {expr!r}")


def to_source(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an equal tree."""
    match expr:
        case Num(value):
            return repr(value)
        case Var(name):
            return name
        case Call(func, arg):
            return f"{func}({to_source(arg)})"
        case Neg(operand):
            inner = to_source(operand)
            if _prec(operand) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op, left, right):
            lsrc, rsrc = to_source(left), to_source(right)
            my = _PREC[op]
            if op == "^":
                # right associative: parenthesize left at equal precedence
                if _prec(left) <= my:
                    lsrc = f"({lsrc})"
                if _prec(right) < my:
                    rsrc = f"({rsrc})"
            else:
                if _prec(left) < my:
                    lsrc = f"({lsrc})"
                if _prec(right) <= my:
                    rsrc = f"({rsrc})"
            return f"{lsrc}{op}{rsrc}"
    raise TypeError(f"not an expression node: {expr!r}")


class _Series:
    """c0 + c1 t + c2 t^2 + c3 t^3 along a batch of lines through each point of
    a group: c0 is the (P, 1) array of values at the P points, and hi[k - 1]
    holds c_k per point and line, shape (P, d).  Floats are constants.

    Each operation is numpy's over the whole group, and no point's
    coefficients depend on another's.  Where a float operation raises,
    numpy's gives NaN or inf, and `evaluate` refuses a derivative that is
    not finite.

    Division is x * y^-1.  A series takes its reciprocal y^-1 on the first
    division by it and keeps it for every later one: y^-1 is a function of
    y's coefficients alone, so the kept series has the bits a second
    `_power(y, -1.0)` would compute, and each quotient makes the same float
    operations in the same order.  A series lives only as long as the
    `evaluate` call that made it.
    """

    __slots__ = ("c0", "hi", "_reciprocal")

    def __init__(self, c0: np.ndarray, hi: np.ndarray):
        self.c0, self.hi, self._reciprocal = c0, hi, None

    def reciprocal(self) -> "_Series":
        if self._reciprocal is None:
            self._reciprocal = _power(self, -1.0)
        return self._reciprocal

    def __add__(self, other):
        if isinstance(other, _Series):
            return _Series(self.c0 + other.c0, self.hi + other.hi)
        return _Series(self.c0 + other, self.hi)

    def __neg__(self):
        return _Series(-self.c0, -self.hi)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):  # the truncated Cauchy product
        if not isinstance(other, _Series):
            return _Series(self.c0 * other, self.hi * other)
        a, b = self.hi, other.hi
        hi = self.c0 * b + other.c0 * a
        hi[1] += a[0] * b[0]
        hi[2] += a[0] * b[1] + a[1] * b[0]
        return _Series(self.c0 * other.c0, hi)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        return self * (other.reciprocal() if isinstance(other, _Series) else 1.0 / other)

    def __rtruediv__(self, other):
        return other * self.reciprocal()

    def __pow__(self, other):
        if isinstance(other, _Series):
            return _apply("exp", other * _apply("log", self))
        return _power(self, other)

    def __rpow__(self, other):
        return _apply("exp", self * math.log(other))


def _compose(x: _Series, f0, f1, f2, f3) -> _Series:
    """f(x) from the value and first three derivatives of f at x.c0, each a
    (P, 1) array."""
    b1, b2, b3 = x.hi
    return _Series(f0, np.stack([f1 * b1, f1 * b2 + (0.5 * f2) * (b1 * b1),
                                 f1 * b3 + f2 * (b1 * b2) + (f3 / 6.0) * (b1 * b1 * b1)]))


def _power(x: _Series, e: float) -> _Series:
    """x^e for a constant e.  The k-th derivative e (e-1) ... (e-k+1) x^(e-k)
    is 0 once its factor is, so x^2 is smooth at 0, where x^0.5 fails."""
    a, derivatives, factor = x.c0, [], 1.0
    for k in range(1, 4):
        factor *= e - k + 1
        derivatives.append(0.0 if factor == 0.0 else factor * a ** (e - k))
    return _compose(x, a ** e, *derivatives)


# Each function's value and first three derivatives at the (P, 1) array a.
_TAYLOR = {
    "sin": lambda a: ((s := np.sin(a)), (c := np.cos(a)), -s, -c),
    "cos": lambda a: ((c := np.cos(a)), -(s := np.sin(a)), -c, s),
    "tan": lambda a: ((t := np.tan(a)), 1.0 + t * t, 2.0 * t * (1.0 + t * t),
                      (2.0 + 6.0 * t * t) * (1.0 + t * t)),
    "exp": lambda a: (np.exp(a),) * 4,
    "log": lambda a: (np.log(a), 1.0 / a, -1.0 / (a * a), 2.0 / (a * a * a)),
    "sqrt": lambda a: ((r := np.sqrt(a)), 0.5 / r, -0.25 / (r * a), 0.375 / (r * a * a)),
    "atan": lambda a: (np.arctan(a), 1.0 / (1.0 + a * a), -2.0 * a / (1.0 + a * a) ** 2,
                       (6.0 * a * a - 2.0) / (1.0 + a * a) ** 3),
}


def _apply(name: str, x):
    return _compose(x, *_TAYLOR[name](x.c0)) if isinstance(x, _Series) else FUNCTIONS[name](x)


# Each operator's and function's operation: on floats, the float operator or
# `math` function; the functions also take a Taylor series.
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "^": operator.pow, **{name: partial(_apply, name) for name in FUNCTIONS}}
# (-1)**0.5 is complex, so it fails the conversion to float with TypeError.
_EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError, TypeError)


@dataclass(frozen=True, eq=False)
class Compiled:
    """Expressions compiled into one program that yields all their values.

    The program fills one slot per coordinate (`variables` pairs each name
    with its slot), constant and distinct non-leaf subtree; `start` holds
    each constant's value and None elsewhere.  Each step (slot, fn, a) or
    (slot, fn, a, b) sets its slot to fn(slots[a]) or fn(slots[a], slots[b]);
    `outputs` are the slots of the expressions' values.
    """

    exprs: tuple[Expr, ...]
    variables: tuple[tuple[str, int], ...]
    start: tuple[float | None, ...]
    steps: tuple[tuple, ...]
    outputs: tuple[int, ...]


def compile_expressions(exprs: Iterable[Expr]) -> Compiled:
    """Compile expressions, in order, into one program for `evaluate`.

    Each step applies the one float operation or `math` function its node
    stands for, so every value is bit for bit that of the expression
    evaluated on its own.  A slot is keyed by its operation and its
    operands' slots, so equal subtrees share it without rehashing whole
    trees.
    """
    exprs = tuple(exprs)
    slot_of: dict = {}  # coordinate name, constant or step key -> slot
    start: list[float | None] = []
    steps: list[tuple] = []

    def slot(expr: Expr) -> int:
        # Tests on type(expr), not `match` class patterns: compiling the 8
        # bundled charts' programs takes 2.1 ms against 5.3 ms that way (warm,
        # best of 40 on a 2-core Xeon under Python 3.11); a node type must be
        # one of the five exactly.
        kind, value, step = type(expr), None, None
        if kind is BinOp:
            key = step = (_OPERATIONS[expr.op], slot(expr.left), slot(expr.right))
        elif kind is Var:
            key = expr.name
        elif kind is Num:
            value = expr.value
            key = (repr(value),)  # not a name; repr tells -0.0 from 0.0, which are equal
        elif kind is Neg:
            key = step = (operator.neg, slot(expr.operand))
        elif kind is Call:
            key = step = (_OPERATIONS[expr.func], slot(expr.arg))
        else:
            raise TypeError(f"not an expression node: {expr!r}")
        if key not in slot_of:
            slot_of[key] = len(start)
            start.append(value)
            if step:
                steps.append((slot_of[key], *step))
        return slot_of[key]

    outputs = tuple(slot(expr) for expr in exprs)
    variables = tuple((key, k) for key, k in slot_of.items() if isinstance(key, str))
    return Compiled(exprs, variables, tuple(start), tuple(steps), outputs)


def evaluate(compiled: Compiled, env: Mapping[str, float],
             directions: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
    """Values of every compiled expression at a point given as {coordinate name: value}.

    One run of the program's steps computes them all, with Python's
    float operators and `math` functions.  With `directions`, {coordinate
    name: (d,) array}, it runs once on the lines x + t v through a group of
    P points instead: each value of `env` is then the sequence of that
    coordinate at the P points, and the result holds the Taylor
    coefficients of degree 1 to 3 in t, shape (len(exprs), 3, P, d), each
    bit for bit what the group of that point alone gives.
    Domain violations (log of a non-positive number, division by zero, ...)
    and non-finite or complex results raise ExprEvalError.  At one point it
    names the first failing expression and the point; for a group of
    several points it names neither, and each point run alone finds them.
    """
    slots = list(compiled.start)
    if directions is None:
        size = 1
        for name, k in compiled.variables:
            slots[k] = env[name]
    else:
        columns = {name: np.asarray(v, dtype=float).reshape(-1, 1) for name, v in env.items()}
        size = len(next(iter(columns.values())))
        none = np.zeros((3, size, len(next(iter(directions.values())))))
        for name, k in compiled.variables:
            line = np.broadcast_to(directions[name], none[0].shape)
            slots[k] = _Series(columns[name], np.stack([line, none[0], none[0]]))
    try:
        with np.errstate(all="ignore"):  # a non-finite value is refused below
            for step in compiled.steps:
                if len(step) == 4:
                    k, fn, a, b = step
                    slots[k] = fn(slots[a], slots[b])
                else:
                    k, fn, a = step
                    slots[k] = fn(slots[a])
            out = [slots[k] for k in compiled.outputs]
            values = np.array(out, dtype=float) if directions is None else \
                np.array([v.hi if isinstance(v, _Series) else none for v in out])
        if np.isfinite(values).all():
            return values
        error = None
    except _EVAL_ERRORS as exc:
        error = exc
    if size > 1:
        detail = "a value is not finite" if error is None else error
        raise ExprEvalError(f"a group of {size} points fails: {detail}") from error
    if len(compiled.exprs) > 1:
        # Each expression through a program of its own, to find the first that fails.
        for expr in compiled.exprs:
            evaluate(compile_expressions([expr]), env, directions)
    [expr] = compiled.exprs
    at = dict(env) if directions is None else {name: c.item() for name, c in columns.items()}
    what = f"'{to_source(expr)}'" if directions is None else f"a derivative of '{to_source(expr)}'"
    if error is not None:
        raise ExprEvalError(f"cannot evaluate {what} at {at}: {error}") from error
    noun = "expression " if directions is None else ""
    raise ExprEvalError(f"{noun}{what} is not finite at {at}")
