"""Recursive-descent parser, printer and evaluator for chart coordinate expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?        # right associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

so "-x^2" is -(x^2) and "2^3^2" is 2^(3^2).  Numbers are finite decimal
literals (1e999 is an error) with an optional exponent.  The function set
is fixed: sin cos tan exp log sqrt atan.  An expression nests at most
MAX_DEPTH levels: each operator, unary minus, call and parenthesized group
is a level, so each term of a chain like 1+1+1 counts, and whatever parses
also evaluates.  Parsing never raises anything but ExprError subclasses,
each carrying a 1-based line/column position.

Evaluation works on batches: `compile_expressions` turns a sequence of
expressions into one code object built from `to_source`, and `evaluate`
runs it once per point and returns every value, bit for bit what each
expression gives on its own.  The compiled code belongs to its caller (a
chart keeps its own), so nothing here caches expressions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import CodeType
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

# The parser, `to_source`, `variables_of` and Python's compiler all recurse
# once per level, and Python refuses more than 200 nested parentheses; the
# bundled charts nest at most 13 levels.
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
    r"|(?P<op>[-+*/^()]))"
)


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

    def nested(self, parse, tok: _Token) -> tuple[Expr, int]:
        """(node, depth) one level down; refuses before the recursion gets deep."""
        self.nesting += 1
        self.check_depth(self.nesting, tok)
        node, depth = parse()
        self.nesting -= 1
        return node, self.check_depth(depth + 1, tok)

    def parse(self) -> Expr:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r} after expression", tok)
        return node

    def chain(self, ops: tuple[str, str], operand) -> tuple[Expr, int]:
        node, depth = operand()
        while self.peek().text in ops:
            tok = self.advance()
            right, rdepth = operand()
            node = BinOp(tok.text, node, right)
            depth = self.check_depth(max(depth, rdepth) + 1, tok)
        return node, depth

    def expr(self) -> tuple[Expr, int]:
        return self.chain(("+", "-"), self.term)

    def term(self) -> tuple[Expr, int]:
        return self.chain(("*", "/"), self.factor)

    def factor(self) -> tuple[Expr, int]:
        if self.peek().text == "-":
            operand, depth = self.nested(self.factor, self.advance())
            return Neg(operand), depth
        return self.power()

    def power(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        if self.peek().text == "^":
            tok = self.advance()
            exponent, edepth = self.nested(self.factor, tok)
            node, depth = BinOp("^", node, exponent), self.check_depth(max(depth + 1, edepth), tok)
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
                arg, depth = self.nested(
                    lambda: self.group("expected ')' to close function call"), tok)
                return Call(tok.text, arg), depth
            return Var(tok.text), 1
        if tok.text == "(":
            return self.nested(self.group, tok)
        if tok.kind == "end":
            self.fail("unexpected end of expression", tok)
        self.fail(f"unexpected {tok.text!r}", tok)

    def group(self, unclosed: str = "expected ')'") -> tuple[Expr, int]:
        """The rest of a parenthesized expression, after its '('."""
        node, depth = self.expr()
        closing = self.advance()
        if closing.text != ")":
            self.fail(unclosed, closing)
        return node, depth


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


# Printing: precedence levels, with '^' right associative above unary minus.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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


_EVAL_GLOBALS = {"__builtins__": {}, **FUNCTIONS}
# (-1)**0.5 is complex, so it fails the conversion to float with TypeError.
_EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError, TypeError)


@dataclass(frozen=True, eq=False)
class Compiled:
    """Expressions compiled into one code object that yields all their values."""

    exprs: tuple[Expr, ...]
    code: CodeType


def _python_source(expr: Expr) -> str:
    # Python's operators have the grammar's precedence and associativity
    # once '^' is spelled '**' (the only '^' in the source is the operator).
    return to_source(expr).replace("^", "**")


def compile_expressions(exprs: Iterable[Expr]) -> Compiled:
    """Compile expressions, in order, into one program for `evaluate`."""
    exprs = tuple(exprs)
    source = "(" + "".join(f"{_python_source(expr)}," for expr in exprs) + ")"
    return Compiled(exprs, compile(source, "<chart expressions>", "eval"))


def _evaluate_one(expr: Expr, env: Mapping[str, float]) -> float:
    try:
        value = float(eval(_python_source(expr), _EVAL_GLOBALS, env))
    except _EVAL_ERRORS as exc:
        raise ExprEvalError(f"cannot evaluate '{to_source(expr)}' at {dict(env)}: {exc}") from exc
    if not math.isfinite(value):
        raise ExprEvalError(f"expression '{to_source(expr)}' is not finite at {dict(env)}")
    return value


def evaluate(compiled: Compiled, env: Mapping[str, float]) -> np.ndarray:
    """Values of every compiled expression at a point given as {coordinate name: value}.

    One `eval` computes them all, with Python's float operators and `math`
    functions.  Domain violations (log of a non-positive number, division
    by zero, ...) and non-finite or complex results raise ExprEvalError
    naming the first failing expression and the point.
    """
    try:
        values = np.array(eval(compiled.code, _EVAL_GLOBALS, env), dtype=float)
        if np.isfinite(values).all():
            return values
    except _EVAL_ERRORS:
        pass
    # One expression at a time, to find the one that fails.
    return np.array([_evaluate_one(expr, env) for expr in compiled.exprs], dtype=float)
