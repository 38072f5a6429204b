"""Expression grammar: parsing, precedence, printing round-trip, evaluation."""

import ast
import contextlib
import math
import operator
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ahgeom
from ahgeom import charts, expressions
from ahgeom.charts import ChartSyntaxError, parse_chart
from ahgeom.expressions import (
    _OPERATIONS,
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprError,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    _tokenize,
    compile_expressions,
    evaluate,
    parse_expression,
    to_source,
)
from ahgeom.models import get_model, model_names
from generated_charts import HOSTILE, chain, chart_with_entry


def value_of(expr, env):
    """One expression's value, through a program of its own."""
    [value] = evaluate(compile_expressions([expr]), env)
    return value


def ev(src, **env):
    return value_of(parse_expression(src), env)


class TestParsing:
    def test_number_and_identifier(self):
        assert parse_expression("2.5") == Num(2.5)
        assert parse_expression("x1") == Var("x1")
        assert parse_expression("1e-6") == Num(1e-6)

    def test_additive_left_associative(self):
        assert parse_expression("a-b-c") == BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c"))

    def test_precedence_mul_over_add(self):
        assert ev("2+3*4") == 14.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_above_unary_minus(self):
        assert ev("-3^2") == -9.0
        assert ev("(-3)^2") == 9.0
        assert parse_expression("-x^2") == Neg(BinOp("^", Var("x"), Num(2.0)))

    def test_negative_exponent(self):
        assert ev("2^-2") == 0.25

    def test_function_call(self):
        assert parse_expression("sin(x)") == Call("sin", Var("x"))
        assert ev("cos(0)") == 1.0

    def test_unknown_function(self):
        with pytest.raises(ExprNameError, match="sinh"):
            parse_expression("sinh(x)")

    def test_unary_minus_stacking(self):
        assert ev("--4") == 4.0

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("1 + * 2", line=7, col_base=10)
        assert err.value.line == 7
        assert "col" in str(err.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(1+2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="after expression"):
            parse_expression("1 2")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse_expression("1 @ 2")


class TestEvaluation:
    def test_coordinates(self):
        assert ev("x*y + 1", x=2.0, y=3.0) == 7.0

    def test_functions(self):
        assert ev("sqrt(x)", x=9.0) == 3.0
        assert ev("atan(1)*4") == pytest.approx(math.pi)
        assert ev("log(exp(2))") == pytest.approx(2.0)
        assert ev("tan(0.5)") == pytest.approx(math.tan(0.5))

    def test_domain_error_names_expression_and_point(self):
        with pytest.raises(ExprEvalError) as err:
            ev("log(x)", x=-1.0)
        assert "log(x)" in str(err.value)
        assert "-1.0" in str(err.value)

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError):
            ev("1/x", x=0.0)

    def test_overflow_is_an_error(self):
        with pytest.raises(ExprEvalError):
            ev("exp(x)", x=1e9)

    def test_complex_power_is_an_error(self):
        with pytest.raises(ExprEvalError, match="x"):
            ev("x^0.5", x=-1.0)

    def test_program_returns_each_value_in_order(self):
        exprs = [parse_expression(src) for src in ("x*y", "-0.0*x", "2^x", "1")]
        values = evaluate(compile_expressions(exprs), {"x": 3.0, "y": -0.5})
        assert [v.hex() for v in values] == [v.hex() for v in (-1.5, -0.0, 8.0, 1.0)]
        assert evaluate(compile_expressions([]), {}).shape == (0,)

    @pytest.mark.parametrize("src, x, message", [
        ("log(x)", -1.0, "cannot evaluate 'log(x)'"),
        ("1/(x+1)", -1.0, "cannot evaluate '1.0/(x+1.0)'"),
        ("(x-1)^0.5", 0.0, "cannot evaluate '(x-1.0)^0.5'"),
        ("x*1e308*10", 1.0, "expression 'x*1e+308*10.0' is not finite"),
    ])
    def test_program_names_its_first_failing_entry(self, src, x, message):
        exprs = [parse_expression(s) for s in ("x+1", src, "log(x-5)")]
        with pytest.raises(ExprEvalError) as err:
            evaluate(compile_expressions(exprs), {"x": x})
        assert message in str(err.value)
        assert f"{{'x': {x!r}}}" in str(err.value)


# ---------------------------------------------------------------------------
# The compiled program computes each distinct subtree once
# ---------------------------------------------------------------------------


def non_leaf_subtrees(expr, out):
    """Add every subtree of expr that is not a number or a variable to out."""
    match expr:
        case Neg(arg) | Call(_, arg):
            non_leaf_subtrees(arg, out)
        case BinOp(_, left, right):
            non_leaf_subtrees(left, out)
            non_leaf_subtrees(right, out)
        case _:
            return out
    out.add(expr)
    return out


def occurrences(expr, target):
    if expr == target:
        return 1
    match expr:
        case Neg(arg) | Call(_, arg):
            return occurrences(arg, target)
        case BinOp(_, left, right):
            return occurrences(left, target) + occurrences(right, target)
    return 0


def steps(compiled, operation):
    """The program's steps that apply `operation`, a key of `_OPERATIONS`."""
    return [step for step in compiled.steps if step[1] is _OPERATIONS[operation]]


# A chart's two programs: g's upper triangle and J's rows.
PROGRAMS = ("_metric_program", "_j_program")


class TestSharedSubexpressions:
    @pytest.mark.parametrize("program", PROGRAMS, ids=["g", "J"])
    @pytest.mark.parametrize("name", sorted(model_names()))
    def test_each_distinct_subtree_is_assigned_once(self, name, program):
        compiled = getattr(get_model(name).chart, program)
        subtrees = set()
        for expr in compiled.exprs:
            non_leaf_subtrees(expr, subtrees)
        filled = [step[0] for step in compiled.steps]
        assert len(filled) == len(set(filled)) == len(subtrees)

    @pytest.mark.parametrize("program", PROGRAMS, ids=["g", "J"])
    def test_s6_squared_norm_is_summed_once(self, program):
        compiled = getattr(get_model("s6").chart, program)
        norm = parse_expression("x1^2+x2^2+x3^2+x4^2+x5^2+x6^2")
        assert sum(occurrences(expr, norm) for expr in compiled.exprs) > 1
        sums = {t for expr in compiled.exprs for t in non_leaf_subtrees(expr, set())
                if isinstance(t, BinOp) and t.op == "+"}
        assert len(steps(compiled, "+")) == len(sums)

    def test_s6_j_takes_its_own_square_root_once(self):
        chart = get_model("s6").chart
        root = parse_expression("sqrt(1-(x1^2+x2^2+x3^2+x4^2+x5^2+x6^2))")
        assert not any(occurrences(expr, root) for expr in chart._metric_program.exprs)
        assert sum(occurrences(expr, root) for expr in chart._j_program.exprs) > 1
        assert len(steps(chart._j_program, "sqrt")) == 1

    def test_equal_subtrees_across_expressions_share_one_value(self):
        exprs = [parse_expression(src) for src in ("sqrt(x*x+y)", "1/sqrt(x*x+y)", "x*x")]
        compiled = compile_expressions(exprs)
        assert len(compiled.steps) == 4  # x*x, x*x+y, sqrt(...), 1/sqrt(...)
        values = evaluate(compiled, {"x": 0.3, "y": 2.0})
        assert [v.hex() for v in values] == [
            reference_value(e, {"x": 0.3, "y": 2.0}).hex() for e in exprs]

    @pytest.mark.parametrize("src", [
        "+".join(["x"] * MAX_DEPTH),
        "-" * (MAX_DEPTH - 1) + "x",
        "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
    ])
    def test_deepest_expression_compiles(self, src):
        expr = parse_expression(src)
        with pytest.raises(ExprSyntaxError, match="deeper"):
            parse_expression(f"-({src})")
        assert value_of(expr, {"x": 0.5}).hex() == reference_value(expr, {"x": 0.5}).hex()

    def test_coordinates_named_like_slots_evaluate_bit_for_bit(self):
        # a program names its slots by position, not by these names
        exprs = [parse_expression(src) for src in ("_0*_1+__0", "sin(_0*_1)")]
        env = {"_0": 0.5, "_1": 3.0, "__0": -1.0}
        values = evaluate(compile_expressions(exprs), env)
        assert [v.hex() for v in values] == [reference_value(e, env).hex() for e in exprs]

    @pytest.mark.parametrize("exprs", [["x"], [BinOp("+", Var("x"), 2.0)]], ids=["top", "operand"])
    def test_a_node_of_another_type_is_refused(self, exprs):
        with pytest.raises(TypeError, match="not an expression node: "):
            compile_expressions(exprs)


def counted_reciprocals(monkeypatch):
    """A list that counts, from now on, each `_power(x, -1.0)` of a Taylor
    series in its last entry."""
    counts, power = [0], expressions._power

    def counted(x, e):
        counts[-1] += e == -1.0
        return power(x, e)

    monkeypatch.setattr(expressions, "_power", counted)
    return counts


class TestReciprocals:
    def test_s6_takes_each_divisors_reciprocal_once_per_program(self, monkeypatch):
        # s6 divides by 1-|x|^2 in 21 entries of g and by its square root in 36 of J
        chart = get_model("s6").chart
        names = {id(chart._metric_program): "g", id(chart._j_program): "J"}
        counts, runs = counted_reciprocals(monkeypatch), []

        def taylor_pass(compiled, env, directions=None):
            if directions is not None:
                runs.append(names[id(compiled)])
                counts.append(0)
            return evaluate(compiled, env, directions)

        monkeypatch.setattr(charts, "evaluate", taylor_pass)
        [_] = chart.jets_at(chart.default_points)
        assert dict(zip(runs, counts[1:])) == {"g": 1, "J": 1}

    def test_quotients_by_one_series_keep_their_bits(self, monkeypatch):
        exprs = [parse_expression(src) for src in ("x/(1+y*y)", "sin(y)/(1+y*y)", "1/(1+y*y)")]
        env = {"x": [0.3, -1.2, 0.0], "y": [0.7, 2.5, -0.1]}
        lines = {"x": np.array([1.0, 0.0, 0.6]), "y": np.array([0.0, 1.0, -0.8])}
        counts = counted_reciprocals(monkeypatch)
        shared = evaluate(compile_expressions(exprs), env, lines)
        assert counts == [1]
        alone = [evaluate(compile_expressions([e]), env, lines)[0] for e in exprs]
        assert counts == [4]
        assert shared.shape == (3, 3, 3, 3)
        assert [c.tobytes() for c in shared] == [c.tobytes() for c in alone]


# ---------------------------------------------------------------------------
# Totality: hostile input raises ExprSyntaxError, never a RecursionError
# ---------------------------------------------------------------------------

# Source nesting one construct `depth` levels deep; '2*(' and '(1+' add two
# levels each, so an even depth starts from '(x)'.
CHAINS = {
    "call": lambda depth: chain("sin(", ")", depth - 1),
    "parens": lambda depth: chain("(", ")", depth - 1),
    "neg": lambda depth: chain("-", "", depth - 1),
    "power": lambda depth: chain("x^", "", depth - 1),
    "product": lambda depth: chain("2*(", ")", (depth - 1) // 2, "(x)" if depth % 2 == 0 else "x"),
    "sum": lambda depth: chain("(1+", ")", (depth - 1) // 2, "(x)" if depth % 2 == 0 else "x"),
}


@contextlib.contextmanager
def frame_budget():
    """Run with room for 7 Python frames per level of a MAX_DEPTH-deep
    expression above the stack in use, whatever the limit was: Hypothesis
    raises it by up to 2000 frames while it runs a test.  The parser takes
    about 3 frames per level; one method per precedence level took 10."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 7 * MAX_DEPTH)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestTotality:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_parse_expression_rejects(self, name):
        with pytest.raises(ExprSyntaxError, match="line 1, col"):
            parse_expression(HOSTILE[name])

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_parse_chart_rejects(self, name):
        with pytest.raises(ChartSyntaxError, match="line 3, col"):
            parse_chart(chart_with_entry(HOSTILE[name]))

    def test_limit_is_inclusive(self):
        # a chain of n terms is n levels deep, and so is x under n - 1 unary minuses
        assert ev("+".join(["1"] * MAX_DEPTH)) == MAX_DEPTH
        with pytest.raises(ExprSyntaxError, match="deeper"):
            parse_expression("+".join(["1"] * (MAX_DEPTH + 1)))
        assert abs(ev("-" * (MAX_DEPTH - 1) + "x", x=2.0)) == 2.0
        with pytest.raises(ExprSyntaxError, match="deeper"):
            parse_expression("-" * MAX_DEPTH + "x")

    def test_large_finite_literal_round_trips(self):
        expr = parse_expression("1e308")
        assert parse_expression(to_source(expr)) == expr

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_each_construct_nests_to_the_limit(self, name):
        with frame_budget():
            expr = parse_expression(CHAINS[name](MAX_DEPTH))
            printed = parse_expression(to_source(expr))
            value = value_of(expr, {"x": 0.5})
            with pytest.raises(ExprSyntaxError) as deeper:
                parse_expression(CHAINS[name](MAX_DEPTH + 1), line=4)
        assert printed == expr
        assert value.hex() == reference_value(expr, {"x": 0.5}).hex()
        assert f"deeper than {MAX_DEPTH} levels (line 4, col" in str(deeper.value)


_WRAPPERS = st.sampled_from(["({})", "-{}", "{}+1", "1*{}", "sin({})", "x^sin({})"])


@given(st.lists(_WRAPPERS, max_size=2 * MAX_DEPTH))
# single-construct chains MAX_DEPTH levels deep, and one level deeper
@example(["sin({})"] * (MAX_DEPTH - 1))
@example(["sin({})"] * MAX_DEPTH)
@example(["({})"] * (MAX_DEPTH - 1))
@example(["-{}"] * (MAX_DEPTH - 1))
@example(["1*{}", "({})"] * (MAX_DEPTH // 2 - 1) + ["1*{}"])
@example(["{}+1", "({})"] * (MAX_DEPTH // 2 - 1) + ["{}+1"])
@settings(max_examples=200, deadline=None)
def test_every_nesting_parses_and_evaluates_or_is_rejected(wrappers):
    src = "x"
    for wrapper in wrappers:
        src = wrapper.format(src)
    with frame_budget():
        try:
            expr = parse_expression(src)
        except ExprSyntaxError:
            return
        value = value_of(expr, {"x": 0.5})
    assert math.isfinite(value)


# ---------------------------------------------------------------------------
# Printing round-trip: to_source must reparse to an equal tree
# ---------------------------------------------------------------------------

_names = st.sampled_from(["x1", "y1", "x2", "y2"])
_numbers = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)
_leaves = st.one_of(_numbers.map(Num), _names.map(Var))


def _branches(children):
    binops = st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(*t))
    return st.one_of(
        children.map(Neg),
        binops,
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "atan"]), children)
        .map(lambda t: Call(*t)),
        # Operators with compound operands on both sides, so that a compound
        # base or exponent, and a compound right operand of '-' or '/', turn
        # up often: the printer must parenthesize each of them.
        st.tuples(st.sampled_from("^-/"), binops, binops).map(lambda t: BinOp(*t)),
    )


_exprs = st.recursive(_leaves, _branches, max_leaves=25)


class TestRoundTrip:
    @given(_exprs)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, expr):
        assert parse_expression(to_source(expr)) == expr

    def test_examples(self):
        for src in ("1+2*3", "-x1^2", "x1^-2", "(x1+y1)/(1+x1^2)^2", "sin(x1)*cos(y1)"):
            expr = parse_expression(src)
            assert parse_expression(to_source(expr)) == expr


def reference_value(expr, env):
    """Tree-walking interpreter with Python's float semantics."""
    match expr:
        case Num(value):
            return value
        case Var(name):
            return env[name]
        case Neg(operand):
            return -reference_value(operand, env)
        case BinOp(op, left, right):
            return _OPS[op](reference_value(left, env), reference_value(right, env))
        case Call(func, arg):
            return FUNCTIONS[func](reference_value(arg, env))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}


@given(st.lists(_exprs, min_size=1, max_size=4),
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
@example([parse_expression("x1^(y1+x2)")], [1.5, 0.25, 2.0, -0.5])
@example([parse_expression("(x1-y1)^x2^-y2+(x1^y1)^x2")], [1.5, 0.25, 2.0, -0.5])
@example([parse_expression("x1/(y1*x2)-(y1-x2)")], [1.5, 0.25, 2.0, -0.5])
@example([parse_expression("-(x1+y1)*x2^2")], [1.5, 0.25, 2.0, -0.5])
# equal trees, as 0.0 == -0.0, whose values differ in sign
@example([BinOp("*", Var("x1"), Num(0.0)), BinOp("*", Var("x1"), Num(-0.0))],
         [1.5, 0.25, 2.0, -0.5])
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_reference_interpreter(exprs, values):
    # one program for all: bit for bit where every value is finite; otherwise
    # evaluate must refuse
    env = dict(zip(["x1", "y1", "x2", "y2"], values))
    wants = []
    for expr in exprs:
        try:
            wants.append(float(reference_value(expr, env)))
        except (ArithmeticError, ValueError, TypeError):  # (-1)^0.5 is complex
            wants.append(math.nan)
    compiled = compile_expressions(exprs)
    if all(map(math.isfinite, wants)):
        assert [v.hex() for v in evaluate(compiled, env)] == [w.hex() for w in wants]
    else:
        with pytest.raises(ExprEvalError):
            evaluate(compiled, env)


def test_no_module_builds_or_runs_python_source():
    # a call of the builtin exec, eval or compile; re.compile is an attribute
    calls = [f"{path.name}:{node.lineno} {node.func.id}"
             for path in sorted(Path(ahgeom.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == []


# ---------------------------------------------------------------------------
# Precedence climbing against the recursive-descent parser it replaced
# ---------------------------------------------------------------------------


class RecursiveDescentParser:
    """One method per precedence level: the parser that `_PREC`-driven
    precedence climbing replaced, kept as the reference for trees, errors
    and depth counting."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok):
        raise ExprSyntaxError(message, self.line, tok.col)

    def check_depth(self, depth, tok):
        if depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        return depth

    def nested(self, parse, tok):
        self.nesting += 1
        self.check_depth(self.nesting, tok)
        node, depth = parse()
        self.nesting -= 1
        return node, self.check_depth(depth + 1, tok)

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r} after expression", tok)
        return node

    def chain(self, ops, operand):
        node, depth = operand()
        while self.peek().text in ops:
            tok = self.advance()
            right, rdepth = operand()
            node = BinOp(tok.text, node, right)
            depth = self.check_depth(max(depth, rdepth) + 1, tok)
        return node, depth

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.factor)

    def factor(self):
        if self.peek().text == "-":
            operand, depth = self.nested(self.factor, self.advance())
            return Neg(operand), depth
        return self.power()

    def power(self):
        node, depth = self.atom()
        if self.peek().text == "^":
            tok = self.advance()
            exponent, edepth = self.nested(self.factor, tok)
            node, depth = BinOp("^", node, exponent), self.check_depth(max(depth + 1, edepth), tok)
        return node, depth

    def atom(self):
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

    def group(self, unclosed="expected ')'"):
        node, depth = self.expr()
        closing = self.advance()
        if closing.text != ")":
            self.fail(unclosed, closing)
        return node, depth


def parse_outcome(parse, src):
    """The tree, or the class, message and position of the error."""
    try:
        return parse(src, line=3, col_base=5)
    except ExprError as exc:
        return type(exc), str(exc), exc.line, exc.col


def reference_parse(src, line, col_base):
    return RecursiveDescentParser(_tokenize(src, line, col_base), line).parse()


def assert_parsers_agree(src):
    try:
        want = parse_outcome(reference_parse, src)
    except RecursionError:
        assume(False)  # the reference's own stack overflow, not an answer
    assert parse_outcome(parse_expression, src) == want


# '-' and 'neg' are prefix and binary, or an identifier named like _PREC's key.
_TOKENS = st.sampled_from(["x", "neg", "2.5", "1e999", "sin", "sinh", "(", ")", "-", "+",
                           "*", "/", "^", " ", "@"])
# Runs of tokens, each repeated up to 1.5 MAX_DEPTH times.
_TOKEN_STRINGS = st.lists(
    st.tuples(st.lists(_TOKENS, min_size=1, max_size=4), st.integers(1, 3 * MAX_DEPTH // 2)),
    max_size=6,
).map(lambda runs: "".join("".join(tokens) * count for tokens, count in runs))


# Trees near MAX_DEPTH levels deep: a random tree under runs of
# single-operand constructs.
_ENCLOSING = [Neg, lambda e: Call("sin", e), lambda e: BinOp("^", Var("x"), e),
              lambda e: BinOp("^", e, Num(2.0)), lambda e: BinOp("*", Num(2.0), e),
              lambda e: BinOp("-", Num(1.0), e), lambda e: BinOp("/", e, Var("y"))]


def _enclose(expr, runs):
    for wrap, count in runs:
        for _ in range(count):
            expr = wrap(expr)
    return expr


_deep_exprs = st.builds(_enclose, _exprs, st.lists(
    st.tuples(st.sampled_from(_ENCLOSING), st.integers(1, MAX_DEPTH)), max_size=3))


class TestAgainstRecursiveDescent:
    @given(_TOKEN_STRINGS)
    @example("-x^2")
    @example("2^-3^2")
    @example("a-b-c")
    @example("neg*neg^-neg")
    @example("(" * MAX_DEPTH + "x" + ")" * (MAX_DEPTH - 1))
    @example("-" * MAX_DEPTH + "(x")
    @settings(max_examples=500, deadline=None)
    def test_token_strings(self, src):
        assert_parsers_agree(src)

    @given(_deep_exprs, st.integers(min_value=0), _TOKENS)
    @settings(max_examples=500, deadline=None)
    def test_printed_trees_with_one_token_inserted(self, expr, at, token):
        src = to_source(expr)
        at %= len(src) + 1
        assert_parsers_agree(src[:at] + token + src[at:])
