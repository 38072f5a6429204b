"""Expression grammar: parsing, precedence, printing round-trip, evaluation."""

import dis
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahgeom.charts import ChartSyntaxError, parse_chart
from ahgeom.expressions import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    compile_expressions,
    evaluate,
    parse_expression,
    to_source,
)
from ahgeom.models import get_model, model_names


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


def instructions(compiled, opname):
    return [ins for ins in dis.get_instructions(compiled.code) if ins.opname == opname]


class TestSharedSubexpressions:
    @pytest.mark.parametrize("name", sorted(model_names()))
    def test_each_distinct_subtree_is_assigned_once(self, name):
        compiled = get_model(name).chart._program[0]
        subtrees = set()
        for expr in compiled.exprs:
            non_leaf_subtrees(expr, subtrees)
        stored = [ins.argval for ins in instructions(compiled, "STORE_FAST")]
        assert len(stored) == len(set(stored)) == len(subtrees)

    def test_s6_squared_norm_is_summed_once(self):
        compiled = get_model("s6").chart._program[0]
        norm = parse_expression("x1^2+x2^2+x3^2+x4^2+x5^2+x6^2")
        assert sum(occurrences(expr, norm) for expr in compiled.exprs) > 1
        sums = {t for expr in compiled.exprs for t in non_leaf_subtrees(expr, set())
                if isinstance(t, BinOp) and t.op == "+"}
        additions = [ins for ins in instructions(compiled, "BINARY_OP") if ins.argrepr == "+"]
        assert len(additions) == len(sums)

    def test_equal_subtrees_across_expressions_share_one_value(self):
        exprs = [parse_expression(src) for src in ("sqrt(x*x+y)", "1/sqrt(x*x+y)", "x*x")]
        compiled = compile_expressions(exprs)
        assert len(instructions(compiled, "STORE_FAST")) == 4  # x*x, x*x+y, sqrt(...), 1/sqrt(...)
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

    def test_locals_avoid_coordinate_names(self):
        exprs = [parse_expression(src) for src in ("_0*_1+__0", "sin(_0*_1)")]
        env = {"_0": 0.5, "_1": 3.0, "__0": -1.0}
        values = evaluate(compile_expressions(exprs), env)
        assert [v.hex() for v in values] == [reference_value(e, env).hex() for e in exprs]


# ---------------------------------------------------------------------------
# Totality: hostile input raises ExprSyntaxError, never a RecursionError
# ---------------------------------------------------------------------------

# Each was a RecursionError in the parser, a SyntaxError from the compiler
# or a NameError at evaluation before the depth limit and finite literals.
HOSTILE = {
    "parens": "(" * 2000 + "x" + ")" * 2000,
    "unary_minus": "-" * 5000 + "x",
    "long_sum": "+".join(["1"] * 2000),
    "power_tower": "^".join(["x"] * 3000),
    "sum_250": "+".join(["1"] * 250),
    "inf_literal": "1e999",
}


def chart_with_entry(src):
    return f"dim = 1\ncoords = x y\ng[1][1] = {src}\ng[2][2] = 1\nJ[2][1] = 1\nJ[1][2] = -1\n"


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


_WRAPPERS = st.sampled_from(["({})", "-{}", "{}+1", "1*{}", "sin({})", "x^sin({})"])


@given(st.lists(_WRAPPERS, max_size=2 * MAX_DEPTH))
@settings(max_examples=200, deadline=None)
def test_every_nesting_parses_and_evaluates_or_is_rejected(wrappers):
    src = "x"
    for wrapper in wrappers:
        src = wrapper.format(src)
    try:
        expr = parse_expression(src)
    except ExprSyntaxError:
        return
    assert math.isfinite(value_of(expr, {"x": 0.5}))


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


@given(_exprs, st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
@example(parse_expression("x1^(y1+x2)"), [1.5, 0.25, 2.0, -0.5])
@example(parse_expression("(x1-y1)^x2^-y2+(x1^y1)^x2"), [1.5, 0.25, 2.0, -0.5])
@example(parse_expression("x1/(y1*x2)-(y1-x2)"), [1.5, 0.25, 2.0, -0.5])
@example(parse_expression("-(x1+y1)*x2^2"), [1.5, 0.25, 2.0, -0.5])
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_reference_interpreter(expr, values):
    # bit for bit where the value is finite; otherwise evaluate must refuse
    env = dict(zip(["x1", "y1", "x2", "y2"], values))
    try:
        want = float(reference_value(expr, env))
    except (ArithmeticError, ValueError, TypeError):  # (-1)^0.5 is complex
        want = math.nan
    if math.isfinite(want):
        assert value_of(expr, env).hex() == want.hex()
    else:
        with pytest.raises(ExprEvalError):
            value_of(expr, env)
