"""Hypothesis strategies for chart files that are not bundled.

`hermitian_charts` draws Hermitian charts at m = 1-3: each complex line
gets a conformal factor `1+(e)^2`, `exp(e)` or `1+0.1*atan(e)` of an
expression e in the coordinates, and some conformally flat charts at m = 2
get their J turned towards a structure that anticommutes with the standard
one, as cos(t) I + sin(t) K for an expression t.  Any verdict may come out,
and a draw may overflow.

`kahler_potential_charts` draws Kahler metrics from a potential
f = sum(xk^2 + yk^2) plus small monomials of degree 3 and 4, sometimes
with 0.1 log(1 + |z|^2) or 0.05 exp(x1 ym): g(dxj, dxk) = g(dyj, dyk) =
(f_xjxk + f_yjyk)/2 and g(dxj, dyk) = (f_xjyk - f_yjxk)/2, written out by
sympy, with the standard J.  Their curvature is not parallel, unlike that
of every bundled Kahler model.

Each strategy draws (text, points): the chart file's text and two points.
"""

import itertools

import sympy as sp
from hypothesis import strategies as st

from model_oracles import _j_lines, _paired_coords, _point_lines

_CONSTANTS = st.integers(-9, 9).map(lambda k: repr(k / 10))


def _expressions(coords):
    """Expressions of + - * sin cos exp atan over the coordinates and small constants."""
    leaves = st.one_of(st.sampled_from(coords), _CONSTANTS)

    def branches(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({''.join(t)})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "atan"]), children)
            .map(lambda t: f"{t[0]}({t[1]})"))

    return st.recursive(leaves, branches, max_leaves=4)


_FACTORS = ("1+({})^2", "exp({})", "1+0.1*atan({})")


def _points(m, reach):
    coordinate = st.integers(-10, 10).map(lambda k: k * reach / 10)
    return st.lists(st.tuples(*[coordinate] * (2 * m)), min_size=2, max_size=2)


# K, the structure with K e1 = e3 and K e2 = -e4, which anticommutes with the standard J
_ANTICOMMUTING = {(3, 1): 1, (1, 3): -1, (2, 4): 1, (4, 2): -1}


@st.composite
def hermitian_charts(draw):
    m = draw(st.integers(1, 3))
    _, _, coords = _paired_coords(m)
    expressions = _expressions(coords)
    turned = m == 2 and draw(st.booleans())
    lines = 1 if turned else m  # a turned J needs one conformal factor on all of C^2
    factors = [draw(st.sampled_from(_FACTORS)).format(draw(expressions)) for _ in range(lines)]
    text = [f"dim = {m}", "coords = " + " ".join(coords)]
    text += [f"g[{i}][{i}] = {factors[(i - 1) // 2 % lines]}" for i in range(1, 2 * m + 1)]
    if turned:
        t = draw(expressions)
        text += [f"J[{i}][{j}] = {sign}*cos({t})" for (i, j), sign in
                 {(2, 1): 1, (1, 2): -1, (4, 3): 1, (3, 4): -1}.items()]
        text += [f"J[{i}][{j}] = {sign}*sin({t})" for (i, j), sign in _ANTICOMMUTING.items()]
    else:
        text += _j_lines(m)
    points = draw(_points(m, 1.0))
    return "\n".join(text + _point_lines(points)) + "\n", points


def _chart_source(expr) -> str:
    """A sympy expression in the chart grammar."""
    return sp.sstr(expr).replace("**", "^")


@st.composite
def kahler_potential_charts(draw, dims=(2, 3)):
    m = draw(st.sampled_from(dims))
    xs, ys, coords = _paired_coords(m)
    x, y = sp.symbols(xs), sp.symbols(ys)
    symbols = [v for pair in zip(x, y) for v in pair]
    f = sum(a**2 + b**2 for a, b in zip(x, y))
    for degree in draw(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=3)):
        powers = draw(st.lists(st.sampled_from(symbols), min_size=degree, max_size=degree))
        f += sp.Rational(draw(st.integers(-5, 5).filter(bool)), 100) * sp.Mul(*powers)
    extra = draw(st.sampled_from(["", "log", "exp"]))
    if extra == "log":
        f += sp.Rational(1, 10) * sp.log(1 + sum(a**2 + b**2 for a, b in zip(x, y)))
    elif extra == "exp":
        f += sp.Rational(1, 20) * sp.exp(x[0] * y[-1])
    text = [f"dim = {m}", "coords = " + " ".join(coords)]
    for j, k in itertools.combinations_with_replacement(range(m), 2):
        real = (sp.diff(f, x[j], x[k]) + sp.diff(f, y[j], y[k])) / 2
        text += [f"g[{2 * j + 1}][{2 * k + 1}] = {_chart_source(real)}",
                 f"g[{2 * j + 2}][{2 * k + 2}] = {_chart_source(real)}"]
    for j, k in itertools.product(range(m), repeat=2):
        text.append(f"g[{2 * j + 1}][{2 * k + 2}] = "
                    f"{_chart_source((sp.diff(f, x[j], y[k]) - sp.diff(f, y[j], x[k])) / 2)}")
    text += _j_lines(m)
    points = draw(_points(m, 0.4))
    return "\n".join(text + _point_lines(points)) + "\n", points
