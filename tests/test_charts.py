"""Chart file parsing, validation diagnostics, evaluation, bundled chart files."""

import gc
import re
import weakref
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom import charts, expressions
from ahgeom.charts import (
    ChartError,
    ChartEvalError,
    ChartSyntaxError,
    DomainError,
    parse_chart,
)
from ahgeom.expressions import compile_expressions, evaluate, parse_expression, to_source
from ahgeom.models import get_model, model_names
from model_oracles import complex_space_form_chart_text, flat_chart_text

MINIMAL_FLAT = """\
# minimal flat chart
dim = 1
coords = x y
g[1][1] = 1
g[2][2] = 1
J[2][1] = 1
J[1][2] = -1
point = 0 0
"""


class TestParsing:
    def test_minimal_flat_chart(self):
        spec = parse_chart(MINIMAL_FLAT)
        assert spec.m == 1
        assert spec.coord_names == ("x", "y")
        assert spec.default_points == ((0.0, 0.0),)

    def test_undeclared_identifier_is_named(self):
        text = MINIMAL_FLAT.replace("g[1][1] = 1", "g[1][1] = 1 + x9")
        with pytest.raises(ChartSyntaxError, match="x9"):
            parse_chart(text)

    def test_missing_dim(self):
        with pytest.raises(ChartSyntaxError, match="dim"):
            parse_chart("coords = x y\n")

    def test_coordinate_count_must_match_dim(self):
        with pytest.raises(ChartSyntaxError, match="coordinates"):
            parse_chart("dim = 2\ncoords = x y\n")

    def test_entry_index_out_of_range(self):
        with pytest.raises(ChartSyntaxError, match="out of range"):
            parse_chart(MINIMAL_FLAT + "g[3][1] = 1\n")

    def test_conflicting_symmetric_entries(self):
        text = MINIMAL_FLAT + "g[1][2] = x\ng[2][1] = y\n"
        with pytest.raises(ChartSyntaxError, match="conflicting"):
            parse_chart(text)

    def test_identical_symmetric_entries_are_fine(self):
        text = MINIMAL_FLAT + "g[1][2] = 0.1*x\ng[2][1] = 0.1*x\n"
        spec = parse_chart(text)
        assert spec.metric_exprs[0][1] == spec.metric_exprs[1][0]

    def test_duplicate_cell_conflict(self):
        with pytest.raises(ChartSyntaxError, match="conflicting"):
            parse_chart(MINIMAL_FLAT + "J[2][1] = 2\n")

    def test_expression_error_carries_position(self):
        with pytest.raises(ChartSyntaxError, match="line"):
            parse_chart("dim = 1\ncoords = x y\ng[1][1] = 1 + * 2\n")

    def test_point_arity(self):
        with pytest.raises(ChartSyntaxError, match="point"):
            parse_chart(MINIMAL_FLAT + "point = 1 2 3\n")

    def test_domain_of_unknown_coordinate(self):
        with pytest.raises(ChartSyntaxError, match="undeclared"):
            parse_chart(MINIMAL_FLAT + "domain z = 0 1\n")

    def test_bad_domain_order(self):
        with pytest.raises(ChartSyntaxError, match="lo <= hi"):
            parse_chart(MINIMAL_FLAT + "domain x = 1 0\n")

    @pytest.mark.parametrize("bounds", ["nan nan", "nan 1"])
    def test_nan_domain_bound(self, bounds):
        # else every point would fail later, as outside the domain [nan, nan]
        with pytest.raises(ChartSyntaxError, match=r"lo <= hi \(line 9\)"):
            parse_chart(MINIMAL_FLAT + f"domain x = {bounds}\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# leading comment\n\n" + MINIMAL_FLAT.replace(
            "g[1][1] = 1", "g[1][1] = 1  # inline comment")
        assert parse_chart(text) == parse_chart(MINIMAL_FLAT)

    def test_unrecognized_directive(self):
        with pytest.raises(ChartSyntaxError, match="unrecognized"):
            parse_chart("metric = 1\n" + MINIMAL_FLAT)

    @pytest.mark.parametrize("old, new, message", [
        ("dim = 1", "dim = \u0661", "dim must be an integer (line 2)"),
        ("point = 0 0", "domain x = -1_0 1_0", "bad number '-1_0' in domain of x (line 8)"),
        ("point = 0 0", "point = \u0660 \u0661", "bad number '\u0660' in point (line 8)"),
    ], ids=["arabic_indic_dim", "underscore_domain", "arabic_indic_point"])
    def test_numbers_are_ascii(self, old, new, message):
        # int() and float() would read these as 1, [-10, 10] and (0, 1)
        with pytest.raises(ChartSyntaxError, match=re.escape(message)):
            parse_chart(MINIMAL_FLAT.replace(old, new))

    def test_dimension_is_bounded(self):
        assert parse_chart(flat_chart_text(6)).m == 6
        with pytest.raises(ChartSyntaxError, match=re.escape("dim must be <= 6 (line 2)")):
            parse_chart(flat_chart_text(7))

    def test_coordinate_name_collision_with_function(self):
        with pytest.raises(ChartSyntaxError, match="collides"):
            parse_chart("dim = 1\ncoords = sin y\n")


class TestEvaluation:
    def test_flat_chart_at_origin(self):
        spec = parse_chart(MINIMAL_FLAT)
        pt = spec.eval_point((0.0, 0.0))
        np.testing.assert_array_equal(pt.g, np.eye(2))
        np.testing.assert_array_equal(pt.J, [[0.0, -1.0], [1.0, 0.0]])

    def test_fubini_study_identity_at_origin(self):
        spec = get_model("cp2").chart
        pt = spec.eval_point((0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(pt.g, np.eye(4), atol=1e-15)

    def test_invalid_j_entry_reports_invariant(self):
        text = MINIMAL_FLAT.replace("J[2][1] = 1", "J[2][1] = 2")
        spec = parse_chart(text)
        with pytest.raises(ChartEvalError, match="-Id"):
            spec.eval_point((0.0, 0.0))

    def test_out_of_domain_point(self):
        spec = parse_chart(MINIMAL_FLAT + "domain x = -1 1\n")
        with pytest.raises(DomainError, match="outside domain"):
            spec.eval_point((2.0, 0.0))

    def test_out_of_domain_message_shows_plain_floats(self):
        spec = parse_chart(MINIMAL_FLAT + "domain x = -1 1\n")
        with pytest.raises(DomainError, match=re.escape("coordinate x = nan is not finite")):
            spec.eval_point(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("lookup", ["metric_at", "j_at", "eval_point"])
    @pytest.mark.parametrize("point, shown", [
        ((2.5, 0.0), "x = 2.5 outside domain [-1.0, 1.0]"),
        ((0.0, np.nan), "y = nan is not finite"),
        ((0.0, np.inf), "y = inf is not finite"),
        ((-np.inf, 0.0), "x = -inf is not finite"),
    ])
    def test_table_lookup_checks_the_domain(self, lookup, point, shown):
        spec = parse_chart(MINIMAL_FLAT + "domain x = -1 1\n")
        with pytest.raises(DomainError, match=re.escape(shown)):
            getattr(spec, lookup)(np.array(point))

    def test_wrong_rank_point_is_refused(self):
        # the same bytes as a checked point, but not a point
        spec = parse_chart(MINIMAL_FLAT)
        spec.metric_at(np.zeros(2))
        with pytest.raises(ChartEvalError, match="coordinates"):
            spec.metric_at(np.zeros((1, 2)))

    def test_wrong_point_arity(self):
        spec = parse_chart(MINIMAL_FLAT)
        with pytest.raises(ChartEvalError, match="coordinates"):
            spec.eval_point((0.0, 0.0, 0.0))

    def test_non_finite_value_is_an_error(self):
        text = "dim = 1\ncoords = x y\ng[1][1] = 1/x\ng[2][2] = 1\nJ[2][1] = 1\nJ[1][2] = -1\n"
        spec = parse_chart(text)
        with pytest.raises(ChartEvalError, match=re.escape("'1.0/x'")):
            spec.eval_point((0.0, 0.0))

    @pytest.mark.parametrize("src, x, entry", [
        ("log(x)", -1.0, "cannot evaluate 'log(x)'"),
        ("(x-1)^0.5", 0.0, "cannot evaluate '(x-1.0)^0.5'"),  # complex
        ("x*1e308*10", 1.0, "expression 'x*1e+308*10.0' is not finite"),
    ])
    def test_failing_entry_is_named(self, src, x, entry):
        spec = parse_chart(MINIMAL_FLAT + f"g[1][2] = {src}\n")
        with pytest.raises(ChartEvalError) as err:
            spec.eval_point((x, 0.0))
        assert entry in str(err.value)
        assert f"{{'x': {x!r}, 'y': 0.0}}" in str(err.value)


def _hexes(table):
    return [[v.hex() for v in row] for row in table]


def _entry_by_entry(exprs, env):
    """Each entry's value from a one-expression program, as .hex() text."""
    return [[evaluate(compile_expressions([e]), env)[0].hex() for e in row] for row in exprs]


def _cache_sizes():
    """Size of every module-level cache or container in expressions and charts."""
    return {(module.__name__, name): (value.cache_info().currsize
                                      if hasattr(value, "cache_info") else len(value))
            for module in (expressions, charts)
            for name, value in vars(module).items()
            if not name.startswith("__")
            and (hasattr(value, "cache_info") or isinstance(value, (dict, list, set)))}


_SPECS = {name: get_model(name).chart for name in model_names()}


class TestCompiledTable:
    @pytest.mark.parametrize("name", sorted(_SPECS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_each_entry_bit_for_bit(self, name, data):
        spec = _SPECS[name]
        drawn = tuple(data.draw(st.floats(max(lo, -3.0), min(hi, 3.0)), label=coord)
                      for coord, (lo, hi) in zip(spec.coord_names, spec.domain))
        for p in (*spec.default_points, drawn):
            env = dict(zip(spec.coord_names, p))
            assert _hexes(spec.metric_at(np.array(p)).tolist()) == _entry_by_entry(
                spec.metric_exprs, env)
            assert _hexes(spec.j_at(np.array(p)).tolist()) == _entry_by_entry(spec.j_exprs, env)

    def test_signed_zero_points_have_their_own_tables(self):
        spec = get_model("cp2").chart
        zero, signed = (0.0, 0.0, 0.0, 0.0), (0.0, -0.0, 0.0, 0.0)
        tables = []
        for p in (zero, signed):
            tables.append(_hexes(spec.metric_at(np.array(p)).tolist()))
            assert tables[-1] == _entry_by_entry(spec.metric_exprs, dict(zip(spec.coord_names, p)))
        # 0.0 == -0.0, yet some of cp2's g entries take the sign of zero from the point
        assert tables[0] != tables[1]

    def test_each_lookup_evaluates_only_its_own_entries(self, monkeypatch):
        sizes = []

        def counted(compiled, env, directions=None):
            sizes.append(len(compiled.exprs))
            return evaluate(compiled, env, directions)

        monkeypatch.setattr(charts, "evaluate", counted)
        spec = get_model("cp3").chart
        spec.eval_point(spec.default_points[0])
        assert sizes == [21, 36]  # g's upper triangle, then J

    def test_lives_and_dies_with_its_chart(self):
        before = _cache_sizes()
        p = np.array([0.1, -0.2, 0.3, 0.05])
        for k in range(200):
            chart = parse_chart(complex_space_form_chart_text(2, 1.0 + k / 100))
            chart.metric_at(p)
            if k == 0:
                dropped = [weakref.ref(chart), weakref.ref(chart._metric_program.function)]
        del chart
        gc.collect()
        assert [ref() for ref in dropped] == [None, None]
        assert _cache_sizes() == before


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(model_names()))
    def test_printer_round_trips_every_entry(self, name):
        spec = get_model(name).chart
        for e in (*sum(spec.metric_exprs, ()), *sum(spec.j_exprs, ())):
            assert parse_expression(to_source(e)) == e


# What an edit may insert: operators, brackets, the separators of the
# grammar, hostile numbers (non-finite, non-ASCII, underscored) and the
# directive names.
_TOKENS = ("+", "-", "*", "/", "^", "(", ")", "[", "]", "=", "#", " ", "\n", ".", "e",
           "nan", "inf", "1e999", "-0", "١", "1_0", "0", "x1", "sqrt(", "dim", "coords",
           "domain", "point", "g[1][1]", "J[2][1]")
_BUNDLED_TEXT = {name: (files("ahgeom") / "bundled" / f"{name}.ahm").read_text(encoding="utf-8")
                 for name in model_names()}


@st.composite
def _edited_chart(draw):
    text = draw(st.sampled_from(sorted(_BUNDLED_TEXT)).map(_BUNDLED_TEXT.get))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
        elif kind == "delete":
            at = draw(st.integers(0, len(text)))
            end = draw(st.integers(at, min(len(text), at + 40)))
            text = text[:at] + text[end:]
        else:
            lines = text.splitlines(keepends=True)
            k = draw(st.integers(0, len(lines) - 1))
            text = "".join(lines[:k + 1] + lines[k:])
    return text


class TestChartFileTotality:
    @given(text=_edited_chart())
    @settings(max_examples=400, deadline=None)
    def test_only_chart_errors_leave_parse_chart(self, text):
        try:
            parse_chart(text)
        except ChartError:
            pass
