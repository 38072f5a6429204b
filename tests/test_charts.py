"""Chart file parsing, validation diagnostics, evaluation, serialization."""

from pathlib import Path

import numpy as np
import pytest

from ahgeom.calculus import nabla_R
from ahgeom.charts import (
    TABLE_CACHE_SIZE,
    ChartEvalError,
    ChartSyntaxError,
    DomainError,
    parse_chart,
    serialize_chart,
)
from ahgeom.models import bundled_chart_texts

CHART_DIR = Path(__file__).resolve().parent.parent / "charts"

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

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# leading comment\n\n" + MINIMAL_FLAT.replace(
            "g[1][1] = 1", "g[1][1] = 1  # inline comment")
        assert parse_chart(text) == parse_chart(MINIMAL_FLAT)

    def test_unrecognized_directive(self):
        with pytest.raises(ChartSyntaxError, match="unrecognized"):
            parse_chart("metric = 1\n" + MINIMAL_FLAT)

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
        spec = parse_chart(bundled_chart_texts()["cp2"])
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

    def test_wrong_point_arity(self):
        spec = parse_chart(MINIMAL_FLAT)
        with pytest.raises(ChartEvalError, match="coordinates"):
            spec.eval_point((0.0, 0.0, 0.0))

    def test_non_finite_value_is_an_error(self):
        text = "dim = 1\ncoords = x y\ng[1][1] = 1/x\ng[2][2] = 1\nJ[2][1] = 1\nJ[1][2] = -1\n"
        spec = parse_chart(text)
        with pytest.raises(ChartEvalError):
            spec.eval_point((0.0, 0.0))

    def test_table_cache_stays_bounded(self):
        chart = parse_chart(bundled_chart_texts()["cp3"])
        rng = np.random.default_rng(5)
        sizes = []
        for p in rng.uniform(-1.5, 1.5, size=(16, 6)):
            nabla_R(chart, p)  # the widest stencil: most of a point's table lookups
            sizes.append(len(chart._cache))
        assert 16 * sizes[0] > TABLE_CACHE_SIZE  # an unbounded cache would outgrow it
        assert max(sizes) <= TABLE_CACHE_SIZE


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(bundled_chart_texts()))
    def test_round_trip_over_bundled_models(self, name):
        spec = parse_chart(bundled_chart_texts()[name])
        assert parse_chart(serialize_chart(spec)) == spec

    @pytest.mark.parametrize("path", sorted(CHART_DIR.glob("*.ahm")), ids=lambda p: p.stem)
    def test_round_trip_over_repo_files(self, path):
        spec = parse_chart(path.read_text())
        assert parse_chart(serialize_chart(spec)) == spec

    def test_repo_files_match_generators(self):
        texts = bundled_chart_texts()
        on_disk = {p.stem: p.read_text() for p in CHART_DIR.glob("*.ahm")}
        assert on_disk == texts
