"""Properties of the whole analysis on generated charts (`generated_charts`)."""

import json

import pytest
from hypothesis import given, settings

from ahgeom.analysis import COMPLEX_SPACE_FORM, REAL_SPACE_FORM
from ahgeom.charts import parse_chart
from ahgeom.report import analyze_chart
from generated_charts import hermitian_charts, kahler_potential_charts
from model_oracles import assert_kernels_match_reference, dumped

TOL = 1e-4


def _residuals(report):
    """Both residuals of each point, as their bits."""
    return [repr((pr.decomposition_residual, pr.eigenframe_relation_residual))
            for pr in report.points]


class TestHermitianCharts:
    @given(hermitian_charts())
    @settings(max_examples=25, deadline=None)
    def test_the_analysis_reports_or_names_the_point(self, drawn):
        text, points = drawn
        chart = parse_chart(text)
        try:
            report = analyze_chart(chart, tol=TOL, samples=32, seed=1)
        except ValueError as exc:
            assert any(all(repr(c) in str(exc) for c in p) for p in points), str(exc)
            return
        assert_kernels_match_reference(chart.jet(chart.default_points))
        assert report.to_json() == dumped(report)
        assert json.loads(report.to_json())["global"]["verdict"]["kind"] == report.overall.kind
        assert f"kind={report.overall.kind}" in report.to_text()
        if report.overall.kind in (REAL_SPACE_FORM, COMPLEX_SPACE_FORM):
            constants = [pr.verdict.constant for pr in report.points]
            assert max(constants) - min(constants) <= TOL
        again = analyze_chart(parse_chart(text), tol=TOL, samples=32, seed=2)
        assert _residuals(again) == _residuals(report)


# Residuals that vanish on a Kahler manifold, each as (name, value of a point's record)
_MUST_VANISH = {
    "kahler": lambda pr: pr.class_residuals.kahler,
    "nearly_kahler": lambda pr: pr.class_residuals.nearly_kahler,
    "almost_kahler": lambda pr: pr.class_residuals.almost_kahler,
    **{name: lambda pr, _name=name: pr.ah_residuals[_name] for name in ("AH1", "AH2", "AH3")},
    "symmetry": lambda pr: pr.riemann_symmetry_residual,
    "bianchi": lambda pr: pr.bianchi_residual,
    "gray_ak2": lambda pr: pr.gray_ak2_residual,
}


class TestKahlerPotentials:
    @given(kahler_potential_charts())
    @settings(max_examples=8, deadline=None)
    def test_every_flag_holds_and_every_identity_vanishes(self, drawn):
        text, points = drawn
        chart = parse_chart(text)
        report = analyze_chart(chart, tol=TOL, samples=16)
        assert_kernels_match_reference(chart.jet(chart.default_points))
        assert report.to_json() == dumped(report)
        for pr in report.points:
            assert all(pr.flags.values()), pr.flags
            worst = {name: value(pr) for name, value in _MUST_VANISH.items()}
            assert max(worst.values()) <= 1e-13, worst
