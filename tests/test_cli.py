"""Command line behaviour: exit codes, report formats, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ahgeom
from ahgeom.cli import main
from ahgeom.expressions import MAX_DEPTH
from ahgeom.report import MAX_SAMPLES
from generated_charts import HOSTILE, chain, chart_with_entry
from model_oracles import CHARTS, complex_space_form_chart_text, flat_chart_text


def warp2_text(c: float, scale: float = 1.0) -> str:
    """warp2.ahm's chart with g multiplied by `scale`, in the coordinates
    u = c*x at its points times c: g_u = scale * g_x(u/c) / c^2, and J stays."""
    k = f"{scale!r}/{c!r}^2"
    return "\n".join([
        "dim = 2", "coords = x1 y1 x2 y2", f"g[1][1] = {k}", f"g[2][2] = {k}",
        f"g[3][3] = {k}*exp(x1/{c!r})", f"g[4][4] = {k}*exp(x1/{c!r})",
        "J[2][1] = 1", "J[1][2] = -1", "J[4][3] = 1", "J[3][4] = -1", "point = 0 0 0 0",
        "point = " + " ".join(repr(v * c) for v in (0.3, -0.2, 0.1, 0.4)), "",
    ])


def conformal_line_text(factor: str) -> str:
    """g = factor * (1 + x^2) delta on R^2, at the point (0.3, 0.2)."""
    return (f"dim = 1\ncoords = x y\ng[1][1] = {factor}*(1+x^2)\ng[2][2] = {factor}*(1+x^2)\n"
            "J[2][1] = 1\nJ[1][2] = -1\npoint = 0.3 0.2\n")


# Charts whose values overflow in the analysis, each at its one point: a
# fixture file, or the text of a chart that the test writes out
OVERFLOWING = {
    # nabla R's frame components grow as the metric's scale to the power -3/2
    "tiny": conformal_line_text("1e-300"),
    "steep": CHARTS / "steep.ahm",
    "collapsing": CHARTS / "collapsing.ahm",
}

# The overflowing charts with the overflow at the middle point of a group of
# three; "fading" is "tiny" whose scale falls from 1 at y = 0 to 1e-300 at y = 1.
OVERFLOWING_IN_A_GROUP = {
    "fading": (conformal_line_text("exp(-690*y)"), ("0.3,0", "0.3,1", "0.3,-0.1"),
               "nabla R is not finite at point [0.3, 1.0]"),
    "steep": (OVERFLOWING["steep"], ("0,0,0,0", "2.3,0,0,0", "0.5,0,0,0"),
              "R is not finite at point [2.3, 0.0, 0.0, 0.0]"),
    "collapsing": (OVERFLOWING["collapsing"], ("0.1,0,0,0", "6.56,0,0,0", "0.5,0,0,0"),
                   "R is not finite at point [6.56, 0.0, 0.0, 0.0]"),
}


# At g -> 1e5 g and 1e8 g, warp2 reports real_space_form at both points
ABSOLUTE_TOL = pytest.mark.xfail(
    strict=True, reason="each flag compares its residual with the absolute tol, which a large "
    "enough metric scale passes; ROADMAP item 12's scale-relative flags mend it")


def chart_file(tmp_path, chart):
    """`chart` if it is a fixture file's path, else a file of its text in tmp_path."""
    if isinstance(chart, Path):
        return chart
    path = tmp_path / "chart.ahm"
    path.write_text(chart)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelsCommand:
    def test_lists_all_models(self, capsys):
        code, out, _ = run(capsys, "models")
        assert code == 0
        assert "s6" in out
        assert "cp2" in out
        rows = [l for l in out.splitlines()[2:] if l.strip()]
        assert len(rows) >= 7


class TestSelftest:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_seed_variation_does_not_change_outcome(self, capsys, seed):
        code, _, _ = run(capsys, "selftest", "--seed", seed)
        assert code == 0

    def test_negative_seed_exits_2(self, capsys):
        # a usage error, as in analyze, not a failed selftest (exit 1)
        code, out, err = run(capsys, "selftest", "--seed", "-1")
        assert (code, out, err) == (2, "", "selftest error: seed must be >= 0, got -1\n")


class TestAnalyze:
    def test_s6_passes_with_real_space_form_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "s6", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "real_space_form"
        assert report["global"]["verdict"]["constant"] == pytest.approx(1.0, abs=1e-3)
        assert report["global"]["passed"] is True

    def test_cp2_json_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "--model", "cp2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "complex_space_form"
        assert report["global"]["verdict"]["constant"] == pytest.approx(4.0, abs=1e-3)

    def test_missing_chart_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--chart", "missing.ahm")
        assert code == 2
        assert "cannot read" in err

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "torus")
        assert code == 2
        assert "unknown model" in err

    def test_model_name_is_not_a_path(self, capsys):
        code, out, err = run(capsys, "analyze", "--model", "../bundled/cp2")
        assert (code, out) == (2, "")
        assert err == ("unknown model '../bundled/cp2' "
                       "(known: flat2, s6, cp1, cp2, cp3, ch1, ch2, s2xs2)\n")

    def test_model_and_chart_both_missing(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "exactly one" in err

    def test_invalid_chart_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ahm"
        bad.write_text("dim = 1\ncoords = x y\ng[1][1] = 1 + x9\n")
        code, _, err = run(capsys, "analyze", "--chart", str(bad))
        assert code == 2
        assert "x9" in err

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_expression_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / "hostile.ahm"
        path.write_text(chart_with_entry(HOSTILE[name]))
        code, out, err = run(capsys, "analyze", "--chart", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error:") and "line 3, col" in err

    def test_entry_of_99_nested_calls_reports(self, tmp_path, capsys):
        deep = chain("cos(", ")", MAX_DEPTH - 1)  # as deep as an entry may nest
        path = tmp_path / "deep.ahm"
        path.write_text(chart_with_entry(deep).replace("g[2][2] = 1", f"g[2][2] = {deep}")
                        + "point = 0.3 0.2\n")
        code, out, err = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["points"]) == 1

    @pytest.mark.parametrize("text, message", [
        # Python folds 'xﬁ' into 'xfi', so both would be one parameter of the program
        (chart_with_entry("1 + xﬁ^2 + xfi^2").replace("x y", "xﬁ xfi"),
         "bad coordinate name 'xﬁ' (line 2)"),
        # int() reads Arabic-Indic digits, so this would be g[1][1] = 1
        (chart_with_entry("١").replace("g[1][1]", "g[١][١]"),
         "unrecognized directive 'g[١][١]' (line 3)"),
    ], ids=["ligature", "arabic_indic_digits"])
    def test_non_ascii_identifier_or_index_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "non_ascii.ahm"
        path.write_text(text + "point = 0.3 0.2\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--chart", str(path))
        assert (code, out) == (2, "")
        assert err == f"analysis error: {message}\n"

    def test_chart_file_is_read_as_utf8_whatever_the_locale(self, tmp_path, capsys):
        # under the C locale, with its coercion and UTF-8 mode off, Python's
        # default text encoding is ASCII
        path = tmp_path / "flat.ahm"
        path.write_text("# été\n" + flat_chart_text(2), encoding="utf-8")
        argv = ["analyze", "--chart", str(path), "--format", "json"]
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(ahgeom.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "ahgeom.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run(capsys, *argv)[1]

    def test_a_byte_order_mark_is_not_part_of_the_chart(self, tmp_path, capsys):
        # an editor may save UTF-8 with a BOM: the report is that of the file without it
        path = tmp_path / "flat.ahm"
        runs = []
        for bom in ("\ufeff", ""):
            path.write_text(bom + flat_chart_text(2), encoding="utf-8")
            runs.append(run(capsys, "analyze", "--chart", str(path), "--format", "json"))
        assert runs[0][::2] == (0, "")
        assert runs[0] == runs[1]

    def test_complex_valued_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "complex.ahm"
        path.write_text(chart_with_entry("2 + (x - 1)^0.5") + "point = 0 0\n")
        code, _, err = run(capsys, "analyze", "--chart", str(path))
        assert code == 2
        assert err.startswith("analysis error:")

    def test_chart_mode_reports_without_expectations(self, tmp_path, capsys):
        path = tmp_path / "cp1.ahm"
        path.write_text(complex_space_form_chart_text(1, 4.0))
        code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert "expected_checks" not in report["global"]
        assert report["global"]["verdict"]["kind"] == "complex_space_form"

    @pytest.mark.parametrize("tol, kind, constant", [
        ("1e-4", "inconclusive", None),
        ("1", "complex_space_form", pytest.approx(-0.5 * (1 + math.exp(-1)), rel=1e-12)),
    ])
    def test_points_of_different_constants_are_no_space_form(self, capsys, tol, kind, constant):
        code, out, _ = run(capsys, "analyze", "--chart", str(CHARTS / "varying_surface.ahm"),
                           "--tol", tol, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert [pr["verdict"]["kind"] for pr in report["points"]] == ["complex_space_form"] * 2
        # the points' nu, a quarter of the surface's curvature at each
        assert report["global"]["schur"]["spread"] == pytest.approx((1 - math.exp(-1)) / 4,
                                                                    rel=1e-12)
        assert report["global"]["verdict"] == {"kind": kind, "constant": constant}

    def test_explicit_points_and_out_of_domain_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "ch1", "--point", "0.9,0.9")
        assert code == 2
        assert "domain" in err.lower()

    @pytest.mark.parametrize("option", ["--tol=nan", "--tol=inf", "--tol=-1e-4", "--tol=0",
                                        "--samples=0", f"--samples={MAX_SAMPLES + 1}",
                                        "--seed=-1"])
    def test_bad_numeric_option_exits_2(self, capsys, option):
        code, out, err = run(capsys, "analyze", "--model", "flat2", option)
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error:") and "must be" in err

    @pytest.mark.parametrize("point, prefix", [
        ("0,0", "point must have 4 coordinates"),
        ("0,0,0,0,0,0", "point must have 4 coordinates"),
        ("nan,0,0,0", "coordinate x1 = nan is not finite"),
        ("0,inf,0,0", "coordinate y1 = inf is not finite"),
        ("0,2.0001,0,0", "coordinate y1 = 2.0001 outside domain [-2.0, 2.0]"),
        # the chart grammar's numbers, as on a chart file's point line
        ("0_0,1_0e-1,0,0", "bad --point value '0_0,1_0e-1,0,0': expected v1,v2,..."),
        ("\u0661,0,0,0", "bad --point value '\u0661,0,0,0': expected v1,v2,..."),
    ], ids=["short", "long", "nan", "inf", "outside", "underscores", "non_ascii_digit"])
    def test_bad_point_exits_2(self, capsys, point, prefix):
        code, out, err = run(capsys, "analyze", "--model", "cp2", "--point", point)
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error: " + prefix)
        assert "np.float64" not in err

    def test_finite_difference_step_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--model", "flat2", "--fd-step=1e-4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fd-step=1e-4" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["cp2", "s6", "ch2"])
    def test_tol_below_the_numerical_floor_still_reports(self, capsys, model):
        # the jet's residuals sit near 1e-15, so 1e-16 fails the checks
        code, out, _ = run(capsys, "analyze", "--model", model, "--tol", "1e-16",
                           "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["global"]["passed"] is False
        assert "fd_step" not in report["meta"]
        assert all(pr["decomposition_residual"] is not None for pr in report["points"])

    def test_missing_residual_is_null_in_json_and_na_in_text(self, capsys):
        # warp2's Ricci tensor is not J-invariant: the decomposition does not apply
        path = CHARTS / "warp2.ahm"
        code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "not_ah3"
        assert [pr["decomposition_residual"] for pr in report["points"]] == [None, None]
        code, text, _ = run(capsys, "analyze", "--chart", str(path))
        assert code == 0
        assert re.findall(r"^ +decomposition_residual: (.*)$", text, re.M) == ["n/a", "n/a"]

    @pytest.mark.parametrize("c", [1.0, 10.0, 100.0, 1000.0])
    def test_warp2_is_not_ah3_in_every_coordinate_scale(self, tmp_path, capsys, c):
        # the checks run in an orthonormal frame, which u = c*x does not change
        path = tmp_path / "warp2.ahm"
        path.write_text(warp2_text(c))
        code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "not_ah3"
        for pr in report["points"]:
            assert not any(pr["flags"].values())
            assert pr["ah_residuals"]["AH3"] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, pytest.param(1e5, marks=ABSOLUTE_TOL),
                                       pytest.param(1e8, marks=ABSOLUTE_TOL)])
    def test_warp2_is_not_ah3_at_every_metric_scale(self, tmp_path, capsys, scale):
        # g -> scale * g keeps every curvature class and divides R's frame components by scale
        path = tmp_path / "warp2.ahm"
        path.write_text(warp2_text(1.0, scale))
        code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "not_ah3"
        for pr in report["points"]:
            assert not pr["flags"]["AH3"]
            assert pr["ah_residuals"]["AH3"] == pytest.approx(0.25 / scale, rel=1e-12)

    def test_a_tiny_metric_reports(self, tmp_path, capsys):
        # g -> 1e-200 g multiplies every sectional curvature by 1e200; no plane is degenerate
        means = []
        for factor in ("1", "1e-200"):
            path = tmp_path / "line.ahm"
            path.write_text(conformal_line_text(factor))
            code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
            assert code == 0
            means.append(json.loads(out)["points"][0]["holomorphic"]["mean"])
        assert means[1] == pytest.approx(1e200 * means[0], rel=1e-12)

    def test_point_may_start_with_a_minus_sign(self, capsys):
        points = ["-0.1,0.2,0.3,0.4", "-.5,-0.0,0,-1e-3"]
        glued = run(capsys, "analyze", "--model", "cp2", *(f"--point={p}" for p in points),
                    "--format", "json")
        spaced = run(capsys, "analyze", "--model", "cp2", "--point", points[0],
                     "--point", points[1], "--format", "json")
        assert spaced == glued
        code, out, _ = spaced
        assert code == 0
        assert json.dumps(json.loads(out)["meta"]["points"]) == \
            "[[-0.1, 0.2, 0.3, 0.4], [-0.5, -0.0, 0.0, -0.001]]"

    def test_negative_non_finite_point_is_named(self, capsys):
        code, out, err = run(capsys, "analyze", "--model", "cp2", "--point", "-inf,0,0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error: coordinate x1 = -inf is not finite")

    @pytest.mark.parametrize("name, shown", [
        ("tiny", "nabla R is not finite at point [0.3, 0.2]"),
        ("steep", "R is not finite at point [2.3, 0.0, 0.0, 0.0]"),
        ("collapsing", "R is not finite at point [6.56, 0.0, 0.0, 0.0]"),
    ])
    def test_overflow_is_an_error(self, tmp_path, capsys, name, shown):
        path = chart_file(tmp_path, OVERFLOWING[name])
        code, out, err = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err == f"analysis error: {shown}\n"

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_IN_A_GROUP))
    def test_overflow_in_a_group_is_its_points_error(self, tmp_path, capsys, name):
        # the point's own error, as alone, and no report of the points before it
        chart, (before, bad, after), shown = OVERFLOWING_IN_A_GROUP[name]
        path = chart_file(tmp_path, chart)
        for points in ([bad], [before, bad, after]):
            flags = [f"--point={p}" for p in points]
            code, out, err = run(capsys, "analyze", "--chart", str(path), *flags)
            assert (code, out, err) == (2, "", f"analysis error: {shown}\n")
        code, _, _ = run(capsys, "analyze", "--chart", str(path), f"--point={before}")
        assert code == 0

    @pytest.mark.parametrize("factor", ["1e-200", "1", "1e200"])
    def test_incompatible_structure_is_refused_at_its_point_at_any_scale(
            self, tmp_path, capsys, factor):
        # J = [[0, -1/2], [2, 0]] squares to -Id but is not orthogonal for g = c (1+x^2) Id
        path = tmp_path / "squeezed.ahm"
        path.write_text(conformal_line_text(factor).replace(
            "J[2][1] = 1\nJ[1][2] = -1", "J[2][1] = 2\nJ[1][2] = -0.5"))
        code, out, err = run(capsys, "analyze", "--chart", str(path))
        assert (code, out) == (2, "")
        assert err == ("analysis error: invariant violation at point [0.3, 0.2]: J not "
                       "compatible with metric: max |J^T g J - g| = 3.000e+00 in g's "
                       "orthonormal frame\n")

    def test_dimension_above_the_bound_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat7.ahm"
        path.write_text(flat_chart_text(7))
        code, out, err = run(capsys, "analyze", "--chart", str(path))
        assert code == 2
        assert out == ""
        assert err == "analysis error: dim must be <= 6 (line 2)\n"

    def test_bad_point_syntax(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "s6", "--point", "a,b")
        assert code == 2
        assert "--point" in err


class TestDeterminismAndFormats:
    @pytest.mark.parametrize("path", sorted(CHARTS.glob("*.ahm")), ids=lambda path: path.stem)
    def test_each_fixture_chart_reports_as_ci_expects(self, capsys, path):
        # collapsing and steep overflow, an error with no report; the others
        # report in json.dumps(indent=2)'s layout, the same bytes each run
        argv = ["analyze", "--chart", str(path), "--format", "json"]
        code, out, err = run(capsys, *argv)
        if path.stem in ("collapsing", "steep"):
            assert (code, out) == (2, "")
            return
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert run(capsys, *argv) == (code, out, err)

    def test_text_and_json_agree_to_12_digits(self, capsys):
        # every float of the JSON report shows in the text, to 12 digits and in order
        for model in ("cp2", "s6", "cp1"):
            _, text, _ = run(capsys, "analyze", "--model", model)
            _, raw, _ = run(capsys, "analyze", "--model", model, "--format", "json")
            report = json.loads(raw)
            tokens = iter(re.split(r"[\s=(),]+", text))
            for value in float_leaves(report):
                shown = f"{value:.12g}"
                assert any(tok == shown for tok in tokens), (model, shown)
            missing = [pr["antiholomorphic"] is None for pr in report["points"]]
            assert len(re.findall(r"^ +antiholomorphic: n/a$", text, re.M)) == sum(missing)
        assert all(missing)  # cp1, where m = 1


def float_leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from float_leaves(item)
    elif isinstance(value, float):
        yield value
