"""Command line behaviour: exit codes, report formats, determinism."""

import json
import re

import pytest

from ahgeom.cli import main
from ahgeom.expressions import MAX_DEPTH
from model_oracles import complex_space_form_chart_text, flat_chart_text
from test_expressions import HOSTILE, chain, chart_with_entry


# dx1^2 + dy1^2 + e^x1 (dx2^2 + dy2^2) with the standard J: not AH3
WARP2 = """\
dim = 2
coords = x1 y1 x2 y2
g[1][1] = 1
g[2][2] = 1
g[3][3] = exp(x1)
g[4][4] = exp(x1)
J[2][1] = 1
J[1][2] = -1
J[4][3] = 1
J[3][4] = -1
point = 0 0 0 0
point = 0.3 -0.2 0.1 0.4
"""


# Charts whose values overflow in the analysis, each at its one point
OVERFLOWING = {
    # pi1 = g (x) g overflows
    "huge": "dim = 1\ncoords = x y\ng[1][1] = 1e200*(1+x^2)\ng[2][2] = 1e200*(1+x^2)\n"
            "J[2][1] = 1\nJ[1][2] = -1\npoint = 0.3 0.2\n",
    # Gamma . Gamma overflows in R
    "steep": "dim = 2\ncoords = a b c d\ng[1][1] = exp(300*a)\ng[2][2] = exp(300*a)\n"
             "g[3][3] = 1\ng[4][4] = 1\nJ[2][1] = 1\nJ[1][2] = -1\nJ[4][3] = 1\n"
             "J[3][4] = -1\npoint = 2.3 0 0 0\n",
}


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

    def test_explicit_points_and_out_of_domain_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--model", "ch1", "--point", "0.9,0.9")
        assert code == 2
        assert "domain" in err.lower()

    @pytest.mark.parametrize("option", ["--tol=nan", "--tol=inf", "--tol=-1e-4", "--tol=0",
                                        "--samples=0", "--seed=-1"])
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

    def test_missing_residual_is_null_in_json_and_na_in_text(self, tmp_path, capsys):
        # warp2's Ricci tensor is not J-invariant: the decomposition does not apply
        path = tmp_path / "warp2.ahm"
        path.write_text(WARP2)
        code, out, _ = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["global"]["verdict"]["kind"] == "not_ah3"
        assert [pr["decomposition_residual"] for pr in report["points"]] == [None, None]
        code, text, _ = run(capsys, "analyze", "--chart", str(path))
        assert code == 0
        assert re.findall(r"^ +decomposition_residual: (.*)$", text, re.M) == ["n/a", "n/a"]

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
        ("huge", "decomposition_residual is not finite at point [0.3, 0.2]"),
        ("steep", "R is not finite at point [2.3, 0.0, 0.0, 0.0]"),
    ])
    def test_overflow_is_an_error(self, tmp_path, capsys, name, shown):
        path = tmp_path / f"{name}.ahm"
        path.write_text(OVERFLOWING[name])
        code, out, err = run(capsys, "analyze", "--chart", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert err == f"analysis error: {shown}\n"

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
    def test_byte_identical_json_runs(self, capsys):
        _, out1, _ = run(capsys, "analyze", "--model", "s6", "--seed", "7", "--format", "json")
        _, out2, _ = run(capsys, "analyze", "--model", "s6", "--seed", "7", "--format", "json")
        assert out1.encode() == out2.encode()

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
