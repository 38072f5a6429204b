"""Command line behaviour: exit codes, report formats, determinism."""

import json
import re

import pytest

from ahgeom.cli import main
from ahgeom.models import complex_space_form_chart_text
from test_expressions import HOSTILE, chart_with_entry


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

    @pytest.mark.parametrize("option", ["--fd-step=inf", "--tol=nan", "--tol=inf",
                                        "--fd-step=-1e-4", "--samples=0"])
    def test_bad_numeric_option_exits_2(self, capsys, option):
        code, out, err = run(capsys, "analyze", "--model", "flat2", option)
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error:") and "must be" in err

    @pytest.mark.parametrize("point", ["0,0", "0,0,0,0,0,0", "nan,0,0,0", "0,inf,0,0"],
                             ids=["short", "long", "nan", "inf"])
    def test_bad_point_exits_2(self, capsys, point):
        code, out, err = run(capsys, "analyze", "--model", "cp2", "--point", point)
        assert code == 2
        assert out == ""
        assert err.startswith("analysis error: point must have 4 coordinates")

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
