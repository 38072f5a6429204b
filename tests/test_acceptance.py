"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts at its stated tolerance.
"""

import json
import time

import numpy as np
import pytest

from ahgeom.analysis import (
    COMPLEX_SPACE_FORM,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
    constancy,
    sample_antiholomorphic_planes,
)
from ahgeom.cli import main as cli_main
from ahgeom.models import get_model, model_names
from ahgeom.report import analyze_model
from ahgeom.selftest import random_hermitian_point, random_j_invariant_bilinear
from ahgeom.tensor_core import (
    build_from_decomposition,
    pi2,
    psi,
    standard_j,
)

_REPORTS = {}


def report_for(name):
    if name not in _REPORTS:
        start = time.perf_counter()
        report = analyze_model(get_model(name))
        _REPORTS[name] = (report, time.perf_counter() - start)
    return _REPORTS[name]


def check(num, description, ok):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_algebraic_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    exact = True
    for m in (1, 2, 3):
        for J in (standard_j(m), random_hermitian_point(m, rng)):
            gap = float(np.max(np.abs(psi(np.eye(2 * m), J) - 2.0 * pi2(J))))
            worst = max(worst, gap)
        flat = standard_j(m)
        for _ in range(5):
            V = psi(random_j_invariant_bilinear(flat, rng), flat)
            exact = exact and np.array_equal(V, -V.swapaxes(0, 1))
            exact = exact and np.array_equal(V, -V.swapaxes(2, 3))
    elapsed = time.perf_counter() - start
    check(1, f"psi(g) = 2 pi2 to {worst:.2e} (< 1e-12) and exact antisymmetries "
             f"in {elapsed:.2f}s (< 10 s)",
          worst < 1e-12 and exact and elapsed < 10.0)


def test_criterion_2_decomposition_forward_constancy():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(200):
        m = 2 + k % 2
        J = standard_j(m) if k % 4 == 0 else random_hermitian_point(m, rng)
        S = random_j_invariant_bilinear(J, rng)
        nu = float(rng.uniform(-2.0, 2.0))
        R = build_from_decomposition(S, nu, J, tol=1e-8)
        stats = constancy(R, sample_antiholomorphic_planes(J, 256, rng))
        worst = max(worst, abs(stats.mean - nu) + stats.max_deviation)
    check(2, f"200 random (S, nu): max |K(plane) - nu| = {worst:.2e} (< 1e-10)",
          worst < 1e-10)


def test_criterion_3_class_lattice_on_fixtures():
    tol = 1e-4
    flat, _ = report_for("flat2")
    cp2, _ = report_for("cp2")
    s6, _ = report_for("s6")
    ok = all(all(pr.flags.values()) for pr in flat.points)
    ok = ok and all(all(pr.flags.values()) for pr in cp2.points)
    for pr in s6.points:
        ok = ok and pr.flags["NK"] and pr.flags["AH2"] and pr.flags["AH3"]
        ok = ok and not (pr.flags["K"] or pr.flags["AK"] or pr.flags["AH1"])
        ok = ok and pr.class_residuals.kahler > 10 * tol
        ok = ok and pr.class_residuals.almost_kahler > 10 * tol
        ok = ok and pr.ah_residuals["AH1"] > 10 * tol
    check(3, "flat and cp2 pass all six class flags; s6 passes NK/AH2/AH3 and "
             "fails K/AK/AH1 with residuals > 10x tol", ok)


def test_criterion_4_einstein_constants():
    s6, _ = report_for("s6")
    cp2, _ = report_for("cp2")
    ok = all(abs(pr.einstein["lambda"] - 5.0) <= 1e-3 and pr.einstein["residual"] <= 1e-3
             for pr in s6.points)
    ok = ok and all(abs(pr.einstein["lambda"] - 6.0) <= 1e-3
                    and pr.einstein["residual"] <= 1e-3 for pr in cp2.points)
    check(4, "s6 is Einstein with constant 5 +- 1e-3, cp2 with constant 6 +- 1e-3", ok)


def test_criterion_5_theorem_verdicts():
    expectations = {
        "s6": (REAL_SPACE_FORM, 1.0),
        "cp2": (COMPLEX_SPACE_FORM, 4.0),
        "ch1": (COMPLEX_SPACE_FORM, -4.0),
        "s2xs2": (NOT_CONSTANT_ANTIHOLOMORPHIC, None),
    }
    ok = True
    details = []
    for name, (kind, constant) in expectations.items():
        report, elapsed = report_for(name)
        verdict = report.overall
        good = verdict.kind == kind and elapsed < 30.0
        if constant is not None:
            good = good and verdict.constant == pytest.approx(constant, abs=1e-3)
        if name == "s2xs2":
            good = good and all(pr.antiholomorphic.max_deviation > 0.1
                                for pr in report.points)
        ok = ok and good
        details.append(f"{name}->{verdict.kind} [{elapsed:.1f}s]")
    check(5, "verdicts " + ", ".join(details) + " (each < 30 s)", ok)


def test_criterion_6_decomposition_residuals():
    ok = True
    worst = 0.0
    for name in ("s6", "cp2"):
        report, _ = report_for(name)
        for pr in report.points:
            worst = max(worst, pr.decomposition_residual)
            ok = ok and pr.decomposition_residual <= 1e-8
    check(6, f"curvature decomposition residual on s6 and cp2: max {worst:.2e} (<= 1e-8)", ok)


def test_criterion_7_bianchi_and_symmetries_everywhere():
    worst_b = worst_s = 0.0
    for name in model_names():
        report, _ = report_for(name)
        for pr in report.points:
            worst_b = max(worst_b, pr.bianchi_residual)
            worst_s = max(worst_s, pr.riemann_symmetry_residual)
    check(7, f"all bundled charts, all default points: bianchi {worst_b:.2e} (<= 1e-8), "
             f"curvature symmetries {worst_s:.2e} (< 1e-5)",
          worst_b <= 1e-8 and worst_s < 1e-5)


def test_criterion_8_multipoint_spread():
    ok = True
    spreads = []
    for name in ("s6", "cp3"):
        report, _ = report_for(name)
        ok = ok and len(report.points) >= 3
        ok = ok and report.schur is not None and report.schur.spread < 1e-3
        spreads.append(f"{name}: {report.schur.spread:.2e}")
    check(8, "constancy across >= 3 points, spread < 1e-3 (" + ", ".join(spreads) + ")", ok)


def test_criterion_9_byte_identical_reports(capsys):
    args = ["analyze", "--model", "s6", "--seed", "7", "--format", "json"]
    assert cli_main(list(args)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(args)) == 0
    second = capsys.readouterr().out
    json.loads(first)  # well-formed
    check(9, "two runs with the same seed produce byte-identical JSON",
          first.encode() == second.encode())
