"""Full per-point analysis pipeline and deterministic report assembly.

One `jets_at` call gives every point's jet, running the chart program
once per group of points; R, S, nabla J and nabla R come once from each
jet, sharing its connection, and every check is a pure function of them.
The report has three blocks: run metadata (target, kind, tolerance,
samples, seed and points), one block per evaluation point, and a global
block (multi-point constancy over the points' nu, or holomorphic means for
m = 1, plus the overall verdict and, in model mode, the expected-vs-observed
checks).  Identical arguments, including the seed, produce byte-identical
JSON; the text rendering is drawn from the same dict, with floats to 12
significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

from . import calculus
from .analysis import (
    INCONCLUSIVE,
    CurvatureStats,
    SchurReport,
    Verdict,
    adapted_eigenframe,
    classify,
    constancy,
    decomposition_residual,
    bianchi2_residual,
    einstein_residual,
    proof_relation_32_residual,
    sample_antiholomorphic_planes,
    sample_holomorphic_planes,
    schur_check,
)
from .calculus import ClassResiduals, Jet
from .charts import ChartSpec
from .models import ModelDescriptor
from .tensor_core import InvariantViolation, ah_identity_residual, riemann_symmetry_residual

__all__ = ["PointReport", "AnalysisReport", "analyze_chart", "analyze_model", "EXPECTED_TOL"]

# Comparison width for expected-vs-observed constants (Einstein constant,
# curvature constants, verdict constants, multi-point spread).
EXPECTED_TOL = 1e-3


@dataclass(frozen=True)
class PointReport:
    """One point's results.  Every field, in order, is a key of the point's
    JSON block, so diagnostics that must stay out of the report do not
    belong here."""

    point: tuple[float, ...]
    flags: dict[str, bool]
    class_residuals: ClassResiduals
    ah_residuals: dict[str, float]
    riemann_symmetry_residual: float
    einstein: dict[str, float]  # {"lambda", "residual"} of analysis.einstein_residual
    holomorphic: CurvatureStats
    antiholomorphic: CurvatureStats | None
    nu: float
    decomposition_residual: float | None
    bianchi_residual: float
    eigenframe_relation_residual: float | None
    gray_ak2_residual: float
    verdict: Verdict


def _non_finite(value, key: str = "") -> str | None:
    """The key of the first non-finite float in a record, as "holomorphic.mean",
    or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):  # the record's one tuple, its point, is checked by the chart
        for k, v in value.items():
            if (bad := _non_finite(v, k)) is not None:
                return f"{key}.{bad}" if key else bad
    return None


# Non-finite values are refused below: einsum overflows to inf without
# raising, so a raising errstate would not catch them all.
@np.errstate(all="ignore")
def analyze_point(jet: Jet, p: tuple[float, ...], index: int, *, tol: float,
                  samples: int, seed: int) -> PointReport:
    """Run every check on the jet at the point p, the index-th of its run;
    deterministic for fixed arguments.

    A chart whose values overflow on the way is an InvariantViolation naming
    p: when R, nabla J or nabla R is not finite, or any float of the record.
    """
    R = calculus.riemann(jet)
    pt = R.point
    S = calculus.ricci(R)
    NJ = calculus.nabla_J(jet)
    cls = calculus.class_residuals(NJ, pt.g)
    NR = calculus.nabla_R(jet)
    for name, values in (("R", R.values), ("nabla J", NJ), ("nabla R", NR)):
        if not np.isfinite(values).all():
            raise InvariantViolation(f"{name} is not finite at point {list(p)}")
    # metric compatibility lets nabla S come from contracting nabla R
    NS = np.einsum("pq,kpabq->kab", pt.g_inv, NR)

    ah = {f"AH{k}": ah_identity_residual(R, k) for k in (1, 2, 3)}
    by_flag = {"K": cls.kahler, "NK": cls.nearly_kahler, "AK": cls.almost_kahler, **ah}

    rng = np.random.default_rng([seed, index])
    holo = constancy(R, sample_holomorphic_planes(pt, samples, rng))
    if pt.m >= 2:
        anti = constancy(R, sample_antiholomorphic_planes(pt, samples, rng))
        nu = anti.mean
    else:
        anti = None
        nu = holo.mean / 4.0

    lam, einstein_defect = einstein_residual(S)
    decomposition = decomposition_residual(R, S, nu, tol=tol)
    bianchi = bianchi2_residual(NR)
    try:
        frame = adapted_eigenframe(S, tol)
        relation = proof_relation_32_residual(frame, NS, NJ, nu)
    except InvariantViolation:
        relation = None  # Ricci tensor not J-invariant: the relation does not apply
    gray = calculus.gray_ak2_residual(R, NJ)
    verdict = classify(R, ah["AH3"], (lam, einstein_defect), cls, holo, anti, tol)

    record = PointReport(
        point=p,
        flags={flag: r <= tol for flag, r in by_flag.items()},
        class_residuals=cls,
        ah_residuals=ah,
        riemann_symmetry_residual=riemann_symmetry_residual(R),
        einstein={"lambda": lam, "residual": einstein_defect},
        holomorphic=holo,
        antiholomorphic=anti,
        nu=nu,
        decomposition_residual=decomposition,
        bianchi_residual=bianchi,
        eigenframe_relation_residual=relation,
        gray_ak2_residual=gray,
        verdict=verdict,
    )
    bad = _non_finite(record)
    if bad is not None:
        raise InvariantViolation(f"{bad} is not finite at point {list(p)}")
    return record


def _overall_verdict(points: list[PointReport]) -> Verdict:
    kinds = sorted({pr.verdict.kind for pr in points})
    if len(kinds) != 1:
        return Verdict(INCONCLUSIVE, None, {})
    constants = [pr.verdict.constant for pr in points]
    if any(c is None for c in constants):
        return Verdict(kinds[0], None, {})
    return Verdict(kinds[0], float(np.mean(constants)), {})


def _expected_checks(expected, points: list[PointReport], schur: SchurReport | None,
                     overall: Verdict, tol: float) -> list[dict]:
    """Compare observations against a ModelDescriptor's expected profile."""
    checks: list[dict] = []

    def add(name, expected_desc, observed_desc, ok):
        checks.append({
            "check": name,
            "expected": expected_desc,
            "observed": observed_desc,
            "ok": bool(ok),
        })

    for flag, want in expected.flags().items():
        got = [pr.flags[flag] for pr in points]
        add(f"flag {flag}", want, got, all(v == want for v in got))

    lams = [pr.einstein["lambda"] for pr in points]
    defects = [pr.einstein["residual"] for pr in points]
    if expected.einstein is not None:
        ok = all(abs(l - expected.einstein) <= EXPECTED_TOL for l in lams)
        ok = ok and all(d <= EXPECTED_TOL for d in defects)
        add("einstein constant", expected.einstein, lams, ok)
    else:
        add("not einstein", f"residual > {EXPECTED_TOL}", defects,
            all(d > EXPECTED_TOL for d in defects))

    for kind, want in (("antiholomorphic", expected.antiholomorphic),
                       ("holomorphic", expected.holomorphic)):
        stats = [getattr(pr, kind) for pr in points]
        if None in stats:
            continue  # no antiholomorphic planes at m = 1
        means = [s.mean for s in stats]
        devs = [s.max_deviation for s in stats]
        if want is not None:
            ok = all(abs(v - want) <= EXPECTED_TOL for v in means) and all(d <= tol for d in devs)
            add(f"{kind} constant", want, means, ok)
        else:
            add(f"{kind} not constant", f"max deviation > {tol}", devs,
                all(d > tol for d in devs))

    add("verdict kind", expected.verdict_kind, overall.kind,
        overall.kind == expected.verdict_kind)
    if expected.verdict_constant is not None:
        ok = overall.constant is not None and \
            abs(overall.constant - expected.verdict_constant) <= EXPECTED_TOL
        add("verdict constant", expected.verdict_constant, overall.constant, ok)

    if schur is not None and expected.antiholomorphic is not None:
        add("multi-point spread", f"<= {EXPECTED_TOL}", schur.spread,
            schur.spread <= EXPECTED_TOL)
    return checks


@dataclass(frozen=True)
class AnalysisReport:
    meta: dict
    points: list[PointReport]
    schur: SchurReport | None
    overall: Verdict
    expected_checks: list[dict] | None

    @property
    def passed(self) -> bool:
        if self.expected_checks is None:
            return True
        return all(c["ok"] for c in self.expected_checks)

    def to_dict(self) -> dict:
        points = [asdict(pr) for pr in self.points]
        global_block: dict = {
            "schur": None if self.schur is None else asdict(self.schur),
            "verdict": {"kind": self.overall.kind, "constant": self.overall.constant},
        }
        if self.expected_checks is not None:
            global_block["expected_checks"] = self.expected_checks
            global_block["passed"] = self.passed
        return {"meta": self.meta, "points": points, "global": global_block}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        return "\n".join(_text_lines(self.to_dict(), "")) + "\n"


def _leaf(v) -> bool:
    if isinstance(v, list):
        return not any(isinstance(x, dict) for x in v)
    return not isinstance(v, dict)


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(map(_fmt, v)) + ")"
    return str(v)


def _pairs(d: dict) -> str:
    return "  ".join(f"{k}={_fmt(v)}" for k, v in d.items())


def _text_lines(d: dict, indent: str) -> list[str]:
    """Leaves as `key: value`, a dict of leaves on one line as `key: k=v  k=v`,
    other dicts and lists of dicts as blocks indented under their key."""
    lines = []
    for key, v in d.items():
        if _leaf(v):
            lines.append(f"{indent}{key}: {_fmt(v)}")
        elif isinstance(v, dict) and all(map(_leaf, v.values())):
            lines.append(f"{indent}{key}: {_pairs(v)}")
        elif isinstance(v, dict):
            lines += [f"{indent}{key}:", *_text_lines(v, indent + "  ")]
        else:
            lines.append(f"{indent}{key}:")
            for item in v:
                if all(map(_leaf, item.values())):
                    lines.append(f"{indent}  - {_pairs(item)}")
                else:
                    first, *rest = _text_lines(item, indent + "    ")
                    lines += [f"{indent}  - {first.lstrip()}", *rest]
    return lines


def analyze_chart(chart: ChartSpec, points=None, *, name: str = "chart",
                  tol: float = 1e-4, samples: int = 256, seed: int = 42,
                  expected=None) -> AnalysisReport:
    """Analyze a chart at the given points (default: its bundled points).

    With an `expected` profile the report is a model report: meta.kind is
    "model" and the global block holds the expected-vs-observed checks.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    if points is None:
        points = chart.default_points
    points = [tuple(float(v) for v in p) for p in points]
    if not points:
        raise ValueError("no evaluation points: pass points or add them to the chart")
    meta = {
        "target": name,
        "kind": "chart" if expected is None else "model",
        "tolerance": tol,
        "samples": samples,
        "seed": seed,
        "points": [list(p) for p in points],
    }
    reports = [
        analyze_point(jet, p, i, tol=tol, samples=samples, seed=seed)
        for i, (p, jet) in enumerate(zip(points, chart.jets_at(points)))
    ]
    schur = None
    if len(reports) >= 2:
        schur = schur_check([pr.antiholomorphic or pr.holomorphic for pr in reports])
    overall = _overall_verdict(reports)
    checks = None
    if expected is not None:
        checks = _expected_checks(expected, reports, schur, overall, tol)
    return AnalysisReport(meta=meta, points=reports, schur=schur,
                          overall=overall, expected_checks=checks)


def analyze_model(model: ModelDescriptor, points=None, *, h=None, **kwargs) -> AnalysisReport:
    # h, once the finite-difference step, is ignored: bench/worker.py still passes it.
    return analyze_chart(model.chart, points, name=model.name,
                         expected=model.expected, **kwargs)
