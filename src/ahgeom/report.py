"""The analysis pipeline and deterministic report assembly.

One `jets_at` call gives the jets of every group of up to JET_GROUP
points, running the chart program once per group.  Each group's tensor
stage runs once on arrays with a leading point axis (`_group_checks`):
R, nabla J and nabla R share the jet's connection, are expressed once in
each point's orthonormal Cholesky frame (`calculus.in_frame`), where every
check runs, and each residual of the tensors alone comes out as one value
per point, once; the span fit runs only at m >= 2, where the verdict
reads it.  A lone point is a group of one, and a point's values do not
depend on its group.  What rests on a point's sampled planes then runs
per point in `analyze_point`, on the point's slices of the group's
read-only arrays (its structure K, R, S, nabla S and nabla J): plane
statistics, the decomposition residual, the adapted eigenframe and
relation (3.2), the verdict and the record, each point drawing from its
own generator.  So `tol` is in the curvature units of an orthonormal
frame, whatever the chart's coordinates or scale.  Each residual is a
max-norm over frame components: a diagonal change of coordinates keeps
the frame and every value; a general linear one turns the frame, which
moves a max-norm over a k-tensor's components in dimension n by at most a
factor n^(k/2).
Nothing before the plane draws reads the seed, `samples` or `tol`, so each
chart keeps the checks of the last group it analyzed
(`ChartSpec._group_memo`), keyed by the bits of the group's coordinates,
and a chart analyzed again at the same points, as when a run of up to
JET_GROUP points is repeated under other seeds, reuses them: its points
run only their per-point stage.  A run of several groups replaces the
memo group by group, so a repeat of it finds none.  A group enters the
memo only once every point of it has been analyzed, so a failing group
fails the same way on every call.  The CLI analyzes one chart once per
process and never reuses a group.
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
import threading
from dataclasses import dataclass, is_dataclass

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
from .charts import JET_GROUP, ChartSpec
from .models import ModelDescriptor
from .tensor_core import (
    InvariantViolation,
    ah_identity_residual,
    fit_pi_span,
    riemann_symmetry_residual,
)

__all__ = ["PointReport", "AnalysisReport", "analyze_chart", "analyze_model", "EXPECTED_TOL",
           "MAX_SAMPLES"]

# Comparison width for expected-vs-observed constants (Einstein constant,
# curvature constants, verdict constants, multi-point spread).
EXPECTED_TOL = 1e-3

# The most planes a run may sample per kind and point, as charts.MAX_DIM
# bounds a chart's dimension.  A point's planes are analyzed as one batch,
# whose arrays take about 0.7 KB per plane at m = 3 and 2.8 KB at m = 6
# (peak Python allocations), so this bound keeps one batch under 300 MB.
MAX_SAMPLES = 100_000

# Guards the one-group memo that `_checked_groups` keeps on each chart.  A
# 16-point group holds about 0.23 MB at m = 3 and 3.1 MB at m = 6.
_MEMO_LOCK = threading.Lock()


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


@dataclass(frozen=True, eq=False)
class _GroupChecks:
    """A group's tensors in the points' frames and the residuals that read
    only them, each with a leading point axis.  K is the points' J in those
    frames.  The tensors are read-only, so a per-point function that writes
    into its point's slice raises instead of changing a neighbour's values,
    or those of a later call that reuses the group from the chart's memo.
    not_finite[k] names the first of R, nabla J and nabla R that is not
    finite at the k-th point.  fit is None at m = 1, where `classify`
    does not read it."""

    K: np.ndarray
    R: np.ndarray
    S: np.ndarray
    NJ: np.ndarray
    NS: np.ndarray
    not_finite: list[str | None]
    class_residuals: ClassResiduals
    ah: dict[str, np.ndarray]
    symmetry: np.ndarray
    einstein: tuple[np.ndarray, np.ndarray]
    bianchi: np.ndarray
    gray: np.ndarray
    fit: tuple[np.ndarray, np.ndarray, np.ndarray] | None


# Non-finite values are refused per point: einsum and matmul overflow to
# inf without raising, so a raising errstate would not catch them all.
@np.errstate(all="ignore")
def _group_checks(jet: Jet) -> _GroupChecks:
    """The tensor stage of a group, once for all its points."""
    R = calculus.riemann(jet)
    NJ = calculus.nabla_J(jet)
    NR = calculus.nabla_R(jet)
    finite = [(name, np.isfinite(T).reshape(len(jet), -1).all(axis=1))
              for name, T in (("R", R), ("nabla J", NJ), ("nabla R", NR))]
    not_finite = [next((name for name, ok in finite if not ok[k]), None)
                  for k in range(len(jet))]
    R, NJ, NR = calculus.in_frame(jet, R, NJ, NR)
    K = jet.K
    S = calculus.ricci(R)
    NS = np.trace(NR, axis1=2, axis2=5)  # metric compatibility: nabla S traces nabla R
    for T in (K, R, S, NJ, NS):
        T.setflags(write=False)
    return _GroupChecks(
        K=K, R=R, S=S, NJ=NJ, NS=NS,
        not_finite=not_finite,
        class_residuals=calculus.class_residuals(NJ),
        ah=dict(zip(("AH1", "AH2", "AH3"), ah_identity_residual(R, K))),
        symmetry=riemann_symmetry_residual(R),
        einstein=einstein_residual(S),
        bianchi=bianchi2_residual(NR),
        gray=calculus.gray_ak2_residual(R, NJ, K),
        fit=fit_pi_span(R, K) if K.shape[-1] >= 4 else None,
    )


def _checked_groups(chart: ChartSpec, points: list[tuple[float, ...]]):
    """`_group_checks` of each jet of `chart.jets_at(points)`, in order and
    one at a time.  Each run of up to JET_GROUP points is looked up in the
    chart's memo first, and a hit runs neither the Taylor pass nor the
    tensor stage.

    The key is the points' bits, as 0.0 == -0.0.  A run is stored once each
    of its points has been analyzed, so one that raises, in `jets_at` or in
    a point's analysis, is computed again on every call.  The memo keeps
    the last run only; concurrent calls may compute a run twice.
    """
    memo = chart._group_memo
    for start in range(0, len(points), JET_GROUP):
        chunk = points[start:start + JET_GROUP]
        key = tuple(np.array(p, dtype=float).tobytes() for p in chunk)
        groups = memo.get(key)
        if groups is not None:
            yield from groups
            continue
        groups = []
        for jet in chart.jets_at(chunk):
            groups.append(_group_checks(jet))
            yield groups[-1]
        with _MEMO_LOCK:
            memo.clear()
            memo[key] = groups


@np.errstate(all="ignore")
def analyze_point(group: _GroupChecks, k: int, p: tuple[float, ...], index: int, *,
                  tol: float, samples: int, seed: int) -> PointReport:
    """Run every check on the k-th point of a group, the point p, the
    index-th of its run; deterministic for fixed arguments.

    A chart whose values overflow on the way is an InvariantViolation naming
    p: when R, nabla J or nabla R is not finite, or any float of the record.
    """
    if group.not_finite[k] is not None:
        raise InvariantViolation(f"{group.not_finite[k]} is not finite at point {list(p)}")
    K, R, S = group.K[k], group.R[k], group.S[k]
    m = len(K) // 2
    c = group.class_residuals
    cls = ClassResiduals(kahler=float(c.kahler[k]), nearly_kahler=float(c.nearly_kahler[k]),
                         almost_kahler=float(c.almost_kahler[k]))
    ah = {name: float(values[k]) for name, values in group.ah.items()}
    by_flag = {"K": cls.kahler, "NK": cls.nearly_kahler, "AK": cls.almost_kahler, **ah}

    rng = np.random.default_rng([seed, index])
    holo = constancy(R, sample_holomorphic_planes(K, samples, rng))
    if m >= 2:
        anti = constancy(R, sample_antiholomorphic_planes(K, samples, rng))
        nu = anti.mean
    else:
        anti = None
        nu = holo.mean / 4.0

    lam, einstein_defect = (float(v[k]) for v in group.einstein)
    decomposition = decomposition_residual(R, S, nu, K, tol=tol)
    try:
        relation = proof_relation_32_residual(*adapted_eigenframe(S, K, tol), group.NS[k],
                                              group.NJ[k], nu)
    except InvariantViolation:
        relation = None  # Ricci tensor not J-invariant: the relation does not apply
    fit = None if group.fit is None else tuple(float(v[k]) for v in group.fit)
    verdict = classify(m, ah["AH3"], (lam, einstein_defect), cls, holo, anti, fit, tol)

    record = PointReport(
        point=p,
        flags={flag: r <= tol for flag, r in by_flag.items()},
        class_residuals=cls,
        ah_residuals=ah,
        riemann_symmetry_residual=float(group.symmetry[k]),
        einstein={"lambda": lam, "residual": einstein_defect},
        holomorphic=holo,
        antiholomorphic=anti,
        nu=nu,
        decomposition_residual=decomposition,
        bianchi_residual=float(group.bianchi[k]),
        eigenframe_relation_residual=relation,
        gray_ak2_residual=float(group.gray[k]),
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
        global_block: dict = {
            "schur": self.schur,
            "verdict": {"kind": self.overall.kind, "constant": self.overall.constant},
        }
        if self.expected_checks is not None:
            global_block["expected_checks"] = self.expected_checks
            global_block["passed"] = self.passed
        return _plain({"meta": self.meta, "points": self.points, "global": global_block})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        return "\n".join(_text_lines(self.to_dict(), "")) + "\n"


def _plain(value):
    """value with every dataclass in it as the dict of its fields, as
    `dataclasses.asdict` gives it but without copying the leaves."""
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value


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
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {samples!r}")
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
    reports: list[PointReport] = []
    for group in _checked_groups(chart, points):
        for k in range(len(group.K)):
            i = len(reports)
            reports.append(analyze_point(group, k, points[i], i, tol=tol, samples=samples,
                                         seed=seed))
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
