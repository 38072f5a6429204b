"""The analysis pipeline and deterministic report assembly.

One `jets_at` call gives the jets of every group of up to JET_GROUP
points, running the chart program once per group.  Each group's tensor
stage runs once on arrays with a leading point axis (`_group_checks`):
R, nabla J and nabla R share the jet's connection, are expressed once in
each point's orthonormal Cholesky frame (`calculus.in_frame`), where every
check runs, and each residual of the tensors alone comes out as one value
per point, once, and is checked for finiteness in one pass; the span fit
runs only at m >= 2, where the verdict reads it.  The same stage takes
every check of a point that does not read its plane draws: the adapted
eigenframe of its Ricci tensor S and the nu-free part of the
decomposition (`decomposition_base`), point by point, and pi2 of the
points' structures, stacked.  A lone point is a group of one, and a
point's values do not depend on its group.  What rests on a point's
sampled planes then runs per point and seed in `analyze_point`, on the
point's slices of the group's read-only arrays and parts: the plane
draws and their statistics, the decomposition residual and relation (3.2)
finished at the sampled nu, the verdict and the record, each point drawing
from its own generator; only the floats the draws produce are checked for
finiteness there, and the record is walked for the key of a bad one only
when one is not finite.  So `tol` is in the curvature units of an
orthonormal frame, whatever the chart's coordinates or scale.  Each
residual is a max-norm over frame components: a diagonal change of
coordinates keeps the frame and every value; a general linear one turns
the frame, which moves a max-norm over a k-tensor's components in
dimension n by at most a factor n^(k/2).
Nothing before the plane draws reads the seed or `samples`, and only the
eigenframe's and the decomposition's checks read `tol`, so the process
keeps the checks of the last group it analyzed, with its chart, `tol` and
the bits of the group's coordinates, in one slot, and a chart analyzed
again at the same points and `tol`, as when a run of up to JET_GROUP
points is repeated under other seeds or `samples`, reuses them: its points
run only their per-point stage.  A rerun at another `tol` computes the
group again.  A run of several groups replaces the slot group by group,
so a repeat of it finds none, and analyzing another chart replaces it too,
so the process holds one group however many charts are alive.  A group
enters the slot only once every point of it has been analyzed, so a
failing group fails the same way on every call.  The CLI analyzes one
chart once per process and never reuses a group.
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
from dataclasses import dataclass

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
    decomposition_base,
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
    pi2,
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

# (chart, key, checks) of the last group `_checked_groups` analyzed.  A
# 16-point group holds about 0.56 MB at m = 3 and 8.4 MB at m = 6, of which
# the stacked pi2 and the points' nu-free decomposition parts, two 4-tensors
# per point, are 0.33 MB and 5.3 MB.
_last_run: tuple = (None, (), [])


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
    if hasattr(value, "__dataclass_fields__"):
        value = vars(value)
    if isinstance(value, dict):  # the record's one tuple, its point, is checked by the chart
        for k, v in value.items():
            if (bad := _non_finite(v, k)) is not None:
                return f"{key}.{bad}" if key else bad
    return None


@dataclass(frozen=True, eq=False)
class _GroupChecks:
    """A group's tensors in the points' frames and every check that does
    not read a point's plane draws, each with a leading point axis or one
    entry per point.  K is the points' J in those frames and P2 their
    pi2(K).  The arrays are read-only, so a per-point function that writes
    into its point's slice raises instead of changing a neighbour's values,
    or those of a later call that reuses the group from the slot.
    not_finite[k] names the first of R, nabla J and nabla R that is not
    finite at the k-th point; finite[k] says whether every residual of the
    k-th point's record read here (all but the span fit, which a record
    holds only when the verdict reaches it) is finite.  frames[k] is the
    k-th point's `adapted_eigenframe` and bases[k] its `decomposition_base`,
    each None where the Ricci tensor fails its check, or where not_finite[k]
    is set and the point's analysis raises before reading them.  fit is None
    at m = 1, where `classify` does not read it."""

    K: np.ndarray
    R: np.ndarray
    NJ: np.ndarray
    NS: np.ndarray
    P2: np.ndarray
    not_finite: list[str | None]
    finite: np.ndarray
    frames: list[tuple[np.ndarray, np.ndarray] | None]
    bases: list[np.ndarray | None]
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
def _group_checks(jet: Jet, tol: float) -> _GroupChecks:
    """The tensor stage of a group and the checks of its points that do not
    read their plane draws, once for all its points."""
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
    frames, bases = [], []
    for k, bad in enumerate(not_finite):
        frame = base = None
        if bad is None:  # eigh of a non-finite S would raise before the point's own error
            try:
                frame = adapted_eigenframe(S[k], K[k], tol)
            except InvariantViolation:
                pass  # Ricci tensor not J-invariant: relation (3.2) does not apply
            base = decomposition_base(S[k], K[k], tol=tol)
        frames.append(frame)
        bases.append(base)
    P2 = pi2(K)
    cls = calculus.class_residuals(NJ)
    ah = dict(zip(("AH1", "AH2", "AH3"), ah_identity_residual(R, K)))
    symmetry = riemann_symmetry_residual(R)
    einstein = einstein_residual(S)
    bianchi = bianchi2_residual(NR)
    gray = calculus.gray_ak2_residual(R, NJ, K)
    residuals = np.stack([*vars(cls).values(), *ah.values(), symmetry, *einstein, bianchi, gray],
                         axis=-1)
    for T in (K, R, NJ, NS, P2, *(b for b in bases if b is not None),
              *(T for frame in frames if frame is not None for T in frame)):
        T.setflags(write=False)
    return _GroupChecks(
        K=K, R=R, NJ=NJ, NS=NS, P2=P2,
        not_finite=not_finite,
        finite=np.isfinite(residuals).all(axis=-1),
        frames=frames,
        bases=bases,
        class_residuals=cls,
        ah=ah,
        symmetry=symmetry,
        einstein=einstein,
        bianchi=bianchi,
        gray=gray,
        fit=fit_pi_span(R, K) if K.shape[-1] >= 4 else None,
    )


def _checked_groups(chart: ChartSpec, points: list[tuple[float, ...]], tol: float):
    """`_group_checks` of each jet of `chart.jets_at(points)` at `tol`, in
    order and one at a time.  Each run of up to JET_GROUP points is looked
    up in the process's slot first, and a hit, the same chart at the same
    points and `tol`, runs neither the Taylor pass nor the group stage.

    The key is `tol` and the points' bits, as 0.0 == -0.0.  A run is stored
    once each of its points has been analyzed, so one that raises, in
    `jets_at` or in a point's analysis, is computed again on every call.
    The slot is read once and replaced by one assignment, so concurrent
    calls never see a half-stored run; they may compute a run twice.
    """
    global _last_run
    for start in range(0, len(points), JET_GROUP):
        chunk = points[start:start + JET_GROUP]
        key = (tol, tuple(np.array(p, dtype=float).tobytes() for p in chunk))
        last = _last_run
        if last[0] is chart and last[1] == key:
            yield from last[2]
            continue
        groups = []
        for jet in chart.jets_at(chunk):
            groups.append(_group_checks(jet, tol))
            yield groups[-1]
        _last_run = (chart, key, groups)


@np.errstate(all="ignore")
def analyze_point(group: _GroupChecks, k: int, p: tuple[float, ...], index: int, *,
                  tol: float, samples: int, seed: int) -> PointReport:
    """Finish the checks of the k-th point of a group, the point p, the
    index-th of its run, from its plane draws; deterministic for fixed
    arguments.  `tol` must be the one the group was checked at.

    A chart whose values overflow on the way is an InvariantViolation naming
    p: when R, nabla J or nabla R is not finite, or any float of the record.
    """
    if group.not_finite[k] is not None:
        raise InvariantViolation(f"{group.not_finite[k]} is not finite at point {list(p)}")
    K, R = group.K[k], group.R[k]
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
    base, frame = group.bases[k], group.frames[k]
    decomposition = None if base is None else decomposition_residual(R, base, nu, group.P2[k])
    relation = None if frame is None else proof_relation_32_residual(
        *frame, group.NS[k], group.NJ[k], nu)
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
    # the record's floats that group.finite does not cover; the walk names the first bad one
    drawn = [holo.mean, holo.max_deviation, nu, decomposition, relation, verdict.constant,
             *verdict.residuals.values()]
    if anti is not None:
        drawn += [anti.mean, anti.max_deviation]
    if not (group.finite[k] and all(v is None or math.isfinite(v) for v in drawn)):
        raise InvariantViolation(f"{_non_finite(record)} is not finite at point {list(p)}")
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
    if value is None or isinstance(value, (float, int, str)):  # bool is an int
        return value
    if hasattr(value, "__dataclass_fields__"):
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
    for group in _checked_groups(chart, points, tol):
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
