"""The analysis pipeline and deterministic report assembly.

A run's points are checked up to JET_GROUP at a time (`_checked_points`):
one jet and one tensor stage per group, in each point's orthonormal
Cholesky frame, where every check runs, and every check that does not
read the plane draws (`_group_checks`), each once for the group's stacked
points.  That includes each point's one nu (`analysis`), which the
record, the decomposition residual, relation (3.2), the verdict's
constant and the multi-point check all read, so none depends on the
seed; each residual is None where it does not apply.  A point's values,
and its error when it overflows, do not depend on its group.
`analyze_point` then draws the point's planes from its own generator,
takes the plane statistics and the verdict, and finishes the record.  So
`tol` is in the curvature units of an orthonormal frame, whatever the
chart's coordinates or scale.  Each residual is a max-norm over frame
components, except the span fit's `fit`, the componentwise 2-norm of
`fit_pi_span`: a diagonal change of coordinates keeps the frame and every
value; a general linear one turns the frame, which moves a max-norm over
a k-tensor's components in dimension n by at most a factor n^(k/2).

Nothing before the draws reads the seed or `samples`, so a chart analyzed
again at the same up to JET_GROUP points and `tol`, as under other seeds,
reuses the checks of the process's last group (`_checked_points`).  The CLI
analyzes one chart once per process and never reuses a run.

The report has three blocks: run metadata (target, kind, tolerance,
samples, seed and points), one block per evaluation point, and a global
block (multi-point constancy over the points' nu, plus the overall verdict
and, in model mode, the expected-vs-observed checks).  The overall verdict
is the points' common kind, or inconclusive when their kinds differ or
their space-form constants spread beyond `tol`.
Identical arguments, including the seed, produce byte-identical JSON.
`to_json` writes it straight from the records, in the bytes json.dumps
with indent=2 gives for the report's dict (`to_dict`); the text rendering
is drawn from that dict, with floats to 12 significant digits.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
from .charts import ChartError, ChartSpec
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

# Points per Taylor pass (`ChartSpec.jet`), and so per stacked tensor stage
# of the analysis.  Per point, a cp3 pass costs about the same from 8 points
# up, while its arrays grow with the group; a fixed size keeps a long run's
# memory from growing with its length.
JET_GROUP = 16

# (chart, key, checks) of the last group `_checked_points` analyzed.  A
# 16-point run holds about 0.20 MB at m = 3 and 2.7 MB at m = 6 (tracemalloc),
# nearly all of it the points' R, one 4-tensor per point.
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
class _PointChecks:
    """One point's tensors in its frame and every check of it that does not
    read its plane draws, taken at tolerance tol: its flags, and the floors
    of its decomposition residual and adapted eigenframe.  K is the point's
    J in that frame.  The arrays are read-only views into the group's, so a
    function that writes into one raises instead of changing a neighbour's
    values, or those of a later run that reuses the point from the slot.
    not_finite names the first of R, nabla J and nabla R not finite there.
    fit is None at m = 1, where `classify` does not read it.  fields are the
    `PointReport` fields that do not read the draws, as the record holds
    them."""

    K: np.ndarray
    R: np.ndarray
    tol: float
    not_finite: str | None
    fit: tuple[float, float, float] | None
    fields: dict


# Non-finite values are refused per point: einsum and matmul overflow to
# inf without raising, so a raising errstate would not catch them all.
@np.errstate(all="ignore")
def _group_checks(jet: Jet, tol: float) -> list[_PointChecks]:
    """The tensor stage of a group and the checks of its points that do not
    read their plane draws, each one call for all its points.  A point whose
    R, nabla J or nabla R is not finite in its frame is named by not_finite;
    one that overflows later is named by `analyze_point` from its record,
    never by an error of the group."""
    R = calculus.riemann(jet)
    NJ = calculus.nabla_J(jet)
    NR = calculus.nabla_R(jet)
    R, NJ, NR = calculus.in_frame(jet, R, NJ, NR)
    finite = [(name, np.isfinite(T).reshape(len(jet), -1).all(axis=1))
              for name, T in (("R", R), ("nabla J", NJ), ("nabla R", NR))]
    K = jet.K
    S = calculus.ricci(R)
    NS = np.trace(NR, axis1=2, axis2=5)  # metric compatibility: nabla S traces nabla R
    for T in (K, R):
        T.setflags(write=False)
    fit = fit_pi_span(R, pi2(K)) if K.shape[-1] >= 4 else None
    cls = calculus.class_residuals(NJ)
    # the residuals of the flags K, NK, AK, AH1, AH2 and AH3, one row per point
    by_flag = np.stack([cls.kahler, cls.nearly_kahler, cls.almost_kahler,
                        *ah_identity_residual(R, K)], axis=-1)
    rows = by_flag.tolist()
    lam, einstein_defect = einstein_residual(S)
    # nu* at m >= 2; at m = 1 the point's one plane, span{e1, Ke1}, has curvature 4 nu
    Ke1 = K[..., 0]
    nu = np.einsum("pjk,pj,pk->p", R[:, 0, :, :, 0], Ke1, Ke1) / 4.0 if fit is None else fit[0]
    # each record field that does not read the draws, one value per point
    columns = {
        "flags": [dict(zip(("K", "NK", "AK", "AH1", "AH2", "AH3"), row))
                  for row in (by_flag <= tol).tolist()],
        "class_residuals": [ClassResiduals(*row[:3]) for row in rows],
        "ah_residuals": [dict(zip(("AH1", "AH2", "AH3"), row[3:])) for row in rows],
        "riemann_symmetry_residual": riemann_symmetry_residual(R).tolist(),
        "einstein": [{"lambda": v, "residual": d}
                     for v, d in zip(lam.tolist(), einstein_defect.tolist())],
        "nu": nu.tolist(),
        "decomposition_residual": decomposition_residual(R, S, K, nu, tol=tol),
        "bianchi_residual": bianchi2_residual(NR).tolist(),
        "eigenframe_relation_residual":
            proof_relation_32_residual(adapted_eigenframe(S, K, tol), NS, NJ, nu),
        "gray_ak2_residual": calculus.gray_ak2_residual(R, NJ, K).tolist(),
    }
    bad = [next((name for name, ok in finite if not ok[k]), None) for k in range(len(jet))]
    fits = [None] * len(jet) if fit is None else list(zip(*(v.tolist() for v in fit)))
    return [_PointChecks(K=K[k], R=R[k], tol=tol, not_finite=bad[k], fit=fits[k],
                         fields=dict(zip(columns, row)))
            for k, row in enumerate(zip(*columns.values()))]


def _checked_points(chart: ChartSpec, points: list[tuple[float, ...]], tol: float):
    """The `_group_checks` of each of `points` at `tol`, in order, one group
    of up to JET_GROUP points at a time.  Each group is looked up in the
    process's slot first, and a hit, the same chart at the same points and
    `tol`, runs neither the Taylor pass nor the group stage.  A group whose
    `chart.jet` fails takes its points' jets one at a time, lazily, so the
    points before the first failing one are analyzed first, and that one
    raises what it raises alone.

    The key is `tol` and the points' bits, as 0.0 == -0.0.  A group is stored
    once each of its points has been analyzed, so one that raises, in
    `chart.jet` or in a point's analysis, is computed again on every call.
    Each stored group replaces the last, so the process holds one however
    many charts are alive.  The slot is read once and replaced by one
    assignment, so concurrent calls never see a half-stored group; they may
    compute a group twice.
    """
    global _last_run
    for start in range(0, len(points), JET_GROUP):
        group = points[start:start + JET_GROUP]
        key = (tol, tuple(np.array(p, dtype=float).tobytes() for p in group))
        last = _last_run
        if last[0] is chart and last[1] == key:
            yield from last[2]
            continue
        try:
            jets = [chart.jet(group)]
        except ChartError:
            if len(group) == 1:
                raise
            jets = (chart.jet([p]) for p in group)
        run = []
        for jet in jets:
            checks = _group_checks(jet, tol)
            run += checks
            yield from checks
        _last_run = (chart, key, run)


@np.errstate(all="ignore")
def analyze_point(checks: _PointChecks, p: tuple[float, ...], index: int, *,
                  samples: int, seed: int) -> PointReport:
    """Finish the checks of the point p, the index-th of its run, from its
    plane draws at the checks' own tolerance; deterministic for fixed
    arguments.

    A chart whose values overflow on the way is an InvariantViolation naming
    p: when R, nabla J or nabla R is not finite, or any float of the record.
    """
    if checks.not_finite is not None:
        raise InvariantViolation(f"{checks.not_finite} is not finite at point {list(p)}")
    K, R = checks.K, checks.R
    m = len(K) // 2
    rng = np.random.default_rng([seed, index])
    holo = constancy(R, sample_holomorphic_planes(K, samples, rng))
    anti = constancy(R, sample_antiholomorphic_planes(K, samples, rng)) if m >= 2 else None
    # fresh dicts, so a caller that edits a record cannot reach the slot's
    fields = {key: dict(v) if isinstance(v, dict) else v for key, v in checks.fields.items()}
    einstein = fields["einstein"]
    verdict = classify(m, fields["ah_residuals"]["AH3"], (einstein["lambda"], einstein["residual"]),
                       fields["class_residuals"], holo, anti, checks.fit, fields["nu"], checks.tol)
    record = PointReport(point=p, **fields, holomorphic=holo, antiholomorphic=anti,
                         verdict=verdict)
    if (bad := _non_finite(record)) is not None:
        raise InvariantViolation(f"{bad} is not finite at point {list(p)}")
    return record


def _overall_verdict(points: list[PointReport], tol: float) -> Verdict:
    """The points' common verdict kind, with the mean of their space-form
    constants; inconclusive when the kinds differ or the constants spread
    beyond `tol`, as on a surface whose curvature varies (at m = 1 every
    Kähler point is a pointwise complex space form)."""
    kinds = sorted({pr.verdict.kind for pr in points})
    if len(kinds) != 1:
        return Verdict(INCONCLUSIVE, None, {})
    constants = [pr.verdict.constant for pr in points]
    if any(c is None for c in constants):
        return Verdict(kinds[0], None, {})
    if max(constants) - min(constants) > tol:
        return Verdict(INCONCLUSIVE, None, {})
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

    def _blocks(self) -> dict:
        global_block: dict = {
            "schur": self.schur,
            "verdict": {"kind": self.overall.kind, "constant": self.overall.constant},
        }
        if self.expected_checks is not None:
            global_block["expected_checks"] = self.expected_checks
            global_block["passed"] = self.passed
        return {"meta": self.meta, "points": self.points, "global": global_block}

    def to_dict(self) -> dict:
        return _plain(self._blocks())

    def to_json(self) -> str:
        """The report as the bytes of `json.dumps(self.to_dict(), indent=2)`
        and a newline, written from the records without copying them.  A
        cyclic container is out of scope: no report the pipeline builds has
        one."""
        out: list[str] = []
        _write_json(self._blocks(), out.append, "\n")
        out.append("\n")
        return "".join(out)

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


_JSON_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(v: float) -> str:
    text = repr(v)  # float.__repr__, as v is a float and no subclass
    return _JSON_NAMES.get(text, text)


# Each scalar's JSON text by its exact type, as json.dumps writes it.
_JSON_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
                 bool: {True: "true", False: "false"}.__getitem__, type(None): lambda v: "null"}


def _json_scalar(v) -> str:
    """The JSON text of a str, int, float, bool or None.  A subclass is
    written as the first of str, int and float that it is, as json's own
    encoder does: an np.float64 as float.__repr__ writes its value."""
    if render := _JSON_SCALARS.get(type(v)):
        return render(v)
    for base, exact in ((str, str.__str__), (int, int.__int__), (float, float.__float__)):
        if isinstance(v, base):
            return _JSON_SCALARS[base](exact(v))


def _json_key(k) -> str:
    if isinstance(k, (str, int, float)) or k is None:
        return encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write_json(value, append, newline: str) -> None:
    """Append the JSON text of `_plain(value)` as json.dumps with indent=2
    writes it after newline, a line break and the indent of value's depth."""
    if type(value) not in (dict, list, tuple):
        if isinstance(value, (str, int, float)) or value is None:
            return append(_json_scalar(value))
        if hasattr(value, "__dataclass_fields__"):
            value = vars(value)
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return append("{}" if is_dict else "[]")
    get, inner = _JSON_SCALARS.get, newline + "  "
    sep, comma = ("{" if is_dict else "[") + inner, "," + inner
    if is_dict:
        for k, v in value.items():
            key = encode_basestring_ascii(k) if type(k) is str else _json_key(k)
            if render := get(type(v)):
                append(f"{sep}{key}: {render(v)}")
            else:
                append(f"{sep}{key}: ")
                _write_json(v, append, inner)
            sep = comma
    else:
        for v in value:
            if render := get(type(v)):
                append(sep + render(v))
            else:
                append(sep)
                _write_json(v, append, inner)
            sep = comma
    append(newline + ("}" if is_dict else "]"))


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
    # numpy scalars become the equal Python numbers, which meta renders as JSON
    if not isinstance(tol, numbers.Real):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    try:
        tol, samples, seed = float(tol), operator.index(samples), operator.index(seed)
    except TypeError:
        raise ValueError(f"samples and seed must be integers, got {samples!r} and {seed!r}") from None
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
    reports = [analyze_point(checks, points[i], i, samples=samples, seed=seed)
               for i, checks in enumerate(_checked_points(chart, points, tol))]
    schur = None
    if len(reports) >= 2:
        schur = schur_check([pr.nu for pr in reports], chart.m)
    overall = _overall_verdict(reports, tol)
    checks = None
    if expected is not None:
        checks = _expected_checks(expected, reports, schur, overall, tol)
    return AnalysisReport(meta=meta, points=reports, schur=schur,
                          overall=overall, expected_checks=checks)


def analyze_model(model: ModelDescriptor, points=None, *, h=None, **kwargs) -> AnalysisReport:
    # h, once the finite-difference step, is ignored: bench/worker.py still passes it.
    return analyze_chart(model.chart, points, name=model.name,
                         expected=model.expected, **kwargs)
