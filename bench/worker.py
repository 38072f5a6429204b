"""One benchmark repetition, run in a fresh interpreter.

    python3 bench/worker.py '<job json>'

The job holds the workload name, its generated inputs, whether to trace,
and the parent's CLOCK_MONOTONIC reading taken just before it started this
process.  Set-up is everything from that moment until the workload's
charts are built: interpreter start, ``import ahgeom`` and
``get_model``/``parse_chart``.  The timed region is the workload's analysis
calls including the JSON rendering of every report.  A fixed probe runs
just before and just after it, so that the wall time can be put against
the speed the machine had at that moment.  Correctness checks run after
it.  The last line of stdout is one JSON object with the repetition's
measurements and one record per target.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import MissingLayer, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CALCULUS = ("riemann", "nabla_R", "nabla_J", "class_residuals", "gray_ak2_residual", "ricci")
ANALYSIS = ("constancy", "schur_check", "adapted_eigenframe", "classify",
            "decomposition_residual", "bianchi2_residual", "proof_relation_32_residual")
TENSOR_CORE = ("sectional_curvature", "fit_pi_span", "ah_identity_residual",
               "build_from_decomposition")
# Spans whose call count per analyzed point is reported.
COUNTED = ("expressions.evaluate", "charts.table", "tensor_core.sectional_curvature",
           *(f"calculus.{f}" for f in CALCULUS))
# Spans whose summed self time per repetition is reported.
SELF_TIMED = ("expressions.evaluate", "charts.table", "analysis.sample_planes",
              "report.to_json", *(f"calculus.{f}" for f in CALCULUS),
              *(f"analysis.{f}" for f in ANALYSIS), *(f"tensor_core.{f}" for f in TENSOR_CORE))


def layer_table(modules, table_keys: set, counts: dict) -> list[tuple]:
    """(owner, attribute, span name, after-hook) for every traced function.

    Chart tables are the expression-backed ``ChartSpec`` lookups; the
    native s6 chart has no table and its evaluation stays in the calculus
    self times.
    """
    analysis, calculus, charts, expressions, models, report, tensor_core = modules

    def table_lookup(args, result):
        chart, p = args
        table_keys.add((id(chart), tuple(float(v) for v in p)))

    def planes_drawn(args, result):
        counts["planes"] += len(result)

    layers = [
        (expressions, "evaluate", "expressions.evaluate", None),
        (charts.ChartSpec, "metric_at", "charts.table", table_lookup),
        (charts.ChartSpec, "j_at", "charts.table", table_lookup),
        (charts, "parse_chart", "charts.parse_chart", None),
        (models, "get_model", "models.get_model", None),
        (analysis, "sample_antiholomorphic_planes", "analysis.sample_planes", planes_drawn),
        (analysis, "sample_holomorphic_planes", "analysis.sample_planes", planes_drawn),
        (report, "analyze_chart", "report.analyze_chart", None),
        (report, "analyze_point", "report.analyze_point", None),
        (report.AnalysisReport, "to_json", "report.to_json", None),
    ]
    layers += [(calculus, f, f"calculus.{f}", None) for f in CALCULUS]
    layers += [(analysis, f, f"analysis.{f}", None) for f in ANALYSIS]
    layers += [(tensor_core, f, f"tensor_core.{f}", None) for f in TENSOR_CORE]
    return layers


_PROBE_EXPR = compile("(x*x + y) / (1.0 + x*x + y*y)**2", "<probe>", "eval")


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and 6x6 numpy work.

    The host's speed drifts by up to 1.7x over minutes, alike for this
    probe and for the workloads; it never calls ahgeom, so no change to
    the program moves it.
    """
    import numpy as np

    R = np.arange(6.0**4).reshape(6, 6, 6, 6) / 1296.0
    x = np.ones(6)
    a = 2.0 * np.eye(6)
    env = {"x": 0.0, "y": 0.5}
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for i in range(20_000):
        env["x"] = i * 1e-4
        eval(_PROBE_EXPR, {"__builtins__": {}}, env)
    for _ in range(3_000):
        np.einsum("ijkl,i,j,k,l->", R, x, x, x, x)
        np.linalg.inv(a)
    return time.perf_counter() - t0


def attempt(analyze):
    """(report, json text, None) or (None, None, error) for one target."""
    try:
        rep = analyze()
        return rep, rep.to_json(), None
    except Exception as exc:  # a target that raises is a failed target
        return None, None, f"{type(exc).__name__}: {exc}"


def setup(models, workload: str, inputs: dict):
    if workload == "suite":
        return [models.get_model(name) for name in inputs["models"]]
    return models.get_model(inputs["model"])


def run(report, workload: str, inputs: dict, state, rec: Recorder | None) -> list:
    common = dict(tol=inputs["tol"], h=inputs["h"], samples=inputs["samples"])
    outcomes = []
    if workload == "suite":
        for k, model in enumerate(state):
            if rec is not None:
                rec.target_id = k
            outcomes.append(attempt(lambda: report.analyze_model(
                model, seed=inputs["seed"], **common)))
    elif workload == "scan":
        if rec is not None:
            rec.target_id = 0
        outcomes.append(attempt(lambda: report.analyze_model(
            state, points=inputs["points"], seed=inputs["seed"], **common)))
    else:
        for k, seed in enumerate(inputs["seeds"]):
            if rec is not None:
                rec.target_id = k
            outcomes.append(attempt(lambda: report.analyze_model(state, seed=seed, **common)))
    return outcomes


def vanishing_residuals(pr, expected) -> list[float]:
    """Residuals at one point that the expected profile says must vanish."""
    c = pr.class_residuals
    by_flag = {"K": c.kahler, "NK": c.nearly_kahler, "AK": c.almost_kahler, **pr.ah_residuals}
    out = [by_flag[flag] for flag, want in expected.flags().items() if want]
    if expected.holomorphic is not None:
        out.append(pr.holomorphic.max_deviation)
    if expected.antiholomorphic is not None:
        out.append(pr.antiholomorphic.max_deviation)
    out.append(pr.bianchi_residual)
    if expected.verdict_constant is not None:
        out.append(pr.decomposition_residual)
        if pr.eigenframe_relation_residual is not None:
            out.append(pr.eigenframe_relation_residual)
    return out


def digits(residuals: list[float]) -> float:
    """-log10 of the largest residual; exactly zero counts as the smallest normal float."""
    return -math.log10(max(max(residuals), sys.float_info.min))


def targets_of(workload: str, inputs: dict, state, outcomes, expected_tol: float) -> list[dict]:
    """One record per target: name, ok, why it failed, report digest, digits."""
    records = []
    if workload == "scan":
        rep, text, error = outcomes[0]
        expected = state.expected
        digest = None if rep is None else hashlib.sha256(text.encode()).hexdigest()
        for i in range(len(inputs["points"])):
            record = {"name": f"{state.name}@{i}", "ok": False, "why": error,
                      "digest": digest, "digits": None}
            if rep is not None:
                pr = rep.points[i]
                verdict = pr.verdict
                record["digits"] = digits(vanishing_residuals(pr, expected))
                record["ok"] = (verdict.kind == expected.verdict_kind
                                and verdict.constant is not None
                                and abs(verdict.constant - expected.verdict_constant)
                                <= expected_tol)
                if not record["ok"]:
                    record["why"] = f"verdict {verdict.kind} ({verdict.constant})"
            records.append(record)
        return records
    if workload == "suite":
        named = [(model.name, model, outcome) for model, outcome in zip(state, outcomes)]
    else:
        named = [(f"{state.name}#{seed}", state, outcome)
                 for seed, outcome in zip(inputs["seeds"], outcomes)]
    for name, model, (rep, text, error) in named:
        record = {"name": name, "ok": False, "why": error, "digest": None, "digits": None}
        if rep is not None:
            record["digest"] = hashlib.sha256(text.encode()).hexdigest()
            record["digits"] = digits([r for pr in rep.points
                                       for r in vanishing_residuals(pr, model.expected)])
            record["ok"] = rep.passed
            if not rep.passed:
                record["why"] = "failed checks: " + ", ".join(
                    c["check"] for c in rep.expected_checks if not c["ok"])
        records.append(record)
    return records


def analyzed_points(workload: str, inputs: dict, state) -> int:
    if workload == "suite":
        return sum(len(model.chart.default_points) for model in state)
    if workload == "scan":
        return len(inputs["points"])
    return len(inputs["seeds"]) * len(state.chart.default_points)


def layer_metrics(rec: Recorder, table_keys: set, counts: dict, points: int) -> dict:
    summary = rec.summary()
    never = sorted(name for name in rec.names if summary[name]["calls"] == 0)
    if never:
        raise MissingLayer("traced functions never called: " + ", ".join(never))
    out = {f"{name}.calls": summary[name]["calls"] / points for name in COUNTED}
    out.update({f"{name}.self_s": summary[name]["self_s"] for name in SELF_TIMED})
    table_calls = summary["charts.table"]["calls"]
    out["charts.table.distinct_points"] = len(table_keys) / points
    out["charts.table.hit_ratio"] = 1.0 - len(table_keys) / table_calls
    out["analysis.planes"] = counts["planes"] / points
    out["report.analyze_point.ms_p50"] = 1e3 * statistics.median(
        rec.durations("report.analyze_point"))
    out["charts.parse_chart.s"] = summary["charts.parse_chart"]["total_s"]
    out["models.get_model.s"] = summary["models.get_model"]["total_s"]
    return out


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    workload, inputs = job["workload"], job["inputs"]
    sys.path.insert(0, str(SRC))
    import ahgeom
    from ahgeom import analysis, calculus, charts, expressions, models, report, tensor_core

    if not Path(ahgeom.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ahgeom imported from {ahgeom.__file__}, not from {SRC}")
    rec = Recorder() if job["trace"] else None
    table_keys: set = set()
    counts = {"planes": 0}
    if rec is None:
        tracing = nullcontext()
    else:
        modules = (analysis, calculus, charts, expressions, models, report, tensor_core)
        tracing = rec.installed(layer_table(modules, table_keys, counts), "ahgeom")
    with tracing:
        state = setup(models, workload, inputs)
        setup_s = time.monotonic() - job["t_spawn"]
        if not 0.0 < setup_s < 60.0:
            raise SystemExit(f"set-up took {setup_s} s: parent and worker clocks differ")
        probe_before = probe()
        t0 = time.perf_counter()
        outcomes = run(report, workload, inputs, state, rec)
        wall_s = time.perf_counter() - t0
    probe_s = 0.5 * (probe_before + probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    points = analyzed_points(workload, inputs, state)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "points": points,
        "peak_rss_mb": peak_rss_mb,
        "targets": targets_of(workload, inputs, state, outcomes, report.EXPECTED_TOL),
    }
    if rec is not None:
        result["layers"] = layer_metrics(rec, table_keys, counts, points)
        if job.get("spans_out"):
            rec.write(job["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
