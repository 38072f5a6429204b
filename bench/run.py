"""The ahgeom benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload {suite,scan,resample} --seed N \
        --seconds S --trace {0,1}

Load is a closed loop with one caller.  Each repetition runs the whole
workload once in a fresh interpreter (bench/worker.py), one after the
other, so every repetition starts cold: no compiled expression and no
chart table survives from the previous one, and the peak RSS is that of
one repetition.  BLAS threads are pinned to 1 because every matrix is at
most 6x6.  Repetitions start while one more still fits in ``--seconds``,
and there are at least MIN_REPS of them.

With ``--trace 0`` the end-to-end metrics are the medians over the
repetitions.  The host's speed drifts by up to 1.7x over minutes, so the
medians of raw wall times of runs a few minutes apart differ by up to 35%.
The gated time is therefore ``wall_norm``: the wall time over the time of
a fixed probe run in the same process just before and after it (about 8%
apart).  The table for people also shows the raw ``wall_s``,
``points_per_s``, ``margin_decades`` and ``failed_frac``.

With ``--trace 1`` repetitions alternate untraced and traced; the
per-layer metrics are medians over the traced ones, and
``trace.overhead`` is the traced median ``wall_norm`` over the untraced one.

Every target's verdict is checked, and its report digest must be the same
in every repetition of the run.  A table for people comes first on stdout;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_out"

MIN_REPS = 3
REP_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_norm": "probes",
    "peak_rss_mb": "MB",
    "accuracy_decades": "decades",
}
SHOWN = {"wall_s": "s", "points_per_s": "1/s", "probe_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".distinct_points")) or name == "analysis.planes":
        return "count/point"
    if name.endswith((".self_s", ".s")):
        return "s"
    if name.endswith(".ms_p50"):
        return "ms"
    return "ratio"


class RepFailed(RuntimeError):
    pass


def run_rep(job: dict) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    # Set-up imports ahgeom from cached bytecode, as for an installed
    # package, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    job = dict(job, t_spawn=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition did not finish within {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RepFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(workload: str, inputs: dict, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions for `seconds`; with tracing, every second one is traced."""
    reps: list[dict] = []
    spans_out = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_out = str(SPANS_DIR / f"spans-{workload}.json")
    start = time.monotonic()
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start + longest <= seconds:
        traced = trace and len(reps) % 2 == 1
        job = {"workload": workload, "inputs": inputs, "trace": traced,
               "spans_out": spans_out if traced and len(reps) == 1 else None}
        t0 = time.monotonic()
        rep = run_rep(job)
        longest = max(longest, time.monotonic() - t0)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def check_targets(reps: list[dict]) -> tuple[int, list[str]]:
    """Count the targets of all repetitions and list the failures.

    Besides its own check, a target fails if its report digest differs
    from the digest most repetitions gave it.
    """
    digests: dict[str, Counter] = {}
    for rep in reps:
        for t in rep["targets"]:
            digests.setdefault(t["name"], Counter())[t["digest"]] += 1
    attempted = 0
    failures = []
    for n, rep in enumerate(reps):
        for t in rep["targets"]:
            attempted += 1
            usual = digests[t["name"]].most_common(1)[0][0]
            if not t["ok"]:
                failures.append(f"rep {n} {t['name']}: {t['why']}")
            elif t["digest"] != usual:
                failures.append(f"rep {n} {t['name']}: report differs from other repetitions")
    return attempted, failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Samples of the end-to-end metrics and of SHOWN over untraced repetitions."""
    plain = [r for r in reps if not r["traced"]]
    digits = [[t["digits"] for t in r["targets"] if t["digits"] is not None] for r in plain]
    return {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_norm": [r["wall_s"] / r["probe_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "accuracy_decades": [min(d) for d in digits if d],
        "wall_s": [r["wall_s"] for r in plain],
        "points_per_s": [r["points"] / r["wall_s"] for r in plain],
        "probe_s": [r["probe_s"] for r in plain],
    }


def per_layer(reps: list[dict]) -> dict[str, list[float]]:
    traced = [r for r in reps if r["traced"]]
    out = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    untraced = statistics.median(r["wall_s"] / r["probe_s"] for r in reps if not r["traced"])
    out["trace.overhead"] = [r["wall_s"] / r["probe_s"] / untraced for r in traced]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None):
    """Run one workload; return (result object, lines of the table for people)."""
    inputs = workloads.generate(workload, seed, size)
    reps = repeat(workload, inputs, seconds, trace)
    attempted, failures = check_targets(reps)
    samples = end_to_end(reps)
    plain = sum(not r["traced"] for r in reps)
    lines = [f"workload {workload}  seed {seed}  repetitions {len(reps)} "
             f"({len(reps) - plain} traced)  points per repetition {reps[0]['points']}",
             f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12}  unit"]

    def row(name, values, unit):
        q1, med, q3 = quartiles(values)
        lines.append(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}  {unit}")

    for name, values in samples.items():
        if values:
            row(name, values, END_TO_END.get(name) or SHOWN[name])
    if samples["accuracy_decades"]:
        margin = [math.log10(inputs["tol"]) + d for d in samples["accuracy_decades"]]
        row(f"margin_decades (tol {inputs['tol']:g})", margin, "decades")
    lines.append(f"{'failed_frac':<44} {len(failures) / attempted:>12.6g} "
                 f"{'':>12} {'':>12}  fraction ({len(failures)} of {attempted} targets)")
    lines += [f"  FAILED {f}" for f in failures[:20]]

    if trace:
        layers = per_layer(reps)
        traced_wall = statistics.median(r["wall_s"] for r in reps if r["traced"])
        lines.append(f"per layer, {len(reps) - plain} traced repetitions; "
                     f"share = self time / traced wall_s {traced_wall:.4g} s")
        for name, values in layers.items():
            row(name, values, layer_unit(name))
            if name.endswith(".self_s"):
                lines[-1] += f"  share {statistics.median(values) / traced_wall:.1%}"
        chosen = {name: (values, layer_unit(name)) for name, values in layers.items()}
    else:
        chosen = {name: (samples[name], unit) for name, unit in END_TO_END.items()}
    missing = [name for name, (values, _) in chosen.items() if not values]
    if missing:
        raise RepFailed("no repetition measured " + ", ".join(missing))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in chosen.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ahgeom").is_dir():
        print(f"no ahgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
