"""Seeded inputs of the benchmark workloads.

This module uses the standard library only: the parent process generates
each workload's inputs from the workload seed and hands the worker nothing
but those inputs.

suite     every bundled model at its default points with the CLI defaults.
          This is the traffic the CLI and the acceptance tests serve; it
          covers every verdict kind, the negative control s2xs2 and the
          native-chart s6 that bypasses the expression engine.
scan      cp3, the largest expression chart, at fresh points drawn inside
          its domain, in one analyze_model call.  Nearly every stencil
          point is new, so chart tables and expression evaluation dominate.
resample  one cp2 chart object re-analyzed at its default points under
          several seeds with 1024 samples.  Few distinct stencil points
          serve many lookups, so plane sampling and constancy dominate.
"""

from __future__ import annotations

import random

SUITE_MODELS = ("flat2", "s6", "cp1", "cp2", "cp3", "ch1", "ch2", "s2xs2")

# CLI defaults of `ahgeom analyze`.
TOL = 1e-4
FD_STEP = 1e-4
SAMPLES = 256

SCAN_MODEL = "cp3"
SCAN_DOMAIN = (-2.0, 2.0)  # every coordinate of the cp3 chart
# analyze_point takes nabla_R with step 4h, whose nested stencil reaches
# 4 steps out; a step is h * max(1, |p_k|).
SCAN_REACH = 4 * 4 * FD_STEP * max(1.0, *map(abs, SCAN_DOMAIN))

RESAMPLE_MODEL = "cp2"
RESAMPLE_SAMPLES = 1024

# Size of one repetition: models for suite, points for scan, seeds for
# resample.  TINY sizes still reach every traced layer.
SIZES = {"suite": SUITE_MODELS, "scan": 12, "resample": 8}
TINY = {"suite": ("cp2",), "scan": 2, "resample": 1}


def generate(workload: str, seed: int, size=None) -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    if size is None:
        size = SIZES[workload]
    rng = random.Random(seed)
    if workload == "suite":
        return {"models": list(size), "tol": TOL, "h": FD_STEP,
                "samples": SAMPLES, "seed": seed}
    if workload == "scan":
        lo, hi = SCAN_DOMAIN[0] + SCAN_REACH, SCAN_DOMAIN[1] - SCAN_REACH
        points = [[rng.uniform(lo, hi) for _ in range(6)] for _ in range(size)]
        return {"model": SCAN_MODEL, "points": points, "tol": TOL, "h": FD_STEP,
                "samples": SAMPLES, "seed": seed}
    if workload == "resample":
        seeds = [rng.randrange(2**31) for _ in range(size)]
        return {"model": RESAMPLE_MODEL, "seeds": seeds, "tol": TOL, "h": FD_STEP,
                "samples": RESAMPLE_SAMPLES}
    raise KeyError(f"unknown workload {workload!r} (known: {', '.join(SIZES)})")
