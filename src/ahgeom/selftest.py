"""Fast algebraic self-check: exact operator identities, no differentiation.

Covers the operator identity psi(g) = 2 pi2, the forward constancy of the
curvature decomposition on antiholomorphic planes, eigenframe
reconstruction, and exactness of the span fit at m >= 2.  Runs in a few
seconds and its pass/fail outcome does not depend on the seed.
"""

from __future__ import annotations

import numpy as np

from .analysis import adapted_eigenframe, constancy, sample_antiholomorphic_planes
from .tensor_core import (
    build_from_decomposition,
    fit_pi_span,
    pi1,
    pi2,
    psi,
    standard_j,
)

__all__ = ["random_structure", "random_j_invariant_bilinear", "run_selftest"]


def random_structure(m: int, rng: np.random.Generator) -> np.ndarray:
    """The structure J of a point in an orthonormal frame, as the analysis
    sees every point: g = Id and J = Q^T J0 Q for the standard structure J0
    and a random orthogonal Q, which keeps both invariants exact up to
    rounding."""
    Q, _ = np.linalg.qr(rng.standard_normal((2 * m, 2 * m)))
    return Q.T @ standard_j(m) @ Q


def random_j_invariant_bilinear(J: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric J-invariant (0,2) tensor: the J-average of a symmetric one."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    return 0.5 * (A + J.T @ A @ J)


def run_selftest(seed: int = 42) -> bool:
    rng = np.random.default_rng(seed)
    ok = True

    def check(name: str, passed: bool, detail: str):
        nonlocal ok
        ok = ok and passed
        print(f"{'pass' if passed else 'FAIL'}  {name}: {detail}")

    worst = 0.0
    for m in (1, 2, 3):
        for J in (standard_j(m), random_structure(m, rng)):
            gap = float(np.max(np.abs(psi(np.eye(2 * m), J) - 2.0 * pi2(J))))
            worst = max(worst, gap)
    check("psi(g) = 2 pi2 for m in {1,2,3}", worst < 1e-12, f"max gap {worst:.3e}")

    worst = 0.0
    for k in range(20):
        m = 2 + k % 2
        J = random_structure(m, rng)
        S = random_j_invariant_bilinear(J, rng)
        nu = float(rng.uniform(-2.0, 2.0))
        R = build_from_decomposition(S, nu, J)
        planes = sample_antiholomorphic_planes(J, 64, rng)
        stats = constancy(R, planes)
        worst = max(worst, abs(stats.mean - nu) + stats.max_deviation)
    check("decomposition gives constant antiholomorphic curvature",
          worst < 1e-10, f"max |K - nu| {worst:.3e}")

    worst = 0.0
    for k in range(10):
        m = 2 + k % 2
        J = random_structure(m, rng)
        plane = np.outer(J[:, 0], J[:, 0]) + np.diag(np.eye(2 * m)[0])  # onto span{e_1, Je_1}
        # a random S has single J-planes as eigenspaces; g + 2 plane has the eigenvalue 3 on
        # the plane and 1 on the others, (1, 1, 3) at m = 3; 3g and 0 have one eigenspace
        S = np.array([random_j_invariant_bilinear(J, rng), np.eye(2 * m) + 2.0 * plane,
                      3.0 * np.eye(2 * m), np.zeros((2 * m, 2 * m))])
        for S_k, (B, lam) in zip(S, adapted_eigenframe(S, np.array([J] * len(S)))):
            worst = max(worst, float(np.max(np.abs(S_k - (B * np.repeat(lam, 2)) @ B.T))))
    check("adapted eigenframe reconstructs random, Einstein, (1, 1, 3) and zero S",
          worst < 1e-9, f"max gap {worst:.3e}")

    worst = 0.0
    for k in range(10):
        m = 2 + k % 2  # at m = 1, pi2 = 3 pi1 and the fit refuses the span
        J = random_structure(m, rng)
        a0, b0 = rng.uniform(-3.0, 3.0, size=2)
        values = a0 * pi1(2 * m) + b0 * pi2(J)
        a, b, residual = map(float, fit_pi_span(values, pi2(J)))
        worst = max(worst, residual, abs(a - a0), abs(b - b0))
    check("span fit is exact on span members", worst < 1e-10, f"max defect {worst:.3e}")

    return ok
