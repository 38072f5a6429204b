"""Finite-difference covariant calculus on expression charts (`ChartSpec`).

All derivatives are second-order central differences with a per-coordinate
step h_k = h * max(1, |p_k|).  Derivatives of the connection coefficients
are taken by differencing the connection itself (nested differences), not
by third derivatives of the metric.  Every chart function takes the same
base step h (`nabla_R` differences at 4h internally); the residual checks
are pure functions of tensors already computed.  Every residual is a
max-norm over enumerated basis tuples, so runs are deterministic.  Every
point where g or J is evaluated, stencil points included, must lie in the
chart's domain, which `ChartSpec` checks at each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import ChartEvalError, ChartSpec
from .tensor_core import Bilinear, CurvatureTensor

__all__ = [
    "DEFAULT_STEP",
    "ClassResiduals",
    "riemann",
    "ricci",
    "nabla_J",
    "nabla_R",
    "class_residuals",
    "gray_ak2_residual",
]

DEFAULT_STEP = 1e-4


@dataclass(frozen=True)
class ClassResiduals:
    """Max-norm defects of the three defining conditions of K / NK / AK."""

    kahler: float
    nearly_kahler: float
    almost_kahler: float


def _steps(p: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(p))


def _check_steps(chart: ChartSpec, p: np.ndarray, h: float) -> None:
    """Refuse a step lost to rounding at p, once the chart has checked p
    itself: an infinite coordinate is named, not reported as underflow."""
    chart.metric_at(p)
    steps = _steps(p, h)
    if np.any(p + steps == p) or np.any(p - steps == p):
        raise ChartEvalError(f"step underflow at point {p.tolist()} with h = {h!r}")


def _central_diff(f: Callable[[np.ndarray], np.ndarray], p: np.ndarray, h: float) -> np.ndarray:
    """d[k] = partial_k f(p), stacked along a new leading axis."""
    steps = _steps(p, h)
    rows = []
    for k in range(p.size):
        fwd = p.copy()
        fwd[k] += steps[k]
        bwd = p.copy()
        bwd[k] -= steps[k]
        rows.append((f(fwd) - f(bwd)) / (2.0 * steps[k]))
    return np.stack(rows, axis=0)


def _gamma_values(chart: ChartSpec, p: np.ndarray, h: float) -> np.ndarray:
    """Levi-Civita connection coefficients gamma[i, j, k] = Gamma^i_{jk}."""
    g = chart.metric_at(p)
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise ChartEvalError(f"singular metric at point {p.tolist()}") from None
    dg = _central_diff(chart.metric_at, p, h)  # dg[a, i, j] = partial_a g_ij
    # T[l, j, k] = partial_j g_lk + partial_k g_lj - partial_l g_jk, symmetric in (j, k)
    T = np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg
    return 0.5 * np.einsum("il,ljk->ijk", g_inv, T)


def _riemann_values(chart: ChartSpec, p: np.ndarray, h: float) -> np.ndarray:
    gamma = _gamma_values(chart, p, h)
    dgamma = _central_diff(lambda q: _gamma_values(chart, q, h), p, h)
    # R^l_{ijk} = partial_i Gamma^l_jk - partial_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    up = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    g = chart.metric_at(p)
    # R(e_i, e_j, e_k, e_l) = g_lm R^m_{ijk}; the unit round sphere yields pi1
    return np.einsum("lm,mijk->ijkl", g, up)


def riemann(chart: ChartSpec, p, h: float = DEFAULT_STEP) -> CurvatureTensor:
    """(0,4) curvature tensor at p, in the convention where the unit sphere gives pi1."""
    p = np.asarray(p, dtype=float)
    _check_steps(chart, p, h)
    values = _riemann_values(chart, p, h)
    return CurvatureTensor(chart.eval_point(p), values)


def ricci(R: CurvatureTensor) -> Bilinear:
    """S(y, z) = sum_i R(b_i, y, z, b_i) over a g-orthonormal frame.

    The frame sum equals the g-inverse contraction, which is what is
    computed; with this sign the unit sphere gives S = (2m-1) g.
    """
    g_inv = np.linalg.inv(R.point.g)
    return Bilinear(R.point, np.einsum("pq,pabq->ab", g_inv, R.values))


def nabla_J(chart: ChartSpec, p, h: float = DEFAULT_STEP) -> np.ndarray:
    """Covariant derivative of J: out[k, i, j] = (nabla_k J)^i_j."""
    p = np.asarray(p, dtype=float)
    _check_steps(chart, p, h)
    gamma = _gamma_values(chart, p, h)
    J = chart.j_at(p)
    dJ = _central_diff(chart.j_at, p, h)
    return dJ + np.einsum("ikl,lj->kij", gamma, J) - np.einsum("lkj,il->kij", gamma, J)


def nabla_R(chart: ChartSpec, p, h: float = DEFAULT_STEP) -> np.ndarray:
    """Covariant derivative of the (0,4) curvature: out[v, x, y, z, u] = (nabla_v R)(x,y,z,u)."""
    p = np.asarray(p, dtype=float)
    # nabla R sits three difference levels above the metric, where roundoff
    # scales like eps / h^3: 4h is near the optimum there, h suits the rest.
    h = 4.0 * h
    _check_steps(chart, p, h)
    gamma = _gamma_values(chart, p, h)
    R0 = _riemann_values(chart, p, h)
    dR = _central_diff(lambda q: _riemann_values(chart, q, h), p, h)
    return (
        dR
        - np.einsum("avx,ayzu->vxyzu", gamma, R0)
        - np.einsum("avy,xazu->vxyzu", gamma, R0)
        - np.einsum("avz,xyau->vxyzu", gamma, R0)
        - np.einsum("avu,xyza->vxyzu", gamma, R0)
    )


def class_residuals(NJ: np.ndarray, g: np.ndarray) -> ClassResiduals:
    """Defects of the Kahler, nearly Kahler and almost Kahler conditions,
    from NJ = nabla_J(...) and the metric g at the same point.

    kahler:        max |(nabla_k J)^i_j| over all entries
    nearly_kahler: max over basis pairs of the symmetrized defect
                   |(nabla_x J)y + (nabla_y J)x| / 2 (zero iff (nabla_X J)X = 0)
    almost_kahler: max over basis triples of the cyclic sum
                   g((nabla_x J)y, z) + g((nabla_y J)z, x) + g((nabla_z J)x, y)
    """
    kahler = float(np.max(np.abs(NJ)))
    sym = NJ + np.einsum("jik->kij", NJ)
    nearly = 0.5 * float(np.max(np.abs(sym)))
    # wl[k, a, j] = g((nabla_k J) e_j, e_a)
    wl = np.einsum("ai,kij->kaj", g, NJ)
    cyc = np.einsum("xzy->xyz", wl) + np.einsum("yxz->xyz", wl) + np.einsum("zyx->xyz", wl)
    almost = float(np.max(np.abs(cyc)))
    return ClassResiduals(kahler=kahler, nearly_kahler=nearly, almost_kahler=almost)


def gray_ak2_residual(R: CurvatureTensor, NJ: np.ndarray) -> float:
    """Defect of the curvature identity characterizing the AK_2 class:

        R(x,y,z,u) - R(x,y,Jz,Ju)
            = 1/2 g((nabla_x J)y - (nabla_y J)x, (nabla_z J)u - (nabla_u J)z)

    evaluated over all basis quadruples, with g and J taken from R's point.
    """
    g, J = R.point.g, R.point.J
    lhs = R.values - np.einsum("xyab,az,bu->xyzu", R.values, J, J)
    V = np.einsum("xiy->xyi", NJ) - np.einsum("yix->xyi", NJ)
    rhs = 0.5 * np.einsum("xyi,ij,zuj->xyzu", V, g, V)
    return float(np.max(np.abs(lhs - rhs)))
