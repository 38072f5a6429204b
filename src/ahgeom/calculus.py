"""Exact covariant calculus on a point's jet (`ChartSpec.jets_at`).

The jet holds g, J and their derivatives at p, exact up to rounding, and
every function here is a closed form in it: the connection and its
derivatives from g's, R and nabla R from the connection, nabla J from dJ.
Nothing is evaluated away from p.  g^-1 is computed once per point, and
the connection and R once per jet, on first use, so `riemann`, `nabla_J`,
`nabla_R` and `ricci` share them.  The residual checks are pure functions
of tensors already computed; each is a max-norm over enumerated basis
tuples, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_core import Bilinear, CurvatureTensor, HermitianPoint

__all__ = [
    "Jet",
    "ClassResiduals",
    "riemann",
    "ricci",
    "nabla_J",
    "nabla_R",
    "class_residuals",
    "gray_ak2_residual",
]


@dataclass(frozen=True)
class ClassResiduals:
    """Max-norm defects of the three defining conditions of K / NK / AK."""

    kahler: float
    nearly_kahler: float
    almost_kahler: float


def _lower(D: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma_ljk of the first kind, or their derivatives,
    from the derivatives D[..., a, i, j] of g: out[..., l, j, k]."""
    return 0.5 * (np.einsum("...jlk->...ljk", D) + np.einsum("...klj->...ljk", D) - D)


def _curvature(dlow: np.ndarray, *pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """R_ijkl = d_i Gamma_ljk - d_j Gamma_lik + Gamma^p_jl Gamma_pik - Gamma^p_il Gamma_pjk,
    with a (Gamma^p_jl, Gamma_pik) term for each pair, broadcast over leading axes."""
    R = np.einsum("...iljk->...ijkl", dlow) - np.einsum("...jlik->...ijkl", dlow)
    for gamma, low in pairs:
        q = np.einsum("...pjl,...pik->...ijkl", gamma, low)
        R = R + q - np.swapaxes(q, -4, -3)
    return R


@dataclass(frozen=True, eq=False)
class Jet:
    """g and J at a point with their derivatives in the chart's coordinates:
    dg[a, i, j] = d_a g_ij, ddg[a, b, i, j], dddg[a, b, c, i, j], dJ[a, i, j] = d_a J^i_j."""

    point: HermitianPoint
    dg: np.ndarray
    ddg: np.ndarray
    dddg: np.ndarray
    dJ: np.ndarray

    @cached_property
    def _connection(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """gamma[i, j, k] = Gamma^i_jk, low = Gamma_ljk and dlow[a] = d_a Gamma_ljk."""
        low = _lower(self.dg)
        return np.einsum("il,ljk->ijk", self.point.g_inv, low), low, _lower(self.ddg)

    @cached_property
    def _riemann(self) -> np.ndarray:
        gamma, low, dlow = self._connection
        return _curvature(dlow, (gamma, low))


def riemann(jet: Jet) -> CurvatureTensor:
    """(0,4) curvature tensor at the jet's point, in the convention where the
    unit sphere gives pi1: R(e_i, e_j, e_k, e_l) = g_lm R^m_ijk with
    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik."""
    return CurvatureTensor(jet.point, jet._riemann)


def ricci(R: CurvatureTensor) -> Bilinear:
    """S(y, z) = sum_i R(b_i, y, z, b_i) over a g-orthonormal frame.

    The frame sum equals the g-inverse contraction, which is what is
    computed; with this sign the unit sphere gives S = (2m-1) g.
    """
    return Bilinear(R.point, np.einsum("pq,pabq->ab", R.point.g_inv, R.values))


def nabla_J(jet: Jet) -> np.ndarray:
    """Covariant derivative of J: out[k, i, j] = (nabla_k J)^i_j."""
    gamma = jet._connection[0]
    J = jet.point.J
    return jet.dJ + np.einsum("ikl,lj->kij", gamma, J) - np.einsum("lkj,il->kij", gamma, J)


def nabla_R(jet: Jet) -> np.ndarray:
    """Covariant derivative of the (0,4) curvature: out[v, x, y, z, u] = (nabla_v R)(x,y,z,u)."""
    gamma, low, dlow = jet._connection
    R0 = jet._riemann
    # d_a Gamma^i_jk = g^il (d_a Gamma_ljk - d_a g_lm Gamma^m_jk), then the product rule
    dgamma = np.einsum("il,aljk->aijk", jet.point.g_inv,
                       dlow - np.einsum("alm,mjk->aljk", jet.dg, gamma))
    dR = _curvature(_lower(jet.dddg), (dgamma, low), (gamma, dlow))
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
