"""Exact covariant calculus on the jets of a group of points (`ChartSpec.jet`).

A `Jet` holds g, J and their derivatives at a group of points, exact
up to rounding, with a leading point axis on every array.  `riemann`,
`nabla_J` and `nabla_R` are closed forms in it: the connection and its
derivatives from g's, R and nabla R from the connection, nabla J from dJ.
Nothing is evaluated away from the points.  Each stage runs once for the
whole group, contracting by matrix products that work point by point, so
a point's values do not depend on the other points of its group; the
connection and R are computed once per jet, on first use.  `in_frame`
expresses the three in each point's orthonormal Cholesky frame, where
`ricci` and the residual checks take them; each residual is a max-norm
over basis tuples, one value per point, so runs are deterministic.

The jet keeps g's derivatives as the Taylor pass recovers them, each
distinct one once, and the kernels gather the symbols they read straight
from them (`Gathers`): the connection and its first derivative once per
jet, its second derivative into nabla R's running sum.  So the jet holds
no array of P n^5 floats, for n = 2m; nabla R is one, the largest of a
group's arrays.  `nabla_R` builds it in two such arrays, its running sum
and one that takes each term and product, and `in_frame` changes its
frame in its own memory and one new such array.  So at most two P n^5
arrays are live at once in either, and one, nabla R, between and after
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tensor_core import _apply, _max_abs

__all__ = [
    "Jet",
    "Gathers",
    "ClassResiduals",
    "riemann",
    "ricci",
    "nabla_J",
    "nabla_R",
    "in_frame",
    "class_residuals",
    "gray_ak2_residual",
]


@dataclass(frozen=True)
class ClassResiduals:
    """Max-norm defects of the three defining conditions of K / NK / AK:
    floats for one point, or arrays with one value per point."""

    kahler: float
    nearly_kahler: float
    almost_kahler: float


class Gathers(NamedTuple):
    """Where the kernels find g's derivatives among a jet's distinct ones:
    each table holds positions along axis 1 of `Jet.dg`[k - 1], laid out
    as the array it gathers.  The tables are read-only and the same for
    every jet of one dimension; `charts._layout` builds them, and only it
    knows the order of the distinct derivatives."""

    dg: np.ndarray  # (n, n, n): d_a g_ij at [a, i, j], k = 1
    low: np.ndarray  # (3, n, n, n): d_j g_lk, d_k g_lj and d_l g_jk at [:, l, j, k], k = 1
    dlow: np.ndarray  # (3, n, n, n, n): their d_a at [:, a, l, j, k], k = 2
    # (3, n, n, n, n, n): their d_v d_i at [:, v, i, k, j, l], the order of
    # nabla R's running sum (`nabla_R`), k = 3
    ddlow: np.ndarray


def _first_kind(D: np.ndarray, terms: np.ndarray, out: np.ndarray | None = None,
                spare: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols Gamma_ljk = ((d_j g_lk + d_k g_lj) - d_l g_jk) / 2
    of the first kind, or their derivatives, from the distinct derivatives
    D of g and the table of their three terms (a `Gathers` field).  Written
    into `out`, with `spare` taking the other terms, when given.  `np.take`
    writes straight into a C-contiguous `out` only with a mode other than
    "raise", which copies it first; the positions are valid, so "clip"
    changes no value."""
    out = np.take(D, terms[0], axis=1, out=out, mode="clip")
    spare = np.take(D, terms[1], axis=1, out=spare, mode="clip")
    out += spare
    out -= np.take(D, terms[2], axis=1, out=spare, mode="clip")
    out *= 0.5
    return out


def _products(gamma: np.ndarray, low: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """q[..., i, k, j, l] = Gamma^p_jl Gamma_pik, in the order (i, k, j, l)
    of one matrix product per point; written into `out`, a C-contiguous
    array of q's shape, when given."""
    n = gamma.shape[-1]
    q = np.matmul(np.swapaxes(low.reshape(low.shape[:-3] + (n, n * n)), -2, -1),
                  gamma.reshape(gamma.shape[:-3] + (n, n * n)),
                  out=None if out is None else out.reshape(out.shape[:-4] + (n * n, n * n)))
    return q.reshape(q.shape[:-2] + (n,) * 4)


def _curvature(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """R_ijkl = X_ijkl - X_jikl from X in the order (i, k, j, l), where
    X_ijkl = d_i Gamma_ljk + Gamma^p_jl Gamma_pik, or its derivative;
    written into `out` when given."""
    X = np.swapaxes(X, -3, -2)
    return np.subtract(X, np.swapaxes(X, -4, -3), out=out)


@dataclass(frozen=True, eq=False)
class Jet:
    """g and J with their derivatives at a group of P points, in the
    chart's coordinates; axis 0 indexes the points:
    g[p, i, j], J[p, i, j] and dJ[p, a, i, j] = d_a J^i_j.  g's derivatives
    are the distinct ones, as the Taylor pass recovers them: dg[k - 1][p, u]
    for k = 1, 2, 3 holds d_a1 ... d_ak g_ij once for each cell i <= j and
    each multiset {a_1, ..., a_k}, and `gathers` says where each sits.
    (Linv, K) are the points' Cholesky frames (`tensor_core.hermitian_frames`),
    from the one factorization that checked g and J."""

    g: np.ndarray
    J: np.ndarray
    dg: tuple[np.ndarray, np.ndarray, np.ndarray]
    dJ: np.ndarray
    gathers: Gathers
    Linv: np.ndarray
    K: np.ndarray

    def __len__(self) -> int:
        return self.g.shape[0]

    @cached_property
    def _connection(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """gamma[p, i, j, k] = Gamma^i_jk, low = Gamma_ljk, dlow[p, a] = d_a Gamma_ljk
        and dgamma[p, a] = d_a Gamma^i_jk."""
        P, n = self.g.shape[:2]
        g_inv = np.linalg.inv(self.g)
        at = self.gathers
        low, dlow = _first_kind(self.dg[0], at.low), _first_kind(self.dg[1], at.dlow)
        gamma = (g_inv @ low.reshape(P, n, n * n)).reshape(P, n, n, n)
        # d_a Gamma^i_jk = g^il (d_a Gamma_ljk - d_a g_lm Gamma^m_jk)
        dg = np.take(self.dg[0], at.dg, axis=1).reshape(P, n * n, n)
        t = dlow - (dg @ gamma.reshape(P, n, n * n)).reshape(P, n, n, n, n)
        dgamma = (g_inv[:, None] @ t.reshape(P, n, n, n * n)).reshape(P, n, n, n, n)
        return gamma, low, dlow, dgamma

    @cached_property
    def _riemann(self) -> np.ndarray:
        gamma, low, dlow, _ = self._connection
        X = _products(gamma, low)
        X += np.swapaxes(dlow, -3, -1)
        return _curvature(X)


def riemann(jet: Jet) -> np.ndarray:
    """(0,4) curvature tensors (P, n, n, n, n) at the jet's points, in the
    convention where the unit sphere gives pi1: R(e_i, e_j, e_k, e_l) = g_lm R^m_ijk with
    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik."""
    return jet._riemann


def ricci(R: np.ndarray) -> np.ndarray:
    """S(y, z) = sum_i R(e_i, y, z, e_i), a trace, as R's basis is orthonormal
    (g = Id); with this sign the unit sphere gives S = (2m-1) g."""
    return np.trace(R, axis1=-4, axis2=-1)


def nabla_J(jet: Jet) -> np.ndarray:
    """Covariant derivative of J: out[p, k, i, j] = (nabla_k J)^i_j."""
    gamma = jet._connection[0]
    P, n = jet.J.shape[:2]
    # Gamma^i_kl J^l_j and J^i_l Gamma^l_kj, both as (i, k, j)
    turned = (gamma.reshape(P, n * n, n) @ jet.J).reshape(P, n, n, n)
    turning = (jet.J @ gamma.reshape(P, n, n * n)).reshape(P, n, n, n)
    return jet.dJ + np.swapaxes(turned, 1, 2) - np.swapaxes(turning, 1, 2)


def nabla_R(jet: Jet) -> np.ndarray:
    """Covariant derivative of the (0,4) curvature:
    out[p, v, x, y, z, u] = (nabla_v R)(x, y, z, u).

    Built in two (P, n, n, n, n, n) arrays and no other of that size: X
    sums the derivative of R's X (`_curvature`), gathered from the jet's
    third derivatives, while W takes its other terms and each of its two
    products; then W takes the curvature of that sum, and the spent X each
    of the four Gamma R products subtracted from it."""
    gamma, low, dlow, dgamma = jet._connection
    R0 = jet._riemann
    P, n = jet.g.shape[:2]
    shape = (P,) + (n,) * 5
    # the derivative of R's X: d_v d_i Gamma_ljk, gathered into X's own memory,
    # + d_v Gamma^p_jl Gamma_pik + Gamma^p_jl d_v Gamma_pik, each product in W
    X, W = np.empty(shape), np.empty(shape)
    _first_kind(jet.dg[2], jet.gathers.ddlow, out=X, spare=W)
    X += _products(dgamma, low[:, None], out=W)
    X += _products(gamma[:, None], dlow, out=W)
    NR = _curvature(X, out=W)
    # minus Gamma^a_vw R(..., e_a, ...) for each slot w of R, each product
    # batched so that its result comes out in the order (v, x, y, z, u), in the spent X
    G = np.moveaxis(gamma, 1, 3)  # G[p, v, w, a] = Gamma^a_vw
    for a, b, laid in ((G.reshape(P, n * n, n), R0.reshape(P, n, n**3), (P, n * n, n**3)),
                       (G[:, :, None], R0.reshape(P, 1, n, n, n * n), (P, n, n, n, n * n)),
                       (G[:, :, None, None], R0[:, None], shape),
                       (R0.reshape(P, 1, n**3, n), np.swapaxes(gamma, 1, 2), (P, n, n**3, n))):
        NR -= np.matmul(a, b, out=X.reshape(laid)).reshape(shape)
    return NR


def _to_frame(T: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """The covariant tensors T (P, n, ..., n) in the frames of Linv's rows:
    each product contracts the first tensor axis with Linv and puts it
    last, so one product per tensor axis keeps the order.  The products
    alternate between T's memory, which they overwrite (a C-contiguous
    copy's, if T is not C-contiguous), and one new array."""
    P, n = Linv.shape[:2]
    frame = np.swapaxes(Linv, 1, 2)
    T = np.ascontiguousarray(T)
    spare = np.empty_like(T)
    for _ in range(T.ndim - 1):
        np.matmul(np.swapaxes(T.reshape(P, n, -1), 1, 2), frame, out=spare.reshape(P, -1, n))
        T, spare = spare, T
    return T


def in_frame(jet: Jet, R: np.ndarray, NJ: np.ndarray,
             NR: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R, nabla J and nabla R from the chart's coordinates to each point's
    Cholesky frame (jet.Linv), which is g-orthonormal; J there is jet.K,
    and index positions agree.

    It consumes NR, a C-contiguous float array like `nabla_R`'s result:
    nabla R changes frame in NR's own memory and one new array of its size,
    and NR holds no meaningful values after.  R and NJ are left unchanged."""
    return (_to_frame(R.copy(), jet.Linv), _to_frame(jet.g[:, None] @ NJ, jet.Linv),
            _to_frame(NR, jet.Linv))


def class_residuals(NJ: np.ndarray) -> ClassResiduals:
    """Defects of the Kahler, nearly Kahler and almost Kahler conditions,
    from NJ = nabla_J(...) (..., n, n, n) in an orthonormal frame (g = Id),
    one value per point in each field.

    kahler:        max |(nabla_k J)^i_j| over all entries
    nearly_kahler: max over basis pairs of the symmetrized defect
                   |(nabla_x J)y + (nabla_y J)x| / 2 (zero iff (nabla_X J)X = 0)
    almost_kahler: max over basis triples of the cyclic sum
                   g((nabla_x J)y, z) + g((nabla_y J)z, x) + g((nabla_z J)x, y)
    """
    kahler = _max_abs(NJ, 3)
    nearly = 0.5 * _max_abs(NJ + np.swapaxes(NJ, -3, -1), 3)
    # NJ[k, a, j] = g((nabla_k J) e_j, e_a)
    cyc = np.swapaxes(NJ, -2, -1) + np.swapaxes(NJ, -3, -2) + np.swapaxes(NJ, -3, -1)
    return ClassResiduals(kahler=kahler, nearly_kahler=nearly, almost_kahler=_max_abs(cyc, 3))


def gray_ak2_residual(R: np.ndarray, NJ: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Defect of the curvature identity characterizing the AK_2 class:

        R(x,y,z,u) - R(x,y,Jz,Ju)
            = 1/2 g((nabla_x J)y - (nabla_y J)x, (nabla_z J)u - (nabla_u J)z)

    evaluated over all basis quadruples of an orthonormal frame (g = Id),
    one value per point of R (..., n, n, n, n), NJ (..., n, n, n) and J (..., n, n).
    """
    n = J.shape[-1]
    lhs = R - _apply(_apply(R, J, -1), J, -2)
    V = (np.swapaxes(NJ, -2, -1) - np.moveaxis(NJ, -1, -3)).reshape(J.shape[:-2] + (n * n, n))
    rhs = 0.5 * (V @ np.swapaxes(V, -2, -1)).reshape(R.shape)
    return _max_abs(lhs - rhs, 4)
