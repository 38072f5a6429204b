"""Pointwise multilinear algebra for almost Hermitian structures.

Everything in this module is exact linear algebra on tangent spaces.  The
tensor functions take arrays whose leading axes index points (none for
one point) and whose trailing axes are the tensor's; they work on every
point at once, contract by matrix products, and each residual is a max
over the trailing axes, one value per point.  The tensors are in an
orthonormal frame (g = Id), so J is the only structure they read: the
curvature-type operators ``pi1``/``pi2``/``psi``, the three AH curvature
identities in one pass, and construction / least-squares splitting of
curvature tensors over span{pi1, pi2} (m >= 2).  `hermitian_frames` is the
one check of a chart's g and J, and gives the frames (Linv, K) in which
everything else runs: a point is its structure K and its frame tensors,
plain arrays.
`Planes` holds a batch of 2-planes at one point, and `sectional_curvature`
evaluates it on that point's R.  No differentiation and no charts happen
here; the functions are pure and do not write into their inputs, so
concurrent use is safe.

Sign conventions are fixed so that the unit round sphere has curvature
tensor ``pi1`` and the sectional curvature of an orthonormal plane (x, y)
is ``R(x, y, y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "INVARIANT_TOL",
    "InvariantViolation",
    "Planes",
    "standard_j",
    "hermitian_frames",
    "psi",
    "pi1",
    "pi2",
    "ah_identity_residual",
    "riemann_symmetry_residual",
    "sectional_curvature",
    "form_defects",
    "build_from_decomposition",
    "fit_pi_span",
]

# Tolerance of the almost Hermitian invariants, relative to the metric's
# scale, and the floor of the symmetry and J-invariance checks on a Ricci
# tensor.
INVARIANT_TOL = 1e-8


class InvariantViolation(ValueError):
    """An input breaks a structural invariant (message carries the magnitude)."""


def _max_abs(T: np.ndarray, axes: int) -> np.ndarray:
    """max |T| over the last `axes` axes: one value per point."""
    return np.max(np.abs(T), axis=tuple(range(-axes, 0)))


def _apply(T: np.ndarray, J: np.ndarray, slot: int) -> np.ndarray:
    """The tensor T with J applied to one argument slot (negative, counted
    from the end): out[..., w, ...] = sum_a T[..., a, ...] J[a, w], as one
    matrix product per point."""
    moved = np.moveaxis(T, slot, -1)
    out = moved.reshape(J.shape[:-2] + (-1, J.shape[-1])) @ J
    return np.moveaxis(out.reshape(moved.shape), -1, slot)


def _pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out[..., x, y, z, u] = A[..., x, u] B[..., y, z]."""
    return A[..., :, None, None, :] * B[..., None, :, :, None]


def _split(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """out[..., x, y, z, u] = A[..., x, y] B[..., z, u]."""
    return A[..., :, :, None, None] * B[..., None, None, :, :]


def standard_j(m: int) -> np.ndarray:
    """Constant complex structure pairing coordinates (2k, 2k+1): J e_{2k} = e_{2k+1}."""
    J = np.zeros((2 * m, 2 * m))
    for k in range(m):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _breaks(residual: np.ndarray) -> bool:
    """Whether some point's residual is above INVARIANT_TOL or NaN."""
    return not np.all(residual <= INVARIANT_TOL)


@np.errstate(all="ignore")  # an overflow gives inf or NaN, which _breaks refuses
def hermitian_frames(g: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky frames (Linv, K) of a stack of points (P, n, n), from
    one factorization g = L L^T per point, after checking the invariants.

    Each check is to INVARIANT_TOL and does not change when g is scaled:
    max |g - g^T| relative to max |g|, positive definiteness,
    max |J @ J + Id|, and J^T g J = g as K^T K = Id for K = L^T J L^-T, J
    in the frame of the columns of L^-T, which are g-orthonormal.  An
    invariant that fails raises InvariantViolation for the stack, with the
    largest residual over its points.
    """
    n = g.shape[-1]
    eye = np.eye(n)
    scale = np.maximum(_max_abs(g, 2), np.finfo(float).tiny)  # g = 0 fails Cholesky
    sym = _max_abs(g - np.swapaxes(g, -2, -1), 2) / scale
    if _breaks(sym):
        raise InvariantViolation(
            f"metric not symmetric: max |g - g^T| / max |g| = {np.max(sym):.3e}")
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise InvariantViolation("metric not positive definite") from None
    jj = _max_abs(J @ J + eye, 2)
    if _breaks(jj):
        raise InvariantViolation(f"J @ J differs from -Id: max residual = {np.max(jj):.3e}")
    Linv = np.linalg.inv(L)
    K = np.swapaxes(L, -2, -1) @ J @ np.swapaxes(Linv, -2, -1)
    comp = _max_abs(np.swapaxes(K, -2, -1) @ K - eye, 2)
    if _breaks(comp):
        raise InvariantViolation(
            "J not compatible with metric: max |J^T g J - g| = "
            f"{np.max(comp):.3e} in g's orthonormal frame")
    return Linv, K


@dataclass(frozen=True, eq=False)
class Planes:
    """n 2-planes at one point: the i-th is spanned by x[i] and y[i].

    x and y have shape (n, 2m).  kind is "holomorphic" (y = Jx),
    "antiholomorphic" (g(x, Jy) = 0) or "generic"; samplers guarantee the
    orthonormality invariants.  A single plane is a batch of one.
    """

    x: np.ndarray
    y: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise InvariantViolation(
                f"planes need x and y of one shape (n, 2m), got {x.shape} and {y.shape}"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]


def psi(Q: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Six-term curvature-type product of (0,2) tensors Q (..., n, n) with
    the fundamental form, in an orthonormal frame (g = Id):

    psi(Q)(x,y,z,u) = g(x,Ju) Q(y,Jz) - g(x,Jz) Q(y,Ju) - 2 g(x,Jy) Q(z,Ju)
                    + g(y,Jz) Q(x,Ju) - g(y,Ju) Q(x,Jz) - 2 g(z,Ju) Q(x,Jy)

    For symmetric J-invariant Q the result has all the algebraic symmetries
    of a curvature tensor; for arbitrary Q it does not.
    """
    B = Q @ J  # B[i, j] = Q(e_i, J e_j); J[i, j] = g(e_i, J e_j)
    AB, BA = _pair(J, B), _pair(B, J)
    return (AB - np.swapaxes(AB, -2, -1) - 2.0 * _split(J, B)
            + BA - np.swapaxes(BA, -2, -1) - 2.0 * _split(B, J))


@lru_cache(maxsize=8)
def pi1(n: int) -> np.ndarray:
    """Constant-curvature building block in dimension n, orthonormal frame:
    pi1(x,y,z,u) = g(x,u)g(y,z) - g(x,z)g(y,u).  Built once per n and
    shared, so it is read-only."""
    gg = _pair(np.eye(n), np.eye(n))
    out = gg - np.swapaxes(gg, -2, -1)
    out.setflags(write=False)
    return out


def pi2(J: np.ndarray) -> np.ndarray:
    """Complex-space-form building block, equal to psi(g) / 2, for structures
    J (..., n, n) in an orthonormal frame:

    pi2(x,y,z,u) = g(x,Ju)g(y,Jz) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)
    """
    AA = _pair(J, J)
    return AA - np.swapaxes(AA, -2, -1) - 2.0 * _split(J, J)


def ah_identity_residual(R: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, ...]:
    """Max-norm violations (AH1, AH2, AH3) of the AH curvature identities,
    per point of R (..., n, n, n, n) with structures J (..., n, n):

    1: R(X,Y,Z,U) = R(X,Y,JZ,JU)
    2: R(X,Y,Z,U) = R(X,Y,JZ,JU) + R(X,JY,Z,JU) + R(JX,Y,Z,JU)
    3: R(X,Y,Z,U) = R(JX,JY,JZ,JU)

    Zero means the tensor satisfies the identity at that point.
    """
    jzju = _apply(_apply(R, J, -2), J, -1)  # R(X,Y,JZ,JU), once for AH1 and AH2
    ah2 = jzju + _apply(_apply(R, J, -3), J, -1) + _apply(_apply(R, J, -4), J, -1)
    ah3 = _apply(_apply(_apply(_apply(R, J, -4), J, -3), J, -2), J, -1)
    return _max_abs(R - jzju, 4), _max_abs(R - ah2, 4), _max_abs(R - ah3, 4)


def riemann_symmetry_residual(R: np.ndarray) -> np.ndarray:
    """Max violation of the algebraic curvature symmetries, per point.

    Checks antisymmetry in the first and second index pairs, pair exchange
    symmetry, and the first Bianchi cyclic identity.
    """
    r = _max_abs(R + np.swapaxes(R, -4, -3), 4)
    r = np.maximum(r, _max_abs(R + np.swapaxes(R, -2, -1), 4))
    r = np.maximum(r, _max_abs(R - np.moveaxis(R, (-2, -1), (-4, -3)), 4))
    cyc = R + np.moveaxis(R, -2, -4) + np.moveaxis(R, -4, -2)
    return np.maximum(r, _max_abs(cyc, 4))


@lru_cache(maxsize=8)
def _bivector_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of bivector components in dimension n, read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def sectional_curvature(R: np.ndarray, planes: Planes) -> np.ndarray:
    """(n,) array of R(x, y, y, x) normalized by each plane's Gram determinant,
    for one point's curvature tensor R (2m, 2m, 2m, 2m).

    The Rayleigh quotient of R on bivectors, in an orthonormal basis
    (g = Id): with w = x ^ y, whose components are w_ij = x_i y_j - x_j y_i
    for i < j, one matrix product of the batch's w with R's (b, b) plane
    form -R(e_i, e_j, e_k, e_l) on the index pairs i < j, k < l,
    b = n(n-1)/2, gives R(x, y, y, x), and the Gram determinant is |w|^2.
    Exact for tensors antisymmetric in each index pair, as curvature
    tensors are.  Raises InvariantViolation naming the first plane whose
    Gram determinant is below 1e-12.
    """
    X, Y = planes.x, planes.y
    i, j = _bivector_pairs(X.shape[1])
    W = X[:, i] * Y[:, j] - X[:, j] * Y[:, i]
    num = np.einsum("nb,nb->n", W @ -R[i, j][:, i, j], W)
    den = np.einsum("nb,nb->n", W, W)
    bad = np.flatnonzero(den < 1e-12)
    if bad.size:
        k = int(bad[0])
        raise InvariantViolation(f"degenerate plane {k}: Gram determinant {den[k]:.3e}")
    return num / den


@np.errstate(all="ignore")  # inf - inf in a non-finite S gives NaN, which the checks refuse
def form_defects(S: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max |S - S^T|, max |J^T S J - S|) per point of S and J (..., n, n) in
    an orthonormal frame; the first is not finite where S is not."""
    return (_max_abs(S - np.swapaxes(S, -2, -1), 2),
            _max_abs(np.swapaxes(J, -2, -1) @ S @ J - S, 2))


def build_from_decomposition(S: np.ndarray, nu, J: np.ndarray, *,
                             tol: float = INVARIANT_TOL) -> np.ndarray:
    """Curvature tensors of AH3 spaces with constant antiholomorphic curvature nu:

        R = (1/6) psi(S) + nu * pi1 - ((2m-1)/3) * nu * pi2

    for Ricci tensors S (..., n, n), constants nu (...) and structures J
    (..., n, n) in an orthonormal frame.  S must be symmetric and
    J-invariant within `tol` at every point (`form_defects`), or it raises
    InvariantViolation.  Every antiholomorphic plane
    of the result has sectional curvature nu.
    """
    n = J.shape[-1]
    sd, jd = form_defects(S, J)
    if not np.all(sd <= tol):  # a NaN defect fails too
        raise InvariantViolation(f"S not symmetric: max |S - S^T| = {np.max(sd):.3e}")
    if not np.all(jd <= tol):
        raise InvariantViolation(f"S not J-invariant: max defect = {np.max(jd):.3e}")
    nu = np.asarray(nu, dtype=float)[..., None, None, None, None]
    return psi(S, J) / 6.0 + nu * pi1(n) - (n - 1) / 3.0 * nu * pi2(J)


def fit_pi_span(R: np.ndarray, P2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares coefficients (a, b) minimizing ||R - a*pi1 - b*pi2||_2
    at each point of R (..., n, n, n, n), with P2 = pi2(J) (..., n, n, n, n)
    of the points' structures J.

    Returns (a, b, residual), one value per point each, the residual the
    componentwise 2-norm of the best approximation defect, from the 2x2
    normal equations.  At m = 1, pi2 = 3*pi1 identically, so the span is a
    line with nothing to separate, and the fit raises InvariantViolation.
    """
    n = P2.shape[-1]
    if n < 4:
        raise InvariantViolation("the span fit needs m >= 2: pi2 = 3 pi1 at m = 1")
    p1 = pi1(n).reshape(n**4)
    p2 = P2.reshape(P2.shape[:-4] + (n**4,))
    r = R.reshape(R.shape[:-4] + (n**4,))
    g11 = np.sum(p1 * p1)
    g12, g22 = np.sum(p1 * p2, axis=-1), np.sum(p2 * p2, axis=-1)
    p1r, p2r = np.sum(p1 * r, axis=-1), np.sum(p2 * r, axis=-1)
    det = g11 * g22 - g12 * g12
    a = (g22 * p1r - g12 * p2r) / det
    b = (g11 * p2r - g12 * p1r) / det
    defect = r - a[..., None] * p1 - b[..., None] * p2
    return a, b, np.sqrt(np.sum(defect * defect, axis=-1))
