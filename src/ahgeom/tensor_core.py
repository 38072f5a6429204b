"""Pointwise multilinear algebra for almost Hermitian structures.

Everything in this module is exact linear algebra on one tangent space:
the curvature-type operators ``pi1``/``pi2``/``psi``, sectional curvature
of a batch of 2-planes (``Planes``), the three AH curvature identities, and
construction / least-squares splitting of curvature tensors over
span{pi1, pi2}.  No differentiation and no charts happen here; the
functions are pure and the containers are immutable, so concurrent use is
safe.

Sign conventions are fixed so that the unit round sphere has curvature
tensor ``pi1`` and the sectional curvature of an orthonormal plane (x, y)
is ``R(x, y, y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "INVARIANT_TOL",
    "InvariantViolation",
    "HermitianPoint",
    "Bilinear",
    "CurvatureTensor",
    "Planes",
    "standard_j",
    "psi",
    "pi1",
    "pi2",
    "ah_identity_residual",
    "riemann_symmetry_residual",
    "sectional_curvature",
    "build_from_decomposition",
    "fit_pi_span",
]

# Entrywise tolerance of the almost Hermitian invariants, and the floor of
# the symmetry and J-invariance checks on a Ricci tensor.
INVARIANT_TOL = 1e-8


class InvariantViolation(ValueError):
    """An input breaks a structural invariant (message carries the magnitude)."""


def _frozen_array(values, shape: tuple[int, ...]) -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.shape != shape:
        raise InvariantViolation(f"expected array of shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


def standard_j(m: int) -> np.ndarray:
    """Constant complex structure pairing coordinates (2k, 2k+1): J e_{2k} = e_{2k+1}."""
    J = np.zeros((2 * m, 2 * m))
    for k in range(m):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


@dataclass(frozen=True, eq=False)
class HermitianPoint:
    """A tangent space R^{2m} with metric g and compatible almost complex structure J.

    Invariants, each enforced to INVARIANT_TOL (absolute, entrywise):
    g symmetric positive definite, J @ J = -Id, and J^T g J = g.

    frame = (Linv, K) is the metric's Cholesky frame, from the one
    factorization g = L L^T that also checks positive definiteness.  Its
    basis is the columns of L^-T, which are g-orthonormal: a row v of frame
    components has the coordinates v @ Linv, with Linv = L^-1.  K = L^T J L^-T
    is J in that frame, an orthogonal matrix with K @ K = -Id.
    """

    m: int
    g: np.ndarray
    J: np.ndarray
    frame: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise InvariantViolation("complex dimension m must be >= 1")
        n = 2 * self.m
        object.__setattr__(self, "g", _frozen_array(self.g, (n, n)))
        object.__setattr__(self, "J", _frozen_array(self.J, (n, n)))
        sym = float(np.max(np.abs(self.g - self.g.T)))
        if sym > INVARIANT_TOL:
            raise InvariantViolation(f"metric not symmetric: max |g - g^T| = {sym:.3e}")
        try:
            L = np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise InvariantViolation("metric not positive definite") from None
        jj = float(np.max(np.abs(self.J @ self.J + np.eye(n))))
        if jj > INVARIANT_TOL:
            raise InvariantViolation(f"J @ J differs from -Id: max residual = {jj:.3e}")
        comp = float(np.max(np.abs(self.J.T @ self.g @ self.J - self.g)))
        if comp > INVARIANT_TOL:
            raise InvariantViolation(
                f"J not compatible with metric: max |J^T g J - g| = {comp:.3e}"
            )
        Linv = np.linalg.inv(L)
        K = L.T @ self.J @ Linv.T
        Linv.setflags(write=False)
        K.setflags(write=False)
        object.__setattr__(self, "frame", (Linv, K))

    @property
    def dim(self) -> int:
        return 2 * self.m

    @classmethod
    def standard_flat(cls, m: int) -> "HermitianPoint":
        return cls(m=m, g=np.eye(2 * m), J=standard_j(m))


@dataclass(frozen=True, eq=False)
class Bilinear:
    """A (0,2) tensor at a point, stored as Q[i, j] = Q(e_i, e_j).

    Symmetry and J-invariance are not assumed; they are measured by the
    defect methods and gated where an operation requires them.
    """

    point: HermitianPoint
    values: np.ndarray

    def __post_init__(self):
        n = self.point.dim
        object.__setattr__(self, "values", _frozen_array(self.values, (n, n)))

    @classmethod
    def from_metric(cls, point: HermitianPoint) -> "Bilinear":
        return cls(point, point.g)

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))

    def j_invariance_defect(self) -> float:
        """max |Q(Jx, Jy) - Q(x, y)| over basis pairs."""
        J = self.point.J
        return float(np.max(np.abs(J.T @ self.values @ J - self.values)))


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """A (0,4) tensor at a point: values[i, j, k, l] = R(e_i, e_j, e_k, e_l)."""

    point: HermitianPoint
    values: np.ndarray

    def __post_init__(self):
        n = self.point.dim
        object.__setattr__(self, "values", _frozen_array(self.values, (n, n, n, n)))

    @cached_property
    def _plane_form(self) -> np.ndarray:
        """The (b, b) matrix -R[(ij), (kl)] = -R(e_i, e_j, e_k, e_l) on the
        index pairs i < j, b = n(n-1)/2."""
        i, j = np.triu_indices(self.point.dim, 1)
        form = -self.values[i, j][:, i, j]
        form.setflags(write=False)
        return form


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


def psi(Q: Bilinear) -> CurvatureTensor:
    """Six-term curvature-type product of a (0,2) tensor with the fundamental form.

    psi(Q)(x,y,z,u) = g(x,Ju) Q(y,Jz) - g(x,Jz) Q(y,Ju) - 2 g(x,Jy) Q(z,Ju)
                    + g(y,Jz) Q(x,Ju) - g(y,Ju) Q(x,Jz) - 2 g(z,Ju) Q(x,Jy)

    For symmetric J-invariant Q the result has all the algebraic symmetries
    of a curvature tensor; for arbitrary Q it does not.
    """
    pt = Q.point
    A = pt.g @ pt.J  # A[i, j] = g(e_i, J e_j)
    B = Q.values @ pt.J  # B[i, j] = Q(e_i, J e_j)
    values = (
        np.einsum("xu,yz->xyzu", A, B)
        - np.einsum("xz,yu->xyzu", A, B)
        - 2.0 * np.einsum("xy,zu->xyzu", A, B)
        + np.einsum("yz,xu->xyzu", A, B)
        - np.einsum("yu,xz->xyzu", A, B)
        - 2.0 * np.einsum("zu,xy->xyzu", A, B)
    )
    return CurvatureTensor(pt, values)


def pi1(ctx: HermitianPoint) -> CurvatureTensor:
    """Constant-curvature building block: pi1(x,y,z,u) = g(x,u)g(y,z) - g(x,z)g(y,u)."""
    g = ctx.g
    values = np.einsum("xu,yz->xyzu", g, g) - np.einsum("xz,yu->xyzu", g, g)
    return CurvatureTensor(ctx, values)


def pi2(ctx: HermitianPoint) -> CurvatureTensor:
    """Complex-space-form building block, equal to psi(g) / 2:

    pi2(x,y,z,u) = g(x,Ju)g(y,Jz) - g(x,Jz)g(y,Ju) - 2 g(x,Jy)g(z,Ju)
    """
    A = ctx.g @ ctx.J
    values = (
        np.einsum("xu,yz->xyzu", A, A)
        - np.einsum("xz,yu->xyzu", A, A)
        - 2.0 * np.einsum("xy,zu->xyzu", A, A)
    )
    return CurvatureTensor(ctx, values)


def _rotate_slots(values: np.ndarray, J: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Apply J to the given argument slots of a (0,4) tensor."""
    out = values
    letters = "ijkl"
    for s in slots:
        src = letters[s]
        spec = letters.replace(src, "a") + f",a{src}->" + letters
        out = np.einsum(spec, out, J)
    return out


def ah_identity_residual(R: CurvatureTensor, which: int) -> float:
    """Max-norm violation of one of the three AH curvature identities.

    1: R(X,Y,Z,U) = R(X,Y,JZ,JU)
    2: R(X,Y,Z,U) = R(X,Y,JZ,JU) + R(X,JY,Z,JU) + R(JX,Y,Z,JU)
    3: R(X,Y,Z,U) = R(JX,JY,JZ,JU)

    Zero means the tensor satisfies the identity at this point.
    """
    V, J = R.values, R.point.J
    if which == 1:
        rhs = _rotate_slots(V, J, (2, 3))
    elif which == 2:
        rhs = (
            _rotate_slots(V, J, (2, 3))
            + _rotate_slots(V, J, (1, 3))
            + _rotate_slots(V, J, (0, 3))
        )
    elif which == 3:
        rhs = _rotate_slots(V, J, (0, 1, 2, 3))
    else:
        raise ValueError(f"identity index must be 1, 2 or 3, got {which!r}")
    return float(np.max(np.abs(V - rhs)))


def riemann_symmetry_residual(R: CurvatureTensor) -> float:
    """Max violation of the algebraic curvature symmetries.

    Checks antisymmetry in the first and second index pairs, pair exchange
    symmetry, and the first Bianchi cyclic identity.
    """
    V = R.values
    r = float(np.max(np.abs(V + np.einsum("jikl->ijkl", V))))
    r = max(r, float(np.max(np.abs(V + np.einsum("ijlk->ijkl", V)))))
    r = max(r, float(np.max(np.abs(V - np.einsum("klij->ijkl", V)))))
    cyc = V + np.einsum("jkil->ijkl", V) + np.einsum("kijl->ijkl", V)
    return max(r, float(np.max(np.abs(cyc))))


def sectional_curvature(R: CurvatureTensor, planes: Planes) -> np.ndarray:
    """(n,) array of R(x, y, y, x) normalized by each plane's Gram determinant.

    The Rayleigh quotient of R on bivectors, in an orthonormal basis
    (g = Id): with w = x ^ y, whose components are w_ij = x_i y_j - x_j y_i
    for i < j, one matrix product of the batch's w with R's cached plane
    form gives R(x, y, y, x), and the Gram determinant is |w|^2.  Exact for
    tensors antisymmetric in each index pair, as curvature tensors are.
    Raises InvariantViolation naming the first plane whose Gram determinant
    is below 1e-12.
    """
    X, Y = planes.x, planes.y
    i, j = np.triu_indices(X.shape[1], 1)
    W = X[:, i] * Y[:, j] - X[:, j] * Y[:, i]
    num = np.einsum("nb,nb->n", W @ R._plane_form, W)
    den = np.einsum("nb,nb->n", W, W)
    bad = np.flatnonzero(den < 1e-12)
    if bad.size:
        k = int(bad[0])
        raise InvariantViolation(f"degenerate plane {k}: Gram determinant {den[k]:.3e}")
    return num / den


def build_from_decomposition(S: Bilinear, nu: float, *,
                             tol: float = INVARIANT_TOL) -> CurvatureTensor:
    """Curvature tensor of an AH3 space with constant antiholomorphic curvature nu:

        R = (1/6) psi(S) + nu * pi1 - ((2m-1)/3) * nu * pi2

    S must be symmetric and J-invariant within `tol`.
    Every antiholomorphic plane of the result has sectional curvature nu.
    """
    pt = S.point
    sd = S.symmetry_defect()
    if sd > tol:
        raise InvariantViolation(f"S not symmetric: max |S - S^T| = {sd:.3e}")
    jd = S.j_invariance_defect()
    if jd > tol:
        raise InvariantViolation(f"S not J-invariant: max defect = {jd:.3e}")
    values = (
        psi(S).values / 6.0
        + nu * pi1(pt).values
        - (2 * pt.m - 1) / 3.0 * nu * pi2(pt).values
    )
    return CurvatureTensor(pt, values)


def fit_pi_span(R: CurvatureTensor) -> tuple[float, float, float]:
    """Least-squares coefficients (a, b) minimizing ||R - a*pi1 - b*pi2||_2.

    Returns (a, b, residual) with the componentwise 2-norm of the best
    approximation defect.  Solves the 2x2 normal equations; if pi1 and pi2
    are (numerically) parallel, which happens exactly at m = 1 where
    pi2 = 3*pi1 identically, falls back to the minimum-norm solution.
    """
    p1 = pi1(R.point).values.ravel()
    p2 = pi2(R.point).values.ravel()
    r = R.values.ravel()
    g11 = float(p1 @ p1)
    g12 = float(p1 @ p2)
    g22 = float(p2 @ p2)
    det = g11 * g22 - g12 * g12
    if abs(det) > 1e-12 * g11 * g22:
        a = (g22 * float(p1 @ r) - g12 * float(p2 @ r)) / det
        b = (g11 * float(p2 @ r) - g12 * float(p1 @ r)) / det
    else:
        coeffs, *_ = np.linalg.lstsq(np.stack([p1, p2], axis=1), r, rcond=None)
        a, b = float(coeffs[0]), float(coeffs[1])
    residual = float(np.linalg.norm(r - a * p1 - b * p2))
    return a, b, residual
