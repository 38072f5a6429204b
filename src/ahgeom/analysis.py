"""Plane statistics, adapted frames, residual checks and the verdict.

Every function takes tensors in an orthonormal frame (`calculus.in_frame`,
g = Id) as plain arrays, with the point's structure J where it needs one.
The residuals of tensors alone (`einstein_residual`, `bianchi2_residual`)
take arrays whose leading axes index points and give one value per
point, so a group of points is one call.  So do the checks that read a
point's S and J but not its plane draws: the adapted eigenframe, the
decomposition residual and relation (3.2) each take a stack of points
and give a list of one value per point, None where the check does not
apply, as where S is not finite or not J-invariant; one point's data
never raises or moves the others' values.  Both residuals are taken at
the point's nu: at m >= 2, nu* = <R - psi(S)/6, Q> / <Q, Q>,
Q = pi1 - (2m-1)/3 pi2, the U(m)-invariant part of R, which is the `a` of
the span fit `fit_pi_span`; at m = 1, a quarter of the curvature of the
point's one plane.  Each verdict constant (nu or 4 nu) and multi-point
constancy (`schur_check`) read it too, so none depends on the seed.  Only
the plane statistics and the verdict's constancy decisions read the
draws: the samplers take an explicit seeded generator, so every run is
reproducible, and draw a point's planes from its J as one `Planes` batch,
uniform on the unit sphere; `constancy` evaluates it on the point's R in
one `sectional_curvature` call, one matrix product.  All functions are
pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    INVARIANT_TOL,
    InvariantViolation,
    Planes,
    build_from_decomposition,
    form_defects,
    sectional_curvature,
)

__all__ = [
    "REAL_SPACE_FORM",
    "COMPLEX_SPACE_FORM",
    "NOT_CONSTANT_ANTIHOLOMORPHIC",
    "NOT_AH3",
    "INCONCLUSIVE",
    "CurvatureStats",
    "Verdict",
    "SchurReport",
    "sample_antiholomorphic_planes",
    "sample_holomorphic_planes",
    "constancy",
    "adapted_eigenframe",
    "einstein_residual",
    "decomposition_residual",
    "bianchi2_residual",
    "proof_relation_32_residual",
    "classify",
    "schur_check",
]

REAL_SPACE_FORM = "real_space_form"
COMPLEX_SPACE_FORM = "complex_space_form"
NOT_CONSTANT_ANTIHOLOMORPHIC = "not_constant_antiholomorphic"
NOT_AH3 = "not_ah3"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CurvatureStats:
    """Sectional curvature statistics over a family of sampled planes."""

    kind: str
    samples: int
    mean: float
    max_deviation: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of the constant-antiholomorphic-curvature classification."""

    kind: str
    constant: float | None
    residuals: dict[str, float]


@dataclass(frozen=True)
class SchurReport:
    """Each point's nu and their spread across points."""

    kind: str
    nu_per_point: tuple[float, ...]
    spread: float


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (n,) array of the Euclidean dot products A[i] @ B[i]."""
    return np.einsum("ij,ij->i", A, B)


def sample_antiholomorphic_planes(J: np.ndarray, n: int, rng: np.random.Generator) -> Planes:
    """n orthonormal planes (x, y) with x . Jy = 0, i.e. span(x,y) disjoint
    from its J-image, uniform on the unit sphere (g = Id), for a structure
    J (2m, 2m).  Deterministic for a fixed seed.

    One (n, 2, 2m) block of normals gives each plane's x and y draw, in the
    stream order of drawing x then y plane by plane.  x is z / |z|; y is
    projected off {x, Jx} twice and normalized, so each plane is
    orthonormal and antiholomorphic to rounding.  Rows whose projection
    degenerates are drawn again in a further block, up to 100 rounds; only
    this path consumes the stream in a different order from drawing each
    degenerate plane's y again before the next plane's x.
    """
    dim = J.shape[-1]
    if dim < 4:
        raise InvariantViolation("antiholomorphic planes need complex dimension m >= 2")
    normals = rng.standard_normal((n, 2, dim))
    X = normals[:, 0] / np.sqrt(_row_dots(normals[:, 0], normals[:, 0]))[:, None]
    Y = np.empty_like(X)
    JX = X @ J.T
    norm2 = np.empty(n)
    rows = slice(None)
    for attempt in range(100):
        draws = normals[:, 1] if attempt == 0 else rng.standard_normal((rows.size, dim))
        x, jx, y = X[rows], JX[rows], draws
        for _ in range(2):  # the second pass takes off what rounding left of x and Jx
            y = y - _row_dots(y, x)[:, None] * x - _row_dots(y, jx)[:, None] * jx
        Y[rows] = y
        norm2[rows] = _row_dots(y, y)
        rows = np.flatnonzero(~(norm2 > 1e-12))  # a NaN norm counts as degenerate
        if rows.size == 0:
            return Planes(x=X, y=Y / np.sqrt(norm2)[:, None], kind="antiholomorphic")
    raise InvariantViolation("plane sampling degenerated 100 times in a row")


def sample_holomorphic_planes(J: np.ndarray, n: int, rng: np.random.Generator) -> Planes:
    """n planes spanned by (x, Jx), x uniform on the unit sphere (g = Id),
    for a structure J (2m, 2m).

    x is z / |z| for a row z of one (n, 2m) block of normals; the stream
    order is that of drawing x plane by plane.
    """
    Z = rng.standard_normal((n, J.shape[-1]))
    X = Z / np.sqrt(_row_dots(Z, Z))[:, None]
    return Planes(x=X, y=X @ J.T, kind="holomorphic")


def constancy(R: np.ndarray, planes: Planes) -> CurvatureStats:
    """Mean and max deviation of the sectional curvature of one point's
    R (2m, 2m, 2m, 2m) over the planes."""
    if len(planes) < 1:
        raise InvariantViolation("constancy needs at least one plane")
    values = sectional_curvature(R, planes)
    mean = float(values.mean())
    return CurvatureStats(
        kind=planes.kind,
        samples=len(planes),
        mean=mean,
        max_deviation=float(np.max(np.abs(values - mean))),
    )


def adapted_eigenframe(S: np.ndarray, J: np.ndarray, tol: float = 0.0) -> list:
    """Diagonalize each point's S of a stack (P, n, n), given in an
    orthonormal frame (g = Id), by a basis adapted to the point's structure
    J of the same stack.

    Returns one frame per point: the orthonormal basis (e_1, Je_1, ...,
    e_m, Je_m) as columns and the (m,) ascending eigenvalues, the i-th that
    of span{e_i, Je_i}; or None where S is not symmetric and J-invariant
    within max(tol, INVARIANT_TOL) (`form_defects`, as in
    `decomposition_residual`), as where S is not finite.  A J-invariant S
    has its eigenvalues w in equal pairs: the i-th plane's is the mean of
    w[2i] and w[2i+1].  S commutes with J, so S + icJ has the eigenvalues
    lambda + c on the v with Jv = -iv and lambda - c on their conjugates;
    at c = 2 max |w| (1 where S = 0) the halves lie 2/3 of its norm apart
    at any scale.  Each unit v of the upper half gives e = sqrt(2) Re v and
    Je = sqrt(2) Im v.  The points take one `eigvalsh` and one complex
    `eigh`, which work point by point.
    """
    n = S.shape[-1]
    ok = np.flatnonzero(np.all(np.array(form_defects(S, J)) <= max(tol, INVARIANT_TOL), axis=0))
    w = np.linalg.eigvalsh(S[ok])
    # S + 2 max |w| iJ over a power of two: exact, and unlike 2 max |w| it cannot overflow
    fraction, scale = np.frexp(np.max(np.abs(w), axis=-1, initial=0.0)[:, None, None])
    c = np.maximum(2.0 * fraction, 1.0)  # 1 where S = 0
    v = np.linalg.eigh(np.ldexp(S[ok], -scale) + 1j * c * J[ok])[1][..., n // 2:]
    basis = np.sqrt(2.0) * np.stack([v.real, v.imag], axis=-1).reshape(-1, n, n)
    found = dict(zip(ok.tolist(), zip(basis, 0.5 * (w[..., 0::2] + w[..., 1::2]))))
    return [found.get(k) for k in range(len(S))]


def einstein_residual(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, residual) with lambda = trace(S) / 2m and residual =
    max |S - lambda g|, g = Id, one value each per point of S (..., n, n)."""
    n = S.shape[-1]
    lam = np.trace(S, axis1=-2, axis2=-1) / n
    return lam, np.max(np.abs(S - lam[..., None, None] * np.eye(n)), axis=(-2, -1))


def decomposition_residual(R: np.ndarray, S: np.ndarray, J: np.ndarray, nu: np.ndarray, *,
                           tol: float = 0.0) -> list:
    """Max-norm gap between R and the curvature tensor
    `build_from_decomposition` rebuilds from (S, nu) with the structure J,
    for stacks R (P, n, n, n, n), S and J (P, n, n) and nu (P,): one value
    per point, or None for a point whose S is not symmetric and
    J-invariant within max(tol, INVARIANT_TOL) (`form_defects`), where the
    decomposition does not apply.  The other points are rebuilt in one
    call.
    """
    tol = max(tol, INVARIANT_TOL)
    ok = np.flatnonzero(np.all(np.array(form_defects(S, J)) <= tol, axis=0))  # NaN fails
    rebuilt = build_from_decomposition(S[ok], np.asarray(nu)[ok], J[ok], tol=tol)
    values = dict(zip(ok.tolist(), np.max(np.abs(R[ok] - rebuilt), axis=(-4, -3, -2, -1)).tolist()))
    return [values.get(k) for k in range(len(S))]


def bianchi2_residual(nablaR: np.ndarray) -> np.ndarray:
    """Max over basis 5-tuples of the cyclic sum

    (nabla_x R)(y,z,u,v) + (nabla_y R)(z,x,u,v) + (nabla_z R)(x,y,u,v)

    one value per point of nablaR (..., n, n, n, n, n).
    """
    cyc = nablaR + np.moveaxis(nablaR, -3, -5)
    cyc += np.moveaxis(nablaR, -5, -3)
    return np.max(np.abs(cyc, out=cyc), axis=(-5, -4, -3, -2, -1))


def proof_relation_32_residual(frames: list, nablaS: np.ndarray, nablaJ: np.ndarray,
                               nu: np.ndarray) -> list:
    """Residual of the eigenframe relation tying nabla S to nabla J, in each
    point's adapted frame (basis, eigenvalues) of `adapted_eigenframe`:

        (nabla_{e_j} S)(e_i, e_j)
            + (lambda_i + lambda_j - 2 (2m-1) nu) g(J e_i, (nabla_{e_j} J) e_j)

    maximized over i != j, all in one orthonormal frame (g = Id).  Takes
    the per-point list of frames that `adapted_eigenframe` returns and the
    stacks nablaS and nablaJ (P, n, n, n) and nu (P,), and gives one value
    per point, or None where the frame is None, as is the decomposition
    residual: S is not J-invariant there, and (3.2) does not apply.  On
    real and complex space forms every term vanishes for any adapted frame:
    nabla S = 0, and either (nabla_X J)X = 0 or lambda_i + lambda_j =
    2 (2m-1) nu.  Elsewhere the value depends on which unit e_i of its
    plane span{e_i, Je_i} the eigensolver's phase picks.
    """
    at = [k for k, frame in enumerate(frames) if frame is not None]
    if not at:
        return [None] * len(frames)
    basis, eigenvalues = map(np.stack, zip(*(frames[k] for k in at)))
    m = basis.shape[-1] // 2
    e, je = basis[..., 0::2], basis[..., 1::2]
    # t1[i, j] = (nabla_{e_j} S)(e_i, e_j) and v[:, j] = (nabla_{e_j} J) e_j
    t1 = np.swapaxes(e, -2, -1) @ np.einsum("...kab,...kj,...bj->...aj", nablaS[at], e, e)
    v = np.einsum("...kia,...kj,...aj->...ij", nablaJ[at], e, e)
    coeff = (eigenvalues[..., :, None] + eigenvalues[..., None, :]
             - 2.0 * (2 * m - 1) * np.asarray(nu)[at][..., None, None])
    total = np.abs(t1 + coeff * (np.swapaxes(je, -2, -1) @ v))
    values = dict(zip(at, np.max(total[..., ~np.eye(m, dtype=bool)], -1, initial=0.0).tolist()))
    return [values.get(k) for k in range(len(frames))]


def classify(m: int, ah3: float, einstein: tuple[float, float], class_res,
             stats_holo: CurvatureStats, stats_antiholo: CurvatureStats | None,
             fit: tuple[float, float, float] | None, nu: float, tol: float) -> Verdict:
    """Decide the verdict for one point of complex dimension m from its
    curvature data: the AH3 residual of `ah_identity_residual(R, J)`, the
    (lambda, residual) pair of `einstein_residual(S)`, the class residuals,
    the plane statistics, the span fit (a, b, residual) of
    `fit_pi_span(R, pi2(J))`, which is None at m = 1, and the point's nu.

    Order: not AH3 beats everything; then non-constant antiholomorphic
    curvature; then a least-squares split over span{pi1, pi2} decides
    between a real space form (b ~ 0) and a complex space form (b ~ a plus
    the Kahler condition).  Anything else is inconclusive, with all
    residuals attached.  At m = 1 antiholomorphic planes do not exist and
    pi2 = 3 pi1; there the verdict comes from constant holomorphic
    curvature plus the Kahler condition.  A real space form's constant is
    nu, a complex space form's 4 nu.
    """
    residuals = {
        "ah3": ah3,
        "kahler": class_res.kahler,
        "einstein_lambda": einstein[0],
        "einstein": einstein[1],
        "holomorphic_deviation": stats_holo.max_deviation,
    }
    if stats_antiholo is not None:
        residuals["antiholomorphic_deviation"] = stats_antiholo.max_deviation

    if residuals["ah3"] > tol:
        return Verdict(NOT_AH3, None, residuals)

    if m == 1:
        if stats_holo.max_deviation <= tol and class_res.kahler <= tol:
            return Verdict(COMPLEX_SPACE_FORM, 4.0 * nu, residuals)
        return Verdict(INCONCLUSIVE, None, residuals)

    if stats_antiholo is None:
        raise InvariantViolation("antiholomorphic statistics required for m >= 2")
    if stats_antiholo.max_deviation > tol:
        return Verdict(NOT_CONSTANT_ANTIHOLOMORPHIC, None, residuals)

    a, b, fit_residual = fit
    residuals.update({"fit_a": a, "fit_b": b, "fit": fit_residual})
    if fit_residual <= tol and abs(b) <= tol:
        return Verdict(REAL_SPACE_FORM, nu, residuals)
    if fit_residual <= tol and abs(b - a) <= tol and class_res.kahler <= tol:
        return Verdict(COMPLEX_SPACE_FORM, 4.0 * nu, residuals)
    return Verdict(INCONCLUSIVE, None, residuals)


def schur_check(nus: list[float], m: int) -> SchurReport:
    """The points' nu at complex dimension m and their spread.

    kind names the planes nu describes: holomorphic at m = 1, where nu is
    a quarter of the one plane's curvature, else antiholomorphic.  A
    pointwise constant that is also constant across points (small spread)
    is the numerical shadow of the global-constancy statement for m > 2.
    """
    if len(nus) < 2:
        raise InvariantViolation("the multi-point constancy check needs >= 2 points")
    return SchurReport(kind="antiholomorphic" if m >= 2 else "holomorphic",
                       nu_per_point=tuple(nus), spread=float(max(nus) - min(nus)))
