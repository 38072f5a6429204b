"""Plane statistics, adapted frames, residual checks and the verdict.

The sampling functions take an explicit seeded generator, never ambient
random state, so every run is reproducible.  They draw a point's planes as
one `Planes` batch, and `constancy` evaluates the batch in one
`sectional_curvature` call.  All functions are pure and operate per point;
multi-point constancy (`schur_check`) is a pure function of the per-point
statistics and draws no planes of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    INVARIANT_TOL,
    Bilinear,
    CurvatureTensor,
    HermitianPoint,
    InvariantViolation,
    Planes,
    build_from_decomposition,
    fit_pi_span,
    row_apply,
    row_inner,
    sectional_curvature,
)

__all__ = [
    "REAL_SPACE_FORM",
    "COMPLEX_SPACE_FORM",
    "NOT_CONSTANT_ANTIHOLOMORPHIC",
    "NOT_AH3",
    "INCONCLUSIVE",
    "CurvatureStats",
    "SpectralFrame",
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
class SpectralFrame:
    """Adapted orthonormal basis (e_1, Je_1, ..., e_m, Je_m) diagonalizing S.

    basis[:, 2i] = e_i and basis[:, 2i+1] = J e_i; eigenvalues[i] is the
    eigenvalue shared by the J-invariant 2-plane span{e_i, Je_i}.
    """

    point: HermitianPoint
    basis: np.ndarray
    eigenvalues: tuple[float, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of the constant-antiholomorphic-curvature classification."""

    kind: str
    constant: float | None
    residuals: dict[str, float]


@dataclass(frozen=True)
class SchurReport:
    """Per-point curvature means and their spread across points."""

    kind: str
    nu_per_point: tuple[float, ...]
    spread: float


def _g_units(g: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The rows of V scaled to g-unit length."""
    return V / np.sqrt(row_inner(V, g, V))[:, None]


def sample_antiholomorphic_planes(ctx: HermitianPoint, n: int, rng: np.random.Generator) -> Planes:
    """n orthonormal planes (x, y) with g(x, Jy) = 0, i.e. span(x,y) disjoint
    from its J-image.  Deterministic for a fixed seed.

    One (n, 2, 2m) block of normals gives each plane's x and y draw, in the
    stream order of drawing x then y plane by plane.  x is scaled to the
    g-unit sphere; y is g-projected off {x, Jx} and normalized.  Rows whose
    projection degenerates are drawn again in a further block, up to 100
    rounds; only this path consumes the stream in a different order from
    drawing each degenerate plane's y again before the next plane's x.
    """
    if ctx.m < 2:
        raise InvariantViolation("antiholomorphic planes need complex dimension m >= 2")
    g = ctx.g
    normals = rng.standard_normal((n, 2, ctx.dim))
    X = _g_units(g, normals[:, 0])
    JX = row_apply(ctx.J, X)
    Y = np.empty_like(X)
    norm2 = np.empty(n)
    rows = np.arange(n)
    for attempt in range(100):
        draws = normals[:, 1] if attempt == 0 else rng.standard_normal((rows.size, ctx.dim))
        x, jx = X[rows], JX[rows]
        y = draws - row_inner(draws, g, x)[:, None] * x - row_inner(draws, g, jx)[:, None] * jx
        Y[rows] = y
        norm2[rows] = row_inner(y, g, y)
        rows = rows[~(norm2[rows] > 1e-12)]  # a NaN norm counts as degenerate
        if rows.size == 0:
            return Planes(x=X, y=Y / np.sqrt(norm2)[:, None], kind="antiholomorphic")
    raise InvariantViolation("plane sampling degenerated 100 times in a row")


def sample_holomorphic_planes(ctx: HermitianPoint, n: int, rng: np.random.Generator) -> Planes:
    """n planes spanned by (x, Jx) with x on the g-unit sphere."""
    X = _g_units(ctx.g, rng.standard_normal((n, ctx.dim)))
    return Planes(x=X, y=row_apply(ctx.J, X), kind="holomorphic")


def constancy(R: CurvatureTensor, planes: Planes) -> CurvatureStats:
    """Mean and max deviation of the sectional curvature over the planes."""
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


def _cluster(eigenvalues: np.ndarray, merge_tol: float) -> list[slice]:
    """Group consecutive sorted eigenvalues whose gaps are below merge_tol."""
    slices = []
    start = 0
    for k in range(1, eigenvalues.size + 1):
        if k == eigenvalues.size or eigenvalues[k] - eigenvalues[k - 1] > merge_tol:
            slices.append(slice(start, k))
            start = k
    return slices


def adapted_eigenframe(S: Bilinear, tol: float = 0.0) -> SpectralFrame:
    """Diagonalize S relative to g by a J-adapted orthonormal basis.

    Solves the symmetric eigenproblem of S relative to g; eigenvalues closer
    than max(tol, 1e-8) are merged into one eigenspace.  Within each
    eigenspace (J-invariant when S commutes with J) a unit vector e is
    picked, Je is adjoined, the 2-plane is deflated, and the process
    repeats.  If an eigenspace is not J-closed within max(tol, 1e-6) the
    input was not J-invariant.
    """
    pt = S.point
    g, J = pt.g, pt.J
    sym = 0.5 * (S.values + S.values.T)
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    A = Linv @ sym @ Linv.T
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    vecs = Linv.T @ V  # columns are g-orthonormal generalized eigenvectors

    def paired(vectors):
        # each v with v @ g: g(v, b) is float(v @ g @ b), that is float((v @ g) @ b),
        # so taking v @ g once for every product with v keeps every bit
        return [(v, v @ g) for v in vectors]

    basis_cols = []
    eigenvalues = []
    for block in _cluster(w, max(tol, 1e-8)):
        value = float(w[block].mean())
        cluster = [vecs[:, k] for k in range(block.start, block.stop)]
        full = list(cluster)
        while cluster:
            e = _g_units(g, cluster.pop(0)[None])[0]
            je = J @ e
            # J-closure: Je must stay inside the original eigenspace
            jeg = je @ g
            outside = je - sum(float(jeg @ u) * u for u in full)
            defect = float(np.sqrt(max(float(outside @ g @ outside), 0.0)))
            if defect > max(tol, 1e-6):
                raise InvariantViolation(
                    f"S is not J-invariant: eigenspace not J-closed (defect {defect:.3e})"
                )
            basis_cols += [e, je]
            eigenvalues.append(value)
            # deflate span{e, Je}: the remaining vectors span a space whose
            # dimension drops by one more; re-orthonormalize with pivoting
            reduced = paired(u - float(ug @ e) * e - float(ug @ je) * je
                             for u, ug in paired(cluster))
            target = len(cluster) - 1
            cluster = []
            while len(cluster) < target:
                norms = [float(vg @ v) for v, vg in reduced]
                best = int(np.argmax(norms))
                if norms[best] < 1e-12:
                    raise InvariantViolation("eigenframe deflation degenerated")
                u = reduced.pop(best)[0] / np.sqrt(norms[best])
                reduced = paired(v - float(vg @ u) * u for v, vg in reduced)
                cluster.append(u)
    return SpectralFrame(point=pt, basis=np.column_stack(basis_cols),
                         eigenvalues=tuple(eigenvalues))


def einstein_residual(S: Bilinear) -> tuple[float, float]:
    """(lambda, residual) with lambda = trace_g(S) / 2m and residual = max |S - lambda g|."""
    pt = S.point
    lam = float(np.trace(pt.g_inv @ S.values)) / pt.dim
    return lam, float(np.max(np.abs(S.values - lam * pt.g)))


def decomposition_residual(R: CurvatureTensor, S: Bilinear, nu: float,
                           *, tol: float = 0.0) -> float | None:
    """Max-norm gap between R and the curvature tensor rebuilt from (S, nu).

    None when S is not symmetric and J-invariant within
    max(tol, INVARIANT_TOL): the decomposition then does not apply.
    """
    try:
        rebuilt = build_from_decomposition(S, nu, tol=max(tol, INVARIANT_TOL))
    except InvariantViolation:
        return None
    return float(np.max(np.abs(R.values - rebuilt.values)))


def bianchi2_residual(nablaR: np.ndarray) -> float:
    """Max over basis 5-tuples of the cyclic sum

    (nabla_x R)(y,z,u,v) + (nabla_y R)(z,x,u,v) + (nabla_z R)(x,y,u,v)
    """
    cyc = (
        nablaR
        + np.einsum("yzxuv->xyzuv", nablaR)
        + np.einsum("zxyuv->xyzuv", nablaR)
    )
    return float(np.max(np.abs(cyc)))


def proof_relation_32_residual(frame: SpectralFrame, nablaS: np.ndarray,
                               nablaJ: np.ndarray, nu: float) -> float:
    """Residual of the eigenframe relation tying nabla S to nabla J:

        (nabla_{e_j} S)(e_i, e_j)
            + (lambda_i + lambda_j - 2 (2m-1) nu) g(J e_i, (nabla_{e_j} J) e_j)

    maximized over i != j.  Zero (up to rounding) on spaces with
    constant antiholomorphic curvature; trivially small when both nabla S
    and the (nabla_X J)X defect vanish.
    """
    pt = frame.point
    m = pt.m
    g = pt.g
    lam = frame.eigenvalues
    worst = 0.0
    for i in range(m):
        e_i = frame.basis[:, 2 * i]
        je_i = frame.basis[:, 2 * i + 1]
        for j in range(m):
            if i == j:
                continue
            e_j = frame.basis[:, 2 * j]
            t1 = float(np.einsum("kab,k,a,b->", nablaS, e_j, e_i, e_j))
            v = np.einsum("kia,k,a->i", nablaJ, e_j, e_j)
            t2 = (lam[i] + lam[j] - 2.0 * (2 * m - 1) * nu) * float(je_i @ g @ v)
            worst = max(worst, abs(t1 + t2))
    return worst


def classify(R: CurvatureTensor, ah3: float, einstein: tuple[float, float], class_res,
             stats_holo: CurvatureStats, stats_antiholo: CurvatureStats | None,
             tol: float) -> Verdict:
    """Decide the verdict for one point from its curvature data: R, its AH3
    residual `ah_identity_residual(R, 3)`, the (lambda, residual) pair of
    `einstein_residual(S)`, the class residuals and the plane statistics.

    Order: not AH3 beats everything; then non-constant antiholomorphic
    curvature; then a least-squares split over span{pi1, pi2} decides
    between a real space form (b ~ 0) and a complex space form (b ~ a plus
    the Kahler condition).  Anything else is inconclusive, with all
    residuals attached.  At m = 1 antiholomorphic planes do not exist and
    pi2 = 3 pi1; there the verdict comes from constant holomorphic
    curvature plus the Kahler condition.
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

    if R.point.m == 1:
        if stats_holo.max_deviation <= tol and class_res.kahler <= tol:
            return Verdict(COMPLEX_SPACE_FORM, stats_holo.mean, residuals)
        return Verdict(INCONCLUSIVE, None, residuals)

    if stats_antiholo is None:
        raise InvariantViolation("antiholomorphic statistics required for m >= 2")
    if stats_antiholo.max_deviation > tol:
        return Verdict(NOT_CONSTANT_ANTIHOLOMORPHIC, None, residuals)

    a, b, fit_residual = fit_pi_span(R)
    residuals.update({"fit_a": a, "fit_b": b, "fit": fit_residual})
    if fit_residual <= tol and abs(b) <= tol:
        return Verdict(REAL_SPACE_FORM, a, residuals)
    if fit_residual <= tol and abs(b - a) <= tol and class_res.kahler <= tol:
        return Verdict(COMPLEX_SPACE_FORM, 4.0 * a, residuals)
    return Verdict(INCONCLUSIVE, None, residuals)


def schur_check(stats: list[CurvatureStats]) -> SchurReport:
    """Per-point curvature means and their spread across points.

    `stats` holds one point's antiholomorphic statistics each (holomorphic
    for m = 1).  A pointwise constant that is also constant across points
    (small spread) is the numerical shadow of the global-constancy
    statement for m > 2.
    """
    if len(stats) < 2:
        raise InvariantViolation("the multi-point constancy check needs >= 2 points")
    nus = tuple(s.mean for s in stats)
    return SchurReport(kind=stats[0].kind, nu_per_point=nus, spread=float(max(nus) - min(nus)))
