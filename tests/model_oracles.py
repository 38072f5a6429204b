"""Oracles for the bundled models and for the stacked tensor kernels.

The chart-text generators and the expectation formulas are what the
packaged `.ahm` files and the expectation table in `ahgeom.models` were
written from.  The generators vary the parameters the bundled files fix
(m, c, r1, r2), so tests can also build charts that are not bundled.
`jet_at` is the jet of a chart at one point, a group of one, for tests
that look at points one at a time, and `frame_at` its K, R, nabla J and
nabla R in the frame the analysis uses.  `dumped` is the bytes a report's
`to_json` must give.

`g_derivatives` gathers a jet's distinct derivatives of g into the full
blocks of each order, for the tests that compare them with other
derivatives and for the oracles that read them.

The kernel oracles are the per-point einsum definitions of nabla R, the
AH identities and psi that the stacked matrix-product kernels replaced:
one point at a time, each index spelled out.  `connection_reference`,
`nabla_R_reference` and `in_frame_reference` are the stacked connection,
nabla R and frame change lowered from the full blocks by strided passes,
with a new array per product, whose bytes `assert_kernels_match_reference`
asks of the kernels that gather from the distinct derivatives and reuse
their buffers.  The adapted eigenframe and relation (3.2) oracles are the
one-point code the stacked checks must reproduce bit for bit.
`kernel_cases` are the (J, R) pairs the kernels are tested on, and
`kulkarni_nomizu` builds curvature tensors from symmetric forms.

The fixture charts are the hard cases beside the bundled models, one
file each in `tests/charts`, whose comment says what the chart pins;
`fixture_chart` parses one.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ahgeom.analysis import (
    COMPLEX_SPACE_FORM,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
)
from ahgeom.calculus import (
    _curvature,
    _products,
    in_frame,
    nabla_J,
    nabla_R,
    riemann,
)
from ahgeom.charts import parse_chart
from ahgeom.models import ExpectedProfile, get_model
from ahgeom.selftest import random_j_invariant_bilinear, random_structure
from ahgeom.tensor_core import build_from_decomposition

CHARTS = Path(__file__).parent / "charts"


def fixture_chart(name):
    """The chart of `tests/charts/<name>.ahm`, parsed afresh on each call."""
    return parse_chart((CHARTS / f"{name}.ahm").read_text(encoding="utf-8"))


def jet_at(chart, p):
    """The jet of `chart` at p, any sequence of coordinates: `ChartSpec.jet`
    of p alone, a group of one."""
    return chart.jet([np.asarray(p, dtype=float)])


def g_derivatives(jet):
    """[dg, ddg, dddg], the full C-contiguous blocks dg[p, a, i, j] = d_a g_ij,
    ddg[p, a, b, i, j] and dddg[p, a, b, c, i, j] of the jet's distinct
    derivatives (`Jet.dg`), in their order: the cells i <= j row by row,
    and within each the multisets of directions as
    `itertools.combinations_with_replacement` lists them."""
    P, n = jet.g.shape[:2]
    rows, cols = np.triu_indices(n)
    blocks = []
    for k, flat in enumerate(jet.dg, start=1):
        sets = list(itertools.combinations_with_replacement(range(n), k))
        values = flat.reshape(P, rows.size, len(sets))
        block = np.empty((n,) * (k + 2) + (P,))
        for s, dirs in enumerate(sets):
            for a in set(itertools.permutations(dirs)):
                block[a][rows, cols] = block[a][cols, rows] = values[:, :, s].T
        blocks.append(np.ascontiguousarray(np.moveaxis(block, -1, 0)))
    return blocks


def dumped(report):
    """The bytes `to_json` must give: json.dumps of the report's dict."""
    return json.dumps(report.to_dict(), indent=2) + "\n"


def frame_at(chart, p):
    """(K, R, nabla J, nabla R) of `chart` at p in the metric's Cholesky
    frame, where g = Id and J is K, as `report.analyze_point` checks them."""
    jet = jet_at(chart, p)
    R, NJ, NR = in_frame(jet, riemann(jet), nabla_J(jet), nabla_R(jet))
    return jet.K[0], R[0], NJ[0], NR[0]


# ---------------------------------------------------------------------------
# Kernel oracles: one point, einsum
# ---------------------------------------------------------------------------


def _lower_oracle(D):
    return 0.5 * (np.einsum("...jlk->...ljk", D) + np.einsum("...klj->...ljk", D) - D)


def _curvature_oracle(dlow, *pairs):
    R = np.einsum("...iljk->...ijkl", dlow) - np.einsum("...jlik->...ijkl", dlow)
    for gamma, low in pairs:
        q = np.einsum("...pjl,...pik->...ijkl", gamma, low)
        R = R + q - np.swapaxes(q, -4, -3)
    return R


def nabla_R_oracle(g, dg, ddg, dddg):
    """(nabla_v R)(x, y, z, u) at one point from g and its derivatives
    dg[a, i, j] = d_a g_ij, ddg[a, b, i, j] and dddg[a, b, c, i, j]."""
    g_inv = np.linalg.inv(g)
    low, dlow = _lower_oracle(dg), _lower_oracle(ddg)
    gamma = np.einsum("il,ljk->ijk", g_inv, low)
    dgamma = np.einsum("il,aljk->aijk", g_inv, dlow - np.einsum("alm,mjk->aljk", dg, gamma))
    R0 = _curvature_oracle(dlow, (gamma, low))
    dR = _curvature_oracle(_lower_oracle(dddg), (dgamma, low), (gamma, dlow))
    return (
        dR
        - np.einsum("avx,ayzu->vxyzu", gamma, R0)
        - np.einsum("avy,xazu->vxyzu", gamma, R0)
        - np.einsum("avz,xyau->vxyzu", gamma, R0)
        - np.einsum("avu,xyza->vxyzu", gamma, R0)
    )


def _lower_reference(D, out=None):
    """Christoffel symbols Gamma_ljk of the first kind, or their derivatives,
    from the full block D[..., a, i, j] of g's derivatives: out[..., l, j, k]."""
    out = np.add(np.swapaxes(D, -3, -2), np.moveaxis(D, -3, -1), out=out)
    out -= D
    out *= 0.5
    return out


def connection_reference(jet):
    """`Jet._connection` as it was when the jet held the full blocks of g's
    derivatives, each lowered by strided passes: (gamma, low, dlow, dgamma)."""
    dg, ddg, _ = g_derivatives(jet)
    P, n = jet.g.shape[:2]
    g_inv = np.linalg.inv(jet.g)
    low, dlow = _lower_reference(dg), _lower_reference(ddg)
    gamma = (g_inv @ low.reshape(P, n, n * n)).reshape(P, n, n, n)
    t = dlow - (dg.reshape(P, n * n, n) @ gamma.reshape(P, n, n * n)).reshape(P, n, n, n, n)
    dgamma = (g_inv[:, None] @ t.reshape(P, n, n, n * n)).reshape(P, n, n, n, n)
    return gamma, low, dlow, dgamma


def nabla_R_reference(jet):
    """`calculus.nabla_R` as it was before it gathered from the jet's
    distinct derivatives and reused two buffers: the connection and the
    second derivatives of Gamma_ljk lowered from the full blocks by strided
    passes, and the same products in the same order, each into an array of
    its own."""
    gamma, low, dlow, dgamma = connection_reference(jet)
    R0 = _products(gamma, low)
    R0 += np.swapaxes(dlow, -3, -1)
    R0 = _curvature(R0)
    P, n = jet.g.shape[:2]
    X = np.empty((P,) + (n,) * 5)
    _lower_reference(g_derivatives(jet)[2], out=np.swapaxes(X, -3, -1))
    X += _products(dgamma, low[:, None])
    X += _products(gamma[:, None], dlow)
    NR = _curvature(X)
    del X
    G = np.moveaxis(gamma, 1, 3)
    NR -= (G.reshape(P, n * n, n) @ R0.reshape(P, n, n**3)).reshape(NR.shape)
    NR -= (G[:, :, None] @ R0.reshape(P, 1, n, n, n * n)).reshape(NR.shape)
    NR -= G[:, :, None, None] @ R0[:, None]
    NR -= (R0.reshape(P, 1, n**3, n) @ np.swapaxes(gamma, 1, 2)).reshape(NR.shape)
    return NR


def _to_frame_reference(T, Linv):
    P, n = Linv.shape[:2]
    frame = np.swapaxes(Linv, 1, 2)
    for _ in range(T.ndim - 1):
        T = (np.swapaxes(T.reshape(P, n, -1), 1, 2) @ frame).reshape(T.shape)
    return T


def in_frame_reference(jet, R, NJ, NR):
    """`calculus.in_frame` as it was before it changed nabla R's frame in
    place: a new array per product, every argument left unchanged."""
    return (_to_frame_reference(R, jet.Linv),
            _to_frame_reference(jet.g[:, None] @ NJ, jet.Linv),
            _to_frame_reference(NR, jet.Linv))


def assert_kernels_match_reference(jet):
    """The connection, `nabla_R` and `in_frame` give the references' bytes
    on the jet, and `in_frame` leaves R and nabla J as they were."""
    assert ([T.tobytes() for T in jet._connection]
            == [T.tobytes() for T in connection_reference(jet)])
    R, NJ = riemann(jet), nabla_J(jet)
    NR = nabla_R(jet)
    want = nabla_R_reference(jet)
    assert NR.tobytes() == want.tobytes()
    framed = in_frame_reference(jet, R, NJ, want)
    R_bytes, NJ_bytes = R.tobytes(), NJ.tobytes()
    got = in_frame(jet, R, NJ, NR)
    assert [T.tobytes() for T in got] == [T.tobytes() for T in framed]
    assert (R.tobytes(), NJ.tobytes()) == (R_bytes, NJ_bytes)


def _rotate_slots_oracle(values, J, slots):
    out = values
    letters = "ijkl"
    for s in slots:
        src = letters[s]
        spec = letters.replace(src, "a") + f",a{src}->" + letters
        out = np.einsum(spec, out, J)
    return out


def ah_identity_oracle(V, J, which):
    """max |V - rhs| for AH identity 1, 2 or 3 of one (0,4) tensor V."""
    rotated = {
        1: lambda: _rotate_slots_oracle(V, J, (2, 3)),
        2: lambda: (_rotate_slots_oracle(V, J, (2, 3)) + _rotate_slots_oracle(V, J, (1, 3))
                    + _rotate_slots_oracle(V, J, (0, 3))),
        3: lambda: _rotate_slots_oracle(V, J, (0, 1, 2, 3)),
    }[which]()
    return float(np.max(np.abs(V - rotated)))


def psi_oracle(Q, J):
    """psi(Q) of one (0,2) tensor Q in an orthonormal frame, term by term."""
    B = Q @ J
    return (
        np.einsum("xu,yz->xyzu", J, B)
        - np.einsum("xz,yu->xyzu", J, B)
        - 2.0 * np.einsum("xy,zu->xyzu", J, B)
        + np.einsum("yz,xu->xyzu", J, B)
        - np.einsum("yu,xz->xyzu", J, B)
        - 2.0 * np.einsum("zu,xy->xyzu", J, B)
    )


def eigenframe_oracle(S, J, tol):
    """One point's adapted frame as `analysis.adapted_eigenframe` takes it,
    in 2-D calls and one plane at a time.  None unless S is symmetric and
    J-invariant within max(tol, 1e-8)."""
    defect = max(np.max(np.abs(S - S.T)), np.max(np.abs(J.T @ S @ J - S)))
    if not defect <= max(tol, 1e-8):
        return None
    w = np.linalg.eigvalsh(S)
    m = w.size // 2
    # S + 2 max |w| iJ (iJ where S = 0), over a power of two at least max |w|
    fraction, scale = np.frexp(np.max(np.abs(w)))
    v = np.linalg.eigh(np.ldexp(S, -scale) + 1j * max(2.0 * fraction, 1.0) * J)[1][:, m:]
    basis_cols, eigenvalues = [], []
    for i in range(m):
        basis_cols += [np.sqrt(2.0) * v[:, i].real, np.sqrt(2.0) * v[:, i].imag]
        eigenvalues.append(0.5 * (w[2 * i] + w[2 * i + 1]))
    return np.column_stack(basis_cols), np.array(eigenvalues)


def relation_32_oracle(basis, eigenvalues, nablaS, nablaJ, nu):
    """`analysis.proof_relation_32_residual` at one point, as it was taken
    before it took stacks."""
    m = basis.shape[0] // 2
    e, je = basis[:, 0::2], basis[:, 1::2]
    t1 = e.T @ np.einsum("kab,kj,bj->aj", nablaS, e, e)
    v = np.einsum("kia,kj,aj->ij", nablaJ, e, e)
    coeff = eigenvalues[:, None] + eigenvalues[None, :] - 2.0 * (2 * m - 1) * nu
    total = np.abs(t1 + coeff * (je.T @ v))
    return float(np.max(total[~np.eye(m, dtype=bool)], initial=0.0))


def _antisymmetrized(V):
    """V made exactly antisymmetric in each index pair: rounding leaves the
    tensors built below antisymmetric only to the last bits."""
    V = 0.5 * (V - V.transpose(1, 0, 2, 3))
    return 0.5 * (V - V.transpose(0, 1, 3, 2))


def kernel_cases():
    """(J, R) pairs in orthonormal frames: random decompositions and the
    cp3 and s6 default points."""
    rng = np.random.default_rng(11)
    for m in (2, 3):
        for k in range(3):
            J = random_structure(m, rng)
            S = random_j_invariant_bilinear(J, rng)
            R = build_from_decomposition(S, 0.6 - k, J, tol=1e-8)
            yield pytest.param(J, _antisymmetrized(R), id=f"random-m{m}-{k}")
    for name in ("cp3", "s6"):
        chart = get_model(name).chart
        for i, p in enumerate(chart.default_points):
            K, R = frame_at(chart, p)[:2]
            yield pytest.param(K, _antisymmetrized(R), id=f"{name}-{i}")


def kulkarni_nomizu(h, k):
    """(h o k)(x,y,z,u) = h(x,u)k(y,z) + h(y,z)k(x,u) - h(x,z)k(y,u) - h(y,u)k(x,z),
    a curvature tensor for symmetric h and k; g o g = 2 pi1."""
    A, B = np.einsum("xu,yz->xyzu", h, k), np.einsum("xz,yu->xyzu", h, k)
    return A + A.transpose(1, 0, 3, 2) - B - B.transpose(1, 0, 3, 2)


# Cayley multiplication table on the 7 imaginary units: each line (a, b, c)
# means e_a e_b = e_c cyclically (the e_n e_{n+1} = e_{n+3} convention).
_FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


# ---------------------------------------------------------------------------
# Chart text generators (the bundled .ahm files are their output)
# ---------------------------------------------------------------------------


def _paired_coords(m: int) -> tuple[list[str], list[str], list[str]]:
    xs = [f"x{a}" for a in range(1, m + 1)]
    ys = [f"y{a}" for a in range(1, m + 1)]
    coords = [v for pair in zip(xs, ys) for v in pair]
    return xs, ys, coords


def _j_lines(m: int) -> list[str]:
    lines = []
    for a in range(m):
        lines.append(f"J[{2 * a + 2}][{2 * a + 1}] = 1")
        lines.append(f"J[{2 * a + 1}][{2 * a + 2}] = -1")
    return lines


def _point_lines(points) -> list[str]:
    return ["point = " + " ".join(repr(float(v)) for v in pt) for pt in points]


def flat_chart_text(m: int) -> str:
    _, _, coords = _paired_coords(m)
    lines = [f"# flat model, complex dimension {m}", f"dim = {m}",
             "coords = " + " ".join(coords)]
    lines += [f"g[{i}][{i}] = 1" for i in range(1, 2 * m + 1)]
    lines += _j_lines(m)
    lines += _point_lines([(0.0,) * 2 * m, tuple(0.1 * (k + 1) * (-1) ** k for k in range(2 * m))])
    return "\n".join(lines) + "\n"


def complex_space_form_chart_text(m: int, c: float) -> str:
    """Complex space form of holomorphic sectional curvature c != 0.

    c > 0 gives projective space in inhomogeneous coordinates, c < 0 the
    bounded-ball model of complex hyperbolic space; both are normalized so
    g(0) = (4/|c|) Id, the identity for the bundled |c| = 4.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if c == 0:
        raise ValueError("holomorphic curvature c must be nonzero")
    s = repr(4.0 / abs(c))
    xs, ys, coords = _paired_coords(m)
    r2 = "+".join(f"{v}^2" for v in coords)
    # the sign of c picks the base 1 +- r^2, the sign of the diagonal
    # correction and the leading sign of the off-diagonal entries
    if c > 0:
        family, box = "projective", 2
        base, corr, lead = f"1+{r2}", "-", "-"
        points = [(0.0,) * 2 * m, tuple(0.05 * (k + 2) * (-1) ** k for k in range(2 * m))]
        if m >= 3:
            points.append(tuple(0.04 * (k + 1) * (-1) ** (k + 1) for k in range(2 * m)))
    else:
        family, box = "hyperbolic", {1: 0.6, 2: 0.45, 3: 0.35}[m]
        base, corr, lead = f"1-({r2})", "+", ""
        points = [(0.0,) * 2 * m, tuple(0.04 * (k + 1) * (-1) ** k for k in range(2 * m))]
    den = f"({base})^2"
    lines = [f"# {family} model, complex dimension {m}, holomorphic curvature {c}",
             f"dim = {m}", "coords = " + " ".join(coords)]
    lines += [f"domain {v} = -{box} {box}" for v in coords]
    for a in range(m):
        diag = f"{s}*({base}{corr}{xs[a]}^2{corr}{ys[a]}^2)/{den}"
        lines.append(f"g[{2 * a + 1}][{2 * a + 1}] = {diag}")
        lines.append(f"g[{2 * a + 2}][{2 * a + 2}] = {diag}")
    for a in range(m):
        for b in range(a + 1, m):
            xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
            xx = f"{lead}{s}*({xa}*{xb}+{ya}*{yb})/{den}"
            lines.append(f"g[{2 * a + 1}][{2 * b + 1}] = {xx}")
            lines.append(f"g[{2 * a + 2}][{2 * b + 2}] = {xx}")
            lines.append(f"g[{2 * a + 1}][{2 * b + 2}] = {lead}{s}*({xa}*{yb}-{ya}*{xb})/{den}")
            lines.append(f"g[{2 * a + 2}][{2 * b + 1}] = {lead}{s}*({ya}*{xb}-{xa}*{yb})/{den}")
    lines += _j_lines(m)
    lines += _point_lines(points)
    return "\n".join(lines) + "\n"


def _cross_entry(c: int, b: int) -> tuple[int, int]:
    """(sign, a) with (P x e_b)_c = sign * P_a, for b != c: a is the third
    unit on the Fano line through b and c, and sign is +1 when e_a e_b = e_c."""
    line = next(l for l in _FANO_LINES if b in l and c in l)
    a = (set(line) - {b, c}).pop()
    return (1 if (a, b, c) in (line, line[1:] + line[:1], line[2:] + line[:2]) else -1), a


def sphere6_chart_text() -> str:
    """Unit sphere in R^7, orthographic chart p -> P = (p, w), w = sqrt(1 - |p|^2).

    g = I + p p^T / w^2 pulls back the round metric, and J_P(V) = P x V
    (the Cayley cross product) is the canonical nearly Kahler, non Kahler
    structure.  With E = [I; -p^T / w] the chart Jacobian, J v is the first
    six components of P x (E v), so J[i][j] = C[i][j] - C[i][7] x_j / w
    where C[c][b] = (P x e_b)_c is a single signed P_a, or 0 when b = c.
    """
    coords = [f"x{k}" for k in range(1, 7)]
    r2 = "+".join(f"{v}^2" for v in coords)
    w = f"sqrt(1-({r2}))"
    P = coords + [w]
    lines = ["# unit 6-sphere, orthographic chart, Cayley cross-product structure",
             "dim = 3", "coords = " + " ".join(coords)]
    lines += [f"domain {v} = -0.35 0.35" for v in coords]
    for i in range(6):
        lines.append(f"g[{i + 1}][{i + 1}] = 1+{coords[i]}^2/(1-({r2}))")
        lines += [f"g[{i + 1}][{j + 1}] = {coords[i]}*{coords[j]}/(1-({r2}))"
                  for j in range(i + 1, 6)]
    for i in range(1, 7):
        s7, a7 = _cross_entry(i, 7)
        minus = "-" if s7 > 0 else "+"  # the sign of -C[i][7]
        for j in range(1, 7):
            tail = f"{P[a7 - 1]}*{coords[j - 1]}/{w}"
            if i == j:
                entry = minus.removeprefix("+") + tail
            else:
                s, a = _cross_entry(i, j)
                entry = f"{'-' if s < 0 else ''}{P[a - 1]}{minus}{tail}"
            lines.append(f"J[{i}][{j}] = {entry}")
    lines += _point_lines([(0.0,) * 6,
                           (0.12, -0.07, 0.2, 0.05, -0.1, 0.08),
                           (-0.2, 0.15, -0.05, 0.1, 0.07, -0.12)])
    return "\n".join(lines) + "\n"


def product_spheres_chart_text(r1: float, r2: float) -> str:
    """Product of two round 2-spheres of the given radii, product structure.

    Each factor uses isothermal coordinates with conformal factor
    1 / (1 + rho^2 / (4 r^2))^2, so the factor curvature is 1 / r^2.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("radii must be positive")
    lines = [f"# product of round 2-spheres, radii {r1} and {r2}",
             "dim = 2", "coords = x1 y1 x2 y2"]
    for idx, r in ((1, r1), (2, r2)):
        k = repr(1.0 / (4.0 * r * r))
        factor = f"1/(1+{k}*(x{idx}^2+y{idx}^2))^2"
        lines.append(f"g[{2 * idx - 1}][{2 * idx - 1}] = {factor}")
        lines.append(f"g[{2 * idx}][{2 * idx}] = {factor}")
    lines += _j_lines(2)
    lines += _point_lines([(0.0, 0.0, 0.0, 0.0), (0.25, 0.1, -0.2, 0.3)])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Expectation formulas
# ---------------------------------------------------------------------------


_KAHLER = dict(kahler=True, nearly_kahler=True, almost_kahler=True,
               ah1=True, ah2=True, ah3=True)


def flat_profile(m: int) -> ExpectedProfile:
    return ExpectedProfile(**_KAHLER, antiholomorphic=0.0 if m >= 2 else None,
                           holomorphic=0.0, einstein=0.0,
                           verdict_kind=REAL_SPACE_FORM, verdict_constant=0.0)


def sphere6_profile() -> ExpectedProfile:
    return ExpectedProfile(kahler=False, nearly_kahler=True, almost_kahler=False,
                           ah1=False, ah2=True, ah3=True,
                           antiholomorphic=1.0, holomorphic=1.0, einstein=5.0,
                           verdict_kind=REAL_SPACE_FORM, verdict_constant=1.0)


def complex_space_form_profile(m: int, c: float) -> ExpectedProfile:
    """Antiholomorphic curvature c/4 (only defined for m >= 2), Einstein (m+1)c/2."""
    return ExpectedProfile(**_KAHLER, antiholomorphic=c / 4.0 if m >= 2 else None,
                           holomorphic=c, einstein=(m + 1) * c / 2.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=c)


def product_spheres_profile(r1: float, r2: float) -> ExpectedProfile:
    """Negative control: Kahler, so AH3, but the antiholomorphic curvature
    is not constant (mixed planes are flat, in-factor planes are not)."""
    return ExpectedProfile(**_KAHLER, antiholomorphic=None, holomorphic=None,
                           einstein=1.0 / r1**2 if r1 == r2 else None,
                           verdict_kind=NOT_CONSTANT_ANTIHOLOMORPHIC, verdict_constant=None)


# name -> (chart text, expected profile) of every bundled model
BUNDLED = {
    "flat2": (flat_chart_text(2), flat_profile(2)),
    "s6": (sphere6_chart_text(), sphere6_profile()),
    "cp1": (complex_space_form_chart_text(1, 4.0), complex_space_form_profile(1, 4.0)),
    "cp2": (complex_space_form_chart_text(2, 4.0), complex_space_form_profile(2, 4.0)),
    "cp3": (complex_space_form_chart_text(3, 4.0), complex_space_form_profile(3, 4.0)),
    "ch1": (complex_space_form_chart_text(1, -4.0), complex_space_form_profile(1, -4.0)),
    "ch2": (complex_space_form_chart_text(2, -4.0), complex_space_form_profile(2, -4.0)),
    "s2xs2": (product_spheres_chart_text(1.0, 2.0), product_spheres_profile(1.0, 2.0)),
}
