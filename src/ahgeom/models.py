"""Bundled model manifolds with ground-truth metadata.

Each model carries an expression chart, parsed from the text its generator
emits (the files in `charts/` are that text), together with the expected
class flags, curvature constants and classification verdict.  The expected
flags are validated against the class lattice at construction time: the
Kahler class is exactly the intersection of nearly Kahler and almost
Kahler, and the three curvature-identity classes are nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .analysis import (
    COMPLEX_SPACE_FORM,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
)
from .charts import ChartSpec, parse_chart

__all__ = [
    "ExpectedProfile",
    "ModelDescriptor",
    "model_flat",
    "model_sphere6",
    "model_complex_space_form",
    "model_product_spheres",
    "MODEL_FACTORIES",
    "get_model",
    "model_names",
    "flat_chart_text",
    "complex_space_form_chart_text",
    "sphere6_chart_text",
    "product_spheres_chart_text",
]

# Cayley multiplication table on the 7 imaginary units: each line (a, b, c)
# means e_a e_b = e_c cyclically (the e_n e_{n+1} = e_{n+3} convention).
_FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


# ---------------------------------------------------------------------------
# Chart text generators (the bundled .ahm files are emitted from these)
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
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedProfile:
    """Ground truth for a model: class flags, constants and the verdict.

    None means "not defined / not constant / not Einstein" for the float
    fields.  The flags must respect the class lattice: K is exactly
    NK and AK, K implies AH1, NK implies AH2, and AH1 => AH2 => AH3.
    """

    kahler: bool
    nearly_kahler: bool
    almost_kahler: bool
    ah1: bool
    ah2: bool
    ah3: bool
    antiholomorphic: float | None
    holomorphic: float | None
    einstein: float | None
    verdict_kind: str
    verdict_constant: float | None

    def __post_init__(self):
        if self.kahler != (self.nearly_kahler and self.almost_kahler):
            raise ValueError("lattice violation: K must equal NK and AK")
        if self.kahler and not self.ah1:
            raise ValueError("lattice violation: K implies AH1")
        if self.nearly_kahler and not self.ah2:
            raise ValueError("lattice violation: NK implies AH2")
        if self.ah1 and not self.ah2:
            raise ValueError("lattice violation: AH1 implies AH2")
        if self.ah2 and not self.ah3:
            raise ValueError("lattice violation: AH2 implies AH3")

    def flags(self) -> dict[str, bool]:
        return {
            "K": self.kahler,
            "NK": self.nearly_kahler,
            "AK": self.almost_kahler,
            "AH1": self.ah1,
            "AH2": self.ah2,
            "AH3": self.ah3,
        }


@dataclass(frozen=True)
class ModelDescriptor:
    name: str
    description: str
    chart: ChartSpec
    expected: ExpectedProfile


_ALL_PASS = dict(kahler=True, nearly_kahler=True, almost_kahler=True,
                 ah1=True, ah2=True, ah3=True)


def model_flat(m: int) -> ModelDescriptor:
    return ModelDescriptor(
        name=f"flat{m}",
        description=f"flat space C^{m}, constant structure",
        chart=parse_chart(flat_chart_text(m)),
        expected=ExpectedProfile(
            **_ALL_PASS,
            antiholomorphic=0.0 if m >= 2 else None,
            holomorphic=0.0,
            einstein=0.0,
            verdict_kind=REAL_SPACE_FORM,
            verdict_constant=0.0,
        ),
    )


def model_sphere6() -> ModelDescriptor:
    return ModelDescriptor(
        name="s6",
        description="unit 6-sphere with the Cayley cross-product structure",
        chart=parse_chart(sphere6_chart_text()),
        expected=ExpectedProfile(
            kahler=False, nearly_kahler=True, almost_kahler=False,
            ah1=False, ah2=True, ah3=True,
            antiholomorphic=1.0,
            holomorphic=1.0,
            einstein=5.0,
            verdict_kind=REAL_SPACE_FORM,
            verdict_constant=1.0,
        ),
    )


def model_complex_space_form(m: int, c: float) -> ModelDescriptor:
    """CP^m for c > 0 (m <= 3), CH^m for c < 0 (m <= 2)."""
    if c > 0:
        name, description, dims = "cp", "complex projective space", (1, 2, 3)
    else:
        name, description, dims = "ch", "complex hyperbolic ball", (1, 2)
    if m not in dims:
        raise ValueError(f"{description} model supports m in {set(dims)}")
    return ModelDescriptor(
        name=f"{name}{m}",
        description=f"{description}, holomorphic curvature {c}",
        chart=parse_chart(complex_space_form_chart_text(m, c)),
        expected=ExpectedProfile(
            **_ALL_PASS,
            antiholomorphic=c / 4.0 if m >= 2 else None,
            holomorphic=c,
            einstein=(m + 1) * c / 2.0,
            verdict_kind=COMPLEX_SPACE_FORM,
            verdict_constant=c,
        ),
    )


def model_product_spheres(r1: float, r2: float) -> ModelDescriptor:
    """Negative control: Kahler, so AH3, but the antiholomorphic curvature
    is not constant (mixed planes are flat, in-factor planes are not)."""
    return ModelDescriptor(
        name="s2xs2",
        description=f"product of round 2-spheres, radii {r1} and {r2}",
        chart=parse_chart(product_spheres_chart_text(r1, r2)),
        expected=ExpectedProfile(
            **_ALL_PASS,
            antiholomorphic=None,
            holomorphic=None,
            einstein=(1.0 / r1**2 if r1 == r2 else None),
            verdict_kind=NOT_CONSTANT_ANTIHOLOMORPHIC,
            verdict_constant=None,
        ),
    )


MODEL_FACTORIES: dict[str, Callable[[], ModelDescriptor]] = {
    "flat2": lambda: model_flat(2),
    "s6": model_sphere6,
    "cp1": lambda: model_complex_space_form(1, 4.0),
    "cp2": lambda: model_complex_space_form(2, 4.0),
    "cp3": lambda: model_complex_space_form(3, 4.0),
    "ch1": lambda: model_complex_space_form(1, -4.0),
    "ch2": lambda: model_complex_space_form(2, -4.0),
    "s2xs2": lambda: model_product_spheres(1.0, 2.0),
}


def model_names() -> tuple[str, ...]:
    return tuple(MODEL_FACTORIES)


def get_model(name: str) -> ModelDescriptor:
    factory = MODEL_FACTORIES.get(name)
    if factory is None:
        known = ", ".join(model_names())
        raise KeyError(f"unknown model {name!r} (known: {known})")
    return factory()

