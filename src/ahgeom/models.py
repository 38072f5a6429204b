"""Bundled model manifolds with ground-truth metadata.

Each bundled model is one chart file, `bundled/<name>.ahm`, shipped as
package data and parsed by `parse_chart`, plus one row of `_EXPECTED`: the
expected class flags, curvature constants and classification verdict.  The
expected flags are validated against the class lattice at construction
time: the Kahler class is exactly the intersection of nearly Kahler and
almost Kahler, and the three curvature-identity classes are nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files

from .analysis import (
    COMPLEX_SPACE_FORM,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
)
from .charts import ChartSpec, parse_chart

__all__ = [
    "ExpectedProfile",
    "ModelDescriptor",
    "get_model",
    "model_names",
]


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
    chart: ChartSpec
    expected: ExpectedProfile


_KAHLER = dict(kahler=True, nearly_kahler=True, almost_kahler=True,
               ah1=True, ah2=True, ah3=True)

# The constants are floats as the reports print them: a complex space form
# of holomorphic curvature c has antiholomorphic curvature c/4 (m >= 2) and
# Einstein constant (m+1)c/2.  cp* and ch* have c = 4 and c = -4; s2xs2 has
# radii 1 and 2, so it is not Einstein.
_EXPECTED: dict[str, ExpectedProfile] = {
    "flat2": ExpectedProfile(**_KAHLER, antiholomorphic=0.0, holomorphic=0.0, einstein=0.0,
                             verdict_kind=REAL_SPACE_FORM, verdict_constant=0.0),
    # the Cayley cross-product structure: nearly Kahler, not Kahler
    "s6": ExpectedProfile(kahler=False, nearly_kahler=True, almost_kahler=False,
                          ah1=False, ah2=True, ah3=True,
                          antiholomorphic=1.0, holomorphic=1.0, einstein=5.0,
                          verdict_kind=REAL_SPACE_FORM, verdict_constant=1.0),
    "cp1": ExpectedProfile(**_KAHLER, antiholomorphic=None, holomorphic=4.0, einstein=4.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=4.0),
    "cp2": ExpectedProfile(**_KAHLER, antiholomorphic=1.0, holomorphic=4.0, einstein=6.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=4.0),
    "cp3": ExpectedProfile(**_KAHLER, antiholomorphic=1.0, holomorphic=4.0, einstein=8.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=4.0),
    "ch1": ExpectedProfile(**_KAHLER, antiholomorphic=None, holomorphic=-4.0, einstein=-4.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=-4.0),
    "ch2": ExpectedProfile(**_KAHLER, antiholomorphic=-1.0, holomorphic=-4.0, einstein=-6.0,
                           verdict_kind=COMPLEX_SPACE_FORM, verdict_constant=-4.0),
    # negative control: Kahler, so AH3, but mixed planes are flat and
    # in-factor planes are not, so the antiholomorphic curvature varies
    "s2xs2": ExpectedProfile(**_KAHLER, antiholomorphic=None, holomorphic=None, einstein=None,
                             verdict_kind=NOT_CONSTANT_ANTIHOLOMORPHIC, verdict_constant=None),
}


def model_names() -> tuple[str, ...]:
    return tuple(_EXPECTED)


def get_model(name: str) -> ModelDescriptor:
    """The bundled model `name`; the name is a key of _EXPECTED, never a path."""
    expected = _EXPECTED.get(name)
    if expected is None:
        known = ", ".join(model_names())
        raise KeyError(f"unknown model {name!r} (known: {known})")
    text = (files("ahgeom") / "bundled" / f"{name}.ahm").read_text(encoding="utf-8")
    return ModelDescriptor(name=name, chart=parse_chart(text), expected=expected)
