"""Bundled models: the cross-product algebra, chart invariants, metadata."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom.charts import DomainError, parse_chart
from ahgeom.models import (
    _FANO_LINES,
    ExpectedProfile,
    get_model,
    model_flat,
    model_names,
    model_product_spheres,
    sphere6_chart_text,
)
from ahgeom.analysis import REAL_SPACE_FORM
from ahgeom.report import analyze_chart, analyze_model

CHART_DIR = Path(__file__).resolve().parent.parent / "charts"


# ---------------------------------------------------------------------------
# Seven dimensional cross product, built here from the Fano lines alone
# ---------------------------------------------------------------------------


def _structure_constants() -> np.ndarray:
    """f[a, b, c] = +1 when e_a e_b = e_c on a Fano line, -1 for the swapped pair."""
    f = np.zeros((7, 7, 7))
    for line in _FANO_LINES:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            f[a - 1, b - 1, c - 1] = 1.0
            f[b - 1, a - 1, c - 1] = -1.0
    return f


F7 = _structure_constants()


def cross(x, y):
    return np.einsum("ijk,i,j->k", F7, x, y)


def embedding(p):
    """P = (p, w) on the unit sphere and the chart Jacobian E = [I; -p^T / w]."""
    p = np.asarray(p, dtype=float)
    w = np.sqrt(1.0 - p @ p)
    E = np.vstack([np.eye(6), -p / w])
    return np.append(p, w), E


def reference_tables(p):
    """g and J of the sphere chart from the embedding: g = E^T E and
    J = g^-1 E^T [P x] E, the pull-back of J_P(V) = P x V."""
    P, E = embedding(p)
    g = E.T @ E
    cross_with_p = np.einsum("abc,a->cb", F7, P)  # v -> P x v
    return g, np.linalg.solve(g, E.T @ cross_with_p @ E)


class TestCross7:
    def test_orthogonal_to_both_factors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            c = cross(x, y)
            assert abs(x @ c) < 1e-12
            assert abs(y @ c) < 1e-12

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 7))
        np.testing.assert_allclose(cross(x, y), -cross(y, x), atol=1e-14)

    def test_norm_identity(self):
        # |x X y|^2 = |x|^2 |y|^2 - <x,y>^2
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            c = cross(x, y)
            assert c @ c == pytest.approx((x @ x) * (y @ y) - (x @ y) ** 2, rel=1e-12)

    def test_triple_product_identity(self):
        # x X (x X y) = <x,y> x - |x|^2 y, the composition-algebra identity
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            lhs = cross(x, cross(x, y))
            rhs = (x @ y) * x - (x @ x) * y
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# The sphere chart
# ---------------------------------------------------------------------------


S6 = get_model("s6").chart
_in_domain = st.tuples(*[st.floats(-0.35, 0.35)] * 6)


class TestSphere6:
    def test_metric_at_origin_is_identity(self):
        np.testing.assert_array_equal(S6.metric_at(np.zeros(6)), np.eye(6))

    def test_invariants_hold_at_default_points(self):
        for p in S6.default_points:
            pt = S6.eval_point(p)
            assert np.max(np.abs(pt.J @ pt.J + np.eye(6))) < 1e-12

    def test_j_rotates_tangent_vectors_isometrically(self):
        p = np.array(S6.default_points[2])
        pt = S6.eval_point(p)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        jv = pt.J @ v
        assert jv @ pt.g @ jv == pytest.approx(v @ pt.g @ v, rel=1e-12)
        assert v @ pt.g @ jv == pytest.approx(0.0, abs=1e-12)

    def test_outside_hemisphere_is_an_error(self):
        with pytest.raises(DomainError):
            S6.eval_point((0.9, 0.9, 0.9, 0.9, 0.9, 0.9))

    @staticmethod
    def _assert_matches_reference(p):
        g, J = reference_tables(p)
        assert np.max(np.abs(S6.metric_at(np.array(p)) - g)) <= 1e-15
        assert np.max(np.abs(S6.j_at(np.array(p)) - J)) <= 1e-15

    def test_matches_embedding_reference_at_default_points(self):
        for p in S6.default_points:
            self._assert_matches_reference(p)

    @given(p=_in_domain)
    @settings(max_examples=200, deadline=None)
    def test_matches_embedding_reference_in_domain(self, p):
        self._assert_matches_reference(p)

    @given(p=_in_domain, v=st.tuples(*[st.floats(-1.0, 1.0)] * 6))
    @settings(max_examples=100, deadline=None)
    def test_j_is_the_cross_product_through_the_jacobian(self, p, v):
        # J v is the first six components of P x (E v): E u has u as its
        # first six components, and P x (E v) is tangent at P
        P, E = embedding(p)
        v = np.array(v)
        np.testing.assert_allclose(S6.j_at(np.array(p)) @ v, cross(P, E @ v)[:6],
                                   rtol=0, atol=1e-15)

    def test_repo_file_is_the_generator_text(self):
        assert (CHART_DIR / "s6.ahm").read_text() == sphere6_chart_text()

    def test_chart_file_analyzes_like_the_model(self):
        model = analyze_model(get_model("s6")).to_dict()
        chart = analyze_chart(parse_chart((CHART_DIR / "s6.ahm").read_text())).to_dict()
        assert chart["points"] == model["points"]
        assert chart["global"]["verdict"] == model["global"]["verdict"]


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


class TestDescriptors:
    def test_registry_has_all_names(self):
        assert set(model_names()) == {
            "flat2", "s6", "cp1", "cp2", "cp3", "ch1", "ch2", "s2xs2",
        }

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("nope")

    @pytest.mark.parametrize("name", sorted(model_names()))
    def test_every_chart_point_satisfies_invariants(self, name):
        chart = get_model(name).chart
        assert len(chart.default_points) >= 2
        for p in chart.default_points:
            chart.eval_point(p)

    def test_flat_descriptor(self):
        md = model_flat(2)
        assert md.expected.verdict_kind == REAL_SPACE_FORM
        assert md.expected.verdict_constant == 0.0
        np.testing.assert_array_equal(md.chart.metric_at(np.zeros(4)), np.eye(4))

    def test_lattice_rejects_k_without_nk(self):
        with pytest.raises(ValueError, match="lattice"):
            ExpectedProfile(
                kahler=True, nearly_kahler=False, almost_kahler=True,
                ah1=True, ah2=True, ah3=True,
                antiholomorphic=None, holomorphic=None, einstein=None,
                verdict_kind=REAL_SPACE_FORM, verdict_constant=None,
            )

    def test_lattice_rejects_ah1_without_ah2(self):
        with pytest.raises(ValueError, match="lattice"):
            ExpectedProfile(
                kahler=False, nearly_kahler=False, almost_kahler=False,
                ah1=True, ah2=False, ah3=True,
                antiholomorphic=None, holomorphic=None, einstein=None,
                verdict_kind=REAL_SPACE_FORM, verdict_constant=None,
            )

    def test_equal_radii_product_is_einstein_in_metadata(self):
        md = model_product_spheres(1.0, 1.0)
        assert md.expected.einstein == pytest.approx(1.0)
        md = model_product_spheres(1.0, 2.0)
        assert md.expected.einstein is None


# ---------------------------------------------------------------------------
# Product geometry spot values
# ---------------------------------------------------------------------------


class TestProductSpheres:
    def test_plane_curvatures_at_origin(self):
        from ahgeom.calculus import riemann
        from ahgeom.tensor_core import Planes, sectional_curvature

        chart = get_model("s2xs2").chart  # radii 1 and 2
        R = riemann(chart.jet_at((0.0, 0.0, 0.0, 0.0)))
        e = np.eye(4)
        mixed = Planes(x=[e[0]], y=[e[2]], kind="antiholomorphic")
        assert sectional_curvature(R, mixed)[0] == pytest.approx(0.0, abs=1e-8)
        factors = Planes(x=[e[0], e[2]], y=[e[1], e[3]], kind="holomorphic")
        first, second = sectional_curvature(R, factors)
        assert first == pytest.approx(1.0, abs=1e-7)
        assert second == pytest.approx(0.25, abs=1e-7)
