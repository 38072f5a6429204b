"""Bundled models: the cross-product algebra, chart invariants, metadata."""

import numpy as np
import pytest

from ahgeom.models import (
    ExpectedProfile,
    Sphere6Chart,
    cross7,
    get_model,
    model_flat,
    model_names,
    model_product_spheres,
)
from ahgeom.analysis import REAL_SPACE_FORM


# ---------------------------------------------------------------------------
# Seven dimensional cross product
# ---------------------------------------------------------------------------


class TestCross7:
    def test_orthogonal_to_both_factors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            c = cross7(x, y)
            assert abs(x @ c) < 1e-12
            assert abs(y @ c) < 1e-12

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 7))
        np.testing.assert_allclose(cross7(x, y), -cross7(y, x), atol=1e-14)

    def test_norm_identity(self):
        # |x X y|^2 = |x|^2 |y|^2 - <x,y>^2
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            c = cross7(x, y)
            assert c @ c == pytest.approx((x @ x) * (y @ y) - (x @ y) ** 2, rel=1e-12)

    def test_triple_product_identity(self):
        # x X (x X y) = <x,y> x - |x|^2 y, the composition-algebra identity
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            lhs = cross7(x, cross7(x, y))
            rhs = (x @ y) * x - (x @ x) * y
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# The sphere chart
# ---------------------------------------------------------------------------


class TestSphere6Chart:
    def test_metric_at_origin_is_identity(self):
        chart = Sphere6Chart()
        np.testing.assert_array_equal(chart.metric_at(np.zeros(6)), np.eye(6))

    def test_invariants_hold_at_default_points(self):
        chart = Sphere6Chart()
        for p in chart.default_points:
            pt = chart.eval_point(p)
            assert np.max(np.abs(pt.J @ pt.J + np.eye(6))) < 1e-12

    def test_j_rotates_tangent_vectors_isometrically(self):
        chart = Sphere6Chart()
        p = np.array(chart.default_points[2])
        pt = chart.eval_point(p)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        jv = pt.J @ v
        assert jv @ pt.g @ jv == pytest.approx(v @ pt.g @ v, rel=1e-12)
        assert v @ pt.g @ jv == pytest.approx(0.0, abs=1e-12)

    def test_outside_hemisphere_is_an_error(self):
        from ahgeom.charts import ChartEvalError, DomainError

        chart = Sphere6Chart()
        with pytest.raises((ChartEvalError, DomainError)):
            chart.eval_point((0.9, 0.9, 0.9, 0.9, 0.9, 0.9))


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
        from ahgeom.tensor_core import Plane, sectional_curvature

        chart = get_model("s2xs2").chart  # radii 1 and 2
        R = riemann(chart, (0.0, 0.0, 0.0, 0.0))
        e = np.eye(4)
        mixed = Plane(x=e[0], y=e[2], kind="antiholomorphic")
        assert sectional_curvature(R, mixed) == pytest.approx(0.0, abs=1e-8)
        first = Plane(x=e[0], y=e[1], kind="holomorphic")
        second = Plane(x=e[2], y=e[3], kind="holomorphic")
        assert sectional_curvature(R, first) == pytest.approx(1.0, abs=1e-7)
        assert sectional_curvature(R, second) == pytest.approx(0.25, abs=1e-7)
