"""Finite-difference calculus against analytic and constant-curvature oracles."""

import numpy as np
import pytest
import sympy as sp

from ahgeom.calculus import (
    christoffel,
    class_residuals,
    gray_ak2_residual,
    nabla_J,
    nabla_R,
    ricci,
    riemann,
)
from ahgeom.charts import DomainError, parse_chart
from ahgeom.expressions import to_source
from ahgeom.models import Sphere6Chart, bundled_chart_texts, get_model
from ahgeom.tensor_core import pi1, pi2, riemann_symmetry_residual

FLAT = parse_chart(bundled_chart_texts()["flat2"])
CP1 = parse_chart(bundled_chart_texts()["cp1"])
CP2 = parse_chart(bundled_chart_texts()["cp2"])
S6 = Sphere6Chart()


def symbolic_gamma(chart, point):
    """Exact connection coefficients: the metric derivatives are computed
    symbolically (independent of the finite differences), the inversion and
    contraction numerically."""
    syms = sp.symbols(chart.coord_names)
    n = 2 * chart.m
    subs = dict(zip(syms, point))
    g_sym = [[sp.sympify(to_source(chart.metric_exprs[i][j]).replace("^", "**"),
                         locals=dict(zip(chart.coord_names, syms)))
              for j in range(n)] for i in range(n)]
    dg = np.array([[[float(sp.diff(g_sym[i][j], syms[a]).subs(subs))
                     for j in range(n)] for i in range(n)] for a in range(n)])
    g_inv = np.linalg.inv(chart.metric_at(np.asarray(point, dtype=float)))
    T = np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg
    return 0.5 * np.einsum("il,ljk->ijk", g_inv, T)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


class TestChristoffel:
    def test_flat_chart_vanishes(self):
        conn = christoffel(FLAT, (0.3, -0.2, 0.1, 0.4))
        assert np.max(np.abs(conn.gamma)) < 1e-10

    def test_symmetric_by_construction(self):
        conn = christoffel(CP2, (0.2, -0.1, 0.15, 0.05))
        assert np.array_equal(conn.gamma, conn.gamma.swapaxes(1, 2))

    def test_matches_symbolic_oracle_on_projective_chart(self):
        point = (0.3, -0.2)
        oracle = symbolic_gamma(CP1, point)
        conn = christoffel(CP1, point)
        assert np.max(np.abs(conn.gamma - oracle)) < 1e-7

    def test_matches_symbolic_oracle_on_cp2(self):
        point = (0.1, -0.15, 0.2, -0.25)
        oracle = symbolic_gamma(CP2, point)
        conn = christoffel(CP2, point)
        assert np.max(np.abs(conn.gamma - oracle)) < 1e-7

    def test_fd_convergence_halving_h(self):
        # halving h divides the truncation error by ~4 until the roundoff floor
        point = (0.3, -0.2)
        oracle = symbolic_gamma(CP1, point)
        errors = []
        for h in (4e-3, 2e-3, 1e-3):
            gamma = christoffel(CP1, point, h).gamma
            errors.append(np.max(np.abs(gamma - oracle)))
        assert errors[1] < errors[0] / 2.0
        assert errors[2] < errors[1] / 2.0

    def test_margin_enforced(self):
        with pytest.raises(DomainError, match="boundary"):
            christoffel(CP1, (2.0, 0.0))

    def test_step_underflow(self):
        from ahgeom.charts import ChartEvalError

        with pytest.raises(ChartEvalError, match="underflow"):
            christoffel(FLAT, (1.0, 0.0, 0.0, 0.0), h=1e-18)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


class TestRiemann:
    def test_flat_chart_vanishes(self):
        R = riemann(FLAT, (0.3, -0.2, 0.1, 0.4))
        assert np.max(np.abs(R.values)) < 1e-8

    @pytest.mark.parametrize("p", S6.default_points)
    def test_unit_sphere_matches_pi1(self, p):
        R = riemann(S6, p)
        assert np.max(np.abs(R.values - pi1(R.point).values)) < 1e-5

    def test_cp2_matches_complex_space_form_at_origin(self):
        R = riemann(CP2, (0.0, 0.0, 0.0, 0.0))
        target = pi1(R.point).values + pi2(R.point).values
        assert np.max(np.abs(R.values - target)) < 1e-5

    @pytest.mark.parametrize("name", sorted(bundled_chart_texts()))
    def test_symmetries_on_bundled_charts(self, name):
        chart = get_model(name).chart
        for p in chart.default_points:
            assert riemann_symmetry_residual(riemann(chart, p)) < 1e-5


class TestRicci:
    @pytest.mark.parametrize("m", [2, 3])
    def test_contraction_of_pi1(self, m):
        from ahgeom.tensor_core import HermitianPoint

        pt = HermitianPoint.standard_flat(m)
        S = ricci(pi1(pt))
        np.testing.assert_allclose(S.values, (2 * m - 1) * pt.g, atol=1e-12)

    def test_unit_sphere_is_einstein_with_constant_5(self):
        R = riemann(S6, S6.default_points[1])
        S = ricci(R)
        assert np.max(np.abs(S.values - 5.0 * R.point.g)) < 1e-5

    def test_cp2_is_einstein_with_constant_6(self):
        R = riemann(CP2, (0.2, -0.1, 0.15, 0.05))
        S = ricci(R)
        assert np.max(np.abs(S.values - 6.0 * R.point.g)) < 1e-5


# ---------------------------------------------------------------------------
# Covariant derivatives
# ---------------------------------------------------------------------------


class TestNablaJ:
    def test_flat_chart_vanishes(self):
        assert np.max(np.abs(nabla_J(FLAT, (0.1, 0.2, -0.3, 0.0)))) < 1e-12

    def test_cp2_is_kahler(self):
        assert np.max(np.abs(nabla_J(CP2, (0.2, -0.1, 0.15, 0.05)))) < 1e-6

    def test_sphere_is_nearly_kahler_but_not_kahler(self):
        p = S6.default_points[1]
        NJ = nabla_J(S6, p)
        assert np.max(np.abs(NJ)) > 0.1
        rng = np.random.default_rng(12)
        pt = S6.eval_point(p)
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(6)
            x = x / np.sqrt(float(x @ pt.g @ x))
            v = np.einsum("kia,k,a->i", NJ, x, x)
            worst = max(worst, float(np.max(np.abs(v))))
        assert worst < 1e-5


class TestNablaR:
    # h is the base step; nabla_R differences at 4h internally
    def test_flat_chart_vanishes(self):
        assert np.max(np.abs(nabla_R(FLAT, (0.1, 0.2, -0.3, 0.0), 1e-4))) < 1e-8

    def test_sphere_is_locally_symmetric(self):
        assert np.max(np.abs(nabla_R(S6, S6.default_points[1], 1e-4))) < 1e-4

    @pytest.mark.parametrize("name", ["s6", "cp2", "s2xs2"])
    def test_bianchi_cyclic_sum(self, name):
        from ahgeom.analysis import bianchi2_residual

        chart = get_model(name).chart
        NR = nabla_R(chart, chart.default_points[1], 1e-4)
        assert bianchi2_residual(NR) < 1e-4


# ---------------------------------------------------------------------------
# Class residuals and the AK2 curvature identity
# ---------------------------------------------------------------------------


def class_residuals_at(chart, p):
    return class_residuals(nabla_J(chart, p), chart.metric_at(np.asarray(p, dtype=float)))


def gray_ak2_residual_at(chart, p):
    return gray_ak2_residual(riemann(chart, p), nabla_J(chart, p))


class TestClassResiduals:
    def test_cp2_is_kahler_everywhere_tested(self):
        cls = class_residuals_at(CP2, (0.2, -0.1, 0.15, 0.05))
        assert cls.kahler < 1e-6
        assert cls.nearly_kahler < 1e-6
        assert cls.almost_kahler < 1e-6

    def test_sphere_is_strictly_nearly_kahler(self):
        cls = class_residuals_at(S6, S6.default_points[1])
        assert cls.nearly_kahler < 1e-5
        assert cls.kahler > 0.1
        assert cls.almost_kahler > 0.1

    def test_flat_chart_all_zero(self):
        cls = class_residuals_at(FLAT, (0.0, 0.0, 0.0, 0.0))
        assert cls.kahler < 1e-12
        assert cls.nearly_kahler < 1e-12
        assert cls.almost_kahler < 1e-12


class TestGrayAK2:
    def test_kahler_chart_satisfies_identity(self):
        # both sides vanish for a Kahler structure
        assert gray_ak2_residual_at(CP2, (0.2, -0.1, 0.15, 0.05)) < 1e-5

    def test_flat_chart(self):
        assert gray_ak2_residual_at(FLAT, (0.1, 0.2, -0.3, 0.0)) < 1e-10

    def test_sphere_reports_a_value(self):
        # no pass/fail claim for the strictly nearly Kahler sphere
        value = gray_ak2_residual_at(S6, S6.default_points[0])
        assert np.isfinite(value)
