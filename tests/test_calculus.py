"""Finite-difference calculus against analytic and constant-curvature oracles."""

import numpy as np
import pytest
import sympy as sp

from ahgeom.calculus import (
    class_residuals,
    gray_ak2_residual,
    nabla_J,
    nabla_R,
    ricci,
    riemann,
)
from ahgeom.charts import DomainError
from ahgeom.expressions import to_source
from ahgeom.models import get_model, model_names
from ahgeom.tensor_core import pi1, pi2, riemann_symmetry_residual

FLAT = get_model("flat2").chart
CP1 = get_model("cp1").chart
CP2 = get_model("cp2").chart
S6 = get_model("s6").chart


def symbolic_riemann(chart, point):
    """Exact (0,4) curvature: the metric's first and second derivatives are
    computed symbolically (independent of the finite differences), the
    inversion and contractions numerically."""
    syms = sp.symbols(chart.coord_names)
    n = 2 * chart.m
    g_sym = sp.Matrix(n, n, lambda i, j: sp.sympify(
        to_source(chart.metric_exprs[i][j]).replace("^", "**"),
        locals=dict(zip(chart.coord_names, syms))))
    dg_sym = [g_sym.diff(s) for s in syms]
    ddg_sym = [[d.diff(s) for s in syms] for d in dg_sym]
    values = sp.lambdify(syms, [dg_sym, ddg_sym], "numpy")(*point)
    dg = np.array(values[0], dtype=float)  # dg[a, i, j] = partial_a g_ij
    ddg = np.array(values[1], dtype=float)  # ddg[a, b, i, j] = partial_a partial_b g_ij
    g = chart.metric_at(np.asarray(point, dtype=float))
    g_inv = np.linalg.inv(g)
    # Gamma^i_jk = 1/2 g^il T_ljk and its derivative, with
    # partial_a g^-1 = -g^-1 (partial_a g) g^-1
    T = np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) - dg
    dT = np.einsum("ajlk->aljk", ddg) + np.einsum("aklj->aljk", ddg) - ddg
    dg_inv = -np.einsum("ip,apq,ql->ail", g_inv, dg, g_inv)
    gamma = 0.5 * np.einsum("il,ljk->ijk", g_inv, T)
    dgamma = 0.5 * (np.einsum("ail,ljk->aijk", dg_inv, T) + np.einsum("il,aljk->aijk", g_inv, dT))
    up = (
        np.einsum("iljk->lijk", dgamma)
        - np.einsum("jlik->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    return np.einsum("lm,mijk->ijkl", g, up)


# ---------------------------------------------------------------------------
# Christoffel symbols, checked through the curvature built from them
# ---------------------------------------------------------------------------


class TestChristoffel:
    def test_flat_chart_vanishes(self):
        p = (0.3, -0.2, 0.1, 0.4)
        assert np.max(np.abs(riemann(FLAT, p).values)) < 1e-10
        assert np.max(np.abs(nabla_J(FLAT, p))) < 1e-10
        assert np.max(np.abs(nabla_R(FLAT, p))) < 1e-10

    def test_symmetric_by_construction(self):
        # the connection is torsion free, so R satisfies the first Bianchi
        # identity up to roundoff, far below the finite-difference error
        V = riemann(CP2, (0.2, -0.1, 0.15, 0.05)).values
        cyc = V + np.einsum("jkil->ijkl", V) + np.einsum("kijl->ijkl", V)
        assert np.max(np.abs(cyc)) < 1e-12

    def test_matches_symbolic_oracle_on_projective_chart(self):
        point = (0.3, -0.2)
        oracle = symbolic_riemann(CP1, point)
        assert np.max(np.abs(riemann(CP1, point).values - oracle)) < 1e-7

    def test_matches_symbolic_oracle_on_cp2(self):
        point = (0.1, -0.15, 0.2, -0.25)
        oracle = symbolic_riemann(CP2, point)
        assert np.max(np.abs(riemann(CP2, point).values - oracle)) < 1e-7

    def test_fd_convergence_halving_h(self):
        # halving h divides the truncation error by ~4 until the roundoff floor
        point = (0.3, -0.2)
        oracle = symbolic_riemann(CP1, point)
        errors = []
        for h in (4e-3, 2e-3, 1e-3):
            errors.append(np.max(np.abs(riemann(CP1, point, h).values - oracle)))
        assert errors[1] < errors[0] / 2.0
        assert errors[2] < errors[1] / 2.0

    def test_margin_enforced(self):
        with pytest.raises(DomainError, match="boundary"):
            riemann(CP1, (2.0, 0.0))

    def test_step_underflow(self):
        from ahgeom.charts import ChartEvalError

        with pytest.raises(ChartEvalError, match="underflow"):
            riemann(FLAT, (1.0, 0.0, 0.0, 0.0), h=1e-18)


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

    @pytest.mark.parametrize("name", sorted(model_names()))
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
