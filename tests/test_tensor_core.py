"""Point-level operator tests against brute-force oracles.

The reference implementations below evaluate the defining formulas on full
basis vectors, term by term, independently of the matrix products in the
package.
"""

import itertools

import numpy as np
import pytest

from ahgeom.calculus import ricci
from ahgeom.models import get_model, model_names
from ahgeom.selftest import random_hermitian_point, random_j_invariant_bilinear
from ahgeom.tensor_core import (
    CurvatureTensor,
    HermitianPoint,
    InvariantViolation,
    Planes,
    ah_identity_residual,
    build_from_decomposition,
    fit_pi_span,
    hermitian_frames,
    pi1,
    pi2,
    psi,
    riemann_symmetry_residual,
    sectional_curvature,
    standard_j,
)
from model_oracles import ah_identity_oracle, frame_at, psi_oracle
from test_analysis import _kernel_cases

# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def form(matrix, x, y):
    return float(x @ matrix @ y)


def psi_reference(pt, Q):
    """Literal six-term definition, expanded on basis vectors."""
    n, g, J = pt.dim, pt.g, pt.J
    e = np.eye(n)
    out = np.zeros((n, n, n, n))
    for x, y, z, u in itertools.product(range(n), repeat=4):
        X, Y, Z, U = e[x], e[y], e[z], e[u]
        out[x, y, z, u] = (
            form(g, X, J @ U) * form(Q, Y, J @ Z)
            - form(g, X, J @ Z) * form(Q, Y, J @ U)
            - 2.0 * form(g, X, J @ Y) * form(Q, Z, J @ U)
            + form(g, Y, J @ Z) * form(Q, X, J @ U)
            - form(g, Y, J @ U) * form(Q, X, J @ Z)
            - 2.0 * form(g, Z, J @ U) * form(Q, X, J @ Y)
        )
    return out


def pi1_reference(pt):
    n, g = pt.dim, pt.g
    e = np.eye(n)
    out = np.zeros((n, n, n, n))
    for x, y, z, u in itertools.product(range(n), repeat=4):
        out[x, y, z, u] = form(g, e[x], e[u]) * form(g, e[y], e[z]) \
            - form(g, e[x], e[z]) * form(g, e[y], e[u])
    return out


def pi2_reference(pt):
    n, g, J = pt.dim, pt.g, pt.J
    e = np.eye(n)
    out = np.zeros((n, n, n, n))
    for x, y, z, u in itertools.product(range(n), repeat=4):
        X, Y, Z, U = e[x], e[y], e[z], e[u]
        out[x, y, z, u] = (
            form(g, X, J @ U) * form(g, Y, J @ Z)
            - form(g, X, J @ Z) * form(g, Y, J @ U)
            - 2.0 * form(g, X, J @ Y) * form(g, Z, J @ U)
        )
    return out


# ---------------------------------------------------------------------------
# HermitianPoint invariants
# ---------------------------------------------------------------------------


class TestHermitianPoint:
    def test_standard_flat_is_valid(self):
        pt = HermitianPoint.standard_flat(3)
        assert pt.dim == 6
        assert np.allclose(pt.J @ pt.J, -np.eye(6))

    def test_rejects_asymmetric_metric(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(InvariantViolation, match="not symmetric"):
            HermitianPoint(m=2, g=g, J=standard_j(2))

    def test_rejects_indefinite_metric(self):
        g = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvariantViolation, match="positive definite"):
            HermitianPoint(m=2, g=g, J=standard_j(2))

    def test_rejects_non_square_root_of_minus_id(self):
        with pytest.raises(InvariantViolation, match="-Id"):
            HermitianPoint(m=2, g=np.eye(4), J=np.eye(4))

    def test_rejects_incompatible_j(self):
        # a valid J for a different metric
        rng = np.random.default_rng(5)
        pt = random_hermitian_point(2, rng)
        with pytest.raises(InvariantViolation, match="compatible"):
            HermitianPoint(m=2, g=np.diag([4.0, 1.0, 1.0, 1.0]), J=pt.J)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_checks_do_not_depend_on_the_metric_scale(self, scale):
        # J^T g J = g for g = scale * Id only if J is orthogonal; [[0, -1/2], [2, 0]]
        # squares to -Id but is not, whatever the scale
        J = np.array([[0.0, -0.5], [2.0, 0.0]])
        with pytest.raises(InvariantViolation, match=r"max \|J\^T g J - g\| = 3\.000e\+00"):
            HermitianPoint(m=1, g=scale * np.eye(2), J=J)
        # an asymmetry of 1e-9 of the metric's size is rounding, one of 2e-7 is not
        HermitianPoint(m=1, g=scale * np.array([[1.0, 1e-9], [0.0, 1.0]]), J=standard_j(1))
        with pytest.raises(InvariantViolation, match=r"not symmetric: .* = 2\.000e-07"):
            HermitianPoint(m=1, g=scale * np.array([[1.0, 2e-7], [0.0, 1.0]]), J=standard_j(1))

    def test_a_stack_names_its_first_failing_point(self):
        g = np.stack([np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0]), np.eye(4) + 1.0])
        J = np.stack([standard_j(2)] * 3)
        with pytest.raises(InvariantViolation, match="positive definite") as err:
            hermitian_frames(g, J)
        assert err.value.index == 1
        Linv, K = hermitian_frames(g[[0, 0]], J[[0, 0]])
        assert Linv.shape == K.shape == (2, 4, 4)
        np.testing.assert_array_equal(K[1], standard_j(2))

    def test_a_frame_point_is_built_without_a_factorization(self, monkeypatch):
        g = np.diag([4.0, 4.0, 1.0, 1.0])
        K = hermitian_frames(g[None], standard_j(2)[None])[1][0]

        def refused(*args):
            raise AssertionError("factorized again")

        monkeypatch.setattr(np.linalg, "cholesky", refused)
        pt = HermitianPoint.orthonormal(K)
        assert pt.m == 2
        np.testing.assert_array_equal(pt.g, np.eye(4))
        np.testing.assert_array_equal(pt.J, K)
        assert not (pt.g.flags.writeable or pt.J.flags.writeable)

    def test_arrays_are_immutable(self):
        pt = HermitianPoint.standard_flat(2)
        with pytest.raises(ValueError):
            pt.g[0, 0] = 2.0


# ---------------------------------------------------------------------------
# psi / pi1 / pi2
# ---------------------------------------------------------------------------


class TestPsi:
    def test_zero_input_gives_zero(self):
        pt = HermitianPoint.standard_flat(2)
        out = psi(np.zeros((4, 4)), pt.J)
        assert np.all(out == 0.0)

    def test_psi_of_metric_is_twice_pi2(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 3):
            for pt in (HermitianPoint.standard_flat(m), random_hermitian_point(m, rng)):
                gap = np.max(np.abs(psi(pt.g, pt.J) - 2.0 * pi2(pt.J)))
                assert gap < 1e-12

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(2)
        pt = random_hermitian_point(2, rng)
        Q = random_j_invariant_bilinear(pt, rng)
        np.testing.assert_allclose(psi(Q.values, pt.J), psi_reference(pt, Q.values),
                                   rtol=0, atol=1e-12)

    def test_frozen_value_flat_m2(self):
        # brute-force expansion of the six terms at the standard basis gives 6
        pt = HermitianPoint.standard_flat(2)
        ref = psi_reference(pt, pt.g)
        e1, je1 = 0, 1
        assert ref[e1, je1, je1, e1] == pytest.approx(6.0, abs=1e-14)
        assert psi(pt.g, pt.J)[e1, je1, je1, e1] == pytest.approx(6.0)

    def test_curvature_type_antisymmetries_for_admissible_q(self):
        rng = np.random.default_rng(3)
        # exact (bitwise) on the standard structure, where g and J are exact
        for m in (2, 3):
            pt = HermitianPoint.standard_flat(m)
            V = psi(random_j_invariant_bilinear(pt, rng).values, pt.J)
            assert np.array_equal(V, -V.swapaxes(0, 1))
            assert np.array_equal(V, -V.swapaxes(2, 3))
        # within rounding on random structures, whose invariants hold to tol
        for m in (2, 3):
            pt = random_hermitian_point(m, rng)
            V = psi(random_j_invariant_bilinear(pt, rng).values, pt.J)
            scale = np.max(np.abs(V)) + 1.0
            assert np.max(np.abs(V + V.swapaxes(0, 1))) < 1e-7 * scale
            assert np.max(np.abs(V + V.swapaxes(2, 3))) < 1e-7 * scale


class TestPi1:
    def test_orthonormal_plane_value(self):
        pt = HermitianPoint.standard_flat(2)
        v = pi1(pt.dim)
        assert v[0, 2, 2, 0] == 1.0

    def test_vanishes_on_repeated_first_arguments(self):
        pt = HermitianPoint.standard_flat(2)
        v = pi1(pt.dim)
        assert np.all(v[0, 0, :, :] == 0.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        pt = random_hermitian_point(2, rng)
        np.testing.assert_allclose(pi1(pt.dim), pi1_reference(pt), rtol=0, atol=1e-13)

    def test_sectional_curvature_of_scaled_pi1_is_constant(self):
        rng = np.random.default_rng(5)
        pt = random_hermitian_point(3, rng)
        c = -1.75
        R = CurvatureTensor(pt, c * pi1(pt.dim))
        for _ in range(100):
            v = rng.standard_normal((2, pt.dim))
            plane = Planes(x=[v[0]], y=[v[1]])
            assert sectional_curvature(R, plane)[0] == pytest.approx(c, abs=1e-10)


class TestPi2:
    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        pt = random_hermitian_point(2, rng)
        np.testing.assert_allclose(pi2(pt.J), pi2_reference(pt), rtol=0, atol=1e-13)

    def test_vanishes_on_antiholomorphic_planes(self):
        # every term carries a factor g(x,Jy), g(x,Jx) or g(y,Jy), all zero
        pt = HermitianPoint.standard_flat(3)
        R = CurvatureTensor(pt, pi2(pt.J))
        rng = np.random.default_rng(7)
        from ahgeom.analysis import sample_antiholomorphic_planes

        values = sectional_curvature(R, sample_antiholomorphic_planes(pt, 50, rng))
        assert values.shape == (50,)
        assert np.max(np.abs(values)) <= 1e-12

    def test_holomorphic_plane_value_is_three(self):
        pt = HermitianPoint.standard_flat(2)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        plane = Planes(x=[x], y=[pt.J @ x], kind="holomorphic")
        assert sectional_curvature(CurvatureTensor(pt, pi2(pt.J)), plane)[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# AH identities
# ---------------------------------------------------------------------------


class TestAHIdentities:
    def test_complex_space_form_shape_passes_all(self):
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, pi1(pt.dim) + pi2(pt.J))
        for which in (1, 2, 3):
            assert ah_identity_residual(R.values, pt.J, which) < 1e-12

    def test_pi1_passes_3_but_not_1(self):
        pt = HermitianPoint.standard_flat(2)
        R = pi1(pt.dim)
        assert ah_identity_residual(R, pt.J, 3) < 1e-12
        assert ah_identity_residual(R, pt.J, 1) > 0.5

    def test_pi1_passes_2(self):
        # constant-curvature tensors satisfy the three-term identity exactly
        rng = np.random.default_rng(8)
        pt = random_hermitian_point(3, rng)
        assert ah_identity_residual(pi1(pt.dim), pt.J, 2) < 1e-12

    def test_zero_tensor_passes_all(self):
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, np.zeros((4, 4, 4, 4)))
        assert all(ah_identity_residual(R.values, pt.J, k) == 0.0 for k in (1, 2, 3))

    def test_bad_identity_index_raises(self):
        pt = HermitianPoint.standard_flat(1)
        with pytest.raises(ValueError, match="identity index"):
            ah_identity_residual(pi1(pt.dim), pt.J, 4)


class TestRiemannSymmetryResidual:
    def test_algebraic_construction_is_exact(self):
        rng = np.random.default_rng(9)
        pt = random_hermitian_point(2, rng)
        S = random_j_invariant_bilinear(pt, rng)
        R = build_from_decomposition(S.values, 0.8, pt.J, tol=1e-8)
        assert riemann_symmetry_residual(R) < 1e-12

    def test_pi1_is_symmetric(self):
        pt = HermitianPoint.standard_flat(3)
        assert riemann_symmetry_residual(pi1(pt.dim)) == 0.0

    def test_detects_perturbation(self):
        pt = HermitianPoint.standard_flat(2)
        values = pi1(pt.dim).copy()
        values[0, 1, 2, 3] += 1e-3
        assert riemann_symmetry_residual(values) >= 1e-3


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


class TestSectionalCurvature:
    def test_complex_space_form_plane_values(self):
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, pi1(pt.dim) + pi2(pt.J))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        holo = Planes(x=[x], y=[pt.J @ x], kind="holomorphic")
        anti = Planes(x=[x], y=[[0.0, 0.0, 1.0, 0.0]], kind="antiholomorphic")
        assert sectional_curvature(R, holo)[0] == pytest.approx(4.0)
        assert sectional_curvature(R, anti)[0] == pytest.approx(1.0)

    def test_zero_tensor(self):
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, np.zeros((4, 4, 4, 4)))
        plane = Planes(x=[[1.0, 0, 0, 0]], y=[[0, 1.0, 0, 0]])
        assert sectional_curvature(R, plane)[0] == 0.0

    def test_degenerate_plane_raises(self):
        pt = HermitianPoint.standard_flat(2)
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(InvariantViolation, match="degenerate"):
            sectional_curvature(CurvatureTensor(pt, pi1(pt.dim)), Planes(x=[x], y=[2.0 * x]))
        # in a batch, the message names the first degenerate plane and its determinant
        e = np.eye(4)
        planes = Planes(x=[e[0], e[0], e[1], e[2]], y=[e[1], 2.0 * e[0], e[1], e[3]])
        with pytest.raises(InvariantViolation,
                           match=r"degenerate plane 1: Gram determinant 0\.000e\+00"):
            sectional_curvature(CurvatureTensor(pt, pi1(pt.dim)), planes)

    def test_planes_need_matching_batches(self):
        e = np.eye(4)
        assert len(Planes(x=e[:3], y=e[1:])) == 3
        with pytest.raises(InvariantViolation, match="one shape"):
            Planes(x=e[:3], y=e[:2])
        with pytest.raises(InvariantViolation, match="one shape"):
            Planes(x=e[0], y=e[1])  # a single plane is a batch of one: shape (1, 4)

    def test_invariant_under_plane_basis_change(self):
        rng = np.random.default_rng(10)
        pt = random_hermitian_point(2, rng)
        S = random_j_invariant_bilinear(pt, rng)
        R = CurvatureTensor(pt, build_from_decomposition(S.values, 0.3, pt.J, tol=1e-8))
        x, y = rng.standard_normal((2, 4))
        k0 = sectional_curvature(R, Planes(x=[x], y=[y]))[0]
        for _ in range(20):
            a, b, c, d = rng.uniform(-2, 2, size=4)
            if abs(a * d - b * c) < 0.1:
                continue
            k1 = sectional_curvature(R, Planes(x=[a * x + b * y], y=[c * x + d * y]))[0]
            assert abs(k1 - k0) < 1e-10


# ---------------------------------------------------------------------------
# Decomposition construction and span fit
# ---------------------------------------------------------------------------


class TestBuildFromDecomposition:
    def test_unit_sphere_tensor_m3(self):
        # S = 5 g, nu = 1, m = 3: the psi term cancels the pi2 term exactly
        pt = HermitianPoint.standard_flat(3)
        R = build_from_decomposition(5.0 * pt.g, 1.0, pt.J)
        np.testing.assert_allclose(R, pi1(pt.dim), rtol=0, atol=1e-12)

    def test_complex_projective_plane_tensor(self):
        pt = HermitianPoint.standard_flat(2)
        R = build_from_decomposition(6.0 * pt.g, 1.0, pt.J)
        np.testing.assert_allclose(R, pi1(pt.dim) + pi2(pt.J),
                                   rtol=0, atol=1e-12)

    def test_zero_inputs(self):
        pt = HermitianPoint.standard_flat(2)
        R = build_from_decomposition(np.zeros((4, 4)), 0.0, pt.J)
        assert np.all(R == 0.0)

    def test_gates_on_asymmetric_input(self):
        pt = HermitianPoint.standard_flat(2)
        S = np.zeros((4, 4))
        S[0, 1] = 1.0
        with pytest.raises(InvariantViolation, match="not symmetric"):
            build_from_decomposition(S, 1.0, pt.J)

    def test_gates_on_non_j_invariant_input(self):
        pt = HermitianPoint.standard_flat(2)
        S = np.diag([1.0, 2.0, 3.0, 4.0])  # symmetric but not J-invariant
        with pytest.raises(InvariantViolation, match="J-invariant"):
            build_from_decomposition(S, 1.0, pt.J)

    def test_output_satisfies_identities_2_and_3(self):
        rng = np.random.default_rng(12)
        for m in (2, 3):
            pt = HermitianPoint.standard_flat(m)
            S = random_j_invariant_bilinear(pt, rng)
            R = build_from_decomposition(S.values, float(rng.uniform(-1, 1)), pt.J)
            assert ah_identity_residual(R, pt.J, 2) < 1e-12
            assert ah_identity_residual(R, pt.J, 3) < 1e-12


class TestFitPiSpan:
    def test_exact_span_member(self):
        pt = HermitianPoint.standard_flat(2)
        values = 2.0 * pi1(pt.dim) - 0.5 * pi2(pt.J)
        a, b, res = fit_pi_span(values, pt.J)
        assert (a, b) == (pytest.approx(2.0), pytest.approx(-0.5))
        assert res < 1e-12

    def test_pure_pi1(self):
        pt = HermitianPoint.standard_flat(3)
        a, b, res = fit_pi_span(pi1(pt.dim), pt.J)
        assert (a, b) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-13))
        assert res < 1e-12

    def test_projection_is_a_contraction(self):
        rng = np.random.default_rng(11)
        pt = HermitianPoint.standard_flat(2)
        E = 1e-6 * rng.standard_normal((4, 4, 4, 4))
        E *= 1e-6 / np.linalg.norm(E)
        values = pi1(pt.dim) + pi2(pt.J) + E
        _, _, res = fit_pi_span(values, pt.J)
        assert res <= 1e-6 + 1e-18

    def test_m1_degenerate_span(self):
        # at m = 1 the two generators are parallel (pi2 = 3 pi1); the fit
        # must still reproduce the tensor it is given
        pt = HermitianPoint.standard_flat(1)
        np.testing.assert_allclose(pi2(pt.J), 3.0 * pi1(pt.dim), atol=1e-14)
        a, b, res = fit_pi_span(-4.0 * pi1(pt.dim), pt.J)
        assert res < 1e-12
        assert a + 3.0 * b == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# Stacked kernels against the per-point einsum oracles
# ---------------------------------------------------------------------------


def _oracle_cases():
    """The kernel cases and every bundled model's R at its default points."""
    yield from _kernel_cases()
    for name in sorted(model_names()):
        chart = get_model(name).chart
        for i, p in enumerate(chart.default_points):
            yield pytest.param(frame_at(chart, p)[0], id=f"{name}-default-{i}")


_ORACLE_CASES = list(_oracle_cases())


class TestKernelOracles:
    """Each stacked kernel, on one point and on all the cases as one stack,
    within 1e-13 of the tensor's max-norm of its einsum oracle."""

    @pytest.mark.parametrize("R", _ORACLE_CASES)
    def test_ah_identities(self, R):
        scale = np.max(np.abs(R.values))
        for which in (1, 2, 3):
            want = ah_identity_oracle(R.values, R.point.J, which)
            assert abs(ah_identity_residual(R.values, R.point.J, which) - want) <= 1e-13 * scale

    @pytest.mark.parametrize("R", _ORACLE_CASES)
    def test_psi_of_the_ricci_tensor(self, R):
        S = ricci(R.values)
        want = psi_oracle(S, R.point.J)
        assert np.max(np.abs(psi(S, R.point.J) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_stack_is_its_points(self, m):
        # bit for bit: each point's matrix products are the same in any stack
        cases = [R for R in (c.values[0] for c in _ORACLE_CASES) if R.point.m == m]
        assert len(cases) >= 2
        V = np.stack([R.values for R in cases])
        J = np.stack([R.point.J for R in cases])
        for which in (1, 2, 3):
            stacked = ah_identity_residual(V, J, which)
            assert stacked.tolist() == [float(ah_identity_residual(R.values, R.point.J, which))
                                        for R in cases]
        assert np.array_equal(psi(ricci(V), J), np.stack([psi(ricci(R.values), R.point.J)
                                                         for R in cases]))
