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
from ahgeom.selftest import random_j_invariant_bilinear, random_structure
from ahgeom.tensor_core import (
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


def psi_reference(J, Q):
    """Literal six-term definition, expanded on basis vectors of an
    orthonormal frame (g = Id)."""
    n = len(J)
    e = g = np.eye(n)
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


def pi1_reference(n):
    e = g = np.eye(n)
    out = np.zeros((n, n, n, n))
    for x, y, z, u in itertools.product(range(n), repeat=4):
        out[x, y, z, u] = form(g, e[x], e[u]) * form(g, e[y], e[z]) \
            - form(g, e[x], e[z]) * form(g, e[y], e[u])
    return out


def pi2_reference(J):
    n = len(J)
    e = g = np.eye(n)
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
# The invariants of g and J, and their frames
# ---------------------------------------------------------------------------


def frames(g, J):
    """`hermitian_frames` of one point."""
    return hermitian_frames(np.asarray(g)[None], np.asarray(J)[None])


class TestHermitianFrames:
    def test_standard_structure_is_valid(self):
        Linv, K = frames(np.eye(6), standard_j(3))
        np.testing.assert_array_equal(Linv[0], np.eye(6))
        np.testing.assert_array_equal(K[0], standard_j(3))

    def test_rejects_asymmetric_metric(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(InvariantViolation, match="not symmetric"):
            frames(g, standard_j(2))

    def test_rejects_indefinite_metric(self):
        g = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(InvariantViolation, match="positive definite"):
            frames(g, standard_j(2))

    def test_rejects_non_square_root_of_minus_id(self):
        with pytest.raises(InvariantViolation, match="-Id"):
            frames(np.eye(4), np.eye(4))

    def test_rejects_incompatible_j(self):
        # a valid J for a different metric
        J = random_structure(2, np.random.default_rng(5))
        with pytest.raises(InvariantViolation, match="compatible"):
            frames(np.diag([4.0, 1.0, 1.0, 1.0]), J)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_checks_do_not_depend_on_the_metric_scale(self, scale):
        # J^T g J = g for g = scale * Id only if J is orthogonal; [[0, -1/2], [2, 0]]
        # squares to -Id but is not, whatever the scale
        J = np.array([[0.0, -0.5], [2.0, 0.0]])
        with pytest.raises(InvariantViolation, match=r"max \|J\^T g J - g\| = 3\.000e\+00"):
            frames(scale * np.eye(2), J)
        # an asymmetry of 1e-9 of the metric's size is rounding, one of 2e-7 is not
        frames(scale * np.array([[1.0, 1e-9], [0.0, 1.0]]), standard_j(1))
        with pytest.raises(InvariantViolation, match=r"not symmetric: .* = 2\.000e-07"):
            frames(scale * np.array([[1.0, 2e-7], [0.0, 1.0]]), standard_j(1))

    def test_a_stack_is_checked_as_a_whole(self):
        # one failing point fails the stack; ChartSpec.jets_at then names it
        g = np.stack([np.eye(4), np.diag([1.0, -1.0, 1.0, 1.0]), np.eye(4) + 1.0])
        J = np.stack([standard_j(2)] * 3)
        with pytest.raises(InvariantViolation, match="positive definite"):
            hermitian_frames(g, J)
        Linv, K = hermitian_frames(g[[0, 0]], J[[0, 0]])
        assert Linv.shape == K.shape == (2, 4, 4)
        np.testing.assert_array_equal(K[1], standard_j(2))


# ---------------------------------------------------------------------------
# psi / pi1 / pi2
# ---------------------------------------------------------------------------


class TestPsi:
    def test_zero_input_gives_zero(self):
        out = psi(np.zeros((4, 4)), standard_j(2))
        assert np.all(out == 0.0)

    def test_psi_of_metric_is_twice_pi2(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 3):
            for J in (standard_j(m), random_structure(m, rng)):
                gap = np.max(np.abs(psi(np.eye(2 * m), J) - 2.0 * pi2(J)))
                assert gap < 1e-12

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(2)
        J = random_structure(2, rng)
        Q = random_j_invariant_bilinear(J, rng)
        np.testing.assert_allclose(psi(Q, J), psi_reference(J, Q), rtol=0, atol=1e-12)

    def test_frozen_value_flat_m2(self):
        # brute-force expansion of the six terms at the standard basis gives 6
        J = standard_j(2)
        ref = psi_reference(J, np.eye(4))
        e1, je1 = 0, 1
        assert ref[e1, je1, je1, e1] == pytest.approx(6.0, abs=1e-14)
        assert psi(np.eye(4), J)[e1, je1, je1, e1] == pytest.approx(6.0)

    def test_curvature_type_antisymmetries_for_admissible_q(self):
        rng = np.random.default_rng(3)
        # exact (bitwise) on the standard structure, where g and J are exact
        for m in (2, 3):
            J = standard_j(m)
            V = psi(random_j_invariant_bilinear(J, rng), J)
            assert np.array_equal(V, -V.swapaxes(0, 1))
            assert np.array_equal(V, -V.swapaxes(2, 3))
        # within rounding on random structures, whose invariants hold to tol
        for m in (2, 3):
            J = random_structure(m, rng)
            V = psi(random_j_invariant_bilinear(J, rng), J)
            scale = np.max(np.abs(V)) + 1.0
            assert np.max(np.abs(V + V.swapaxes(0, 1))) < 1e-7 * scale
            assert np.max(np.abs(V + V.swapaxes(2, 3))) < 1e-7 * scale


class TestPi1:
    def test_orthonormal_plane_value(self):
        v = pi1(4)
        assert v[0, 2, 2, 0] == 1.0

    def test_vanishes_on_repeated_first_arguments(self):
        v = pi1(4)
        assert np.all(v[0, 0, :, :] == 0.0)

    def test_matches_reference(self):
        np.testing.assert_allclose(pi1(4), pi1_reference(4), rtol=0, atol=1e-13)

    def test_sectional_curvature_of_scaled_pi1_is_constant(self):
        rng = np.random.default_rng(5)
        c = -1.75
        R = c * pi1(6)
        for _ in range(100):
            v = rng.standard_normal((2, 6))
            plane = Planes(x=[v[0]], y=[v[1]])
            assert sectional_curvature(R, plane)[0] == pytest.approx(c, abs=1e-10)


class TestPi2:
    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        J = random_structure(2, rng)
        np.testing.assert_allclose(pi2(J), pi2_reference(J), rtol=0, atol=1e-13)

    def test_vanishes_on_antiholomorphic_planes(self):
        # every term carries a factor g(x,Jy), g(x,Jx) or g(y,Jy), all zero
        J = standard_j(3)
        rng = np.random.default_rng(7)
        from ahgeom.analysis import sample_antiholomorphic_planes

        values = sectional_curvature(pi2(J), sample_antiholomorphic_planes(J, 50, rng))
        assert values.shape == (50,)
        assert np.max(np.abs(values)) <= 1e-12

    def test_holomorphic_plane_value_is_three(self):
        J = standard_j(2)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        plane = Planes(x=[x], y=[J @ x], kind="holomorphic")
        assert sectional_curvature(pi2(J), plane)[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# AH identities
# ---------------------------------------------------------------------------


class TestAHIdentities:
    def test_complex_space_form_shape_passes_all(self):
        J = standard_j(2)
        R = pi1(4) + pi2(J)
        assert all(r < 1e-12 for r in ah_identity_residual(R, J))

    def test_pi1_passes_3_but_not_1(self):
        J = standard_j(2)
        ah1, _, ah3 = ah_identity_residual(pi1(4), J)
        assert ah3 < 1e-12
        assert ah1 > 0.5

    def test_pi1_passes_2(self):
        # constant-curvature tensors satisfy the three-term identity exactly
        rng = np.random.default_rng(8)
        J = random_structure(3, rng)
        assert ah_identity_residual(pi1(6), J)[1] < 1e-12

    def test_zero_tensor_passes_all(self):
        R = np.zeros((4, 4, 4, 4))
        assert all(r == 0.0 for r in ah_identity_residual(R, standard_j(2)))


class TestRiemannSymmetryResidual:
    def test_algebraic_construction_is_exact(self):
        rng = np.random.default_rng(9)
        J = random_structure(2, rng)
        S = random_j_invariant_bilinear(J, rng)
        R = build_from_decomposition(S, 0.8, J, tol=1e-8)
        assert riemann_symmetry_residual(R) < 1e-12

    def test_pi1_is_symmetric(self):
        assert riemann_symmetry_residual(pi1(6)) == 0.0

    def test_detects_perturbation(self):
        values = pi1(4).copy()
        values[0, 1, 2, 3] += 1e-3
        assert riemann_symmetry_residual(values) >= 1e-3


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


class TestSectionalCurvature:
    def test_complex_space_form_plane_values(self):
        J = standard_j(2)
        R = pi1(4) + pi2(J)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        holo = Planes(x=[x], y=[J @ x], kind="holomorphic")
        anti = Planes(x=[x], y=[[0.0, 0.0, 1.0, 0.0]], kind="antiholomorphic")
        assert sectional_curvature(R, holo)[0] == pytest.approx(4.0)
        assert sectional_curvature(R, anti)[0] == pytest.approx(1.0)

    def test_zero_tensor(self):
        R = np.zeros((4, 4, 4, 4))
        plane = Planes(x=[[1.0, 0, 0, 0]], y=[[0, 1.0, 0, 0]])
        assert sectional_curvature(R, plane)[0] == 0.0

    def test_degenerate_plane_raises(self):
        x = np.array([1.0, 0, 0, 0])
        with pytest.raises(InvariantViolation, match="degenerate"):
            sectional_curvature(pi1(4), Planes(x=[x], y=[2.0 * x]))
        # in a batch, the message names the first degenerate plane and its determinant
        e = np.eye(4)
        planes = Planes(x=[e[0], e[0], e[1], e[2]], y=[e[1], 2.0 * e[0], e[1], e[3]])
        with pytest.raises(InvariantViolation,
                           match=r"degenerate plane 1: Gram determinant 0\.000e\+00"):
            sectional_curvature(pi1(4), planes)

    def test_planes_need_matching_batches(self):
        e = np.eye(4)
        assert len(Planes(x=e[:3], y=e[1:])) == 3
        with pytest.raises(InvariantViolation, match="one shape"):
            Planes(x=e[:3], y=e[:2])
        with pytest.raises(InvariantViolation, match="one shape"):
            Planes(x=e[0], y=e[1])  # a single plane is a batch of one: shape (1, 4)

    def test_invariant_under_plane_basis_change(self):
        rng = np.random.default_rng(10)
        J = random_structure(2, rng)
        S = random_j_invariant_bilinear(J, rng)
        R = build_from_decomposition(S, 0.3, J, tol=1e-8)
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
        R = build_from_decomposition(5.0 * np.eye(6), 1.0, standard_j(3))
        np.testing.assert_allclose(R, pi1(6), rtol=0, atol=1e-12)

    def test_complex_projective_plane_tensor(self):
        J = standard_j(2)
        R = build_from_decomposition(6.0 * np.eye(4), 1.0, J)
        np.testing.assert_allclose(R, pi1(4) + pi2(J), rtol=0, atol=1e-12)

    def test_zero_inputs(self):
        R = build_from_decomposition(np.zeros((4, 4)), 0.0, standard_j(2))
        assert np.all(R == 0.0)

    def test_gates_on_asymmetric_input(self):
        S = np.zeros((4, 4))
        S[0, 1] = 1.0
        with pytest.raises(InvariantViolation, match="not symmetric"):
            build_from_decomposition(S, 1.0, standard_j(2))

    def test_gates_on_non_j_invariant_input(self):
        S = np.diag([1.0, 2.0, 3.0, 4.0])  # symmetric but not J-invariant
        with pytest.raises(InvariantViolation, match="J-invariant"):
            build_from_decomposition(S, 1.0, standard_j(2))

    def test_output_satisfies_identities_2_and_3(self):
        rng = np.random.default_rng(12)
        for m in (2, 3):
            J = standard_j(m)
            S = random_j_invariant_bilinear(J, rng)
            R = build_from_decomposition(S, float(rng.uniform(-1, 1)), J)
            _, ah2, ah3 = ah_identity_residual(R, J)
            assert ah2 < 1e-12
            assert ah3 < 1e-12


class TestFitPiSpan:
    def test_exact_span_member(self):
        J = standard_j(2)
        values = 2.0 * pi1(4) - 0.5 * pi2(J)
        a, b, res = fit_pi_span(values, J)
        assert (a, b) == (pytest.approx(2.0), pytest.approx(-0.5))
        assert res < 1e-12

    def test_pure_pi1(self):
        a, b, res = fit_pi_span(pi1(6), standard_j(3))
        assert (a, b) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-13))
        assert res < 1e-12

    def test_projection_is_a_contraction(self):
        rng = np.random.default_rng(11)
        J = standard_j(2)
        E = 1e-6 * rng.standard_normal((4, 4, 4, 4))
        E *= 1e-6 / np.linalg.norm(E)
        values = pi1(4) + pi2(J) + E
        _, _, res = fit_pi_span(values, J)
        assert res <= 1e-6 + 1e-18

    def test_refuses_m1(self):
        # at m = 1 the two generators are parallel (pi2 = 3 pi1): nothing to separate
        J = standard_j(1)
        np.testing.assert_allclose(pi2(J), 3.0 * pi1(2), atol=1e-14)
        with pytest.raises(InvariantViolation, match="m >= 2"):
            fit_pi_span(-4.0 * pi1(2), J)


# ---------------------------------------------------------------------------
# Stacked kernels against the per-point einsum oracles
# ---------------------------------------------------------------------------


def _oracle_cases():
    """The kernel cases and every bundled model's (K, R) at its default points."""
    yield from _kernel_cases()
    for name in sorted(model_names()):
        chart = get_model(name).chart
        for i, p in enumerate(chart.default_points):
            yield pytest.param(*frame_at(chart, p)[:2], id=f"{name}-default-{i}")


_ORACLE_CASES = list(_oracle_cases())


class TestKernelOracles:
    """Each stacked kernel, on one point and on all the cases as one stack,
    within 1e-13 of the tensor's max-norm of its einsum oracle."""

    @pytest.mark.parametrize("J, R", _ORACLE_CASES)
    def test_ah_identities(self, J, R):
        scale = np.max(np.abs(R))
        for which, got in zip((1, 2, 3), ah_identity_residual(R, J), strict=True):
            assert abs(got - ah_identity_oracle(R, J, which)) <= 1e-13 * scale

    @pytest.mark.parametrize("J, R", _ORACLE_CASES)
    def test_psi_of_the_ricci_tensor(self, J, R):
        S = ricci(R)
        want = psi_oracle(S, J)
        assert np.max(np.abs(psi(S, J) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_stack_is_its_points(self, m):
        # bit for bit: each point's matrix products are the same in any stack
        cases = [c.values for c in _ORACLE_CASES if len(c.values[0]) == 2 * m]
        assert len(cases) >= 2
        J = np.stack([K for K, _ in cases])
        V = np.stack([R for _, R in cases])
        per_point = [ah_identity_residual(R, K) for K, R in cases]
        for which, stacked in enumerate(ah_identity_residual(V, J)):
            assert stacked.tolist() == [float(ah[which]) for ah in per_point]
        assert np.array_equal(psi(ricci(V), J), np.stack([psi(ricci(R), K) for K, R in cases]))
