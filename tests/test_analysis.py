"""Plane sampling, adapted frames, residual checks and classification."""

import math
import random
import re
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahgeom import calculus, report
from ahgeom.analysis import (
    COMPLEX_SPACE_FORM,
    INCONCLUSIVE,
    NOT_AH3,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
    Verdict,
    adapted_eigenframe,
    bianchi2_residual,
    classify,
    constancy,
    decomposition_residual,
    einstein_residual,
    proof_relation_32_residual,
    sample_antiholomorphic_planes,
    sample_holomorphic_planes,
    schur_check,
)
from ahgeom.calculus import ClassResiduals, class_residuals, ricci
from ahgeom.charts import ChartSpec, parse_chart
from ahgeom.expressions import BinOp, Call, Neg, Num, Var
from ahgeom.models import get_model, model_names
from ahgeom.report import (
    JET_GROUP,
    AnalysisReport,
    PointReport,
    _group_checks,
    analyze_chart,
    analyze_model,
)
from ahgeom.selftest import random_j_invariant_bilinear, random_structure
from ahgeom.tensor_core import (
    InvariantViolation,
    ah_identity_residual,
    build_from_decomposition,
    fit_pi_span,
    pi1,
    pi2,
    riemann_symmetry_residual,
    sectional_curvature,
    standard_j,
)
from model_oracles import (
    BUNDLED,
    dumped,
    eigenframe_oracle,
    fixture_chart,
    frame_at,
    kernel_cases,
    kulkarni_nomizu,
    product_spheres_chart_text,
    relation_32_oracle,
)

ZERO_CLASS = ClassResiduals(kahler=0.0, nearly_kahler=0.0, almost_kahler=0.0)


# ---------------------------------------------------------------------------
# Plane samplers
# ---------------------------------------------------------------------------


class TestSamplers:
    def test_antiholomorphic_invariants(self):
        rng = np.random.default_rng(0)
        J = random_structure(3, rng)
        planes = sample_antiholomorphic_planes(J, 64, rng)
        assert len(planes) == 64
        for x, y in zip(planes.x, planes.y):
            assert abs(x @ x - 1.0) < 1e-12
            assert abs(y @ y - 1.0) < 1e-12
            assert abs(x @ y) < 1e-12
            assert abs(x @ J @ y) < 1e-12

    def test_conf2_planes_are_antiholomorphic_to_rounding(self):
        # 20,000 draws at each conf2 point, in its frame: one projection pass
        # leaves max |x . Ky| and max |x . y| at up to 1.8e-14 and 5.3e-14
        chart = fixture_chart("conf2")
        worst = []
        for k, p in enumerate(chart.default_points):
            K = frame_at(chart, p)[0]
            planes = sample_antiholomorphic_planes(K, 20_000, np.random.default_rng([1, k]))
            worst += [np.max(np.abs(np.einsum("ij,ij->i", planes.x, planes.y @ K.T))),
                      np.max(np.abs(np.einsum("ij,ij->i", planes.x, planes.y)))]
        assert max(worst) <= 1e-15, worst

    def test_m1_has_no_antiholomorphic_planes(self):
        with pytest.raises(InvariantViolation, match="m >= 2"):
            sample_antiholomorphic_planes(standard_j(1), 4, np.random.default_rng(0))

    def test_deterministic_for_fixed_seed(self):
        J = standard_j(2)
        a = sample_antiholomorphic_planes(J, 8, np.random.default_rng(123))
        b = sample_antiholomorphic_planes(J, 8, np.random.default_rng(123))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_holomorphic_planes(self):
        rng = np.random.default_rng(1)
        J = random_structure(2, rng)
        planes = sample_holomorphic_planes(J, 16, rng)
        assert len(planes) == 16
        for x, y in zip(planes.x, planes.y):
            np.testing.assert_allclose(y, J @ x)
            assert abs(x @ y) < 1e-12


class _ScriptedNormals(np.random.Generator):
    """A generator whose first standard_normal block is given; later blocks
    come from `later(size)`.  Records the size of every block drawn."""

    def __init__(self, first, later):
        super().__init__(np.random.PCG64(0))
        self.first, self.later, self.sizes = first, later, []

    def standard_normal(self, size=None, *args, **kwargs):
        self.sizes.append(size)
        return self.first if len(self.sizes) == 1 else self.later(size)


class TestDegenerateDraws:
    def test_only_degenerate_rows_are_drawn_again(self):
        rng = np.random.default_rng(8)
        J = random_structure(2, rng)
        block = rng.standard_normal((3, 2, 4))
        parallel = block.copy()
        parallel[1, 1] = -2.0 * parallel[1, 0]  # plane 1: y parallel to x
        redraws = np.random.default_rng(9)
        scripted = _ScriptedNormals(parallel, redraws.standard_normal)
        planes = sample_antiholomorphic_planes(J, 3, scripted)
        assert scripted.sizes == [(3, 2, 4), (1, 4)]

        clean = sample_antiholomorphic_planes(J, 3, _ScriptedNormals(block, None))
        np.testing.assert_array_equal(planes.x, clean.x)
        np.testing.assert_array_equal(planes.y[[0, 2]], clean.y[[0, 2]])
        x, y = planes.x[1], planes.y[1]
        assert abs(y @ y - 1.0) < 1e-12
        assert abs(x @ y) < 1e-12
        assert abs(x @ J @ y) < 1e-12

    def test_gives_up_after_100_rounds(self):
        block = np.random.default_rng(10).standard_normal((4, 2, 4))
        block[2, 1] = block[2, 0]
        scripted = _ScriptedNormals(block, np.zeros)
        with pytest.raises(InvariantViolation, match="degenerated 100 times"):
            sample_antiholomorphic_planes(standard_j(2), 4, scripted)
        assert scripted.sizes == [(4, 2, 4)] + [(1, 4)] * 99


def _reference_curvature(R, x, y):
    """R(x, y, y, x) / (|x|^2 |y|^2 - (x . y)^2) for one plane (g = Id), in
    extended precision where the platform has it, so that the reference's
    own rounding does not count."""
    V, x, y = (np.asarray(a, dtype=np.longdouble) for a in (R, x, y))
    num = np.einsum("ijkl,i,j,k,l->", V, x, y, y, x)
    return float(num / ((x @ x) * (y @ y) - (x @ y) ** 2))


class TestSectionalCurvatureKernel:
    @pytest.mark.parametrize("J, R", list(kernel_cases()))
    def test_batch_matches_per_plane_reference(self, J, R):
        # relative to the batch's largest curvature: a holomorphic batch of
        # the random tensors holds values near 0 beside values near 25
        for n in (1, 5, 256):
            for sample in (sample_antiholomorphic_planes, sample_holomorphic_planes):
                planes = sample(J, n, np.random.default_rng([n, len(J) // 2]))
                reference = np.array([_reference_curvature(R, x, y)
                                      for x, y in zip(planes.x, planes.y)])
                error = np.max(np.abs(sectional_curvature(R, planes) - reference))
                assert error <= 1e-13 * np.max(np.abs(reference))


class TestConstancy:
    def test_decomposition_forward_property(self):
        # algebraic, no discretization error: every antiholomorphic plane
        # of the rebuilt tensor has curvature nu
        rng = np.random.default_rng(2)
        J = random_structure(3, rng)
        S = random_j_invariant_bilinear(J, rng)
        R = build_from_decomposition(S, 0.7, J, tol=1e-8)
        stats = constancy(R, sample_antiholomorphic_planes(J, 1000, rng))
        assert stats.mean == pytest.approx(0.7, abs=1e-11)
        assert stats.max_deviation < 1e-10

    def test_constant_curvature_tensor(self):
        rng = np.random.default_rng(3)
        stats = constancy(pi1(4), sample_antiholomorphic_planes(standard_j(2), 32, rng))
        assert stats.mean == pytest.approx(1.0)
        assert stats.max_deviation < 1e-12

    def test_product_spheres_deviate(self):
        chart = get_model("s2xs2").chart
        K, R = frame_at(chart, (0.0, 0.0, 0.0, 0.0))[:2]
        rng = np.random.default_rng(4)
        stats = constancy(R, sample_antiholomorphic_planes(K, 256, rng))
        assert stats.max_deviation > 0.1


# ---------------------------------------------------------------------------
# Adapted eigenframes
# ---------------------------------------------------------------------------


def mixed_stack():
    """Six points' (S, J) at m = 3 with one structure J: a random J-invariant
    S (three eigenspaces), a scalar S (one), S of eigenvalues 1, 1, 3 and
    3, 1, 1 on J-planes (4 + 2 both: they split alike), an S whose
    eigenspaces are coordinate planes, not J-closed, but split like the
    random S's, and another random J-invariant S."""
    rng = np.random.default_rng(11)
    J = random_structure(3, rng)
    cols = []
    for _ in range(3):
        v = rng.standard_normal(6)
        v = v - sum((c @ v) * c for c in cols)
        v = v / np.sqrt(v @ v)
        cols += [v, J @ v]
    flat = np.column_stack(cols)
    S = [random_j_invariant_bilinear(J, rng), 2.5 * np.eye(6),
         (flat * np.repeat([1.0, 1.0, 3.0], 2)) @ flat.T, np.diag([1.0, 1.0, 2.0, 2.0, 4.0, 4.0]),
         random_j_invariant_bilinear(J, rng), (flat * np.repeat([3.0, 1.0, 1.0], 2)) @ flat.T]
    return np.array(S), np.array([J] * len(S))


def one_frame(S, J, tol=0.0):
    """The adapted frame of one point's S and J, as a stack of one."""
    return adapted_eigenframe(S[None], J[None], tol)[0]


class TestAdaptedEigenframe:
    def _check_frame(self, S, J, frame, tol=1e-9):
        B, eigenvalues = frame
        assert np.max(np.abs(B.T @ B - np.eye(len(J)))) < tol
        for i, lam in enumerate(eigenvalues):
            e, je = B[:, 2 * i], B[:, 2 * i + 1]
            np.testing.assert_allclose(je, J @ e, atol=tol)
            # S e = lambda e in the bilinear sense: S(e, .) = lambda g(e, .), g = Id
            assert np.max(np.abs(S @ e - lam * e)) < tol
            assert np.max(np.abs(S @ je - lam * je)) < tol

    def test_scalar_case(self):
        S, J = 2.5 * np.eye(6), standard_j(3)
        frame = one_frame(S, J)
        assert frame[1].tolist() == [2.5, 2.5, 2.5]
        self._check_frame(S, J, frame)

    def test_two_eigenvalue_blocks(self):
        S = np.diag([2.0, 2.0, 5.0, 5.0])
        B, eigenvalues = one_frame(S, standard_j(2))
        assert eigenvalues.tolist() == [2.0, 5.0]
        rebuilt = np.zeros((4, 4))
        for i, lam in enumerate(eigenvalues):
            for v in (B[:, 2 * i], B[:, 2 * i + 1]):
                rebuilt += lam * np.outer(v, v)
        assert np.max(np.abs(S - rebuilt)) < 1e-10

    def test_random_j_invariant_inputs(self):
        rng = np.random.default_rng(5)
        for m in (2, 3):
            J = random_structure(m, rng)
            S = random_j_invariant_bilinear(J, rng)
            self._check_frame(S, J, one_frame(S, J), tol=1e-8)

    def test_rejects_non_j_invariant_input(self):
        S = np.diag([1.0, 2.0, 3.0, 4.0])
        assert adapted_eigenframe(S[None], standard_j(2)[None]) == [None]

    def test_a_point_whose_ricci_is_not_finite_has_no_frame(self):
        # eigh raises on inf or NaN for the whole stack: those points never reach it
        J = standard_j(2)
        S = np.array([np.diag([2.0, 2.0, 5.0, 5.0]), np.full((4, 4), np.inf),
                      np.diag([1.0, 1.0, np.nan, 3.0]), 3.0 * np.eye(4)])
        frames = adapted_eigenframe(S, np.array([J] * 4))
        assert [frame is None for frame in frames] == [False, True, True, False]
        for k in (0, 3):
            assert [a.tobytes() for a in frames[k]] == [a.tobytes() for a in one_frame(S[k], J)]
        assert adapted_eigenframe(S[1:3], np.array([J] * 2)) == [None, None]

    def test_four_dimensional_eigenspace_on_a_random_point(self):
        # eigenvalues 1, 1, 3 on the J-planes of a J-adapted orthonormal frame
        rng = np.random.default_rng(8)
        J = random_structure(3, rng)
        cols = []
        for _ in range(3):
            v = rng.standard_normal(6)
            v = v - sum((c @ v) * c for c in cols)
            v = v / np.sqrt(v @ v)
            cols += [v, J @ v]
        flat = np.column_stack(cols)
        S = (flat * np.repeat([1.0, 1.0, 3.0], 2)) @ flat.T
        frame = one_frame(S, J)
        assert frame[1].tolist() == pytest.approx([1.0, 1.0, 3.0])
        self._check_frame(S, J, frame)

    def test_a_stack_has_the_bits_of_one_point_at_a_time(self):
        # points that split alike share each eigenspace's products; a point
        # that is not J-invariant gets None and leaves its neighbours alone
        S, J = mixed_stack()
        frames = adapted_eigenframe(S, J, 1e-8)
        assert [frame is None for frame in frames] == [False, False, False, True, False, False]
        for k, frame in enumerate(frames):
            want = eigenframe_oracle(S[k], J[k], 1e-8)
            assert (frame is None) == (want is None)
            if frame is not None:
                alone = one_frame(S[k], J[k], 1e-8)
                assert [a.tobytes() for a in frame] == [a.tobytes() for a in want] == \
                    [a.tobytes() for a in alone]

    def test_merges_close_eigenvalues(self):
        noise = 1e-10
        S = np.diag([3.0, 3.0 + noise, 3.0 - noise, 3.0])
        _, eigenvalues = one_frame(S, standard_j(2), 1e-8)
        assert eigenvalues.tolist() == pytest.approx([3.0, 3.0])


# ---------------------------------------------------------------------------
# Scalar residual checks
# ---------------------------------------------------------------------------


class TestEinsteinResidual:
    def test_unit_sphere(self):
        chart = get_model("s6").chart
        S = ricci(frame_at(chart, chart.default_points[1])[1])
        lam, res = einstein_residual(S)
        assert lam == pytest.approx(5.0, abs=1e-4)
        assert res < 1e-4

    def test_cp2(self):
        chart = get_model("cp2").chart
        S = ricci(frame_at(chart, chart.default_points[1])[1])
        lam, res = einstein_residual(S)
        assert lam == pytest.approx(6.0, abs=1e-4)
        assert res < 1e-4

    def test_block_spectrum(self):
        lam, res = einstein_residual(np.diag([2.0, 2.0, 5.0, 5.0]))
        assert lam == pytest.approx(3.5)
        assert res == pytest.approx(1.5)


def one_residual(R, S, J, nu, **kwargs):
    """The decomposition residual of one point, as a stack of one."""
    return decomposition_residual(R[None], S[None], J[None], np.array([nu]), **kwargs)[0]


class TestDecompositionResidual:
    def test_unit_sphere_fixture(self):
        chart = get_model("s6").chart
        K, R = frame_at(chart, chart.default_points[1])[:2]
        assert one_residual(R, ricci(R), K, 1.0, tol=1e-4) < 1e-5

    def test_cp2_fixture(self):
        chart = get_model("cp2").chart
        K, R = frame_at(chart, chart.default_points[1])[:2]
        assert one_residual(R, ricci(R), K, 1.0, tol=1e-4) < 1e-5

    def test_linear_perturbation(self):
        J = standard_j(3)
        P2 = pi2(J)
        R = pi1(6) + 0.01 * P2
        S = ricci(pi1(6))
        res = one_residual(R, S, J, 1.0)
        assert res == pytest.approx(0.01 * np.max(np.abs(P2)), rel=1e-9)

    def test_none_when_ricci_is_not_j_invariant(self):
        J = standard_j(2)
        S = np.diag([1.0, 1.0, 1.0, 1.0 + 2e-8])
        assert decomposition_residual(pi1(4)[None], S[None], J[None], np.ones(1)) == [None]
        assert one_residual(pi1(4), S, J, 1.0, tol=1e-7) is not None

    def test_a_stack_gives_each_point_its_own_value(self):
        # a point whose S is not J-invariant is None, and the others keep the
        # values they have alone
        J = standard_j(2)
        S = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, 1.0 + 2e-8]), 2.0 * np.eye(4)])
        R = np.array([pi1(4), pi1(4), 0.5 * pi1(4) + 0.01 * pi2(J)])
        nu = np.array([0.25, 1.0, 0.5])
        alone = [one_residual(R[k], S[k], J, nu[k]) for k in range(3)]
        assert alone[1] is None and None not in (alone[0], alone[2])
        assert decomposition_residual(R, S, np.array([J] * 3), nu) == alone
        assert decomposition_residual(R[::2], S[::2], np.array([J] * 2), nu[::2]) == alone[::2]

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_tolerance_is_floored_at_the_invariant_tolerance(self, tol):
        # a J-defect of 5e-9 is within INVARIANT_TOL whatever tol is asked for
        S = np.diag([1.0, 1.0, 1.0, 1.0 + 5e-9])
        assert one_residual(pi1(4), S, standard_j(2), 1.0, tol=tol) is not None

    def test_none_where_ricci_is_not_finite(self):
        # NaN > tol is False: a NaN or inf S must fail the check, not give nan
        J = standard_j(2)
        S = np.array([np.eye(4), np.diag([1.0, np.nan, 1.0, 1.0]), np.full((4, 4), np.inf)])
        values = decomposition_residual(np.array([pi1(4)] * 3), S, np.array([J] * 3),
                                        np.array([0.25, 0.25, 0.25]))
        assert values == [one_residual(pi1(4), S[0], J, 0.25), None, None]
        assert values[0] is not None


class TestDecompositionConverse:
    @given(m=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_a_tensor_off_the_decomposition_shows_a_sampled_deviation(self, m, seed):
        # AH3 with constant antiholomorphic curvature forces the decomposition,
        # so an AH3 tensor far from it must deviate on some sampled plane
        # (the smallest ratio over 400 draws of this construction was 0.78)
        rng = np.random.default_rng(seed)
        J = random_structure(m, rng)
        forms = [A + A.T for A in rng.standard_normal((6, 2 * m, 2 * m))]
        R = sum(kulkarni_nomizu(h, k) for h, k in zip(forms[::2], forms[1::2]))
        R = 0.5 * (R + np.einsum("abcd,ai,bj,ck,dl->ijkl", R, J, J, J, J))  # (R + J*R) / 2
        assert riemann_symmetry_residual(R) < 1e-12 and ah_identity_residual(R, J)[2] < 1e-12
        (residual,) = decomposition_residual(R[None], ricci(R)[None], J[None],
                                             fit_pi_span(R[None], pi2(J)[None])[0])
        deviation = constancy(R, sample_antiholomorphic_planes(J, 256, rng)).max_deviation
        assert deviation >= 0.1 * residual


class TestBianchi2Residual:
    def test_flat_chart(self):
        chart = get_model("flat2").chart
        assert bianchi2_residual(frame_at(chart, (0.1, 0.2, -0.3, 0.0))[3]) < 1e-8

    def test_unit_sphere(self):
        chart = get_model("s6").chart
        assert bianchi2_residual(frame_at(chart, chart.default_points[1])[3]) < 1e-4

    def test_cp2(self):
        chart = get_model("cp2").chart
        assert bianchi2_residual(frame_at(chart, chart.default_points[1])[3]) < 1e-4


class TestProofRelation:
    @staticmethod
    def _inputs_at(chart, p):
        """The adapted frame, nabla S, nabla J and nu at p, as stacks of one."""
        K, R, NJ, NR = frame_at(chart, p)
        rng = np.random.default_rng(6)
        nu = constancy(R, sample_antiholomorphic_planes(K, 128, rng)).mean
        return ([one_frame(ricci(R), K, 1e-4)], np.trace(NR, axis1=1, axis2=4)[None], NJ[None],
                np.array([nu]))

    def _residual_at(self, chart, p):
        (value,) = proof_relation_32_residual(*self._inputs_at(chart, p))
        return value

    def test_unit_sphere(self):
        # nabla S = 0 and the nearly Kahler condition kill both summands
        chart = get_model("s6").chart
        assert self._residual_at(chart, chart.default_points[1]) < 1e-4

    def test_cp2(self):
        chart = get_model("cp2").chart
        assert self._residual_at(chart, chart.default_points[1]) < 1e-5

    def test_flat(self):
        chart = get_model("flat2").chart
        assert self._residual_at(chart, (0.1, 0.2, -0.3, 0.0)) < 1e-12

    def test_a_stack_has_the_bits_of_the_one_point_code(self):
        # cp3's and conf2's points, where nabla J and nabla S do not vanish
        charts = (get_model("cp3").chart, fixture_chart("conf2"))
        inputs = [self._inputs_at(chart, p) for chart in charts for p in chart.default_points]
        by_m = {}
        for frames, NS, NJ, nu in inputs:
            by_m.setdefault(len(NS[0]), []).append((frames[0], NS[0], NJ[0], nu[0]))
        for stack in by_m.values():
            frames, *rest = zip(*stack)
            stacked = proof_relation_32_residual(list(frames), *map(np.array, rest))
            assert stacked == [relation_32_oracle(*frame, *args) for frame, *args in stack]

    def test_none_where_a_point_has_no_frame(self):
        # S is not J-invariant there; the others keep the values they have alone
        chart = get_model("cp3").chart
        frames, NS, NJ, nu = self._inputs_at(chart, chart.default_points[0])
        alone = proof_relation_32_residual(frames, NS, NJ, nu)
        at = [0, 0, 0]
        assert proof_relation_32_residual([None, frames[0], None], NS[at], NJ[at], nu[at]) == \
            [None, *alone, None]
        assert proof_relation_32_residual([None, None], NS[[0, 0]], NJ[[0, 0]], nu[[0, 0]]) == \
            [None, None]

    @pytest.mark.parametrize("name", ["s6", "cp2", "cp3", "ch2", "flat2"])
    def test_any_adapted_frame_on_space_forms(self, name):
        # every term vanishes on a space form, so turning each e_i within
        # span{e_i, Je_i} keeps the residual at rounding level
        chart = get_model(name).chart
        rng = np.random.default_rng(9)
        for p in chart.default_points:
            [(basis, eigenvalues)], NS, NJ, nu = self._inputs_at(chart, p)
            e, je = basis[:, 0::2], basis[:, 1::2]
            for _ in range(20):
                theta = rng.uniform(0.0, 2.0 * np.pi, e.shape[1])
                # e_i turned by theta_i within its plane, and J of it
                turned = np.cos(theta) * e + np.sin(theta) * je
                j_turned = np.cos(theta) * je - np.sin(theta) * e
                rotated = np.column_stack([c for pair in zip(turned.T, j_turned.T) for c in pair])
                (value,) = proof_relation_32_residual([(rotated, eigenvalues)], NS, NJ, nu)
                assert value <= 1e-12


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_algebraic(R, J, nu_stats_planes=256, tol=1e-9, cls=ZERO_CLASS, seed=7):
    rng = np.random.default_rng(seed)
    m = len(J) // 2
    holo = constancy(R, sample_holomorphic_planes(J, nu_stats_planes, rng))
    anti = None
    if m >= 2:
        anti = constancy(R, sample_antiholomorphic_planes(J, nu_stats_planes, rng))
    fit = fit_pi_span(R, pi2(J)) if m >= 2 else None
    # the point's nu: nu* at m >= 2, the one plane's R(e1, Je1, Je1, e1)/4 at m = 1
    nu = fit[0] if m >= 2 else R[0, :, :, 0] @ J[:, 0] @ J[:, 0] / 4.0
    return classify(m, float(ah_identity_residual(R, J)[2]), einstein_residual(ricci(R)), cls,
                    holo, anti, fit, nu, tol)


class TestClassify:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 2.5])
    def test_scaled_pi1_is_a_real_space_form(self, c):
        verdict = classify_algebraic(c * pi1(6), standard_j(3))
        assert verdict.kind == REAL_SPACE_FORM
        assert verdict.constant == pytest.approx(c, abs=1e-10)

    def test_complex_space_form(self):
        J = standard_j(2)
        verdict = classify_algebraic(pi1(4) + pi2(J), J)
        assert verdict.kind == COMPLEX_SPACE_FORM
        assert verdict.constant == pytest.approx(4.0, abs=1e-10)

    def test_non_kahler_span_member_is_inconclusive(self):
        # right curvature shape but a structure that is not parallel
        J = standard_j(2)
        cls = ClassResiduals(kahler=0.5, nearly_kahler=0.0, almost_kahler=0.5)
        verdict = classify_algebraic(pi1(4) + pi2(J), J, cls=cls)
        assert verdict.kind == INCONCLUSIVE

    def test_not_ah3(self):
        # pi1 built from a symmetric but not J-invariant form u has all the
        # curvature symmetries yet breaks the full J-rotation identity
        u = np.diag([1.0, 0.0, 1.0, 0.0])
        T = np.einsum("xu,yz->xyzu", u, u) - np.einsum("xz,yu->xyzu", u, u)
        verdict = classify_algebraic(pi1(4) + 0.5 * T, standard_j(2), tol=1e-6)
        assert verdict.kind == NOT_AH3

    def test_product_tensor_is_not_constant(self):
        chart = get_model("s2xs2").chart
        K, R, NJ, _ = frame_at(chart, (0.0, 0.0, 0.0, 0.0))
        S = ricci(R)
        rng = np.random.default_rng(9)
        holo = constancy(R, sample_holomorphic_planes(K, 128, rng))
        anti = constancy(R, sample_antiholomorphic_planes(K, 128, rng))
        cls = class_residuals(NJ)
        fit = fit_pi_span(R, pi2(K))
        verdict = classify(2, ah_identity_residual(R, K)[2], einstein_residual(S),
                           cls, holo, anti, fit, fit[0], 1e-4)
        assert verdict.kind == NOT_CONSTANT_ANTIHOLOMORPHIC

    def test_equal_radii_product_still_rejected(self):
        # holomorphic planes give 1, mixed antiholomorphic give 0: tilted
        # planes break constancy even with equal radii
        chart = parse_chart(product_spheres_chart_text(1.0, 1.0))
        K, R, NJ, _ = frame_at(chart, (0.0, 0.0, 0.0, 0.0))
        rng = np.random.default_rng(10)
        anti = constancy(R, sample_antiholomorphic_planes(K, 1000, rng))
        assert anti.max_deviation > 0.1
        holo = constancy(R, sample_holomorphic_planes(K, 128, rng))
        cls = class_residuals(NJ)
        fit = fit_pi_span(R, pi2(K))
        verdict = classify(2, ah_identity_residual(R, K)[2],
                           einstein_residual(ricci(R)), cls, holo, anti, fit, fit[0], 1e-4)
        assert verdict.kind == NOT_CONSTANT_ANTIHOLOMORPHIC

    def test_m1_routes_through_holomorphic_constancy(self):
        verdict = classify_algebraic(-4.0 * pi1(2), standard_j(1))
        assert verdict.kind == COMPLEX_SPACE_FORM
        assert verdict.constant == pytest.approx(-4.0, abs=1e-10)

    def test_verdict_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(11)
        J = standard_j(2)
        base = pi1(4) + pi2(J)
        # random rotation commuting with nothing in particular; g = Q^T Q = Id
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        J2 = Q.T @ J @ Q
        R2 = np.einsum("abcd,ai,bj,ck,dl->ijkl", base, Q, Q, Q, Q)
        v1 = classify_algebraic(base, J)
        v2 = classify_algebraic(R2, J2)
        assert v1.kind == v2.kind
        assert v2.constant == pytest.approx(v1.constant, abs=1e-8)


class TestSchurCheck:
    def test_unit_sphere_spread(self):
        chart = get_model("s6").chart
        report = analyze_chart(chart, samples=64, seed=42).schur
        assert report.kind == "antiholomorphic"
        for nu in report.nu_per_point:
            assert nu == pytest.approx(1.0, abs=1e-4)
        assert report.spread < 1e-4

    def test_cp3_spread(self):
        chart = get_model("cp3").chart
        report = analyze_chart(chart, samples=64, seed=42).schur
        assert report.spread < 1e-4

    def test_flat_spread_is_zero(self):
        chart = get_model("flat2").chart
        report = analyze_chart(chart, samples=32, seed=0).schur
        assert report.spread < 1e-12

    def test_needs_two_points(self):
        with pytest.raises(InvariantViolation, match=">= 2"):
            schur_check([0.0], 2)

    def test_reuses_each_points_nu(self):
        report = analyze_model(get_model("cp2"), samples=64)
        assert report.schur.kind == "antiholomorphic"
        assert report.schur.nu_per_point == tuple(pr.nu for pr in report.points)
        # m = 1 has no antiholomorphic planes: nu is read from the one holomorphic plane
        report = analyze_model(get_model("cp1"), samples=64)
        assert report.schur.kind == "holomorphic"
        assert report.schur.nu_per_point == tuple(pr.nu for pr in report.points)

    def test_m1_reuses_each_points_nu(self):
        for name in ("cp1", "ch1"):
            report = analyze_model(get_model(name), samples=64)
            assert report.schur.nu_per_point == tuple(pr.nu for pr in report.points), name

    @pytest.mark.parametrize("name", [*model_names(), "conf2", "varying_surface"])
    def test_nu_and_every_constant_are_seed_free(self, name):
        # only the plane statistics and the constancy decisions read the draws
        def constants(seed):
            if name in model_names():
                rep = analyze_model(get_model(name), samples=32, seed=seed)
            else:
                rep = analyze_chart(fixture_chart(name), samples=32, seed=seed)
            for pr in rep.points:
                if "fit_a" in pr.verdict.residuals:
                    assert pr.nu == pr.verdict.residuals["fit_a"]
            return ([pr.nu for pr in rep.points], rep.schur,
                    [pr.verdict.constant for pr in rep.points], rep.overall.constant)

        assert constants(1) == constants(2)

    def test_the_theorem_needs_m_at_least_3(self):
        # g = delta/(1+x1^2+y1^2)^2 is AH3 with a nu* that varies from point to
        # point: at m = 3 its antiholomorphic curvature cannot be pointwise
        # constant; at m = 2 it is, the points disagree, and the verdict is
        # inconclusive
        for name, kind in (("conf3", NOT_CONSTANT_ANTIHOLOMORPHIC), ("conf2", INCONCLUSIVE)):
            report = analyze_chart(fixture_chart(name))
            assert [pr.verdict.kind for pr in report.points] == [kind] * 3
            assert report.overall.kind == kind


class TestComputedOncePerPoint:
    def test_each_tensor_is_computed_once_per_point(self, monkeypatch):
        # one call per group of points, whose arrays hold each point once
        from ahgeom import calculus

        calls = {"riemann": [], "nabla_J": [], "nabla_R": []}
        for name in calls:
            original = getattr(calculus, name)

            def counted(jet, _name=name, _original=original):
                calls[_name].append(len(jet))
                return _original(jet)

            monkeypatch.setattr(calculus, name, counted)
        chart = get_model("cp2").chart
        points = list(chart.default_points) * 9
        analyze_chart(chart, points, samples=16)
        assert calls == {name: [JET_GROUP, len(points) - JET_GROUP] for name in calls}

    def test_each_residual_is_taken_once_per_group_whatever_the_seed(self, monkeypatch):
        # both are taken for the whole group in its stage at nu*, which the
        # draws do not read
        calls = {"decomposition_residual": 0, "proof_relation_32_residual": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(report, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(report, name, counted)
        monkeypatch.setattr(report, "_last_run", (None, (), []))  # the first seed's run is computed
        chart = get_model("cp2").chart
        for seed in (1, 2, 3):
            analyze_chart(chart, samples=16, seed=seed)
        assert calls == {name: 1 for name in calls}


# Every bundled model at its default points; conf2, where nu* varies from
# point to point and relation (3.2) does not vanish; warp2, where neither
# residual applies; and a surface whose curvature varies
_SEED_FREE_CHARTS = [pytest.param(partial(parse_chart, text), id=name)
                     for name, (text, _) in BUNDLED.items()]
_SEED_FREE_CHARTS += [pytest.param(partial(fixture_chart, name), id=name)
                      for name in ("conf2", "warp2", "varying_surface")]


class TestSeedFreeResiduals:
    @pytest.mark.parametrize("fresh_chart", _SEED_FREE_CHARTS)
    def test_both_residuals_have_the_same_bits_under_another_seed(self, fresh_chart):
        # a freshly parsed chart per seed, so the slot cannot hand the first run to the second
        runs = [analyze_chart(fresh_chart(), seed=seed).points for seed in (1, 2)]
        first, second = ([repr((pr.decomposition_residual, pr.eigenframe_relation_residual))
                          for pr in run] for run in runs)
        assert first == second


class TestGroupArrays:
    def test_a_point_cannot_write_into_its_group(self):
        # each point's functions get views into the group's arrays, which are
        # read-only, so a write raises instead of changing a neighbour's values
        chart = get_model("cp2").chart
        checks = _group_checks(chart.jet(chart.default_points), 1e-4)[1]
        for view in (checks.K, checks.R):
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0


# Each source of a record's floats made non-finite: (module, name, poison
# of the function, the record's key the error names)
NON_FINITE_SOURCES = [
    (calculus, "class_residuals",
     lambda f: lambda NJ: ClassResiduals(*(v * np.nan for v in vars(f(NJ)).values())),
     "class_residuals.kahler"),
    (report, "ah_identity_residual", lambda f: lambda *args: tuple(v * np.nan for v in f(*args)),
     "ah_residuals.AH1"),
    (report, "bianchi2_residual", lambda f: lambda NR: f(NR) * np.inf, "bianchi_residual"),
    (report, "riemann_symmetry_residual", lambda f: lambda R: f(R) * np.nan,
     "riemann_symmetry_residual"),
    (report, "einstein_residual", lambda f: lambda S: tuple(v * np.nan for v in f(S)),
     "einstein.lambda"),
    (calculus, "gray_ak2_residual", lambda f: lambda *args: f(*args) * np.inf,
     "gray_ak2_residual"),
    (report, "constancy", lambda f: lambda *args: replace(f(*args), mean=math.nan),
     "holomorphic.mean"),
    (report, "decomposition_residual",
     lambda f: lambda *args, **kwargs: [math.nan for _ in f(*args, **kwargs)],
     "decomposition_residual"),
    (report, "proof_relation_32_residual", lambda f: lambda *args: [math.inf for _ in f(*args)],
     "eigenframe_relation_residual"),
    # nu, the record's first float that reads the fit, is its a
    (report, "fit_pi_span", lambda f: lambda *args: tuple(v * np.nan for v in f(*args)),
     "nu"),
    (report, "classify", lambda f: lambda *args: Verdict(INCONCLUSIVE, math.inf, {}),
     "verdict.constant"),
]


class TestNonFiniteRecords:
    # on cp2, where the verdict reads the span fit: the error names the
    # record's key, whether the group stage or the point's draws made it
    @pytest.mark.parametrize("module, name, poison, key", NON_FINITE_SOURCES,
                             ids=[source[1] for source in NON_FINITE_SOURCES])
    def test_the_error_names_the_key(self, monkeypatch, module, name, poison, key):
        monkeypatch.setattr(module, name, poison(getattr(module, name)))
        chart = get_model("cp2").chart
        shown = f"{key} is not finite at point {list(chart.default_points[0])}"
        with pytest.raises(InvariantViolation, match=re.escape(shown)):
            analyze_chart(chart)


# ---------------------------------------------------------------------------
# Changes of coordinates
# ---------------------------------------------------------------------------


def _substitute(expr, env):
    """expr with each variable replaced by its expression in env."""
    match expr:
        case Var(name):
            return env[name]
        case Neg(operand):
            return Neg(_substitute(operand, env))
        case BinOp(op, left, right):
            return BinOp(op, _substitute(left, env), _substitute(right, env))
        case Call(func, arg):
            return Call(func, _substitute(arg, env))
    return expr


def _combination(terms):
    """sum c * e over the (c, e) terms with c and e nonzero, as a balanced tree."""
    terms = [BinOp("*", Num(float(c)), e) for c, e in terms if c != 0.0 and e != Num(0.0)]
    if not terms:
        return Num(0.0)
    while len(terms) > 1:
        pairs = [BinOp("+", *terms[k:k + 2]) for k in range(0, len(terms) - 1, 2)]
        terms = pairs + terms[len(terms) - len(terms) % 2:]
    return terms[0]


def _rewritten(chart, A):
    """The chart in the coordinates u with x = A u: g'(u) = A^T g(Au) A and
    J'(u) = A^-1 J(Au) A, on the box enclosing the domain's preimage, at the
    preimages of the default points."""
    n = 2 * chart.m
    names = chart.coord_names
    x_of_u = {names[k]: _combination(zip(A[k], map(Var, names))) for k in range(n)}
    g = [[_substitute(e, x_of_u) for e in row] for row in chart.metric_exprs]
    J = [[_substitute(e, x_of_u) for e in row] for row in chart.j_exprs]
    A_inv = np.linalg.inv(A)

    def product(L, T, R):
        return tuple(tuple(_combination((L[a, i] * R[b, j], T[a][b])
                                        for a in range(n) for b in range(n))
                           for j in range(n)) for i in range(n))

    lo, hi = np.array(chart.domain).T
    with np.errstate(invalid="ignore"):  # inf * 0 is a term that is not there
        ends = np.stack([A_inv * lo, A_inv * hi])
    ends[:, A_inv == 0.0] = 0.0
    return ChartSpec(
        m=chart.m, coord_names=names,
        metric_exprs=product(A, g, A), j_exprs=product(A_inv.T, J, A),
        domain=tuple(zip(ends.min(axis=0).sum(axis=1).tolist(),
                         ends.max(axis=0).sum(axis=1).tolist())),
        default_points=tuple(tuple((A_inv @ p).tolist()) for p in chart.default_points),
    )


def _report_values(report):
    """The report's flags, verdict kinds and floats, without the points."""
    block = report.to_dict()
    del block["meta"]
    for pr in block["points"]:
        del pr["point"]

    def leaves(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, (list, tuple)):
            return [leaf for item in v for leaf in leaves(item)]
        return [v]
    return leaves(block)


_charts = st.sampled_from(sorted(BUNDLED))


class TestChangeOfCoordinates:
    """Every check runs in g's orthonormal Cholesky frame, so a chart
    rewritten under x = A u reports the same geometry."""

    @given(name=_charts, data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_a_diagonal_change_keeps_every_value(self, name, data):
        # it keeps the Cholesky frame: the values agree to rounding, and the
        # residuals that vanish agree to an absolute 1e-9
        chart = get_model(name).chart
        a = data.draw(st.lists(st.floats(0.25, 4.0), min_size=2 * chart.m,
                               max_size=2 * chart.m), label="diagonal")
        before = _report_values(analyze_chart(chart, samples=64))
        after = _report_values(analyze_chart(_rewritten(chart, np.diag(a)), samples=64))
        assert len(after) == len(before)
        for x, y in zip(before, after):
            if isinstance(x, float):
                assert y == pytest.approx(x, rel=1e-9, abs=1e-9)
            else:
                assert y == x

    @given(name=_charts, data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_a_linear_change_keeps_flags_and_verdicts(self, name, data):
        # the frame turns, so max-norms and sampled planes move, but not across tol
        chart = get_model(name).chart
        n = 2 * chart.m
        A = np.eye(n) + np.array(data.draw(
            st.lists(st.floats(-0.4, 0.4), min_size=n * n, max_size=n * n),
            label="A - Id")).reshape(n, n)
        assume(np.linalg.cond(A) < 10.0)
        before = analyze_chart(chart, samples=64)
        after = analyze_chart(_rewritten(chart, A), samples=64)
        assert [pr.flags for pr in after.points] == [pr.flags for pr in before.points]
        assert [pr.verdict.kind for pr in after.points] == \
            [pr.verdict.kind for pr in before.points]
        assert after.overall.kind == before.overall.kind

    @pytest.mark.xfail(strict=True, reason="a max-norm in g's Cholesky frame turns with the "
                       "chart's coordinates; ROADMAP item 16's Frobenius norms do not")
    def test_a_linear_change_keeps_each_residual(self):
        # cond(A) is 3.09 at n = 6 and 5.25 at n = 4; s6's Kahler residual
        # moves from 1.0 to 0.916 and s2xs2's Einstein one from 0.375 to 0.360
        for name, residual in (("s6", lambda pr: pr.class_residuals.kahler),
                               ("s2xs2", lambda pr: pr.einstein["residual"])):
            chart = get_model(name).chart
            n = 2 * chart.m
            A = np.eye(n) + np.random.default_rng(16).uniform(-0.4, 0.4, (n, n))
            before = [residual(pr) for pr in analyze_chart(chart, samples=16).points]
            after = [residual(pr) for pr in analyze_chart(_rewritten(chart, A), samples=16).points]
            assert after == pytest.approx(before, rel=1e-9), name


class TestReportKind:
    def test_model_report_exactly_when_a_profile_is_given(self):
        model = get_model("flat2")
        chart_report = analyze_chart(model.chart, samples=16)
        model_report = analyze_model(model, samples=16)
        assert chart_report.meta["kind"] == "chart"
        assert chart_report.expected_checks is None
        assert model_report.meta["kind"] == "model"
        assert model_report.expected_checks is not None


class TestPointRecord:
    def test_point_block_keys_are_the_record_fields_in_order(self):
        block = analyze_chart(get_model("flat2").chart, samples=16).to_dict()["points"][0]
        assert list(block) == [f.name for f in fields(PointReport)]


class TestArguments:
    @pytest.mark.parametrize("kwargs, plain", [
        (dict(samples=np.int64(16), seed=np.int64(3)), dict(samples=16, seed=3)),
        (dict(tol=np.float32(1e-4), samples=np.int32(16)),
         dict(tol=float(np.float32(1e-4)), samples=16)),
        (dict(tol=np.float64(1e-3), seed=np.uint8(7)), dict(tol=1e-3, seed=7)),
    ], ids=["int64", "float32", "float64"])
    def test_numpy_scalars_give_the_bytes_of_the_equal_python_numbers(self, kwargs, plain):
        model = get_model("cp2")
        got = analyze_model(model, **kwargs)
        assert got.to_json() == analyze_model(model, **plain).to_json()
        assert got.to_text() == analyze_model(model, **plain).to_text()

    @pytest.mark.parametrize("kwargs, shown", [
        (dict(samples=16.0), "samples and seed must be integers"),
        (dict(seed=np.float64(3.0)), "samples and seed must be integers"),
        (dict(tol="1e-4"), "tol must be a real number"),
    ], ids=["float-samples", "float-seed", "str-tol"])
    def test_other_types_are_refused_before_any_analysis(self, monkeypatch, kwargs, shown):
        monkeypatch.setattr(report, "_group_checks", None)  # reaching the group stage fails
        with pytest.raises(ValueError, match=shown):
            analyze_model(get_model("cp2"), **kwargs)


# ---------------------------------------------------------------------------
# The report's JSON
# ---------------------------------------------------------------------------


def _random_points(seed, count, dim, reach):
    rng = random.Random(seed)
    return [[rng.uniform(-reach, reach) for _ in range(dim)] for _ in range(count)]


def _hand_built(meta):
    return AnalysisReport(meta=meta, points=[], schur=None,
                          overall=Verdict(INCONCLUSIVE, None, {}), expected_checks=None)


class TestJson:
    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("name", model_names())
    def test_every_model_writes_the_bytes_of_json_dumps(self, name, seed):
        model = get_model(name)
        for rep in (analyze_model(model, seed=seed), analyze_chart(model.chart, seed=seed)):
            assert rep.to_json() == dumped(rep)

    @pytest.mark.parametrize("rep, shows", [
        (lambda: analyze_model(get_model("cp1")),
         lambda rep: rep.points[0].antiholomorphic is None),
        (lambda: analyze_model(get_model("s2xs2"), samples=1),
         lambda rep: not rep.passed),
        (lambda: analyze_model(get_model("s6"), _random_points(17, 17, 6, 0.3)),
         lambda rep: len(rep.points) == JET_GROUP + 1),
    ], ids=["no-antiholomorphic", "failing-checks", "two-groups"])
    def test_edge_reports_write_the_bytes_of_json_dumps(self, rep, shows):
        rep = rep()
        assert shows(rep)
        assert rep.to_json() == dumped(rep)

    def test_hostile_values_write_the_bytes_of_json_dumps(self):
        rep = _hand_built({
            "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2],
            "ints": [2**70, -(2**70), 0, True, False, None],
            "strings": ["\u00e9t\u00e9 \u03bd* \U0001f600", "\x00\x1f\x7f\n\t", 'a "quote" \\ /', ""],
            "empty": [{}, [], (), {"a": {}, "b": [[]], "c": ((), {})}],
            "numpy": [np.float64(0.1), np.float64(math.nan), np.float64(-math.inf)],
            "int keys": {1: "a", -(2**70): "b"},
            "float keys": {0.5: 1, math.nan: 2, -math.inf: 3, -0.0: 4, np.float64(1e16): 5},
            "bool keys": {True: 1, False: 2},
            "none key": {None: [None]},
            "tuple": (1, 2.5, "x", None, (Verdict("k", 1.0, {"r": 0.0}),)),
        })
        assert rep.to_json() == dumped(rep)

    @pytest.mark.parametrize("value", [np.bool_(True), object(), {(1, 2): 0}],
                             ids=["np.bool_", "object", "tuple-key"])
    def test_a_value_json_cannot_write_raises_its_type_error(self, value):
        rep = _hand_built({"bad": [value]})
        with pytest.raises(TypeError) as expected:
            dumped(rep)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            rep.to_json()
