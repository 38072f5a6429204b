"""Plane sampling, adapted frames, residual checks and classification."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahgeom.analysis import (
    COMPLEX_SPACE_FORM,
    INCONCLUSIVE,
    NOT_AH3,
    NOT_CONSTANT_ANTIHOLOMORPHIC,
    REAL_SPACE_FORM,
    CurvatureStats,
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
from ahgeom.charts import JET_GROUP, ChartSpec, parse_chart
from ahgeom.expressions import BinOp, Call, Neg, Num, Var
from ahgeom.models import get_model
from ahgeom.report import PointReport, _group_checks, analyze_chart, analyze_model
from ahgeom.selftest import random_j_invariant_bilinear, random_structure
from ahgeom.tensor_core import (
    InvariantViolation,
    ah_identity_residual,
    build_from_decomposition,
    fit_pi_span,
    pi1,
    pi2,
    sectional_curvature,
    standard_j,
)
from model_oracles import BUNDLED, frame_at, product_spheres_chart_text

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


def _antisymmetrized(V):
    """V made exactly antisymmetric in each index pair: rounding leaves the
    tensors built below antisymmetric only to the last bits."""
    V = 0.5 * (V - V.transpose(1, 0, 2, 3))
    return 0.5 * (V - V.transpose(0, 1, 3, 2))


def _kernel_cases():
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


class TestSectionalCurvatureKernel:
    @pytest.mark.parametrize("J, R", list(_kernel_cases()))
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
        frame = adapted_eigenframe(S, J)
        assert frame[1].tolist() == [2.5, 2.5, 2.5]
        self._check_frame(S, J, frame)

    def test_two_eigenvalue_blocks(self):
        S = np.diag([2.0, 2.0, 5.0, 5.0])
        B, eigenvalues = adapted_eigenframe(S, standard_j(2))
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
            self._check_frame(S, J, adapted_eigenframe(S, J), tol=1e-8)

    def test_rejects_non_j_invariant_input(self):
        S = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvariantViolation, match="J-invariant"):
            adapted_eigenframe(S, standard_j(2))

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
        frame = adapted_eigenframe(S, J)
        assert frame[1].tolist() == pytest.approx([1.0, 1.0, 3.0])
        self._check_frame(S, J, frame)

    def test_merges_close_eigenvalues(self):
        noise = 1e-10
        S = np.diag([3.0, 3.0 + noise, 3.0 - noise, 3.0])
        _, eigenvalues = adapted_eigenframe(S, standard_j(2), 1e-8)
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


class TestDecompositionResidual:
    def test_unit_sphere_fixture(self):
        chart = get_model("s6").chart
        K, R = frame_at(chart, chart.default_points[1])[:2]
        assert decomposition_residual(R, ricci(R), 1.0, K, tol=1e-4) < 1e-5

    def test_cp2_fixture(self):
        chart = get_model("cp2").chart
        K, R = frame_at(chart, chart.default_points[1])[:2]
        assert decomposition_residual(R, ricci(R), 1.0, K, tol=1e-4) < 1e-5

    def test_linear_perturbation(self):
        J = standard_j(3)
        P2 = pi2(J)
        R = pi1(6) + 0.01 * P2
        S = ricci(pi1(6))
        res = decomposition_residual(R, S, 1.0, J)
        assert res == pytest.approx(0.01 * np.max(np.abs(P2)), rel=1e-9)

    def test_none_when_ricci_is_not_j_invariant(self):
        J = standard_j(2)
        S = np.diag([1.0, 1.0, 1.0, 1.0 + 2e-8])
        assert decomposition_residual(pi1(4), S, 1.0, J) is None
        assert decomposition_residual(pi1(4), S, 1.0, J, tol=1e-7) is not None

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_tolerance_is_floored_at_the_invariant_tolerance(self, tol):
        # a J-defect of 5e-9 is within INVARIANT_TOL whatever tol is asked for
        S = np.diag([1.0, 1.0, 1.0, 1.0 + 5e-9])
        assert decomposition_residual(pi1(4), S, 1.0, standard_j(2), tol=tol) is not None


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
        """The adapted basis and eigenvalues, nabla S, nabla J and nu at p."""
        K, R, NJ, NR = frame_at(chart, p)
        rng = np.random.default_rng(6)
        nu = constancy(R, sample_antiholomorphic_planes(K, 128, rng)).mean
        basis, eigenvalues = adapted_eigenframe(ricci(R), K, 1e-4)
        return basis, eigenvalues, np.trace(NR, axis1=1, axis2=4), NJ, nu

    def _residual_at(self, chart, p):
        return proof_relation_32_residual(*self._inputs_at(chart, p))

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

    @pytest.mark.parametrize("name", ["s6", "cp2", "cp3", "ch2", "flat2"])
    def test_any_adapted_frame_on_space_forms(self, name):
        # every term vanishes on a space form, so turning each e_i within
        # span{e_i, Je_i} keeps the residual at rounding level
        chart = get_model(name).chart
        rng = np.random.default_rng(9)
        for p in chart.default_points:
            basis, eigenvalues, NS, NJ, nu = self._inputs_at(chart, p)
            e, je = basis[:, 0::2], basis[:, 1::2]
            for _ in range(20):
                theta = rng.uniform(0.0, 2.0 * np.pi, e.shape[1])
                # e_i turned by theta_i within its plane, and J of it
                turned = np.cos(theta) * e + np.sin(theta) * je
                j_turned = np.cos(theta) * je - np.sin(theta) * e
                rotated = np.column_stack([c for pair in zip(turned.T, j_turned.T) for c in pair])
                assert proof_relation_32_residual(rotated, eigenvalues, NS, NJ, nu) <= 1e-12


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
    fit = fit_pi_span(R, J) if m >= 2 else None
    return classify(m, float(ah_identity_residual(R, J)[2]), einstein_residual(ricci(R)), cls,
                    holo, anti, fit, tol)


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
        verdict = classify(2, ah_identity_residual(R, K)[2], einstein_residual(S),
                           cls, holo, anti, fit_pi_span(R, K), 1e-4)
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
        verdict = classify(2, ah_identity_residual(R, K)[2],
                           einstein_residual(ricci(R)), cls, holo, anti,
                           fit_pi_span(R, K), 1e-4)
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
        stats = CurvatureStats(kind="antiholomorphic", samples=16, mean=0.0, max_deviation=0.0)
        with pytest.raises(InvariantViolation, match=">= 2"):
            schur_check([stats])

    def test_reuses_each_points_nu(self):
        report = analyze_model(get_model("cp2"), samples=64)
        assert report.schur.kind == "antiholomorphic"
        assert report.schur.nu_per_point == tuple(pr.nu for pr in report.points)
        # m = 1 has no antiholomorphic planes: the holomorphic means stand in
        report = analyze_model(get_model("cp1"), samples=64)
        assert report.schur.kind == "holomorphic"
        assert report.schur.nu_per_point == tuple(pr.holomorphic.mean for pr in report.points)


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


class TestGroupArrays:
    def test_a_point_cannot_write_into_its_group(self):
        # each point's functions get views into the group's arrays, which are
        # read-only, so a write raises instead of changing a neighbour's values
        chart = get_model("cp2").chart
        group = _group_checks(next(chart.jets_at(chart.default_points)))
        for name in ("K", "R", "S", "NJ", "NS"):
            view = getattr(group, name)[1]
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0


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
