"""Plane sampling, adapted frames, residual checks and classification."""

from dataclasses import fields

import numpy as np
import pytest

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
from ahgeom.calculus import ClassResiduals, class_residuals, nabla_J, nabla_R, ricci, riemann
from ahgeom.models import get_model
from ahgeom.report import PointReport, analyze_chart, analyze_model
from ahgeom.selftest import random_hermitian_point, random_j_invariant_bilinear
from ahgeom.tensor_core import (
    Bilinear,
    CurvatureTensor,
    HermitianPoint,
    InvariantViolation,
    ah_identity_residual,
    build_from_decomposition,
    pi1,
    pi2,
    sectional_curvature,
)

ZERO_CLASS = ClassResiduals(kahler=0.0, nearly_kahler=0.0, almost_kahler=0.0)


def algebraic_stats(R, planes):
    return constancy(R, planes)


# ---------------------------------------------------------------------------
# Plane samplers
# ---------------------------------------------------------------------------


class TestSamplers:
    def test_antiholomorphic_invariants(self):
        rng = np.random.default_rng(0)
        pt = random_hermitian_point(3, rng)
        planes = sample_antiholomorphic_planes(pt, 64, rng)
        assert len(planes) == 64
        for x, y in zip(planes.x, planes.y):
            assert abs(x @ pt.g @ x - 1.0) < 1e-12
            assert abs(y @ pt.g @ y - 1.0) < 1e-12
            assert abs(x @ pt.g @ y) < 1e-12
            assert abs(x @ pt.g @ pt.J @ y) < 1e-12

    def test_m1_has_no_antiholomorphic_planes(self):
        pt = HermitianPoint.standard_flat(1)
        with pytest.raises(InvariantViolation, match="m >= 2"):
            sample_antiholomorphic_planes(pt, 4, np.random.default_rng(0))

    def test_deterministic_for_fixed_seed(self):
        pt = HermitianPoint.standard_flat(2)
        a = sample_antiholomorphic_planes(pt, 8, np.random.default_rng(123))
        b = sample_antiholomorphic_planes(pt, 8, np.random.default_rng(123))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_holomorphic_planes(self):
        rng = np.random.default_rng(1)
        pt = random_hermitian_point(2, rng)
        planes = sample_holomorphic_planes(pt, 16, rng)
        assert len(planes) == 16
        for x, y in zip(planes.x, planes.y):
            np.testing.assert_allclose(y, pt.J @ x)
            assert abs(x @ pt.g @ y) < 1e-12


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
        pt = random_hermitian_point(2, rng)
        block = rng.standard_normal((3, 2, pt.dim))
        parallel = block.copy()
        parallel[1, 1] = -2.0 * parallel[1, 0]  # plane 1: y parallel to x
        redraws = np.random.default_rng(9)
        scripted = _ScriptedNormals(parallel, redraws.standard_normal)
        planes = sample_antiholomorphic_planes(pt, 3, scripted)
        assert scripted.sizes == [(3, 2, pt.dim), (1, pt.dim)]

        clean = sample_antiholomorphic_planes(pt, 3, _ScriptedNormals(block, None))
        np.testing.assert_array_equal(planes.x, clean.x)
        np.testing.assert_array_equal(planes.y[[0, 2]], clean.y[[0, 2]])
        x, y = planes.x[1], planes.y[1]
        assert abs(y @ pt.g @ y - 1.0) < 1e-12
        assert abs(x @ pt.g @ y) < 1e-12
        assert abs(x @ pt.g @ pt.J @ y) < 1e-12

    def test_gives_up_after_100_rounds(self):
        pt = HermitianPoint.standard_flat(2)
        block = np.random.default_rng(10).standard_normal((4, 2, pt.dim))
        block[2, 1] = block[2, 0]
        scripted = _ScriptedNormals(block, np.zeros)
        with pytest.raises(InvariantViolation, match="degenerated 100 times"):
            sample_antiholomorphic_planes(pt, 4, scripted)
        assert scripted.sizes == [(4, 2, pt.dim)] + [(1, pt.dim)] * 99


def _reference_antiholomorphic(pt, n, rng):
    """The per-plane sampler the batch one replaces: x, then y, plane by plane."""
    g = pt.g
    xs, ys = [], []
    for _ in range(n):
        v = rng.standard_normal(pt.dim)
        x = v / np.sqrt(float(v @ g @ v))
        jx = pt.J @ x
        for _attempt in range(100):
            y = rng.standard_normal(pt.dim)
            y = y - float(y @ g @ x) * x - float(y @ g @ jx) * jx
            norm2 = float(y @ g @ y)
            if norm2 > 1e-12:
                break
        xs.append(x)
        ys.append(y / np.sqrt(norm2))
    return np.array(xs), np.array(ys)


def _reference_holomorphic(pt, n, rng):
    xs = []
    for _ in range(n):
        v = rng.standard_normal(pt.dim)
        xs.append(v / np.sqrt(float(v @ pt.g @ v)))
    return np.array(xs), np.array([pt.J @ x for x in xs])


def _reference_curvatures(R, xs, ys):
    g = R.point.g
    out = []
    for x, y in zip(xs, ys):
        den = float((x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2)
        d = x.size
        xR = ((x @ R.values.reshape(d, -1)).reshape(d * d, d) @ x).reshape(d, d)
        out.append(float(y @ xR @ y) / den)
    return np.array(out)


def _bit_for_bit_cases():
    rng = np.random.default_rng(11)
    for m in (2, 3):
        for k in range(3):
            pt = random_hermitian_point(m, rng, spread=0.2 + 0.1 * k)
            S = random_j_invariant_bilinear(pt, rng)
            R = build_from_decomposition(S, 0.6 - k, tol=1e-8)
            yield pytest.param(R, id=f"random-m{m}-{k}")
    for name in ("cp3", "s6"):
        chart = get_model(name).chart
        for i, p in enumerate(chart.default_points):
            yield pytest.param(riemann(chart.jet_at(p)), id=f"{name}-{i}")


class TestBatchMatchesPerPlaneReference:
    """The batch forms round exactly like the per-plane code they replace."""

    @pytest.mark.parametrize("R", list(_bit_for_bit_cases()))
    def test_samplers_and_curvatures_bit_for_bit(self, R):
        pt = R.point
        for n in (1, 5, 256):
            for sample, reference in ((sample_antiholomorphic_planes, _reference_antiholomorphic),
                                      (sample_holomorphic_planes, _reference_holomorphic)):
                planes = sample(pt, n, np.random.default_rng([n, pt.m]))
                xs, ys = reference(pt, n, np.random.default_rng([n, pt.m]))
                assert np.array_equal(planes.x, xs)
                assert np.array_equal(planes.y, ys)
                assert np.array_equal(sectional_curvature(R, planes),
                                      _reference_curvatures(R, xs, ys))


class TestConstancy:
    def test_decomposition_forward_property(self):
        # algebraic, no discretization error: every antiholomorphic plane
        # of the rebuilt tensor has curvature nu
        rng = np.random.default_rng(2)
        pt = random_hermitian_point(3, rng)
        S = random_j_invariant_bilinear(pt, rng)
        R = build_from_decomposition(S, 0.7, tol=1e-8)
        stats = constancy(R, sample_antiholomorphic_planes(pt, 1000, rng))
        assert stats.mean == pytest.approx(0.7, abs=1e-11)
        assert stats.max_deviation < 1e-10

    def test_constant_curvature_tensor(self):
        pt = HermitianPoint.standard_flat(2)
        rng = np.random.default_rng(3)
        stats = constancy(pi1(pt), sample_antiholomorphic_planes(pt, 32, rng))
        assert stats.mean == pytest.approx(1.0)
        assert stats.max_deviation < 1e-12

    def test_product_spheres_deviate(self):
        chart = get_model("s2xs2").chart
        R = riemann(chart.jet_at((0.0, 0.0, 0.0, 0.0)))
        rng = np.random.default_rng(4)
        stats = constancy(R, sample_antiholomorphic_planes(R.point, 256, rng))
        assert stats.max_deviation > 0.1


# ---------------------------------------------------------------------------
# Adapted eigenframes
# ---------------------------------------------------------------------------


class TestAdaptedEigenframe:
    def _check_frame(self, S, frame, tol=1e-9):
        pt = S.point
        n = pt.dim
        B = frame.basis
        gram = B.T @ pt.g @ B
        assert np.max(np.abs(gram - np.eye(n))) < tol
        for i, lam in enumerate(frame.eigenvalues):
            e, je = B[:, 2 * i], B[:, 2 * i + 1]
            np.testing.assert_allclose(je, pt.J @ e, atol=tol)
            # S e = lambda e in the bilinear sense: S(e, .) = lambda g(e, .)
            assert np.max(np.abs(S.values @ e - lam * pt.g @ e)) < tol
            assert np.max(np.abs(S.values @ je - lam * pt.g @ je)) < tol

    def test_scalar_case(self):
        pt = HermitianPoint.standard_flat(3)
        frame = adapted_eigenframe(Bilinear(pt, 2.5 * pt.g))
        assert frame.eigenvalues == (2.5, 2.5, 2.5)
        self._check_frame(Bilinear(pt, 2.5 * pt.g), frame)

    def test_two_eigenvalue_blocks(self):
        pt = HermitianPoint.standard_flat(2)
        S = Bilinear(pt, np.diag([2.0, 2.0, 5.0, 5.0]))
        frame = adapted_eigenframe(S)
        assert frame.eigenvalues == (2.0, 5.0)
        rebuilt = np.zeros((4, 4))
        for i, lam in enumerate(frame.eigenvalues):
            for v in (frame.basis[:, 2 * i], frame.basis[:, 2 * i + 1]):
                flat = pt.g @ v
                rebuilt += lam * np.outer(flat, flat)
        assert np.max(np.abs(S.values - rebuilt)) < 1e-10

    def test_random_j_invariant_inputs(self):
        rng = np.random.default_rng(5)
        for m in (2, 3):
            pt = random_hermitian_point(m, rng)
            S = random_j_invariant_bilinear(pt, rng)
            self._check_frame(S, adapted_eigenframe(S), tol=1e-8)

    def test_rejects_non_j_invariant_input(self):
        pt = HermitianPoint.standard_flat(2)
        S = Bilinear(pt, np.diag([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(InvariantViolation, match="J-invariant"):
            adapted_eigenframe(S)

    def test_merges_close_eigenvalues(self):
        pt = HermitianPoint.standard_flat(2)
        noise = 1e-10
        S = Bilinear(pt, np.diag([3.0, 3.0 + noise, 3.0 - noise, 3.0]))
        frame = adapted_eigenframe(S, 1e-8)
        assert frame.eigenvalues == (pytest.approx(3.0), pytest.approx(3.0))


# ---------------------------------------------------------------------------
# Scalar residual checks
# ---------------------------------------------------------------------------


class TestEinsteinResidual:
    def test_unit_sphere(self):
        chart = get_model("s6").chart
        S = ricci(riemann(chart.jet_at(chart.default_points[1])))
        lam, res = einstein_residual(S)
        assert lam == pytest.approx(5.0, abs=1e-4)
        assert res < 1e-4

    def test_cp2(self):
        chart = get_model("cp2").chart
        S = ricci(riemann(chart.jet_at(chart.default_points[1])))
        lam, res = einstein_residual(S)
        assert lam == pytest.approx(6.0, abs=1e-4)
        assert res < 1e-4

    def test_block_spectrum(self):
        pt = HermitianPoint.standard_flat(2)
        lam, res = einstein_residual(Bilinear(pt, np.diag([2.0, 2.0, 5.0, 5.0])))
        assert lam == pytest.approx(3.5)
        assert res == pytest.approx(1.5)


class TestDecompositionResidual:
    def test_unit_sphere_fixture(self):
        chart = get_model("s6").chart
        R = riemann(chart.jet_at(chart.default_points[1]))
        assert decomposition_residual(R, ricci(R), 1.0, tol=1e-4) < 1e-5

    def test_cp2_fixture(self):
        chart = get_model("cp2").chart
        R = riemann(chart.jet_at(chart.default_points[1]))
        assert decomposition_residual(R, ricci(R), 1.0, tol=1e-4) < 1e-5

    def test_linear_perturbation(self):
        pt = HermitianPoint.standard_flat(3)
        P2 = pi2(pt).values
        R = CurvatureTensor(pt, pi1(pt).values + 0.01 * P2)
        S = ricci(pi1(pt))
        res = decomposition_residual(R, S, 1.0)
        assert res == pytest.approx(0.01 * np.max(np.abs(P2)), rel=1e-9)

    def test_none_when_ricci_is_not_j_invariant(self):
        pt = HermitianPoint.standard_flat(2)
        S = Bilinear(pt, np.diag([1.0, 1.0, 1.0, 1.0 + 2e-8]))
        assert decomposition_residual(pi1(pt), S, 1.0) is None
        assert decomposition_residual(pi1(pt), S, 1.0, tol=1e-7) is not None

    @pytest.mark.parametrize("tol", [0.0, 1e-12])
    def test_tolerance_is_floored_at_the_invariant_tolerance(self, tol):
        # a J-defect of 5e-9 is within INVARIANT_TOL whatever tol is asked for
        pt = HermitianPoint.standard_flat(2)
        S = Bilinear(pt, np.diag([1.0, 1.0, 1.0, 1.0 + 5e-9]))
        assert decomposition_residual(pi1(pt), S, 1.0, tol=tol) is not None


class TestBianchi2Residual:
    def test_flat_chart(self):
        chart = get_model("flat2").chart
        assert bianchi2_residual(nabla_R(chart.jet_at((0.1, 0.2, -0.3, 0.0)))) < 1e-8

    def test_unit_sphere(self):
        chart = get_model("s6").chart
        assert bianchi2_residual(nabla_R(chart.jet_at(chart.default_points[1]))) < 1e-4

    def test_cp2(self):
        chart = get_model("cp2").chart
        assert bianchi2_residual(nabla_R(chart.jet_at(chart.default_points[1]))) < 1e-4


class TestProofRelation:
    @staticmethod
    def _residual_at(chart, p):
        R = riemann(chart.jet_at(p))
        pt = R.point
        S = ricci(R)
        NR = nabla_R(chart.jet_at(p))
        NS = np.einsum("pq,kpabq->kab", np.linalg.inv(pt.g), NR)
        NJ = nabla_J(chart.jet_at(p))
        rng = np.random.default_rng(6)
        nu = constancy(R, sample_antiholomorphic_planes(pt, 128, rng)).mean
        frame = adapted_eigenframe(S, 1e-4)
        return proof_relation_32_residual(frame, NS, NJ, nu)

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


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_algebraic(R, nu_stats_planes=256, tol=1e-9, cls=ZERO_CLASS, seed=7):
    rng = np.random.default_rng(seed)
    pt = R.point
    holo = constancy(R, sample_holomorphic_planes(pt, nu_stats_planes, rng))
    anti = None
    if pt.m >= 2:
        anti = constancy(R, sample_antiholomorphic_planes(pt, nu_stats_planes, rng))
    return classify(R, ah_identity_residual(R, 3), einstein_residual(ricci(R)), cls, holo, anti,
                    tol)


class TestClassify:
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0, 2.5])
    def test_scaled_pi1_is_a_real_space_form(self, c):
        pt = HermitianPoint.standard_flat(3)
        R = CurvatureTensor(pt, c * pi1(pt).values)
        verdict = classify_algebraic(R)
        assert verdict.kind == REAL_SPACE_FORM
        assert verdict.constant == pytest.approx(c, abs=1e-10)

    def test_complex_space_form(self):
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, pi1(pt).values + pi2(pt).values)
        verdict = classify_algebraic(R)
        assert verdict.kind == COMPLEX_SPACE_FORM
        assert verdict.constant == pytest.approx(4.0, abs=1e-10)

    def test_non_kahler_span_member_is_inconclusive(self):
        # right curvature shape but a structure that is not parallel
        pt = HermitianPoint.standard_flat(2)
        R = CurvatureTensor(pt, pi1(pt).values + pi2(pt).values)
        cls = ClassResiduals(kahler=0.5, nearly_kahler=0.0, almost_kahler=0.5)
        verdict = classify_algebraic(R, cls=cls)
        assert verdict.kind == INCONCLUSIVE

    def test_not_ah3(self):
        # pi1 built from a symmetric but not J-invariant form u has all the
        # curvature symmetries yet breaks the full J-rotation identity
        pt = HermitianPoint.standard_flat(2)
        u = np.diag([1.0, 0.0, 1.0, 0.0])
        T = np.einsum("xu,yz->xyzu", u, u) - np.einsum("xz,yu->xyzu", u, u)
        R = CurvatureTensor(pt, pi1(pt).values + 0.5 * T)
        verdict = classify_algebraic(R, tol=1e-6)
        assert verdict.kind == NOT_AH3

    def test_product_tensor_is_not_constant(self):
        chart = get_model("s2xs2").chart
        R = riemann(chart.jet_at((0.0, 0.0, 0.0, 0.0)))
        S = ricci(R)
        rng = np.random.default_rng(9)
        holo = constancy(R, sample_holomorphic_planes(R.point, 128, rng))
        anti = constancy(R, sample_antiholomorphic_planes(R.point, 128, rng))
        cls = class_residuals(nabla_J(chart.jet_at((0.0,) * 4)), R.point.g)
        verdict = classify(R, ah_identity_residual(R, 3), einstein_residual(S), cls, holo, anti,
                           1e-4)
        assert verdict.kind == NOT_CONSTANT_ANTIHOLOMORPHIC

    def test_equal_radii_product_still_rejected(self):
        # holomorphic planes give 1, mixed antiholomorphic give 0: tilted
        # planes break constancy even with equal radii
        from ahgeom.models import model_product_spheres

        chart = model_product_spheres(1.0, 1.0).chart
        R = riemann(chart.jet_at((0.0, 0.0, 0.0, 0.0)))
        rng = np.random.default_rng(10)
        anti = constancy(R, sample_antiholomorphic_planes(R.point, 1000, rng))
        assert anti.max_deviation > 0.1
        holo = constancy(R, sample_holomorphic_planes(R.point, 128, rng))
        cls = class_residuals(nabla_J(chart.jet_at((0.0,) * 4)), R.point.g)
        verdict = classify(R, ah_identity_residual(R, 3), einstein_residual(ricci(R)), cls, holo,
                           anti, 1e-4)
        assert verdict.kind == NOT_CONSTANT_ANTIHOLOMORPHIC

    def test_m1_routes_through_holomorphic_constancy(self):
        pt = HermitianPoint.standard_flat(1)
        R = CurvatureTensor(pt, -4.0 * pi1(pt).values)
        verdict = classify_algebraic(R)
        assert verdict.kind == COMPLEX_SPACE_FORM
        assert verdict.constant == pytest.approx(-4.0, abs=1e-10)

    def test_verdict_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(11)
        pt = HermitianPoint.standard_flat(2)
        base = pi1(pt).values + pi2(pt).values
        # random rotation commuting with nothing in particular
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g2 = Q.T @ pt.g @ Q
        J2 = Q.T @ pt.J @ Q
        pt2 = HermitianPoint(m=2, g=g2, J=J2)
        R2 = CurvatureTensor(pt2, np.einsum(
            "abcd,ai,bj,ck,dl->ijkl", base, Q, Q, Q, Q))
        v1 = classify_algebraic(CurvatureTensor(pt, base))
        v2 = classify_algebraic(R2)
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
        from ahgeom import calculus

        calls = {"riemann": 0, "nabla_J": 0, "nabla_R": 0}
        for name in calls:
            original = getattr(calculus, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(calculus, name, counted)
        chart = get_model("cp2").chart
        analyze_chart(chart, samples=16)
        n = len(chart.default_points)
        assert calls == {"riemann": n, "nabla_J": n, "nabla_R": n}


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
