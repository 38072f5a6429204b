"""Bundled models: the packaged files, the cross-product algebra, chart
invariants, metadata."""

from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom.charts import DomainError, parse_chart
from ahgeom.models import ExpectedProfile, get_model, model_names
from ahgeom.analysis import REAL_SPACE_FORM
from ahgeom.calculus import ricci
from ahgeom.report import analyze_chart, analyze_model
from ahgeom.tensor_core import hermitian_frames
from model_oracles import (
    _FANO_LINES,
    BUNDLED,
    CHARTS,
    complex_space_form_chart_text,
    complex_space_form_profile,
    frame_at,
    product_spheres_chart_text,
    product_spheres_profile,
)

BUNDLED_DIR = files("ahgeom") / "bundled"


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
            J = S6.j_at(p)
            assert np.max(np.abs(J @ J + np.eye(6))) < 1e-12

    def test_j_rotates_tangent_vectors_isometrically(self):
        p = np.array(S6.default_points[2])
        g, J = S6.metric_at(p), S6.j_at(p)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        jv = J @ v
        assert jv @ g @ jv == pytest.approx(v @ g @ v, rel=1e-12)
        assert v @ g @ jv == pytest.approx(0.0, abs=1e-12)

    def test_outside_hemisphere_is_an_error(self):
        with pytest.raises(DomainError):
            S6.metric_at((0.9, 0.9, 0.9, 0.9, 0.9, 0.9))

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

    def test_chart_file_analyzes_like_the_model(self):
        model = analyze_model(get_model("s6")).to_dict()
        chart = analyze_chart(parse_chart((BUNDLED_DIR / "s6.ahm").read_text())).to_dict()
        assert chart["points"] == model["points"]
        assert chart["global"]["verdict"] == model["global"]["verdict"]


# ---------------------------------------------------------------------------
# Packaged chart files and the expectation table
# ---------------------------------------------------------------------------


class TestPackagedModels:
    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_file_is_the_oracle_text(self, name):
        assert (BUNDLED_DIR / f"{name}.ahm").read_bytes() == BUNDLED[name][0].encode()

    @pytest.mark.parametrize("name", list(BUNDLED))
    def test_expected_is_the_oracle_profile(self, name):
        expected = get_model(name).expected
        assert expected == BUNDLED[name][1]
        # the reports print these values, so 6 in place of 6.0 would change them
        for value in (expected.antiholomorphic, expected.holomorphic, expected.einstein,
                      expected.verdict_constant):
            assert value is None or type(value) is float

    def test_one_packaged_file_per_name(self):
        assert model_names() == tuple(BUNDLED)
        assert sorted(entry.name for entry in BUNDLED_DIR.iterdir()) == sorted(
            f"{name}.ahm" for name in model_names())

    def test_the_m4_fixture_is_the_oracle_text_after_its_comment(self):
        # tests/charts/cp4.ahm is not bundled, but comes from the same generator
        comment, text = (CHARTS / "cp4.ahm").read_text(encoding="utf-8").split("\n", 1)
        assert comment.startswith("# ")
        assert text == complex_space_form_chart_text(4, 4.0)
        report = analyze_chart(parse_chart(text))
        assert len(report.points) == 3
        expected = complex_space_form_profile(4, 4.0)
        assert report.overall.kind == expected.verdict_kind
        assert report.overall.constant == pytest.approx(expected.verdict_constant, abs=1e-12)

    @pytest.mark.parametrize("name", ["../bundled/cp2", "cp2.ahm", "CP2", "", "bundled/cp2"])
    def test_name_is_a_key_never_a_path(self, name):
        with pytest.raises(KeyError, match=r"unknown model .*\(known: flat2, s6, cp1, cp2, cp3, "
                                           r"ch1, ch2, s2xs2\)"):
            get_model(name)


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
        g = np.stack([chart.metric_at(p) for p in chart.default_points])
        J = np.stack([chart.j_at(p) for p in chart.default_points])
        hermitian_frames(g, J)

    def test_flat_descriptor(self):
        md = get_model("flat2")
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

    def test_oracle_einstein_constant_of_equal_radii_product_is_the_geometry(self):
        # S = (1/r^2) g when r1 = r2; radii 1 and 2 give no Einstein constant
        assert product_spheres_profile(1.0, 2.0).einstein is None
        einstein = product_spheres_profile(1.5, 1.5).einstein
        assert einstein == 1.0 / 1.5**2
        chart = parse_chart(product_spheres_chart_text(1.5, 1.5))
        for p in chart.default_points:
            S = ricci(frame_at(chart, p)[1])
            np.testing.assert_allclose(S, einstein * np.eye(4), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Product geometry spot values
# ---------------------------------------------------------------------------


class TestProductSpheres:
    def test_plane_curvatures_at_origin(self):
        from ahgeom.tensor_core import Planes, sectional_curvature

        chart = get_model("s2xs2").chart  # radii 1 and 2, g = Id at the origin
        R = frame_at(chart, (0.0, 0.0, 0.0, 0.0))[1]
        e = np.eye(4)
        mixed = Planes(x=[e[0]], y=[e[2]], kind="antiholomorphic")
        assert sectional_curvature(R, mixed)[0] == pytest.approx(0.0, abs=1e-8)
        factors = Planes(x=[e[0], e[2]], y=[e[1], e[3]], kind="holomorphic")
        first, second = sectional_curvature(R, factors)
        assert first == pytest.approx(1.0, abs=1e-7)
        assert second == pytest.approx(0.25, abs=1e-7)
