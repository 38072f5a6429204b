"""Exact jet calculus against symbolic, finite-difference and constant-curvature oracles."""

import dataclasses
import gc
import itertools
import json
import math
import random
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ahgeom import analysis, charts, expressions, report
from ahgeom.calculus import (
    class_residuals,
    gray_ak2_residual,
    in_frame,
    nabla_J,
    nabla_R,
    ricci,
    riemann,
)
from ahgeom.charts import ChartEvalError, ChartSpec, DomainError, parse_chart
from ahgeom.expressions import to_source
from ahgeom.models import get_model, model_names
from ahgeom.report import JET_GROUP, analyze_chart, analyze_model
from ahgeom.tensor_core import (
    InvariantViolation,
    hermitian_frames,
    pi1,
    pi2,
    riemann_symmetry_residual,
)
from model_oracles import (
    assert_kernels_match_reference,
    complex_space_form_chart_text,
    fixture_chart,
    frame_at,
    g_derivatives,
    jet_at,
    nabla_R_oracle,
)

FLAT = get_model("flat2").chart
CP1 = get_model("cp1").chart
CP2 = get_model("cp2").chart
S6 = get_model("s6").chart


def symbolic_derivatives(chart, point, exprs, order=3):
    """d[k - 1][a_1, ..., a_k, i, j] = d_a1 ... d_ak exprs[i][j] at a rational
    point, for k = 1 to `order`: each entry is read with its literals as
    rationals, differentiated by sympy and evaluated exactly."""
    syms = sp.symbols(chart.coord_names)
    names = dict(zip(chart.coord_names, syms))
    at = dict(zip(syms, point))
    n, rows, cols = len(syms), len(exprs), len(exprs[0])
    out = [np.zeros((n,) * k + (rows, cols)) for k in range(1, order + 1)]
    for i, j in itertools.product(range(rows), range(cols)):
        derivative = {(): sp.sympify(to_source(exprs[i][j]).replace("^", "**"),
                                     locals=names, rational=True)}
        for k in range(1, order + 1):
            for ix in itertools.combinations_with_replacement(range(n), k):
                derivative[ix] = derivative[ix[:-1]].diff(syms[ix[-1]])
                value = float(derivative[ix].subs(at))
                for perm in set(itertools.permutations(ix)):
                    out[k - 1][perm + (i, j)] = value
    return out


def symbolic_riemann(chart, point):
    """Exact (0,4) curvature and its covariant derivative at a rational point.

    The metric's first three derivatives are exact (`symbolic_derivatives`);
    the inversion and contractions are numeric, through the Christoffel
    symbols of the second kind and the derivatives of g^-1, a route apart
    from the jet calculus.
    """
    p = np.array([float(v) for v in point])
    g = chart.metric_at(p)
    dg, ddg, dddg = symbolic_derivatives(chart, point, chart.metric_exprs)
    g_inv = np.linalg.inv(g)
    # d g^-1 = -g^-1 (d g) g^-1, and its derivative by the product rule
    dg_inv = -np.einsum("ip,apq,ql->ail", g_inv, dg, g_inv)
    ddg_inv = -(np.einsum("bip,apq,ql->abil", dg_inv, dg, g_inv)
                + np.einsum("ip,abpq,ql->abil", g_inv, ddg, g_inv)
                + np.einsum("ip,apq,bql->abil", g_inv, dg, dg_inv))

    def lowered(D):  # D[..., a, i, j] -> T[..., l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
        return np.einsum("...jlk->...ljk", D) + np.einsum("...klj->...ljk", D) - D

    T, dT, ddT = lowered(dg), lowered(ddg), lowered(dddg)
    gamma = 0.5 * np.einsum("il,ljk->ijk", g_inv, T)
    dgamma = 0.5 * (np.einsum("ail,ljk->aijk", dg_inv, T) + np.einsum("il,aljk->aijk", g_inv, dT))
    ddgamma = 0.5 * (np.einsum("abil,ljk->abijk", ddg_inv, T)
                     + np.einsum("ail,bljk->abijk", dg_inv, dT)
                     + np.einsum("bil,aljk->abijk", dg_inv, dT)
                     + np.einsum("il,abljk->abijk", g_inv, ddT))
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    up = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
          + np.einsum("lim,mjk->lijk", gamma, gamma) - np.einsum("ljm,mik->lijk", gamma, gamma))
    dup = (np.einsum("ailjk->alijk", ddgamma) - np.einsum("ajlik->alijk", ddgamma)
           + np.einsum("alim,mjk->alijk", dgamma, gamma)
           + np.einsum("lim,amjk->alijk", gamma, dgamma)
           - np.einsum("aljm,mik->alijk", dgamma, gamma)
           - np.einsum("ljm,amik->alijk", gamma, dgamma))
    R = np.einsum("lm,mijk->ijkl", g, up)
    dR = np.einsum("alm,mijk->aijkl", dg, up) + np.einsum("lm,amijk->aijkl", g, dup)
    NR = (dR
          - np.einsum("avx,ayzu->vxyzu", gamma, R)
          - np.einsum("avy,xazu->vxyzu", gamma, R)
          - np.einsum("avz,xyau->vxyzu", gamma, R)
          - np.einsum("avu,xyza->vxyzu", gamma, R))
    return R, NR


R_ = sp.Rational
CP1_POINT = (R_(3, 10), R_(-1, 5))
CP2_POINT = (R_(1, 10), R_(-3, 20), R_(1, 5), R_(-1, 4))
CONF2 = fixture_chart("conf2")


def as_floats(point):
    return tuple(float(v) for v in point)


# ---------------------------------------------------------------------------
# The jet against sympy, one construct at a time
# ---------------------------------------------------------------------------


def conformal_chart(src):
    """g = src * I on R^2 with the standard J: src is the one differentiated entry."""
    return parse_chart(f"dim = 1\ncoords = x y\ng[1][1] = {src}\ng[2][2] = {src}\n"
                       "J[2][1] = 1\nJ[1][2] = -1\n")


def j_chart(src):
    """Flat R^2 with J[2][1] = src: src must evaluate to 1 for J to be a structure."""
    return parse_chart(f"dim = 1\ncoords = x y\ng[1][1] = 1\ng[2][2] = 1\n"
                       f"J[2][1] = {src}\nJ[1][2] = -1\n")


AT = (R_(3, 10), R_(7, 10))
ORIGIN = (R_(0), R_(0))


class TestJet:
    @pytest.mark.parametrize("src, point", [
        ("2 + sin(x*y)", AT),
        ("2 + cos(x - 2*y)", AT),
        ("2 + tan(x*y)", AT),
        ("exp(x*y^2)", AT),
        ("2 + log(1 + x^2 + y)", AT),
        ("sqrt(1 + x^2*y)", AT),
        ("2 + atan(x - y^2)", AT),
        ("1 + x^3 + x^2*y - y^4", ORIGIN),  # whole exponents at x0 = 0
        ("(1 + x^2 + y)^1.5", AT),  # a constant exponent that is not whole
        ("(2 + x)^(x*y)", AT),  # a variable exponent
        ("2^(x - y) + 1", AT),  # a constant base
        ("1/(1 + x^2 + y^2) + y/(2 + x)", AT),
        ("(1 + x^2)^(-2)", ORIGIN),
    ])
    def test_derivatives_match_sympy(self, src, point):
        chart = conformal_chart(src)
        j = jet_at(chart, as_floats(point))
        exact = symbolic_derivatives(chart, point, chart.metric_exprs)
        for got, want in zip(g_derivatives(j), exact):
            np.testing.assert_allclose(got[0], want, rtol=1e-13, atol=1e-13)

    def test_six_coordinates(self):
        # the 56 jet lines of a 6-dimensional chart, every third derivative mixed
        f = "2 + x1*y2*x3 + sin(y1 - x2*y3)^2 + x1^3*y3"
        chart = parse_chart("dim = 3\ncoords = x1 y1 x2 y2 x3 y3\n"
                            + "".join(f"g[{i}][{i}] = {f}\n" for i in range(1, 7))
                            + "J[2][1] = 1\nJ[1][2] = -1\nJ[4][3] = 1\nJ[3][4] = -1\n"
                            + "J[6][5] = 1\nJ[5][6] = -1\n")
        point = (R_(1, 5), R_(-1, 10), R_(3, 10), R_(1, 2), R_(-2, 5), R_(7, 10))
        j = jet_at(chart, as_floats(point))
        exact = symbolic_derivatives(chart, point, [[chart.metric_exprs[0][0]]])
        for got, want in zip(g_derivatives(j), exact):
            np.testing.assert_allclose(got[0, ..., :1, :1], want, rtol=1e-13, atol=1e-13)

    def test_constant_entries_have_zero_derivatives(self):
        j = jet_at(conformal_chart("2"), (0.3, 0.7))
        for d in (*j.dg, j.dJ):
            assert not np.any(d)

    def test_structure_derivative_matches_sympy(self):
        # s6's J varies from point to point
        point = (R_(1, 10), R_(-1, 5), R_(3, 10), R_(1, 4), R_(-1, 10), R_(1, 5))
        [exact] = symbolic_derivatives(S6, point, S6.j_exprs, order=1)
        np.testing.assert_allclose(jet_at(S6, as_floats(point)).dJ[0], exact,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("src, point, message", [
        ("1 + sqrt(x^2)", (0.0, 0.5),
         "a derivative of '1.0+sqrt(x^2.0)' is not finite at {'x': 0.0, 'y': 0.5}"),
        ("1 + x^0.5", (0.0, 0.5), "a derivative of '1.0+x^0.5' is not finite at"),
        ("1 + x*1e200*1e200", (0.0, 0.5), "a derivative of '1.0+x*1e+200*1e+200' is not finite at"),
    ])
    def test_non_finite_derivative_is_a_chart_error(self, src, point, message):
        # g and J at p are finite and almost Hermitian, so only the derivatives fail
        chart = conformal_chart(src)
        hermitian_frames(chart.metric_at(point)[None], chart.j_at(point)[None])
        with pytest.raises(ChartEvalError, match=re.escape(message)):
            jet_at(chart, point)

    def test_point_on_the_domain_boundary_analyzes(self):
        # nothing is evaluated away from p, so p may sit on the boundary
        for p in [(2.0, 0.0), (-2.0, 2.0)]:
            NR = nabla_R(jet_at(CP1, p))
            assert np.all(np.isfinite(NR))

    @pytest.mark.parametrize("p, shown", [
        ((2.0000000000000004, 0.0), "x1 = 2.0000000000000004 outside domain [-2.0, 2.0]"),
        ((0.0, np.inf), "y1 = inf is not finite"),
    ])
    def test_point_outside_the_domain_is_refused(self, p, shown):
        with pytest.raises(DomainError, match=re.escape(shown)):
            jet_at(CP1, p)

    def test_wrong_length_point_is_a_chart_error(self):
        with pytest.raises(ChartEvalError, match="4 coordinates"):
            jet_at(CP2, (0.0, 0.0))

    @pytest.mark.parametrize("x", [1e-4, 1e-2, 0.5])
    def test_close_to_a_singular_metric(self, x):
        # g = x I has K = 1/(2x^3): R(e1, e2, e2, e1) = K x^2 = 1/(2x) and its
        # covariant x-derivative -3/(2x^2), however close p comes to the singular x = 0
        j = jet_at(conformal_chart("x"), (x, 0.5))
        np.testing.assert_allclose(riemann(j)[0, 0, 1, 1, 0], 0.5 / x, rtol=1e-12)
        np.testing.assert_allclose(nabla_R(j)[0, 0, 0, 1, 1, 0], -1.5 / x**2, rtol=1e-12)
        assert not np.any(nabla_J(j))

    def test_singular_metric_at_p_is_a_chart_error(self):
        with pytest.raises(ChartEvalError,
                           match=r"^invariant violation at point \[0\.0, 0\.5\]: "):
            jet_at(conformal_chart("x"), (0.0, 0.5))


# ---------------------------------------------------------------------------
# The jet against fourth-order central differences of itself
# ---------------------------------------------------------------------------


def central(f, p, h):
    """out[a, ...] = d_a f at p by the fourth-order central difference."""
    out = []
    for a in range(p.size):
        e = np.zeros_like(p)
        e[a] = h
        out.append((f(p - 2 * e) - 8 * f(p - e) + 8 * f(p + e) - f(p + 2 * e)) / (12 * h))
    return np.array(out)


def assert_same_bits(a, b):
    # equal as bit patterns, so that 0.0 and -0.0 count as different
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_matches_differences(chart, p, h=2.5e-4):
    """Degree 0 is metric_at/j_at to the bit; dg and dJ are the differences
    of g and J, ddg and dddg those of the jet's own dg and ddg, each to 1e-9
    of the largest entry (or of 1).  The differences' truncation error at
    this h stays under 1.2e-10 on the bundled domains, corners included."""
    p = np.asarray(p, dtype=float)
    j = jet_at(chart, p)
    assert_same_bits(j.g[0], chart.metric_at(p))
    assert_same_bits(j.J[0], chart.j_at(p))
    dg, ddg, dddg = (block[0] for block in g_derivatives(j))
    for got, f in [(dg, chart.metric_at), (j.dJ[0], chart.j_at),
                   (ddg, lambda q: g_derivatives(jet_at(chart, q))[0][0]),
                   (dddg, lambda q: g_derivatives(jet_at(chart, q))[1][0])]:
        scale = max(1.0, float(np.max(np.abs(got))))
        assert np.max(np.abs(got - central(f, p, h))) <= 1e-9 * scale


_DEFAULT_POINTS = [(name, p) for name in sorted(model_names())
                   for p in get_model(name).chart.default_points]


class TestAgainstDifferences:
    @pytest.mark.parametrize("name, p", _DEFAULT_POINTS)
    def test_default_points(self, name, p):
        assert_matches_differences(get_model(name).chart, p)

    @pytest.mark.parametrize("p", [(0.0, -0.0, 0.0, 0.0), (-0.0, 0.0, -0.0, -0.0),
                                   (-0.0, -0.0, -0.0, -0.0), (0.1, -0.0, -0.2, 0.0)])
    def test_signed_zeros_keep_their_sign(self, p):
        # g and J keep the bits of metric_at/j_at at p; the derivatives equal
        # those at the point with every zero positive
        assert_matches_differences(CP2, p)
        j, unsigned = jet_at(CP2, p), jet_at(CP2, np.asarray(p) + 0.0)
        for d, e in zip(j.dg, unsigned.dg):
            assert np.array_equal(d, e)

    @pytest.mark.parametrize("name", ["cp2", "ch2", "s2xs2"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_drawn_points(self, name, data):
        chart = get_model(name).chart
        p = tuple(data.draw(st.floats(max(lo, -1.9) + 0.01, min(hi, 1.9) - 0.01), label=coord)
                  for coord, (lo, hi) in zip(chart.coord_names, chart.domain))
        assert_matches_differences(chart, p)


# ---------------------------------------------------------------------------
# One Taylor pass per group of points against one pass per point
# ---------------------------------------------------------------------------


def scan_points(seed, size=12):
    """The cp3 points of the benchmark's scan workload (bench/workloads.py)."""
    rng, reach = random.Random(seed), 4 * 4 * 1e-4 * 2.0
    return [[rng.uniform(-2.0 + reach, 2.0 - reach) for _ in range(6)] for _ in range(size)]


def assert_same_jet(group, k, alone):
    """The k-th point of a group's jet is the jet of that point alone, every
    array bit for bit, the Cholesky frame included, with the same tables."""
    for name in ("g", "J", "dJ", "Linv", "K"):
        assert_same_bits(getattr(group, name)[k], getattr(alone, name)[0])
    for d, e in zip(group.dg, alone.dg, strict=True):
        assert_same_bits(d[k], e[0])
    assert group.gathers is alone.gathers


def domain_points(chart, size, seed):
    """size points drawn in the chart's domain, within 0.9 of the origin
    in each coordinate."""
    rng = random.Random(seed)
    return [tuple(rng.uniform(max(lo, -0.9), min(hi, 0.9)) for lo, hi in chart.domain)
            for _ in range(size)]


def point_blocks(chart, points):
    """The JSON block of each point's report."""
    return [json.dumps(block) for block in analyze_chart(chart, points).to_dict()["points"]]


# nabla R vanishes on s6 and s2xs2 only up to rounding, and on conf2 not at all
_GROUPED = [pytest.param(get_model("s6").chart, id="s6"),
            pytest.param(get_model("s2xs2").chart, id="s2xs2"),
            pytest.param(CONF2, id="conf2")]

_RUNS = [pytest.param(name, get_model(name).chart.default_points, id=f"{name}-defaults")
         for name in sorted(model_names())]
_RUNS += [pytest.param("cp3", scan_points(7), id="cp3-scan-seed-7"),
          pytest.param("cp3", scan_points(40, size=40), id="cp3-40-points")]


class TestStackedJets:
    def test_runs_cross_the_group_boundary(self):
        assert len(scan_points(40, size=40)) > 2 * JET_GROUP

    @pytest.mark.parametrize("name, points", _RUNS)
    def test_each_jet_is_the_jet_of_its_point_alone(self, name, points):
        chart = get_model(name).chart
        groups = [chart.jet(points[k:k + JET_GROUP]) for k in range(0, len(points), JET_GROUP)]
        for i, p in enumerate(points):
            assert_same_jet(groups[i // JET_GROUP], i % JET_GROUP, jet_at(chart, p))

    @pytest.mark.parametrize("chart", _GROUPED)
    def test_a_points_block_does_not_depend_on_its_group(self, chart):
        # the same point at index 0 alone, in a group of 3 and in one of 16,
        # with other neighbours each time
        points = domain_points(chart, 40, seed=3)
        p = points[0]
        runs = [[p], [p, *points[1:3]], [p, *points[25:40]]]
        assert [len(run) for run in runs] == [1, 3, JET_GROUP]
        assert len({point_blocks(chart, run)[0] for run in runs}) == 1

    @pytest.mark.parametrize("chart", _GROUPED)
    def test_a_run_across_the_group_boundary(self, chart):
        # 17 points are a group of 16 and a group of one.  The i-th block is
        # that of the run that ends at the i-th point, a group of i + 1 points,
        # and the 17th is also the block of a group of 3.
        points = domain_points(chart, 20, seed=4)
        run = points[:17]
        blocks = point_blocks(chart, run)
        for i in range(JET_GROUP):
            assert point_blocks(chart, run[:i + 1])[i] == blocks[i]
        assert point_blocks(chart, points)[JET_GROUP] == blocks[JET_GROUP]

    def test_a_point_does_not_move_the_others_reports(self):
        model = get_model("cp3")
        a, b, c = scan_points(11, size=3)
        blocks = [[json.dumps(pr) for pr in analyze_model(model, run).to_dict()["points"]]
                  for run in ([a, b, c], [a, scan_points(12, size=1)[0], c])]
        assert blocks[0][1] != blocks[1][1]
        assert blocks[0][0] == blocks[1][0] and blocks[0][2] == blocks[1][2]

    @pytest.mark.parametrize("chart, points, error", [
        (conformal_chart("1.0+sqrt(x^2)"), [(0.5, 0.1), (0.0, 0.5), (0.2, 0.2)], ChartEvalError),
        (CP1, [(0.1, 0.2), (2.5, 0.0), (0.0, 0.0)], DomainError),
        (j_chart("1+0*log(x)"), [(0.5, 0.1), (-1.0, 0.0), (0.2, 0.2)], ChartEvalError),
        (j_chart("1+0*sqrt(x^2)"), [(0.5, 0.1), (0.0, 0.5), (0.2, 0.2)], ChartEvalError),
        (conformal_chart("x"), [(0.5, 0.1), (0.0, 0.5), (0.2, 0.2)], ChartEvalError),
    ], ids=["non-finite-derivative", "outside-the-domain", "failing-j-entry",
            "failing-j-derivative", "invariant-violation"])
    def test_a_failing_point_raises_what_it_raises_alone(self, monkeypatch, chart, points,
                                                         error):
        with pytest.raises(error) as alone:
            jet_at(chart, points[1])
        with pytest.raises(error):
            chart.jet(points)
        # the group fails as a whole, so its points' jets are taken one at a time
        jets, group_checks = [], report._group_checks
        monkeypatch.setattr(report, "_group_checks",
                            lambda jet, tol: jets.append(jet) or group_checks(jet, tol))
        run = report._checked_points(chart, points, 1e-4)
        next(run)
        assert len(jets) == len(jets[0]) == 1
        assert_same_jet(jets[0], 0, jet_at(chart, points[0]))
        with pytest.raises(error) as in_run:
            next(run)
        assert str(in_run.value) == str(alone.value)
        with pytest.raises(error) as analyzed:
            analyze_chart(chart, points)
        assert str(analyzed.value) == str(alone.value)

    @pytest.mark.parametrize("src, p, message", [
        ("1+0*log(x)", (-1.0, 0.0),
         "cannot evaluate '1.0+0.0*log(x)' at {'x': -1.0, 'y': 0.0}: math domain error"),
        ("1+0*sqrt(x^2)", (0.0, 0.5),
         "a derivative of '1.0+0.0*sqrt(x^2.0)' is not finite at {'x': 0.0, 'y': 0.5}"),
    ], ids=["value", "derivative"])
    def test_a_failing_j_entry_is_named(self, src, p, message):
        # the jet's j_at raises the first; only the Taylor pass fails the second
        with pytest.raises(ChartEvalError) as err:
            jet_at(j_chart(src), p)
        assert str(err.value) == message

    def test_a_failing_group_is_searched_once(self, monkeypatch):
        # only the Taylor pass fails, at the middle point: the group fails as a
        # whole, and the point alone searches its expressions, once
        chart = conformal_chart("1+0*sqrt(x^2)")
        points = [(0.3, 0.5), (0.0, 0.5), (0.2, 0.2)]
        with pytest.raises(ChartEvalError) as alone:
            jet_at(chart, points[1])
        compiled = []
        compile_expressions = expressions.compile_expressions
        monkeypatch.setattr(expressions, "compile_expressions",
                            lambda exprs: compiled.append(exprs) or compile_expressions(exprs))
        with pytest.raises(ChartEvalError) as in_run:
            list(report._checked_points(chart, points, 1e-4))
        assert len(compiled) == 1
        assert str(in_run.value) == str(alone.value)

    def test_memory_stays_bounded_over_a_long_run(self):
        model = get_model("cp3")

        def peak(points):
            tracemalloc.start()
            try:
                analyze_model(model, points=points)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        analyze_model(model, points=scan_points(5, size=1))  # compiles the chart program
        assert peak(scan_points(5, size=128)) < 2 * peak(scan_points(5, size=16))

    def test_nabla_R_and_its_frame_change_hold_few_arrays_of_its_size(self):
        # in units of one (P, n, n, n, n, n) array, P = 16 points at m = 4: nabla R
        # takes its two buffers, and its frame change one more above its inputs
        jet = CP4.jet(domain_points(CP4, 16, seed=4))
        R, NJ = riemann(jet), nabla_J(jet)
        before = R.tobytes(), NJ.tobytes()
        P, n = jet.g.shape[:2]
        size = P * n**5 * 8
        tracemalloc.start()
        try:
            NR = nabla_R(jet)
            built = tracemalloc.get_traced_memory()[1] / size
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            in_frame(jet, R, NJ, NR)
            changed = (tracemalloc.get_traced_memory()[1] - held) / size
        finally:
            tracemalloc.stop()
        assert built <= 2.5, built
        assert changed <= 1.5, changed
        assert (R.tobytes(), NJ.tobytes()) == before

    def test_the_jet_through_nabla_R_holds_few_arrays_of_its_size(self):
        # in units of one (P, n, n, n, n, n) array, P = 16 points at m = 4: the
        # jet keeps g's derivatives distinct, and nabla R gathers its second
        # derivatives of Gamma into its own two buffers
        points = domain_points(CP4, 16, seed=4)
        CP4.jet(points[:1])  # compiles the chart's programs
        P, n = len(points), 8
        tracemalloc.start()
        try:
            jet = CP4.jet(points)
            nabla_R(jet)
            peak = tracemalloc.get_traced_memory()[1] / (P * n**5 * 8)
        finally:
            tracemalloc.stop()
        assert peak <= 3.0, peak
        held = [getattr(jet, field.name) for field in dataclasses.fields(jet)]
        sizes = [a.size for x in held for a in (x if isinstance(x, tuple) else (x,))]
        assert max(sizes) < P * n**5


# ---------------------------------------------------------------------------
# Each group's tensor stage once per chart
# ---------------------------------------------------------------------------


# The group stage's work that does not read the plane draws, by the module
# whose name each is called through
SEED_FREE = [(report, "adapted_eigenframe"), (analysis, "build_from_decomposition"),
             (report, "pi2")]


def counted_stage(monkeypatch):
    """Record each call of `_group_checks`, of a chart program and of the
    SEED_FREE functions from now on, by name."""
    calls = []
    for module, name in [(report, "_group_checks"), (charts, "evaluate"), *SEED_FREE]:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def group_refs(monkeypatch):
    """Weak references to each point's checks that `_group_checks` makes from
    now on, one list per call."""
    refs = []

    def recorded(jet, tol, _original=report._group_checks):
        group = _original(jet, tol)
        refs.append([weakref.ref(checks) for checks in group])
        return group

    monkeypatch.setattr(report, "_group_checks", recorded)
    return refs


def alive(refs):
    """Which of refs still reach their object, after a full collection, one
    list per call."""
    gc.collect()
    return [[ref() is not None for ref in call] for call in refs]


class TestGroupMemo:
    @pytest.mark.parametrize("name, points, stage_calls", [
        ("cp2", None, 0),
        # three groups, the last one partial: each replaces the slot in turn
        ("cp3", scan_points(40, size=40), 3),
    ], ids=["cp2-defaults", "cp3-40-points"])
    def test_other_seeds_reuse_the_tensor_stage(self, monkeypatch, name, points, stage_calls):
        model = get_model(name)
        texts = [analyze_model(model, points, seed=1).to_json()]
        calls = counted_stage(monkeypatch)
        texts += [analyze_model(model, points, seed=seed).to_json() for seed in (2, 3)]
        assert calls.count("_group_checks") == calls.count("pi2") == 2 * stage_calls
        assert ("evaluate" in calls) == (stage_calls > 0)
        # once per group computed again, on its stacked points, and never on a reuse
        assert calls.count("adapted_eigenframe") == 2 * stage_calls
        assert calls.count("build_from_decomposition") == 2 * stage_calls
        monkeypatch.undo()
        assert texts == [analyze_model(get_model(name), points, seed=seed).to_json()
                         for seed in (1, 2, 3)]

    def test_another_tol_checks_the_group_again(self, monkeypatch):
        # warp2's Ricci tensor misses J-invariance by between 0.3 and 1: at
        # tol = 1 it has an adapted frame and a decomposition, at 1e-4 neither
        chart = fixture_chart("warp2")
        tols = [1e-4, 1.0, 1.0, 1e-4]
        texts = [analyze_chart(chart, tol=tols[0]).to_json()]
        calls = counted_stage(monkeypatch)
        texts += [analyze_chart(chart, tol=tol).to_json() for tol in tols[1:]]
        assert calls.count("_group_checks") == 2
        monkeypatch.undo()
        assert texts == [analyze_chart(fixture_chart("warp2"), tol=tol).to_json() for tol in tols]
        assert '"decomposition_residual": null' in texts[0]
        assert '"decomposition_residual": null' not in texts[1]
        # the flags too are taken at the run's tol: AH3's residual is 0.25
        assert '"AH3": false' in texts[0] and '"AH3": true' in texts[1]

    def test_editing_a_record_leaves_the_slot_alone(self):
        # a reused point hands its seed-free fields to each record: as copies
        chart = get_model("cp2").chart
        for record in analyze_chart(chart, seed=1).points:
            record.flags["K"] = None
            record.ah_residuals["AH1"] = None
            record.einstein["lambda"] = None
        assert analyze_chart(chart, seed=2).to_json() == \
            analyze_chart(get_model("cp2").chart, seed=2).to_json()

    def test_signed_zeros_are_other_points(self, monkeypatch):
        # 0.0 == -0.0, so a key of float values would take one for the other
        chart = get_model("cp2").chart
        runs = [[(0.0, 0.0, 0.0, 0.0)], [(-0.0, 0.0, -0.0, -0.0)]]
        texts = [analyze_chart(chart, runs[0]).to_json()]
        calls = counted_stage(monkeypatch)
        texts.append(analyze_chart(chart, runs[1]).to_json())
        assert calls.count("_group_checks") == 1
        monkeypatch.undo()
        assert texts == [analyze_chart(get_model("cp2").chart, run).to_json() for run in runs]

    def test_a_failing_group_is_not_stored(self, monkeypatch):
        for chart, points, error in [
            # only the Taylor pass fails, at the middle point
            (conformal_chart("1+0*sqrt(x^2)"), [(0.3, 0.5), (0.0, 0.5), (0.2, 0.2)],
             ChartEvalError),
            # the tensor stage runs, and nabla R's frame components overflow in
            # the point's analysis
            (conformal_chart("exp(-690*y)"), [(0.3, 1.0)], InvariantViolation),
        ]:
            calls = counted_stage(monkeypatch)
            messages, counts = [], []
            for _ in range(2):
                with pytest.raises(error) as err:
                    analyze_chart(chart, points)
                messages.append(str(err.value))
                counts.append(len(calls))
            monkeypatch.undo()
            assert messages[0] == messages[1]
            # the second call computes again all that the first did
            assert counts[1] == 2 * counts[0] > 0

    def test_a_failing_point_ends_the_run_before_the_next_group(self, monkeypatch):
        # nabla R's frame components overflow at y = 1: the first point raises
        # in its analysis, and the second group's jets are never taken
        chart = conformal_chart("exp(-690*y)")
        points = [(0.3, 1.0)] + [(0.3, 0.01 * k) for k in range(JET_GROUP)]
        sizes = []
        jet = ChartSpec.jet
        monkeypatch.setattr(ChartSpec, "jet",
                            lambda self, group: sizes.append(len(group)) or jet(self, group))
        with pytest.raises(InvariantViolation,
                           match=re.escape("nabla R is not finite at point [0.3, 1.0]")):
            analyze_chart(chart, points)
        assert sizes == [JET_GROUP]
        # in a group that fails as a whole, before a later point's jet fails,
        # and before that jet is taken
        sizes.clear()
        with pytest.raises(InvariantViolation, match="nabla R is not finite"):
            analyze_chart(chart, [(0.3, 1.0), (0.3, math.inf)])
        assert sizes == [2, 1]

    def test_the_memo_keeps_the_last_group(self, monkeypatch):
        chart = get_model("cp3").chart
        points = scan_points(5, size=128)
        refs = group_refs(monkeypatch)
        analyze_chart(chart, points, samples=16)
        dead, kept = [False] * JET_GROUP, [True] * JET_GROUP
        assert alive(refs) == [dead] * 7 + [kept]
        calls = counted_stage(monkeypatch)
        analyze_chart(chart, points[-JET_GROUP:], samples=16)
        assert calls == []
        analyze_chart(chart, points[:JET_GROUP], samples=16)
        assert calls.count("_group_checks") == 1
        assert alive(refs) == [dead] * 8 + [kept]
        # analyzing another chart frees the first chart and its points' checks
        held = weakref.ref(chart)
        del chart
        cp2 = get_model("cp2").chart
        analyze_chart(cp2, samples=16)
        assert alive(refs) == [dead] * 9 + [[True] * len(cp2.default_points)]
        assert held() is None

    def test_one_group_however_many_charts_are_alive(self, monkeypatch):
        models = [get_model(name) for name in model_names()]
        refs = group_refs(monkeypatch)
        for model in models:
            analyze_model(model)
        assert alive(refs) == [[False] * len(model.chart.default_points) for model in models[:-1]] \
            + [[True] * len(models[-1].chart.default_points)]
        calls = counted_stage(monkeypatch)
        analyze_model(models[-1], seed=2)
        assert calls == []
        analyze_model(models[0], seed=2)
        assert calls.count("_group_checks") == 1

    def test_concurrent_runs_on_one_chart(self, monkeypatch):
        # more runs than the slot keeps, so threads store and replace at once
        chart = get_model("cp1").chart
        runs = [domain_points(chart, 3, seed) for seed in range(4)]
        expected = [analyze_chart(get_model("cp1").chart, run, samples=8).to_json()
                    for run in runs]
        failures = []
        refs = group_refs(monkeypatch)

        def work(t):
            try:
                for i in range(12):
                    k = (t + i) % len(runs)
                    if analyze_chart(chart, runs[k], samples=8).to_json() != expected[k]:
                        failures.append(k)
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # the points of exactly one run stay alive, all of them
        states = sorted(alive(refs))
        assert states == [[False] * 3] * (len(states) - 1) + [[True] * 3]


def checks_of(chart, points, tol):
    """The group stage's checks of each point, the points taken as one group."""
    assert len(points) <= JET_GROUP
    return report._group_checks(chart.jet(points), tol)


def exact(checks):
    """A point's checks as text that tells every float apart by its bits."""
    return repr((checks.not_finite, checks.fit, checks.fields))


CONF3 = fixture_chart("conf3")
SURFACES3 = fixture_chart("surfaces3")

# (chart, points, tol, whether every point has a frame: None where either may be)
_STACKED = [pytest.param(get_model(name).chart, None, 1e-4, None, id=f"{name}-defaults")
            for name in sorted(model_names())]
_STACKED += [pytest.param(get_model("cp3").chart, scan_points(7), 1e-4, True, id="cp3-scan-seed-7"),
             pytest.param(CONF2, None, 1e-4, True, id="conf2"),
             pytest.param(CONF3, domain_points(CONF3, 12, seed=5), 1e-4, True,
                          id="conf3-12-points"),
             pytest.param(SURFACES3, None, 1e-4, True, id="surfaces3"),
             # warp2's Ricci tensor is not J-invariant within 1e-4, and is within 1
             pytest.param(fixture_chart("warp2"), None, 1e-4, False, id="warp2-tol-1e-4"),
             pytest.param(fixture_chart("warp2"), None, 1.0, True, id="warp2-tol-1")]


class TestStackedChecks:
    @pytest.mark.parametrize("chart, points, tol, framed", _STACKED)
    def test_each_point_has_the_checks_it_has_alone(self, chart, points, tol, framed):
        points = chart.default_points if points is None else points
        group = checks_of(chart, points, tol)
        assert [exact(checks) for checks in group] == \
            [exact(checks_of(chart, [p], tol)[0]) for p in points]
        if framed is not None:
            for name in ("decomposition_residual", "eigenframe_relation_residual"):
                assert [c.fields[name] is not None for c in group] == [framed] * len(points)

    def test_the_surfaces_split_their_eigenspaces_differently(self):
        # so one stacked eigenframe call mixes points of several eigenvalue multiplicities
        splits = []
        for checks in checks_of(SURFACES3, SURFACES3.default_points, 1e-4):
            w = np.linalg.eigvalsh(ricci(checks.R))
            splits.append(np.flatnonzero(np.diff(w) > 1e-8).tolist())
        assert splits == [[], [3], [1], [1, 3], [3], [1, 3]]

    def test_a_non_finite_point_leaves_its_neighbours_alone(self):
        # steep's R overflows at a = 2.3, the middle point of three
        chart = fixture_chart("steep")
        points = [(0.0, 0.0, 0.0, 0.0), (2.3, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)]
        group = checks_of(chart, points, 1e-4)
        assert [exact(checks) for checks in group] == \
            [exact(checks_of(chart, [p], 1e-4)[0]) for p in points]
        assert [checks.not_finite for checks in group] == [None, "R", None]
        messages = []
        for run in (points, points[1:2]):
            with pytest.raises(InvariantViolation) as err:
                analyze_chart(chart, run)
            messages.append(str(err.value))
        assert messages == ["R is not finite at point [2.3, 0.0, 0.0, 0.0]"] * 2

    def test_a_point_whose_frame_overflows_leaves_its_neighbours_alone(self):
        # collapsing's R is finite in chart coordinates at x1 = 6.56, but not in
        # its frame, so not_finite names it; S is not finite, so neither residual
        # applies there; at tol = 100 both apply at its neighbours, whose S is
        # J-invariant within it
        chart = fixture_chart("collapsing")
        points = [(0.1, 0.0, 0.0, 0.0), (6.56, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)]
        group = checks_of(chart, points, 100.0)
        assert [exact(checks) for checks in group] == \
            [exact(checks_of(chart, [p], 100.0)[0]) for p in points]
        assert [checks.not_finite for checks in group] == [None, "R", None]
        for name in ("decomposition_residual", "eigenframe_relation_residual"):
            assert [checks.fields[name] is None for checks in group] == [False, True, False]


# ---------------------------------------------------------------------------
# Curvature and its covariant derivative against the symbolic oracle
# ---------------------------------------------------------------------------


class TestAgainstSymbolicOracle:
    @pytest.mark.parametrize("chart, point", [(CP1, CP1_POINT), (CP2, CP2_POINT),
                                              (CONF2, CP2_POINT)],
                             ids=["cp1", "cp2", "conf2"])
    def test_riemann_and_nabla_R(self, chart, point):
        R, NR = symbolic_riemann(chart, point)
        j = jet_at(chart, as_floats(point))
        if chart is CONF2:
            assert np.max(np.abs(NR)) > 0.5  # not locally symmetric, unlike the space forms
        assert np.max(np.abs(riemann(j)[0] - R)) <= 1e-11
        assert np.max(np.abs(nabla_R(j)[0] - NR)) <= 1e-11

    @pytest.mark.parametrize("name, c", [("cp2", 4.0), ("ch2", -4.0), ("cp3", 4.0)])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_complex_space_forms_at_drawn_points(self, name, c, data):
        # R = (c/4)(pi1 + pi2) and nabla R = nabla J = 0 anywhere in the domain, corners included
        chart = get_model(name).chart
        p = tuple(data.draw(st.floats(lo, hi), label=coord)
                  for coord, (lo, hi) in zip(chart.coord_names, chart.domain))
        K, R, NJ, NR = frame_at(chart, p)
        target = c / 4.0 * (pi1(len(K)) + pi2(K))
        scale = np.max(np.abs(target))
        assert np.max(np.abs(R - target)) <= 1e-11 * scale
        assert np.max(np.abs(NR)) <= 1e-11 * scale
        assert np.max(np.abs(NJ)) <= 1e-11

    def test_flat_chart_vanishes(self):
        j = jet_at(FLAT, (0.3, -0.2, 0.1, 0.4))
        assert np.max(np.abs(riemann(j))) < 1e-10
        assert np.max(np.abs(nabla_J(j))) < 1e-10
        assert np.max(np.abs(nabla_R(j))) < 1e-10

    def test_first_bianchi_identity(self):
        V = riemann(jet_at(CP2, (0.2, -0.1, 0.15, 0.05)))[0]
        cyc = V + np.einsum("jkil->ijkl", V) + np.einsum("kijl->ijkl", V)
        assert np.max(np.abs(cyc)) < 1e-12


class TestNablaROracle:
    @pytest.mark.parametrize("chart", [*(get_model(name).chart for name in sorted(model_names())),
                                       CONF2], ids=[*sorted(model_names()), "conf2"])
    def test_matches_the_einsum_definition(self, chart):
        # within 1e-13 of the size of its terms, max|Gamma| max|R| or max|nabla R|:
        # nabla R vanishes on the bundled models, up to rounding in those terms
        group = chart.jet(chart.default_points)
        NR, R, gamma = nabla_R(group), riemann(group), group._connection[0]
        blocks = g_derivatives(group)
        for k in range(len(group)):
            want = nabla_R_oracle(group.g[k], *(block[k] for block in blocks))
            scale = max(np.max(np.abs(want)), np.max(np.abs(gamma[k])) * np.max(np.abs(R[k])))
            assert np.max(np.abs(NR[k] - want)) <= 1e-13 * scale


# The groups on which nabla_R and in_frame must give the bytes of their
# references, which allocate an array per product
_KERNEL_GROUPS = [pytest.param(get_model(name).chart, None, id=f"{name}-defaults")
                  for name in sorted(model_names())]
CP4, CP6 = fixture_chart("cp4"), parse_chart(complex_space_form_chart_text(6, 4.0))
_KERNEL_GROUPS += [
    pytest.param(get_model("cp3").chart, scan_points(1), id="cp3-scan-seed-1"),
    pytest.param(CONF3, domain_points(CONF3, 12, seed=5), id="conf3-12-points"),
    pytest.param(CP4, domain_points(CP4, 16, seed=4), id="cp4-16-points"),
    pytest.param(CP6, domain_points(CP6, 4, seed=6), id="cp6-4-points"),
]


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("chart, points", _KERNEL_GROUPS)
    def test_the_bytes_of_the_reference(self, chart, points):
        assert_kernels_match_reference(chart.jet(chart.default_points if points is None else points))


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


class TestRiemann:
    def test_flat_chart_vanishes(self):
        R = riemann(jet_at(FLAT, (0.3, -0.2, 0.1, 0.4)))
        assert np.max(np.abs(R)) < 1e-8

    @pytest.mark.parametrize("p", S6.default_points)
    def test_unit_sphere_matches_pi1(self, p):
        R = frame_at(S6, p)[1]
        assert np.max(np.abs(R - pi1(6))) < 1e-5

    def test_cp2_matches_complex_space_form_at_origin(self):
        K, R = frame_at(CP2, (0.0, 0.0, 0.0, 0.0))[:2]
        target = pi1(4) + pi2(K)
        assert np.max(np.abs(R - target)) < 1e-5

    @pytest.mark.parametrize("name", sorted(model_names()))
    def test_symmetries_on_bundled_charts(self, name):
        chart = get_model(name).chart
        for p in chart.default_points:
            assert riemann_symmetry_residual(riemann(jet_at(chart, p))[0]) < 1e-5


class TestRicci:
    @pytest.mark.parametrize("m", [2, 3])
    def test_contraction_of_pi1(self, m):
        S = ricci(pi1(2 * m))
        np.testing.assert_allclose(S, (2 * m - 1) * np.eye(2 * m), atol=1e-12)

    def test_unit_sphere_is_einstein_with_constant_5(self):
        S = ricci(frame_at(S6, S6.default_points[1])[1])
        assert np.max(np.abs(S - 5.0 * np.eye(6))) < 1e-5

    def test_cp2_is_einstein_with_constant_6(self):
        S = ricci(frame_at(CP2, (0.2, -0.1, 0.15, 0.05))[1])
        assert np.max(np.abs(S - 6.0 * np.eye(4))) < 1e-5


# ---------------------------------------------------------------------------
# Covariant derivatives
# ---------------------------------------------------------------------------


class TestNablaJ:
    def test_flat_chart_vanishes(self):
        assert np.max(np.abs(nabla_J(jet_at(FLAT, (0.1, 0.2, -0.3, 0.0))))) < 1e-12

    def test_cp2_is_kahler(self):
        assert np.max(np.abs(nabla_J(jet_at(CP2, (0.2, -0.1, 0.15, 0.05))))) < 1e-6

    def test_sphere_is_nearly_kahler_but_not_kahler(self):
        p = S6.default_points[1]
        NJ = nabla_J(jet_at(S6, p))[0]
        assert np.max(np.abs(NJ)) > 0.1
        rng = np.random.default_rng(12)
        g = S6.metric_at(p)
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(6)
            x = x / np.sqrt(float(x @ g @ x))
            v = np.einsum("kia,k,a->i", NJ, x, x)
            worst = max(worst, float(np.max(np.abs(v))))
        assert worst < 1e-5


class TestNablaR:
    def test_flat_chart_vanishes(self):
        assert np.max(np.abs(nabla_R(jet_at(FLAT, (0.1, 0.2, -0.3, 0.0))))) < 1e-8

    def test_sphere_is_locally_symmetric(self):
        assert np.max(np.abs(nabla_R(jet_at(S6, S6.default_points[1])))) < 1e-4

    @pytest.mark.parametrize("name", ["s6", "cp2", "s2xs2"])
    def test_bianchi_cyclic_sum(self, name):
        from ahgeom.analysis import bianchi2_residual

        chart = get_model(name).chart
        NR = nabla_R(jet_at(chart, chart.default_points[1]))[0]
        assert bianchi2_residual(NR) < 1e-4


# ---------------------------------------------------------------------------
# Class residuals and the AK2 curvature identity
# ---------------------------------------------------------------------------


def class_residuals_at(chart, p):
    return class_residuals(frame_at(chart, p)[2])


def gray_ak2_residual_at(chart, p):
    K, R, NJ, _ = frame_at(chart, p)
    return gray_ak2_residual(R, NJ, K)


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
