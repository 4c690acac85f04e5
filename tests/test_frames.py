"""Frames, fundamental forms, curvature and classification."""

import numpy as np
import pytest

from surf4 import frames
from surf4.expr import parse_surface
from surf4.frames import (
    ClassificationTolerances,
    adapted_frame,
    curvature_report,
    delta_field_diagnostic,
    hessian_quantities,
    isoclinic_form_closedness,
    monge_frame,
    second_form,
)
from surf4.suites import EXAMPLE1_TEXT, random_polynomial_surface

EX1 = parse_surface(EXAMPLE1_TEXT)
Z2 = parse_surface("phi = x^2 - y^2\npsi = 2*x*y")
FLAT = parse_surface("phi = 0\npsi = 0")


class TestMongeFrame:
    def test_example1_origin(self):
        mf = monge_frame(EX1, (0.0, 0.0))
        np.testing.assert_allclose(mf.t1, [1, 0, 0, 1])
        np.testing.assert_allclose(mf.t2, [0, 1, 0, 2])
        assert (mf.E, mf.F, mf.G, mf.W) == (2.0, 2.0, 5.0, 6.0)
        assert (mf.Ehat, mf.Fhat, mf.Ghat) == (1.0, 0.0, 6.0)
        # the hat identity is exactly the W value here
        assert mf.Ehat * mf.Ghat - mf.Fhat**2 == pytest.approx(mf.W)

    def test_flat_plane(self):
        mf = monge_frame(FLAT, (0.3, -0.8))
        assert (mf.E, mf.F, mf.G, mf.W) == (1.0, 0.0, 1.0, 1.0)

    def test_z2_cauchy_riemann(self):
        for pt in [(0.1, 0.2), (-0.3, 0.25), (0.4, -0.4)]:
            mf = monge_frame(Z2, pt)
            expected = 1 + 4 * pt[0]**2 + 4 * pt[1]**2
            assert mf.E == pytest.approx(expected, abs=1e-14)
            assert mf.G == pytest.approx(expected, abs=1e-14)
            assert mf.F == pytest.approx(0.0, abs=1e-14)


class TestAdaptedFrame:
    def test_flat_plane_is_standard_basis(self):
        fr = adapted_frame(monge_frame(FLAT, (0.0, 0.0)))
        np.testing.assert_allclose(
            np.vstack([fr.e1, fr.e2, fr.e3, fr.e4]), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(fr.coframe, np.eye(2), atol=1e-15)

    def test_example1_gram_schmidt(self):
        fr = adapted_frame(monge_frame(EX1, (0.0, 0.0)))
        np.testing.assert_allclose(fr.e1, np.array([1, 0, 0, 1]) / np.sqrt(2),
                                   atol=1e-15)
        np.testing.assert_allclose(fr.e2, np.array([-1, 1, 0, 1]) / np.sqrt(3),
                                   atol=1e-15)

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.4, -0.3), (0.72, 0.55)])
    def test_orthonormality_and_coframe_roundtrip(self, point):
        fr = adapted_frame(monge_frame(EX1, point))
        basis = np.vstack([fr.e1, fr.e2, fr.e3, fr.e4])
        np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(fr.coframe @ fr.chart.T, np.eye(2),
                                   atol=1e-12)


class TestSecondForm:
    def test_z2_origin(self):
        sf = second_form(Z2, (0.0, 0.0))
        assert (sf.a, sf.b, sf.c) == (2.0, 0.0, -2.0)
        assert (sf.e, sf.f, sf.g) == (0.0, 2.0, 0.0)

    def test_flat_plane(self):
        sf = second_form(FLAT, (0.2, 0.3))
        assert (sf.a, sf.b, sf.c, sf.e, sf.f, sf.g) == (0,) * 6


class TestCurvatureReport:
    def test_z2_origin(self):
        rep = curvature_report(Z2, (0.0, 0.0))
        assert rep.K == pytest.approx(-8.0)
        assert rep.kappa == pytest.approx(8.0)
        assert rep.mean_h == (0.0, 0.0)
        assert rep.delta == pytest.approx(16.0)
        assert rep.point_class == "elliptic"
        assert rep.K1 == rep.K2 == pytest.approx(-4.0)

    def test_example1_origin(self):
        from surf4.expr import eval_surface

        hq = hessian_quantities(*eval_surface(EX1, (0.0, 0.0), 2))
        assert hq["H_phi"] == hq["H_psi"] == hq["L"] == hq["N"] == -4.0
        assert hq["M"] == hq["Q"] == 0.0
        rep = curvature_report(EX1, (0.0, 0.0))
        assert rep.K == pytest.approx(-7.0 / 9.0, abs=1e-14)
        assert rep.kappa == pytest.approx(-7.0 / 9.0, abs=1e-14)

    def test_flat_plane(self):
        rep = curvature_report(FLAT, (0.5, -0.5))
        assert rep.K == rep.kappa == rep.delta == 0.0
        assert rep.mean_h == (0.0, 0.0)
        assert rep.point_class == "parabolic"
        assert rep.inflection == "flat"
        assert rep.gauss_singular
        assert rep.isoclinic_all and rep.asymptotic_all

    def test_k_equals_k1_plus_k2(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sd = random_polynomial_surface(rng)
            pt = tuple(rng.uniform(-0.8, 0.8, size=2))
            rep = curvature_report(sd, pt)
            assert rep.K == pytest.approx(rep.K1 + rep.K2, rel=1e-12,
                                          abs=1e-12)

    def test_classification_cases(self):
        hyper = curvature_report(parse_surface("phi = x^2\npsi = y^2"),
                                 (0.0, 0.0))
        assert hyper.point_class == "hyperbolic"
        dirs = sorted(tuple(np.round(v, 12)) for v in hyper.asymptotic_dirs)
        assert dirs == [(0.0, 1.0), (1.0, 0.0)]

        real = curvature_report(parse_surface("phi = x^2 - y^2\npsi = 0"),
                                (0.0, 0.0))
        assert (real.point_class, real.inflection) == ("parabolic", "real")
        assert real.K < 0

        imag = curvature_report(parse_surface("phi = x^2 + y^2\npsi = 0"),
                                (0.0, 0.0))
        assert (imag.point_class, imag.inflection) == ("parabolic",
                                                       "imaginary")

        flat = curvature_report(parse_surface("phi = x^2\npsi = 0"),
                                (0.0, 0.0))
        assert (flat.point_class, flat.inflection) == ("parabolic", "flat")
        assert flat.K1 == flat.K2 == 0.0
        assert flat.gauss_singular

    def test_flat_inflection_forces_k1_k2_zero(self):
        # scan a surface with a genuine flat inflection at the origin
        sd = parse_surface("phi = x^2 + x^3 + y^3\npsi = x^2 - y^3")
        tol = ClassificationTolerances()
        found = 0
        for x in np.linspace(-0.2, 0.2, 21):
            for y in np.linspace(-0.2, 0.2, 21):
                rep = curvature_report(sd, (float(x), float(y)), tol=tol)
                if rep.inflection == "flat":
                    scale = 1e-6
                    assert abs(rep.K1) <= scale and abs(rep.K2) <= scale
                    found += 1
        assert found >= 1

    def test_wong_direction_emission(self):
        rep = curvature_report(EX1, (0.0, 0.0))
        assert len(rep.isoclinic_dirs) == 1
        vec, tag = rep.isoclinic_dirs[0]
        assert tag == "+"
        np.testing.assert_allclose(vec, np.array([1, -2]) / np.sqrt(5),
                                   atol=1e-12)
        # z^2 has K = -kappa with every direction isoclinic
        rep2 = curvature_report(Z2, (0.0, 0.0))
        assert rep2.isoclinic_all
        # |K| != |kappa| emits nothing (K = 4, kappa = 0 at this origin)
        rep3 = curvature_report(parse_surface("phi = x^2 + y^2\npsi = 0"),
                                (0.0, 0.0))
        assert abs(abs(rep3.K) - abs(rep3.kappa)) > 1.0
        assert not rep3.isoclinic_dirs and not rep3.isoclinic_all


class TestDualRoutes:
    def test_dual_formula_agreement_random(self):
        rng = np.random.default_rng(7)
        pts = [(x, y) for x in np.linspace(-0.8, 0.8, 5)
               for y in np.linspace(-0.8, 0.8, 5)]
        for _ in range(100):
            sd = random_polynomial_surface(rng)
            for pt in pts:
                curvature_report(sd, pt)  # raises on route disagreement

    def test_third_delta_expansion_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sd = random_polynomial_surface(rng)
            pt = tuple(rng.uniform(-0.8, 0.8, size=2))
            sf = second_form(sd, pt)
            a, b, c, e, f, g = sf.a, sf.b, sf.c, sf.e, sf.f, sf.g
            d1 = (a * f - b * e) * (b * g - c * f) - 0.25 * (a * g - c * e)**2
            d2 = (a * c - b * b) * (e * g - f * f) \
                - 0.25 * (a * g + c * e - 2 * b * f)**2
            assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)

    # the bound is 1e-9 * max(1, scale, |u|, |v|); here 1e-6, set by scale
    # in the first pair and by |v| in the second
    @pytest.mark.parametrize("u, scale", [(0.0, 1e3), (1e3, 0.0)])
    @pytest.mark.parametrize("factor, ok", [(1.0 - 1e-3, True),
                                            (1.0 + 1e-3, False)])
    def test_route_bound_boundary(self, u, scale, factor, ok):
        v = u + factor * 1e-6
        if ok:
            frames._require_close("K", u, v, scale)
        else:
            with pytest.raises(frames.InternalInconsistencyError,
                               match="K routes disagree"):
                frames._require_close("K", u, v, scale)


class TestFrameInvariance:
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.35, -0.6), (0.7, 0.2)])
    def test_swapped_gram_schmidt_order(self, point):
        rng = np.random.default_rng(17)
        surfaces = [EX1, Z2] + [random_polynomial_surface(rng)
                                for _ in range(5)]
        for sd in surfaces:
            r1 = curvature_report(sd, point)
            r2 = curvature_report(sd, point, frame_order="21")
            assert r1.K == pytest.approx(r2.K, rel=1e-10, abs=1e-12)
            assert r1.kappa == pytest.approx(r2.kappa, rel=1e-10, abs=1e-12)
            assert r1.delta == pytest.approx(r2.delta, rel=1e-9, abs=1e-12)
            assert r1.point_class == r2.point_class
            # direction SETS are the geometric invariant; ordering is not
            set1 = sorted(tuple(v) for v in r1.asymptotic_dirs)
            set2 = sorted(tuple(v) for v in r2.asymptotic_dirs)
            assert len(set1) == len(set2)
            for v1, v2 in zip(set1, set2):
                np.testing.assert_allclose(v1, v2, atol=1e-9)
            iso1 = {tag: vec for vec, tag in r1.isoclinic_dirs}
            iso2 = {tag: vec for vec, tag in r2.isoclinic_dirs}
            assert iso1.keys() == iso2.keys()
            for tag, vec in iso1.items():
                np.testing.assert_allclose(vec, iso2[tag], atol=1e-9)


class TestNormalFormIdentities:
    def test_lagrangean_normal_form_k_equals_kappa(self):
        # phi_y == psi_x: gradient graph of F = x^3 y + x y^3
        sd = parse_surface("phi = 3*x^2*y + y^3\npsi = x^3 + 3*x*y^2")
        for pt in [(0.0, 0.0), (0.3, 0.5), (-0.7, 0.2), (0.6, -0.6)]:
            rep = curvature_report(sd, pt)
            assert abs(rep.K - rep.kappa) < 1e-10

    def test_reversed_normal_form_k_equals_minus_kappa(self):
        # phi_y == -psi_x: phi = x^2 + y^2, psi = -2*x*y ... phi_y = 2y,
        # psi_x = -2y
        sd = parse_surface("phi = x^2 + y^2\npsi = -2*x*y")
        for pt in [(0.0, 0.0), (0.3, 0.5), (-0.7, 0.2)]:
            rep = curvature_report(sd, pt)
            assert abs(rep.K + rep.kappa) < 1e-10


class TestClosedness:
    def test_spec_examples(self):
        assert isoclinic_form_closedness(Z2, (0.0, 0.0)) < 1e-4
        assert isoclinic_form_closedness(FLAT, (0.1, 0.1)) == 0.0
        assert isoclinic_form_closedness(EX1, (0.1, -0.1)) < 1e-4

    def test_stencil_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            isoclinic_form_closedness(EX1, (1.0, 0.0), h=1e-3)


def test_gauss_singularity_flag_on_z3():
    z3 = parse_surface(
        "phi = x^3 - 3*x*y^2\npsi = 3*x^2*y - y^3\n"
        "domain = [-0.5, 0.5] x [-0.5, 0.5]")
    for x in np.linspace(-0.5, 0.5, 11):
        for y in np.linspace(-0.5, 0.5, 11):
            rep = curvature_report(z3, (float(x), float(y)))
            assert rep.gauss_singular == (x == 0.0 and y == 0.0)
            assert (rep.singular_coefficient is None) != rep.gauss_singular


def test_singular_coefficient_matches_normal_form():
    # phi = x^2, psi = 0 has normal-form coefficient C = 2 at the origin
    rep = curvature_report(parse_surface("phi = x^2\npsi = 0"), (0.0, 0.0))
    assert rep.gauss_singular
    assert rep.singular_coefficient == pytest.approx(2.0)


def test_seven_conditions_agree_on_isoclinic_surface():
    # on an isoclinic surface the inflection conditions are all equivalent:
    # (2) parabolic with kappa = 0, (5) parabolic with K = 0, (7) Gauss map
    # not an immersion, (3) rank [[a,b,c],[e,f,g]] <= 1 and (6) rank of the
    # interleaved 2x4 matrix <= 1, both at the matching tolerance scale
    z3 = parse_surface(
        "phi = x^3 - 3*x*y^2\npsi = 3*x^2*y - y^3\n"
        "domain = [-0.5, 0.5] x [-0.5, 0.5]")
    tol = ClassificationTolerances()
    hits = 0
    for x in np.linspace(-0.4, 0.4, 9):
        for y in np.linspace(-0.4, 0.4, 9):
            rep = curvature_report(z3, (float(x), float(y)), tol=tol)
            sf = second_form(z3, (float(x), float(y)))
            scale = max(abs(v) for v in
                        (sf.a, sf.b, sf.c, sf.e, sf.f, sf.g)) or 0.0
            bands = tol.bands(scale)
            cond2 = rep.point_class == "parabolic" and \
                abs(rep.kappa) <= bands["kappa"]
            cond5 = rep.point_class == "parabolic" and \
                abs(rep.K) <= bands["k"]
            cond7 = rep.gauss_singular
            m3 = np.array([[sf.a, sf.b, sf.c], [sf.e, sf.f, sf.g]])
            cond3 = np.linalg.svd(m3, compute_uv=False)[1] <= bands["rank"]
            m6 = np.array([[sf.a, sf.b, sf.e, sf.f],
                           [sf.b, sf.c, sf.f, sf.g]])
            cond6 = np.linalg.svd(m6, compute_uv=False)[1] <= bands["rank"]
            assert cond2 == cond5 == cond7 == cond3 == cond6
            hits += int(cond2)
    assert hits == 1  # exactly the origin


def test_delta_field_diagnostic_reports_ratio():
    diag = delta_field_diagnostic(Z2, (0.1, -0.2))
    assert np.isfinite(diag.hessian_det)
    assert diag.ratio is None or np.isfinite(diag.ratio)
    # flat plane has zero K: the ratio must be None rather than infinite
    assert delta_field_diagnostic(FLAT, (0.0, 0.0)).ratio is None


def test_internal_inconsistency_is_distinguishable():
    assert issubclass(frames.InternalInconsistencyError, RuntimeError)
