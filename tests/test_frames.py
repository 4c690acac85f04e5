"""Frames, fundamental forms, curvature and classification."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surf4 import frames
from surf4.expr import SurfaceEvalError, eval_points, parse_surface
from surf4.frames import (
    _bands,
    _coords_in,
    _norm,
    _second_derivatives,
    _second_form_from,
    adapted_frame,
    curvature_report,
    hessian_quantities,
    isoclinic_form_closedness,
    monge_frame,
)
from surf4.jets import Jet
from surf4.lagrangian import grid_points
from surf4.suites import (
    EXAMPLE1_TEXT,
    RSURF_Z2_TEXT,
    SEED,
    random_gradient_surface,
    random_polynomial_surface,
)

EX1 = parse_surface(EXAMPLE1_TEXT)
Z2 = parse_surface("phi = x^2 - y^2\npsi = 2*x*y")
FLAT = parse_surface("phi = 0\npsi = 0")
# suite surfaces, and one that takes the sqrt and reciprocal series
BATCH_SURFACES = [
    EX1,
    parse_surface(RSURF_Z2_TEXT),
    random_polynomial_surface(np.random.default_rng(SEED + 1)),
    random_gradient_surface(np.random.default_rng(SEED + 3)),
    parse_surface("phi = sqrt(2 + x) * cos(y)^3 - y/(3 + x)\n"
                  "psi = (1 + x^2)^-2 + exp(x*y)\n"),
]


def first_point(value):
    """The one point's entry of a batch-of-one result: each array over
    the points becomes its first row, or its first element as a Python
    number; jets stay as they are."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: first_point(getattr(value, f.name))
            for f in dataclasses.fields(value)})
    if isinstance(value, tuple):
        return tuple(first_point(v) for v in value)
    if isinstance(value, dict):
        return {key: first_point(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return value[0].item() if value.ndim == 1 else value[0]
    return value


def mf_at(sd, point):
    return monge_frame(*eval_points(sd, [point], 2), [point])


def report_at(sd, point):
    return first_point(curvature_report(*eval_points(sd, [point], 2),
                                        [point]))


def check_hatted_identity(W, eg, eg_hat, ff_hat, point):
    """frames._check_hatted_identity at one point."""
    frames._check_hatted_identity(
        *(np.array([v]) for v in (W, eg, eg_hat, ff_hat)), [point])


class TestMongeFrame:
    def test_example1_origin(self):
        mf = first_point(mf_at(EX1, (0.0, 0.0)))
        np.testing.assert_allclose(mf.t1, [1, 0, 0, 1])
        np.testing.assert_allclose(mf.t2, [0, 1, 0, 2])
        assert (mf.E, mf.F, mf.G, mf.W) == (2.0, 2.0, 5.0, 6.0)
        assert (mf.Ehat, mf.Fhat, mf.Ghat) == (1.0, 0.0, 6.0)
        # the hat identity is exactly the W value here
        assert mf.Ehat * mf.Ghat - mf.Fhat**2 == pytest.approx(mf.W)

    def test_flat_plane(self):
        mf = mf_at(FLAT, (0.3, -0.8))
        assert (mf.E, mf.F, mf.G, mf.W) == (1.0, 0.0, 1.0, 1.0)

    def test_hat_identity_bound_scales_with_the_products(self):
        check = check_hatted_identity
        big = 2.0**40  # the bound is 1e-10 * 2^40 = 109.95...
        # W = 1 and Ehat*Ghat - Fhat^2 = 1 + 109 or 1 + 110, exactly
        check(1.0, 1.0, big, big - 110.0, (0.0, 0.0))
        with pytest.raises(frames.InternalInconsistencyError):
            check(1.0, 1.0, big, big - 111.0, (0.0, 0.0))
        # W = 2 from E*G = 2^40, against Ehat*Ghat = 2 + 109 or 2 + 110
        check(2.0, big, 111.0, 0.0, (0.0, 0.0))
        with pytest.raises(frames.InternalInconsistencyError):
            check(2.0, big, 112.0, 0.0, (0.0, 0.0))
        # products near W keep the bound 1e-10 relative to W
        check(6.0, 6.0, 6.0 + 4e-10, 0.0, (0.0, 0.0))
        with pytest.raises(frames.InternalInconsistencyError):
            check(6.0, 6.0, 6.0 + 8e-10, 0.0, (0.0, 0.0))

    @pytest.mark.parametrize("products", [(np.inf, 1.0), (1.0, np.inf),
                                          (np.inf, np.inf)])
    def test_overflowing_hat_products_are_form_overflow(self, products):
        with pytest.raises(SurfaceEvalError, match=r"form overflows at "
                           r"point \(0\.5, -0\.5\)$"):
            check_hatted_identity(2e200, 2e200, *products, (0.5, -0.5))

    def test_z2_cauchy_riemann(self):
        for pt in [(0.1, 0.2), (-0.3, 0.25), (0.4, -0.4)]:
            mf = mf_at(Z2, pt)
            expected = 1 + 4 * pt[0]**2 + 4 * pt[1]**2
            assert mf.E == pytest.approx(expected, abs=1e-14)
            assert mf.G == pytest.approx(expected, abs=1e-14)
            assert mf.F == pytest.approx(0.0, abs=1e-14)


class TestAdaptedFrame:
    def test_flat_plane_is_standard_basis(self):
        fr = first_point(adapted_frame(mf_at(FLAT, (0.0, 0.0))))
        np.testing.assert_allclose(
            np.vstack([fr.e1, fr.e2, fr.e3, fr.e4]), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(fr.chart, np.eye(2), atol=1e-15)

    def test_example1_gram_schmidt(self):
        fr = first_point(adapted_frame(mf_at(EX1, (0.0, 0.0))))
        np.testing.assert_allclose(fr.e1, np.array([1, 0, 0, 1]) / np.sqrt(2),
                                   atol=1e-15)
        np.testing.assert_allclose(fr.e2, np.array([-1, 1, 0, 1]) / np.sqrt(3),
                                   atol=1e-15)

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.4, -0.3), (0.72, 0.55)])
    def test_orthonormality_and_coframe_roundtrip(self, point):
        fr = first_point(adapted_frame(mf_at(EX1, point)))
        basis = np.vstack([fr.e1, fr.e2, fr.e3, fr.e4])
        np.testing.assert_allclose(basis @ basis.T, np.eye(4), atol=1e-12)

    # seeded suite surfaces on a grid, and the steep surfaces analyze still
    # accepts at (-1, -1)
    @pytest.mark.parametrize("sd, points", [
        *[(sd, grid_points(sd.domain, 7, 7)) for sd in (
            random_polynomial_surface(np.random.default_rng(seed))
            for seed in range(SEED, SEED + 5))],
        (parse_surface("phi = 1e5*x\npsi = 1e5*x"), [(-1.0, -1.0)]),
        (parse_surface("phi = 1e6*x*y\npsi = x^2"), [(-1.0, -1.0)]),
    ], ids=[*[f"polynomial-{k}" for k in range(5)], "plane-1e5",
            "saddle-1e6"])
    def test_frame_keeps_the_handedness_of_both_pairs(self, sd, points):
        # kappa's sign rests on this: (e1, e2) in (T1, T2) and (e3, e4) in
        # (N1, N2) have positive determinants at every point
        mf = monge_frame(*eval_points(sd, points, 2), points)
        fr = adapted_frame(mf)
        normal = _coords_in(mf.n1, mf.n2, (fr.e3, fr.e4))
        assert (np.linalg.det(fr.chart) > 0.0).all()
        assert (np.linalg.det(normal) > 0.0).all()


class TestSecondForm:
    def test_z2_origin(self):
        mf = mf_at(Z2, (0.0, 0.0))
        a, b, c, e, f, g = _second_form_from(
            _second_derivatives(mf.phi_jet, mf.psi_jet), adapted_frame(mf))
        assert (a, b, c) == (2.0, 0.0, -2.0)
        assert (e, f, g) == (0.0, 2.0, 0.0)

    def test_flat_plane(self):
        mf = mf_at(FLAT, (0.2, 0.3))
        assert _second_form_from(_second_derivatives(mf.phi_jet, mf.psi_jet),
                                 adapted_frame(mf)) == (0,) * 6


class TestCurvatureReport:
    def test_z2_origin(self):
        rep = report_at(Z2, (0.0, 0.0))
        assert rep.K == pytest.approx(-8.0)
        assert rep.kappa == pytest.approx(8.0)
        assert rep.mean_h == (0.0, 0.0)
        assert rep.delta == pytest.approx(16.0)
        assert rep.point_class == "elliptic"
        assert rep.K1 == rep.K2 == pytest.approx(-4.0)

    def test_example1_origin(self):
        hq = hessian_quantities(*eval_points(EX1, [(0.0, 0.0)], 2))
        assert hq["H_phi"] == hq["H_psi"] == hq["L"] == hq["N"] == -4.0
        assert hq["M"] == hq["Q"] == 0.0
        rep = report_at(EX1, (0.0, 0.0))
        assert rep.K == pytest.approx(-7.0 / 9.0, abs=1e-14)
        assert rep.kappa == pytest.approx(-7.0 / 9.0, abs=1e-14)

    def test_flat_plane(self):
        rep = report_at(FLAT, (0.5, -0.5))
        assert rep.K == rep.kappa == rep.delta == 0.0
        assert rep.mean_h == (0.0, 0.0)
        assert rep.point_class == "parabolic"
        assert rep.inflection == "flat"
        assert rep.gauss_singular
        assert rep.isoclinic

    def test_k_equals_k1_plus_k2(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sd = random_polynomial_surface(rng)
            pt = tuple(rng.uniform(-0.8, 0.8, size=2))
            rep = report_at(sd, pt)
            assert rep.K == pytest.approx(rep.K1 + rep.K2, rel=1e-12,
                                          abs=1e-12)

    def test_classification_cases(self):
        hyper = report_at(parse_surface("phi = x^2\npsi = y^2"),
                          (0.0, 0.0))
        assert hyper.point_class == "hyperbolic"

        real = report_at(parse_surface("phi = x^2 - y^2\npsi = 0"),
                         (0.0, 0.0))
        assert (real.point_class, real.inflection) == ("parabolic", "real")
        assert real.K < 0

        imag = report_at(parse_surface("phi = x^2 + y^2\npsi = 0"),
                         (0.0, 0.0))
        assert (imag.point_class, imag.inflection) == ("parabolic",
                                                       "imaginary")

        flat = report_at(parse_surface("phi = x^2\npsi = 0"),
                         (0.0, 0.0))
        assert (flat.point_class, flat.inflection) == ("parabolic", "flat")
        assert flat.K1 == flat.K2 == 0.0
        assert flat.gauss_singular

    def test_flat_inflection_forces_k1_k2_zero(self):
        # scan a surface with a genuine flat inflection at the origin
        sd = parse_surface("phi = x^2 + x^3 + y^3\npsi = x^2 - y^3")
        found = 0
        for x in np.linspace(-0.2, 0.2, 21):
            for y in np.linspace(-0.2, 0.2, 21):
                rep = report_at(sd, (float(x), float(y)))
                if rep.inflection == "flat":
                    scale = 1e-6
                    assert abs(rep.K1) <= scale and abs(rep.K2) <= scale
                    found += 1
        assert found >= 1

    def test_wong_direction_emission(self):
        # example 1 has K = kappa at the origin
        assert report_at(EX1, (0.0, 0.0)).isoclinic
        # z^2 has K = -kappa with every direction isoclinic
        assert report_at(Z2, (0.0, 0.0)).isoclinic
        # |K| != |kappa| has none (K = 4, kappa = 0 at this origin)
        rep3 = report_at(parse_surface("phi = x^2 + y^2\npsi = 0"),
                         (0.0, 0.0))
        assert abs(abs(rep3.K) - abs(rep3.kappa)) > 1.0
        assert not rep3.isoclinic

    # phi = x^2 + e y^2, psi = 0 has K = 4e and kappa = 0 at the origin,
    # where the band is 1e-8 * max(|K|, |kappa|, 1) = 1e-8
    @pytest.mark.parametrize("e, isoclinic", [(2.4e-9, True),
                                              (2.6e-9, False)])
    def test_wong_band_boundary(self, e, isoclinic):
        rep = report_at(parse_surface(f"phi = x^2 + {e!r}*y^2\npsi = 0"),
                        (0.0, 0.0))
        assert rep.K == pytest.approx(4 * e, rel=1e-12)
        assert rep.kappa == 0.0
        assert rep.isoclinic is isoclinic


class TestDualRoutes:
    def test_dual_formula_agreement_random(self):
        rng = np.random.default_rng(7)
        pts = [(x, y) for x in np.linspace(-0.8, 0.8, 5)
               for y in np.linspace(-0.8, 0.8, 5)]
        for _ in range(100):
            sd = random_polynomial_surface(rng)
            for pt in pts:
                report_at(sd, pt)  # raises on route disagreement

    def test_third_delta_expansion_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sd = random_polynomial_surface(rng)
            pt = tuple(rng.uniform(-0.8, 0.8, size=2))
            mf = mf_at(sd, pt)
            a, b, c, e, f, g = _second_form_from(
                _second_derivatives(mf.phi_jet, mf.psi_jet), adapted_frame(mf))
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
        u, v, scale = (np.array([w]) for w in (u, u + factor * 1e-6, scale))
        if ok:
            frames._require_close("K", u, v, scale)
        else:
            with pytest.raises(frames.InternalInconsistencyError,
                               match="K routes disagree"):
                frames._require_close("K", u, v, scale)

    # kappa disagrees at the first point and K at the second; the third,
    # where W*W overflows, fails a route only in the second case
    @pytest.mark.parametrize("k_off, error, message", [
        ([0.0, 1.0, 0.0], frames.InternalInconsistencyError,
         "K routes disagree"),
        ([0.0, 1.0, 1.0], SurfaceEvalError,
         r"first fundamental form overflows at point \(0\.5, 0\.5\)$"),
    ])
    def test_route_errors_raise_in_stage_order(self, monkeypatch, k_off,
                                               error, message):
        # two example1 points, then one of a surface whose routes agree
        # and whose W = (1 + 4 x^2)(1 + 1e160) squares past the largest float
        points = [(0.0, 0.0), (0.3, 0.2), (0.5, 0.5)]
        jets = zip(eval_points(EX1, points[:2], 2),
                   eval_points(parse_surface("phi = 1e80*y\npsi = x^2"),
                               points[2:], 2))
        phi, psi = (Jet(2, np.concatenate([u.c, v.c], axis=1))
                    for u, v in jets)
        curvature_report(phi, psi, points)  # unperturbed, the batch passes
        curvatures = frames.monge_curvatures
        monkeypatch.setattr(frames, "monge_curvatures", lambda mf: tuple(
            route + np.array(off)
            for route, off in zip(curvatures(mf), (k_off, [1.0, 0.0, 0.0]))))
        with pytest.raises(error, match=message):
            curvature_report(phi, psi, points)


class TestFrameInvariance:
    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.35, -0.6), (0.7, 0.2)])
    def test_swapped_gram_schmidt_order(self, point, monkeypatch):
        rng = np.random.default_rng(17)
        surfaces = [EX1, Z2] + [random_polynomial_surface(rng)
                                for _ in range(5)]
        invariants = [self.frame_invariants(sd, point) for sd in surfaces]
        gram_schmidt = frames._gram_schmidt_pair
        # re-derive with (T2, T1), with (N2, N1), and with both swapped;
        # adapted_frame orthonormalizes the tangent pair, then the normal.
        # Swapping one pair reverses its handedness and so kappa's sign;
        # swapping both leaves kappa as it is
        for swaps, kappa_sign in [((True, False), -1.0),
                                  ((False, True), -1.0), ((True, True), 1.0)]:
            order = itertools.cycle(swaps)
            monkeypatch.setattr(
                frames, "_gram_schmidt_pair",
                lambda v1, v2: (gram_schmidt(v2, v1) if next(order)
                                else gram_schmidt(v1, v2)))
            for sd, (K, kappa, delta) in zip(surfaces, invariants):
                K2, kappa2, delta2 = self.frame_invariants(sd, point)
                assert K2 == pytest.approx(K, rel=1e-10, abs=1e-12)
                assert kappa2 == pytest.approx(kappa_sign * kappa, rel=1e-10,
                                               abs=1e-12)
                assert delta2 == pytest.approx(delta, rel=1e-9, abs=1e-12)

    @staticmethod
    def frame_invariants(sd, point):
        """k1 + k2, kappa and Delta from the second form a..g."""
        mf = mf_at(sd, point)
        a, b, c, e, f, g = first_point(_second_form_from(
            _second_derivatives(mf.phi_jet, mf.psi_jet), adapted_frame(mf)))
        return ((a * c - b * b) + (e * g - f * f), (a - c) * f - (e - g) * b,
                (a * f - b * e) * (b * g - c * f) - 0.25 * (a * g - c * e)**2)


class TestNormalFormIdentities:
    def test_lagrangean_normal_form_k_equals_kappa(self):
        # phi_y == psi_x: gradient graph of F = x^3 y + x y^3
        sd = parse_surface("phi = 3*x^2*y + y^3\npsi = x^3 + 3*x*y^2")
        for pt in [(0.0, 0.0), (0.3, 0.5), (-0.7, 0.2), (0.6, -0.6)]:
            rep = report_at(sd, pt)
            assert abs(rep.K - rep.kappa) < 1e-10

    def test_reversed_normal_form_k_equals_minus_kappa(self):
        # phi_y == -psi_x: phi = x^2 + y^2, psi = -2*x*y ... phi_y = 2y,
        # psi_x = -2y
        sd = parse_surface("phi = x^2 + y^2\npsi = -2*x*y")
        for pt in [(0.0, 0.0), (0.3, 0.5), (-0.7, 0.2)]:
            rep = report_at(sd, pt)
            assert abs(rep.K + rep.kappa) < 1e-10


class TestClosedness:
    def test_spec_examples(self):
        assert isoclinic_form_closedness(Z2, [(0.0, 0.0)])[0] < 1e-4
        assert isoclinic_form_closedness(FLAT, [(0.1, 0.1)])[0] == 0.0
        assert isoclinic_form_closedness(EX1, [(0.1, -0.1)])[0] < 1e-4

    def test_stencil_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            isoclinic_form_closedness(EX1, [(1.0, 0.0)])

    def test_stencil_outside_domain_after_a_good_point(self):
        with pytest.raises(ValueError, match="closedness stencil point "
                           r"\(1\.0\d*, .*\) leaves the domain"):
            isoclinic_form_closedness(EX1, [(0.1, -0.1), (1.0, 0.0)])

    @pytest.mark.parametrize("sd", BATCH_SURFACES)
    def test_batch_equals_single_points(self, sd):
        points = grid_points(sd.domain, 5, 5, shrink=0.4)
        assert [repr(r) for r in isoclinic_form_closedness(sd, points)] == [
            repr(isoclinic_form_closedness(sd, [pt])[0]) for pt in points]

    def test_errors_raise_in_target_order(self, monkeypatch):
        # the stencil targets of STUCK never converge; those of EDGE
        # converge outside the domain
        calls = stall_newton_near(monkeypatch, STUCK)

        def error(points):
            with pytest.raises(ValueError) as caught:
                isoclinic_form_closedness(EX1, points)
            return str(caught.value)

        stuck = error([STUCK])
        assert stuck == "chart inversion did not converge near (0.1, -0.1)"
        # the base points, then the 40 Newton steps of the cap
        assert len(calls) == 41
        edge = error([EDGE])
        assert edge.startswith("closedness stencil point (1.0")
        assert edge.endswith(") leaves the domain")
        assert error([STUCK, EDGE]) == stuck
        assert error([EDGE, STUCK]) == edge


STUCK, EDGE = (0.1, -0.1), (1.0, 0.0)


def stall_newton_near(monkeypatch, point):
    """Make ``frames.eval_points`` move phi by 1e-6 more at each call at
    the points within 0.01 of ``point`` but not at it, so that the Newton
    residual of the stencil targets around ``point`` never drops below
    1e-14; returns the list that records one entry per call."""
    evaluate, calls = frames.eval_points, []

    def eval_points(sd, points, order):
        phi, psi = evaluate(sd, points, order)
        calls.append(len(phi.value))
        x, y = np.array(points, dtype=float).reshape(-1, 2).T
        near = (np.hypot(x - point[0], y - point[1]) < 0.01) \
            & ((x != point[0]) | (y != point[1]))
        c = phi.c.copy()
        c[0, near] += 1e-6 * len(calls)
        return Jet(order, c), psi

    monkeypatch.setattr(frames, "eval_points", eval_points)
    return calls


def test_gauss_singularity_flag_on_z3():
    z3 = parse_surface(
        "phi = x^3 - 3*x*y^2\npsi = 3*x^2*y - y^3\n"
        "domain = [-0.5, 0.5] x [-0.5, 0.5]")
    for x in np.linspace(-0.5, 0.5, 11):
        for y in np.linspace(-0.5, 0.5, 11):
            rep = report_at(z3, (float(x), float(y)))
            assert rep.gauss_singular == (x == 0.0 and y == 0.0)


def test_seven_conditions_agree_on_isoclinic_surface():
    # on an isoclinic surface the inflection conditions are all equivalent:
    # (2) parabolic with kappa = 0, (5) parabolic with K = 0, (7) Gauss map
    # not an immersion, (3) rank [[a,b,c],[e,f,g]] <= 1 and (6) rank of the
    # interleaved 2x4 matrix <= 1, both at the matching tolerance scale
    z3 = parse_surface(
        "phi = x^3 - 3*x*y^2\npsi = 3*x^2*y - y^3\n"
        "domain = [-0.5, 0.5] x [-0.5, 0.5]")
    hits = 0
    for x in np.linspace(-0.4, 0.4, 9):
        for y in np.linspace(-0.4, 0.4, 9):
            rep = report_at(z3, (float(x), float(y)))
            mf = mf_at(z3, (float(x), float(y)))
            a, b, c, e, f, g = first_point(_second_form_from(
                _second_derivatives(mf.phi_jet, mf.psi_jet),
                adapted_frame(mf)))
            scale = max(abs(v) for v in (a, b, c, e, f, g)) or 0.0
            bands = first_point(_bands(np.array([scale]),
                                       np.array([scale ** 2]),
                                       np.array([scale ** 4])))
            cond2 = rep.point_class == "parabolic" and \
                abs(rep.kappa) <= bands["kappa"]
            cond5 = rep.point_class == "parabolic" and \
                abs(rep.K) <= bands["k"]
            cond7 = rep.gauss_singular
            m3 = np.array([[a, b, c], [e, f, g]])
            cond3 = np.linalg.svd(m3, compute_uv=False)[1] <= bands["rank"]
            m6 = np.array([[a, b, e, f], [b, c, f, g]])
            cond6 = np.linalg.svd(m6, compute_uv=False)[1] <= bands["rank"]
            assert cond2 == cond5 == cond7 == cond3 == cond6
            hits += int(cond2)
    assert hits == 1  # exactly the origin


def test_internal_inconsistency_is_distinguishable():
    assert issubclass(frames.InternalInconsistencyError, RuntimeError)


# signed zeros, subnormals, and values whose squares overflow to inf
NORM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              -1e-160, 1e154, 1e308, -1.7976931348623157e308]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(1, 3), st.data())
def test_norm_is_numpy_norm_bit_for_bit(length, stride, data):
    values = data.draw(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(NORM_EDGES)),
        min_size=length * stride, max_size=length * stride))
    v = np.array(values)[::stride]  # a strided view when stride > 1
    assert len(v) == length
    # numpy's dot warns when a square overflows; _norm gives the same inf
    # without a warning, since the batch arithmetic checks finiteness itself
    assert norm_outcome(_norm, v) == (norm_outcome(np.linalg.norm, v)[0], [])


def norm_outcome(norm, v):
    """repr of the norm and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = norm(v)
    return repr(float(value)), [str(w.message) for w in caught]


def coords_one_solve_per_vector(basis1, basis2, vectors):
    """The reference: one np.linalg.solve per vector."""
    g = np.array([[basis1 @ basis1, basis1 @ basis2],
                  [basis1 @ basis2, basis2 @ basis2]])
    return np.array([np.linalg.solve(g, np.array([v @ basis1, v @ basis2]))
                     for v in vectors])


def coords_at_one_point(basis1, basis2, vectors):
    """_coords_in on a batch of one point."""
    return _coords_in(basis1[None], basis2[None],
                      tuple(v[None] for v in vectors))[0]


def outcome(fn, *args):
    try:
        return repr(fn(*args).tolist())
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-6, 1e-12, 0.0]))
def test_stacked_solve_and_det_match_one_call_per_matrix(seed, gap):
    # Gram matrices of random and of nearly (gap -> 0: exactly) parallel
    # bases, and stacked determinants, which curvature_report's singular
    # frame check reads
    rng = np.random.default_rng(seed)
    basis1 = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4)
    basis2 = rng.normal() * basis1 + gap * rng.normal(size=4)
    vectors = tuple(rng.normal(size=(2, 4)))
    assert outcome(coords_at_one_point, basis1, basis2, vectors) == \
        outcome(coords_one_solve_per_vector, basis1, basis2, vectors)
    matrices = rng.normal(size=(2, 2, 2))
    matrices[1, 1] = matrices[1, 0] * (1.0 + gap)
    assert repr(np.linalg.det(matrices).tolist()) == \
        repr([float(np.linalg.det(m)) for m in matrices])
