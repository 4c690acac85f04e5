"""Pluecker/Klein coordinates, the SO(4) lift and circle fitting."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surf4.expr import eval_points, parse_surface
from surf4.grassmann import (
    BETA_TARGET,
    C_SWAP,
    ISOCLINIC_TOL,
    XY_PLANE,
    _cross,
    blaschke_check,
    gauss_map_at,
    graph_plane,
    great_circle_fit,
    isosup_residuals,
    klein_from_plucker,
    lift_so4,
    planes_isoclinic,
    plucker_from_pair,
    rotation_from_alpha,
)
from surf4.suites import EXAMPLE1_TEXT
from test_frames import BATCH_SURFACES, first_point

EX1 = parse_surface(EXAMPLE1_TEXT)
Z2 = parse_surface("phi = x^2 - y^2\npsi = 2*x*y")
E4 = np.eye(4)


def gauss_at(sd, point):
    return first_point(gauss_map_at(*eval_points(sd, [point], 1), [point]))


class TestPlucker:
    def test_coordinate_planes(self):
        np.testing.assert_allclose(plucker_from_pair(E4[0], E4[1]),
                                   [1, 0, 0, 0, 0, 0])
        np.testing.assert_allclose(plucker_from_pair(E4[2], E4[3]),
                                   [0, 0, 0, 1, 0, 0])

    def test_example1_tangent_plane(self):
        point = plucker_from_pair(np.array([1.0, 0, 0, 1]),
                                  np.array([0.0, 1, 0, 2]))
        np.testing.assert_allclose(
            point, np.array([1, 0, 2, 0, 1, 0]) / np.sqrt(6), atol=1e-15)
        # |T1 ^ T2| = sqrt(W) with W = 6 for this plane
        assert np.linalg.norm(np.array([1, 0, 2, 0, 1, 0.0])) == \
            pytest.approx(np.sqrt(6))

    def test_dependent_vectors(self):
        with pytest.raises(ValueError, match="dependent"):
            plucker_from_pair(np.array([1.0, 2, 3, 4]),
                              np.array([2.0, 4, 6, 8]))

    def test_relations_on_random_planes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = plucker_from_pair(rng.normal(size=4), rng.normal(size=4))
            assert abs(float(p @ p) - 1.0) < 1e-12
            assert abs(float(
                p[0] * p[3] + p[1] * p[4] + p[2] * p[5])) < 1e-12


class TestKlein:
    def test_base_plane(self):
        k = klein_from_plucker(np.array([1.0, 0, 0, 0, 0, 0]))
        np.testing.assert_allclose(k.a_vec, [1, 0, 0])
        np.testing.assert_allclose(k.b_vec, [1, 0, 0])

    def test_p34_flips_sign_in_b(self):
        k = klein_from_plucker(np.array([0.0, 0, 0, 1, 0, 0]))
        np.testing.assert_allclose(k.a_vec, [1, 0, 0])
        np.testing.assert_allclose(k.b_vec, [-1, 0, 0])

    def test_example1_plane(self):
        point = plucker_from_pair(np.array([1.0, 0, 0, 1]),
                                  np.array([0.0, 1, 0, 2]))
        k = klein_from_plucker(point)
        np.testing.assert_allclose(k.a_vec, np.array([1, 1, 2]) / np.sqrt(6),
                                   atol=1e-15)
        np.testing.assert_allclose(k.b_vec, np.array([1, -1, 2]) / np.sqrt(6),
                                   atol=1e-15)

    def test_invalid_point_rejected(self):
        # on the sphere but violating the quadric: Klein norms leave 1
        bad = np.array([0.8, 0.0, 0.0, 0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="not unit"):
            klein_from_plucker(bad)

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="not unit"):
            klein_from_plucker(np.full(6, np.nan))


class TestGaussMap:
    def test_z2_constant_first_component(self):
        for pt in [(0.0, 0.0), (0.3, -0.2), (-0.45, 0.1)]:
            _, k = gauss_at(Z2, pt)
            np.testing.assert_allclose(k.a_vec, [1, 0, 0], atol=1e-14)

    def test_z2_second_component_formula(self):
        for pt in [(0.1, 0.2), (-0.3, 0.4)]:
            _, k = gauss_at(Z2, pt)
            x, y = pt
            q = 1 + 4 * (x * x + y * y)
            np.testing.assert_allclose(
                k.b_vec, np.array([1 - 4 * (x * x + y * y), -4 * y, 4 * x]) / q,
                atol=1e-14)

    def test_example1_circle_membership(self):
        alpha = np.array([0.0, 2.0, 1.0]) / np.sqrt(5)
        _, k = gauss_at(EX1, (0.0, 0.0))
        np.testing.assert_allclose(k.b_vec, np.array([1, -1, 2]) / np.sqrt(6),
                                   atol=1e-15)
        for pt in [(0.0, 0.0), (0.5, 0.5), (-0.8, 0.3)]:
            _, k = gauss_at(EX1, pt)
            assert abs(alpha @ k.b_vec) < 1e-14


# 3-vectors of any float64: signed zeros, subnormals, the largest
# finite floats, infinities and NaN
ANY_VECTOR = arrays(np.float64, 3, elements=st.floats(width=64))


@settings(max_examples=500, deadline=None)
@given(ANY_VECTOR, ANY_VECTOR)
def test_cross_is_np_cross_bit_for_bit(u, v):
    with np.errstate(all="ignore"):
        ours, theirs = _cross(u, v), np.cross(u, v)
    assert ours.dtype == theirs.dtype
    assert list(map(repr, ours.tolist())) == list(map(repr, theirs.tolist()))


class TestBlaschke:
    def test_z2_origin(self):
        result = blaschke_check(Z2, [(0.0, 0.0)])[0]
        assert result.t1 == pytest.approx(0.0, abs=1e-10)
        assert abs(result.t2) == pytest.approx(16.0, abs=1e-5)
        assert result.residual1 < 1e-6 and result.residual2 < 1e-5

    def test_flat_plane(self):
        flat = parse_surface("phi = 0\npsi = 0")
        result = blaschke_check(flat, [(0.0, 0.0)])[0]
        assert result.t1 == result.t2 == 0.0
        assert result.residual1 == result.residual2 == 0.0

    def test_example1_b_factor_degenerates(self):
        result = blaschke_check(EX1, [(0.0, 0.0)])[0]
        assert abs(result.t2) < 1e-6  # K = kappa kills the b-factor identity
        assert result.residual1 < 1e-5

    def test_stencil_outside_domain_after_a_good_point(self):
        with pytest.raises(ValueError, match=re.escape(
                "Blaschke stencil point (1.0001, 0.0) leaves the domain")):
            blaschke_check(EX1, [(0.0, 0.0), (1.0, 0.0)])

    @pytest.mark.parametrize("sd", BATCH_SURFACES)
    def test_batch_equals_single_points(self, sd):
        points = [(x, y) for x in (-0.3, 0.0, 0.3) for y in (-0.3, 0.0, 0.3)]
        assert [repr(r) for r in blaschke_check(sd, points)] == [
            repr(blaschke_check(sd, [pt])[0]) for pt in points]


class TestIsoclinicPlanes:
    def test_self(self):
        assert planes_isoclinic(XY_PLANE, XY_PLANE)

    def test_rotation_graph(self):
        plane = plucker_from_pair(np.array([1.0, 0, 0, -1]),
                                  np.array([0.0, 1, 1, 0]))
        assert planes_isoclinic(XY_PLANE, plane)

    def test_tilted_graph_not_isoclinic(self):
        plane = plucker_from_pair(np.array([1.0, 0, 1, 0]),
                                  np.array([0.0, 1, 0, 0]))
        assert not planes_isoclinic(XY_PLANE, plane)

    def test_algebraic_equivalence(self):
        rng = np.random.default_rng(3)
        for k in range(100):
            alpha = rng.normal(size=2)
            if k % 2:
                sign = 1.0 if k % 4 == 1 else -1.0
                beta = np.array([-sign * alpha[1], sign * alpha[0]])
            else:
                beta = rng.normal(size=2)
            algebraic = max(isosup_residuals(alpha, beta)) < ISOCLINIC_TOL
            assert planes_isoclinic(XY_PLANE,
                                    graph_plane(alpha, beta)) == algebraic


class TestLift:
    def test_identity(self):
        np.testing.assert_allclose(lift_so4(np.eye(4)), np.eye(6),
                                   atol=1e-15)

    def test_swap_map(self):
        lift_c = lift_so4(C_SWAP)
        image = lift_c @ np.array([1.0, 2, 3, 4, 5, 6])
        # wedge of the swapped columns: p13 <-> p14, p34 -> -p34 and the
        # last two slots swap with a sign
        np.testing.assert_allclose(image, [1, 3, 2, -4, -6, -5], atol=1e-15)

    def test_equivariance_sampled(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lift_q = lift_so4(q)
        for _ in range(20):
            v1, v2 = rng.normal(size=4), rng.normal(size=4)
            lhs = plucker_from_pair(q @ v1, q @ v2)
            rhs = lift_q @ plucker_from_pair(v1, v2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            qa, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            qb, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            np.testing.assert_allclose(
                lift_so4(qa @ qb), lift_so4(qa) @ lift_so4(qb),
                atol=1e-10)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            lift_so4(np.diag([2.0, 1.0, 1.0, 1.0]))


class TestRotationFromAlpha:
    def test_e2(self):
        rot = rotation_from_alpha(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(rot, np.diag([1.0, 1, 1, -1]),
                                   atol=1e-15)
        image = lift_so4(rot) @ BETA_TARGET
        np.testing.assert_allclose(image, [0, 1, 0, 0, 1, 0], atol=1e-14)

    def test_e1(self):
        rot = rotation_from_alpha(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(rot[1], [0, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(rot[2], [0, -1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(rot[3], [0, 0, 0, -1], atol=1e-15)

    def test_orthogonality_and_postcondition_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            alpha = rng.normal(size=3)
            alpha /= np.linalg.norm(alpha)
            rot = rotation_from_alpha(alpha)
            np.testing.assert_allclose(rot @ rot.T, np.eye(4),
                                       atol=1e-12)
            image = lift_so4(rot) @ BETA_TARGET
            np.testing.assert_allclose(image, np.concatenate([alpha, alpha]),
                                       atol=1e-10)

    def test_cap_directions(self):
        for alpha in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                      [1e-7, -2e-7, 1.0], [3e-8, 1e-8, -1.0]):
            alpha = np.asarray(alpha) / np.linalg.norm(alpha)
            rot = rotation_from_alpha(alpha)
            image = lift_so4(rot) @ BETA_TARGET
            np.testing.assert_allclose(image, np.concatenate([alpha, alpha]),
                                       atol=1e-10)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            rotation_from_alpha(np.array([1.0, 1.0, 0.0]))


class TestGreatCircleFit:
    def test_equator(self):
        theta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        samples = np.stack([np.cos(theta), np.sin(theta), 0 * theta], axis=1)
        fit = great_circle_fit(samples)
        np.testing.assert_allclose(fit.alpha, [0, 0, 1], atol=1e-14)
        assert fit.residual < 1e-12
        assert not fit.degenerate

    def test_example1_grid(self):
        samples = [gauss_at(EX1, (x, y))[1].b_vec
                   for x in np.linspace(-0.9, 0.9, 10)
                   for y in np.linspace(-0.9, 0.9, 10)]
        fit = great_circle_fit(samples)
        np.testing.assert_allclose(fit.alpha, np.array([0, 2, 1]) / np.sqrt(5),
                                   atol=1e-10)
        assert fit.residual < 1e-10

    def test_degenerate_point_set(self):
        fit = great_circle_fit(np.tile([0.0, 1.0, 0.0], (6, 1)))
        assert fit.degenerate
        assert fit.residual == 0.0
        assert abs(fit.alpha @ [0, 1, 0]) < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            great_circle_fit([[1.0, 0, 0], [0, 1.0, 0]])

    def test_sign_convention(self):
        theta = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        samples = np.stack([np.cos(theta), 0 * theta, np.sin(theta)], axis=1)
        fit = great_circle_fit(samples)
        # first nonzero component positive
        np.testing.assert_allclose(fit.alpha, [0, 1, 0], atol=1e-14)


def test_plus_isocline_set_is_c_of_minus():
    rng = np.random.default_rng(10)
    lift_c = lift_so4(C_SWAP)
    for _ in range(50):
        alpha = rng.normal(size=2)
        minus = plucker_from_pair(np.array([1.0, 0, alpha[0], alpha[1]]),
                                  np.array([0.0, 1, alpha[1], -alpha[0]]))
        assert np.allclose(klein_from_plucker(minus).b_vec, [1, 0, 0],
                           atol=1e-12)
        image = klein_from_plucker(lift_c @ minus)
        np.testing.assert_allclose(image.a_vec, [1, 0, 0], atol=1e-10)


def test_klein_characterization_of_base_isocline():
    rng = np.random.default_rng(12)
    base = XY_PLANE
    for k in range(60):
        if k % 3 == 0:
            alpha = rng.normal(size=2)
            beta = np.array([-alpha[1], alpha[0]])
        elif k % 3 == 1:
            alpha = rng.normal(size=2)
            beta = np.array([alpha[1], -alpha[0]])
        else:
            alpha, beta = rng.normal(size=2), rng.normal(size=2)
        plane = graph_plane(alpha, beta)
        klein = klein_from_plucker(plane)
        on_e1 = min(
            np.linalg.norm(klein.a_vec - [1, 0, 0]),
            np.linalg.norm(klein.a_vec + [1, 0, 0]),
            np.linalg.norm(klein.b_vec - [1, 0, 0]),
            np.linalg.norm(klein.b_vec + [1, 0, 0])) < ISOCLINIC_TOL
        assert planes_isoclinic(base, plane) == on_e1
