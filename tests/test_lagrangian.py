"""Symplectic residuals and the congruence pipeline."""

import numpy as np
import pytest

from surf4.expr import eval_points, eval_surface, parse_surface
from surf4.grassmann import gauss_map_at
from surf4.lagrangian import (
    DEFAULT_GRID,
    OMEGA1_FORM,
    OMEGA2_FORM,
    STANDARD_FORM,
    congruence_grid,
    congruence_to_lagrangean,
    grid_points,
    symplectic_residual,
)
from surf4.suites import EXAMPLE1_TEXT, random_gradient_surface
from test_frames import first_point

EX1 = parse_surface(EXAMPLE1_TEXT)
Z2 = parse_surface("phi = x^2 - y^2\npsi = 2*x*y")
GRADIENT = parse_surface("phi = 2*x*y\npsi = x^2")  # gradient of F = x^2 y


def gauss_at(sd, point):
    return first_point(gauss_map_at(*eval_points(sd, [point], 1), [point]))


def congruence_of(sd, **options):
    points = grid_points(sd.domain, *DEFAULT_GRID)
    return congruence_to_lagrangean(points, eval_points(sd, points, 1),
                                    **options)


def test_forms_are_antisymmetric_and_nondegenerate():
    for form in (STANDARD_FORM, OMEGA1_FORM, OMEGA2_FORM):
        assert np.array_equal(form, -form.T)
        assert abs(np.linalg.det(form)) == pytest.approx(1.0)


def test_standard_form_on_monge_tangents():
    # omega(T1, T2) = phi_y - psi_x
    t1 = np.array([1.0, 0.0, 0.7, -0.2])
    t2 = np.array([0.0, 1.0, 0.3, 0.9])
    assert t1 @ STANDARD_FORM @ t2 == pytest.approx(0.3 - (-0.2))


def test_gradient_graph_residual_zero():
    assert symplectic_residual(GRADIENT, STANDARD_FORM) == 0.0


def test_z2_lagrangean_for_both_omegas():
    assert symplectic_residual(Z2, OMEGA1_FORM) < 1e-12
    assert symplectic_residual(Z2, OMEGA2_FORM) < 1e-12


def test_example1_residual_values():
    at_origin = symplectic_residual(EX1, STANDARD_FORM, grid=[(0.0, 0.0)])
    assert at_origin == pytest.approx(1.0 / np.sqrt(10.0))
    assert symplectic_residual(EX1, STANDARD_FORM) > 0.3


class TestCongruence:
    def test_example1(self):
        rep = congruence_of(EX1)
        assert rep["circleFactor"] == "gamma2"
        np.testing.assert_allclose(rep["alpha"],
                                   np.array([0, 2, 1]) / np.sqrt(5),
                                   atol=1e-10)
        assert rep["fitResidual"] < 1e-10
        assert rep["symplecticResidual"] < 1e-9
        assert rep["matchedForm"] in ("standard", "orientationReversed")

    def test_example1_paper_rotation_regression(self):
        a, b = 1.0, 2.0
        s = np.sqrt(a * a + b * b)
        block = np.array([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, -b / s, -a / s],
            [0, 0, a / s, -b / s],
        ])
        assert np.max(np.abs(block @ block.T - np.eye(4))) <= 1e-10
        assert np.sign(np.linalg.det(block)) == 1.0
        residual = symplectic_residual(EX1, STANDARD_FORM, rotation=block)
        assert residual < 1e-12
        # the rotated surface is a graph again; its printed components
        # satisfy the standard normal-form identity exactly
        hat = parse_surface(
            "phi = (a*(2*x*y - a*x - b*y) - b*(x^2 - y^2))/s\n"
            "psi = (b*(2*x*y - a*x - b*y) + a*(x^2 - y^2))/s\n"
            "param a = 1\nparam b = 2\nparam s = 2.2360679774997896")
        worst = 0.0
        for pt in grid_points(hat.domain, 12, 12):
            from surf4.expr import eval_surface
            phi, psi = eval_surface(hat, pt, order=1)
            worst = max(worst, abs(float(phi.derivative(0, 1))
                                   - float(psi.derivative(1, 0))))
        assert worst < 1e-12

    def test_already_lagrangean(self):
        rep = congruence_of(GRADIENT)
        assert rep["circleFactor"] != "none"
        assert rep["fitResidual"] < 1e-10
        assert rep["symplecticResidual"] < 1e-10

    def test_z2_uses_constant_gamma1(self):
        rep = congruence_of(Z2)
        assert rep["circleFactor"] == "gamma1"
        assert rep["symplecticResidual"] < 1e-10

    def test_gradient_graph_necessity(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            sd = random_gradient_surface(rng)
            for pt in grid_points(sd.domain, 4, 4):
                _, klein = gauss_at(sd, pt)
                assert abs(klein.b_vec[1]) < 1e-10  # b2 = 0 great circle

    def test_sufficiency_after_rotation(self):
        rng = np.random.default_rng(16)
        sd = random_gradient_surface(rng)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            rep = congruence_of(sd, pre_rotation=q)
            assert rep["matchedForm"] != "none"
            assert rep["symplecticResidual"] < 1e-8

    def test_not_congruent_is_a_report(self):
        # a surface whose both sphere images are 2-dimensional
        sd = parse_surface("phi = x^2 + y^3\npsi = x*y + x^3")
        rep = congruence_of(sd)
        assert rep["circleFactor"] == "none"
        assert rep["matchedForm"] == "none"
        assert rep["rotation"].tolist() == np.eye(4).tolist()
        assert rep["fitResidualGamma1"] > 1e-3
        assert rep["fitResidualGamma2"] > 1e-3

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="3x3"):
            congruence_grid(EX1.domain, (2, 5))
