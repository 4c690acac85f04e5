"""Characteristic strips and the b1 = c surface reconstruction."""

import math

import numpy as np
import pytest

from surf4 import characteristics as ch
from surf4.characteristics import (
    BranchError,
    CharacteristicPointError,
    PdeProblem,
    _initial_q_values,
    _integrate_batch,
    characteristic_field,
    example2_problem,
    f_partials,
    reconstruct_surface,
    verify_reconstruction,
)

PROBLEM = example2_problem()


def strip(x, y, z, p, q):
    """A (5, 1) launch state: one strip."""
    return np.array([[x], [y], [z], [p], [q]])


def f_along(problem, traj):
    """|F| at every state of a (steps+1, 5, 1) trajectory."""
    x, y, _, p, q = traj[:, :, 0].T
    return np.abs(f_partials(problem, x, y, p, q)[0])


class TestCompatibility:
    def test_anchor_value(self):
        assert _initial_q_values(PROBLEM, [0.0])[0] == pytest.approx(
            -1.0, abs=1e-14)

    def test_other_branch_rejected(self):
        with pytest.raises(BranchError):
            _initial_q_values(PROBLEM, [0.0], seed=1.0)

    def test_back_substitution(self):
        for x in (0.1, -0.25, 0.4):
            h = float(_initial_q_values(PROBLEM, [x])[0])
            residual = float(f_partials(PROBLEM, x, 0.0,
                                        PROBLEM.initial_p(x), h)[0])
            assert abs(residual) < 1e-12

    def test_continuity(self):
        values = [_initial_q_values(PROBLEM, [x])[0]
                  for x in np.linspace(-0.4, 0.4, 17)]
        assert max(abs(a - b) for a, b in zip(values, values[1:])) < 0.3


class TestField:
    def test_paper_start_point(self):
        field = characteristic_field(PROBLEM,
                                     np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
        np.testing.assert_allclose(field, [0.0, 0.5, -0.5, 1.0, 0.0],
                                   atol=1e-12)

    def test_chart_ratios_at_origin(self):
        field = characteristic_field(PROBLEM,
                                     np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
        assert field[3] / field[1] == pytest.approx(2.0, abs=1e-12)  # phi_xy
        assert field[4] / field[1] == pytest.approx(0.0, abs=1e-12)  # phi_yy


class TestStripIntegrate:
    def test_f_conserved(self):
        traj = _integrate_batch(PROBLEM, strip(0.0, 0.0, 0.0, 0.0, -1.0),
                                1e-3, 400)
        assert traj.shape == (401, 5, 1)
        assert f_along(PROBLEM, traj[::20]).max() < 1e-8

    def test_fourth_order_convergence(self):
        start = strip(0.2, 0.0, -0.02, -0.2,
                      _initial_q_values(PROBLEM, [0.2])[0])

        def drift(dt, steps):
            traj = _integrate_batch(PROBLEM, start, dt, steps,
                                    max_f_drift=None)
            return f_along(PROBLEM, traj).max()

        coarse = drift(0.08, 5)
        fine = drift(0.04, 10)
        assert coarse > 1e-13  # above roundoff, so the ratio is meaningful
        assert 8.0 < coarse / fine < 32.0  # about 16x per halving

    def test_characteristic_point_abort(self):
        # F = q^2/2 + y: qdot = -1 drives F_q = q through zero at t = q0
        problem = PdeProblem(
            f=lambda x, y, p, q: 0.5 * q * q + y,
            c=0.0,
            initial_curve=lambda x: 0.0,
            initial_p=lambda x: 0.0,
            initial_q_seed=1.0,
        )
        with pytest.raises(CharacteristicPointError):
            _integrate_batch(problem, strip(0.0, -0.5, 0.0, 0.0, 1.0), 1e-2,
                             200, max_f_drift=None)

    @pytest.mark.parametrize("f, error", [
        (lambda x, y, p, q: q + math.nan, ch.IntegrationError),  # F is NaN
        (lambda x, y, p, q: q * math.nan, CharacteristicPointError),  # F_q
    ], ids=["nan-f", "nan-fq"])
    def test_nan_aborts(self, f, error):
        problem = PdeProblem(f=f, c=0.0, initial_curve=lambda x: 0.0,
                             initial_p=lambda x: 0.0)
        with pytest.raises(error):
            _integrate_batch(problem, strip(0.0, 0.0, 0.0, 0.0, 1.0), 1e-2, 3)


@pytest.fixture(scope="module")
def samples():
    return reconstruct_surface(PROBLEM)


class TestReconstruction:
    def test_initial_data(self, samples):
        on_axis = np.abs(samples.y) < 1e-15
        assert np.count_nonzero(on_axis) >= 41
        np.testing.assert_allclose(samples.phi[on_axis],
                                   -0.5 * samples.x[on_axis] ** 2,
                                   atol=1e-14)
        np.testing.assert_allclose(samples.phi_x[on_axis],
                                   -samples.x[on_axis], atol=1e-14)

    def test_f_conserved_on_all_samples(self, samples):
        assert samples.f_drift < 1e-8

    def test_verification_report(self, samples):
        report = verify_reconstruction(samples)
        for name, value, threshold, passed in report.checks:
            assert passed, (name, value, threshold)
        assert report.passed

    def test_origin_values(self, samples):
        report = verify_reconstruction(samples)
        assert report.phi_xx_origin == pytest.approx(-1.0, abs=1e-3)
        assert report.phi_xy_origin == pytest.approx(2.0, abs=1e-3)
        assert report.phi_yy_origin == pytest.approx(0.0, abs=1e-3)
        np.testing.assert_allclose(
            report.gamma1_origin,
            [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-6)

    def test_b1_constraint_expanded_formula(self, samples):
        # canonical b1 of the tangent plane equals the F-constraint
        # expression (1 - (y p - x q)) / sqrt(W) at every sample
        x, y = samples.x, samples.y
        p, q = samples.phi_x, samples.phi_y
        jac = p * y - q * x
        w = np.sqrt(1 + p * p + q * q + x * x + y * y + jac * jac)
        b_vecs = ch.sample_klein_vectors(samples)[1]
        np.testing.assert_allclose(b_vecs[:, 0], (1.0 - jac) / w, atol=1e-14)

    def test_circle_residuals_above_floor(self, samples):
        report = verify_reconstruction(samples)
        assert report.gamma1_fit_residual > 0.01
        assert report.gamma2_fit_residual > 0.01


def test_reconstruction_propagates_characteristic_x0():
    # F = q^2/2 + y - 0.045 with q0 = 0.3: strips hit F_q = q = 0 at
    # t = 0.3, inside the strip range
    problem = PdeProblem(
        f=lambda x, y, p, q: 0.5 * q * q + y - 0.045,
        c=0.0,
        initial_curve=lambda x: 0.0,
        initial_p=lambda x: 0.0,
        initial_q_seed=0.3,
    )
    with pytest.raises(CharacteristicPointError) as err:
        reconstruct_surface(problem, n_curves=5, dt=1e-2)
    assert err.value.x0 is not None  # the offending launch point rides along
