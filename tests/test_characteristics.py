"""Characteristic strips and the b1 = c surface reconstruction."""

import dataclasses
import math
import re

import numpy as np
import pytest

from surf4 import characteristics as ch
from surf4.characteristics import (
    BranchError,
    CharacteristicPointError,
    PdeProblem,
    _initial_q_values,
    _integrate_batch,
    _launch_states,
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
        # Newton from the declared seed 0.1 converges to the root q = 1,
        # not to a root on the branch through 0.1
        problem = PdeProblem(f=lambda x, y, p, q: q * q - 1.0, c=0.0,
                             initial_curve=lambda x: 0.0,
                             initial_p=lambda x: 0.0, initial_q_seed=0.1)
        with pytest.raises(BranchError):
            _initial_q_values(problem, [0.0])

    def test_back_substitution(self):
        for x in (0.1, -0.25, 0.4):
            h = float(_initial_q_values(PROBLEM, [x])[0])
            residual = float(f_partials(PROBLEM, x, 0.0,
                                        PROBLEM.initial_p(x), h)[0])
            assert abs(residual) < 1e-12

    # F = q - slope*x: each 0.01 continuation step moves the root by
    # slope/100, past the 0.5 jump bound at 60 and inside it at 49
    @pytest.mark.parametrize("slope, jumps", [(60.0, True), (49.0, False)])
    def test_branch_jump_bound(self, slope, jumps):
        problem = PdeProblem(f=lambda x, y, p, q: q - slope * x, c=0.0,
                             initial_curve=lambda x: 0.0,
                             initial_p=lambda x: 0.0, initial_q_seed=0.0)
        if jumps:
            with pytest.raises(BranchError, match=re.escape(
                    "compatibility branch jumped near x = 0.01")):
                _initial_q_values(problem, [0.1])
        else:
            assert _initial_q_values(problem, [0.1])[0] == pytest.approx(
                4.9, abs=1e-12)

    def test_newton_stops_where_f_q_vanishes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ch, "f_partials", lambda *args: calls.append(
            args) or f_partials(*args))
        problem = PdeProblem(f=lambda x, y, p, q: 1.0 + 0.0 * q, c=0.0,
                             initial_curve=lambda x: 0.0,
                             initial_p=lambda x: 0.0, initial_q_seed=0.0)
        with pytest.raises(ch.IntegrationError, match=re.escape(
                "equation at x = 0.0 (residual 1.0)")):
            ch._newton_q(problem, 0.0, 0.0)
        assert len(calls) == 1

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


    def test_batch_equals_each_column_with_plain_functions(self):
        # the plain arguments of each evaluation (y and q, then x and p)
        # reach sin, cos, exp and sqrt as arrays
        problem = PdeProblem(
            f=lambda x, y, p, q: (q - ch.jets.sin(x) + ch.jets.cos(y)
                                  + ch.jets.exp(p) * ch.jets.sqrt(2.0 + q)),
            c=0.0, initial_curve=lambda x: 0.0, initial_p=lambda x: 0.0,
            initial_q_seed=0.0)
        x, y, p, q = np.array([[0.3, -0.7], [0.1, 0.45], [-0.2, 0.9],
                               [0.5, -1.3]])
        batch = f_partials(problem, x, y, p, q)
        alone = [f_partials(problem, *map(float, column))
                 for column in zip(x, y, p, q)]
        assert [repr(part.tolist()) for part in batch] == [
            repr([float(result[k]) for result in alone]) for k in range(5)]


class TestStripIntegrate:
    def test_f_conserved(self):
        traj = _integrate_batch(PROBLEM, strip(0.0, 0.0, 0.0, 0.0, -1.0),
                                1e-3, 400, [0.0])
        assert traj.shape == (801, 5, 1)
        assert f_along(PROBLEM, traj[::20]).max() < 1e-8

    def test_fourth_order_convergence(self):
        start = strip(0.2, 0.0, -0.02, -0.2,
                      _initial_q_values(PROBLEM, [0.2])[0])

        # steps fine enough that the drift stays within MAX_F_DRIFT,
        # which the integrator checks at every step
        def drift(dt, steps):
            traj = _integrate_batch(PROBLEM, start, dt, steps, [0.2])
            return f_along(PROBLEM, traj[:steps + 1]).max()

        coarse = drift(0.04, 10)
        fine = drift(0.02, 20)
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
                             200, [0.0])

    @pytest.mark.parametrize("f, error", [
        (lambda x, y, p, q: q + math.nan, ch.IntegrationError),  # F is NaN
        (lambda x, y, p, q: q * math.nan, CharacteristicPointError),  # F_q
    ], ids=["nan-f", "nan-fq"])
    def test_nan_aborts(self, f, error):
        problem = PdeProblem(f=f, c=0.0, initial_curve=lambda x: 0.0,
                             initial_p=lambda x: 0.0, initial_q_seed=-1.0)
        with pytest.raises(error):
            _integrate_batch(problem, strip(0.0, 0.0, 0.0, 0.0, 1.0), 1e-2, 3,
                             [0.0])


# F = s*(q - 0.5) has |F_q| = s at every launch point, against the floor
# FQ_MIN = 1e-6
@pytest.mark.parametrize("s, characteristic", [(9e-7, True),
                                               (1.1e-6, False)])
def test_launch_fq_floor(s, characteristic):
    problem = PdeProblem(f=lambda x, y, p, q: s * (q - 0.5), c=0.0,
                         initial_curve=lambda x: 0.0,
                         initial_p=lambda x: 0.0, initial_q_seed=0.5)
    x0s = np.array([-0.1, 0.0, 0.1])
    if characteristic:
        with pytest.raises(CharacteristicPointError, match=re.escape(
                "initial point x0 = -0.1 is characteristic")):
            _launch_states(problem, x0s)
    else:
        assert _launch_states(problem, x0s)[4].tolist() == [0.5] * 3


# NaN in F_q or in F at the middle launch point fails the launch checks,
# as NaN fails the step checks; Newton's scalar evaluations are untouched
@pytest.mark.parametrize("slot, error, message", [
    (4, CharacteristicPointError, "initial point x0 = 0.0 is characteristic"),
    (0, ch.IntegrationError, "initial data does not satisfy F = 0"),
], ids=["nan-fq", "nan-f"])
def test_launch_checks_count_nan_as_failing(monkeypatch, slot, error,
                                            message):
    def nan_at_middle(problem, x, y, p, q):
        parts = list(f_partials(problem, x, y, p, q))
        if np.ndim(x):
            parts[slot] = np.where(np.arange(len(x)) == 1, np.nan,
                                   parts[slot])
        return tuple(parts)

    monkeypatch.setattr(ch, "f_partials", nan_at_middle)
    problem = PdeProblem(f=lambda x, y, p, q: q - 0.5, c=0.0,
                         initial_curve=lambda x: 0.0,
                         initial_p=lambda x: 0.0, initial_q_seed=0.5)
    with pytest.raises(error, match=re.escape(message)):
        _launch_states(problem, np.array([-0.1, 0.0, 0.1]))


@pytest.fixture(scope="module")
def samples():
    return reconstruct_surface(PROBLEM)


def nearest(samples, n):
    """The ``n`` samples nearest the origin."""
    keep = np.argsort(samples.x ** 2 + samples.y ** 2)[:n]
    return dataclasses.replace(samples, **{
        field.name: getattr(samples, field.name)[keep]
        for field in dataclasses.fields(samples)
        if isinstance(getattr(samples, field.name), np.ndarray)})


@pytest.mark.parametrize("n", [99, 100])
def test_verification_needs_100_samples(samples, n):
    if n < 100:
        with pytest.raises(ch.SamplingError,
                           match="need at least 100 samples"):
            verify_reconstruction(nearest(samples, n))
    else:
        assert verify_reconstruction(nearest(samples, n))["nSamples"] == n


# the origin sample may lie at most 1e-8 from the origin
@pytest.mark.parametrize("shift, found", [(0.9e-8, True), (1.1e-8, False)])
def test_verification_needs_a_sample_at_the_origin(samples, shift, found):
    shifted = dataclasses.replace(samples, x=samples.x + shift)
    if found:
        assert verify_reconstruction(shifted)["nSamples"] == len(samples)
    else:
        with pytest.raises(ch.SamplingError, match="no sample at the origin"):
            verify_reconstruction(shifted)


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
        for check in report["checks"]:
            assert check["passed"], (check["name"], check["value"],
                                     check["threshold"])
        assert report["passed"]

    def test_origin_values(self, samples):
        report = verify_reconstruction(samples)
        assert report["phiXXOrigin"] == pytest.approx(-1.0, abs=1e-3)
        assert report["phiXYOrigin"] == pytest.approx(2.0, abs=1e-3)
        assert report["phiYYOrigin"] == pytest.approx(0.0, abs=1e-3)
        np.testing.assert_allclose(
            report["gamma1Origin"],
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
        assert report["gamma1FitResidual"] > 0.01
        assert report["gamma2FitResidual"] > 0.01


def oscillator(theta):
    """F = q^2/2 + 12.5 (y - yc)^2 - E, with every strip a harmonic
    oscillator of amplitude A = 8e-5 in y: F_q = q = 5A cos(5t + theta)
    passes through zero at t = (+-pi/2 - theta) / 5."""
    amplitude, omega = 8e-5, 5.0
    yc = -amplitude * math.sin(theta)
    energy = (omega * amplitude) ** 2 / 2.0
    return PdeProblem(
        f=lambda x, y, p, q: 0.5 * q * q + 12.5 * (y - yc) ** 2 - energy,
        c=0.0,
        initial_curve=lambda x: 0.0,
        initial_p=lambda x: 0.0,
        initial_q_seed=omega * amplitude * math.cos(theta),
    )


# (theta, t): at -0.3 both runs reach F_q = 0 inside the strip range, the
# forward run at 0.374 and the backward run at -0.254 (the forward error
# wins); at -0.6 only the backward run does, at -0.194.  These are the
# errors of the forward-then-backward loop that two_runs keeps.
OSCILLATOR_FAILURES = [(-0.3, 0.374), (-0.6, -0.194)]


@pytest.mark.parametrize("theta, t", OSCILLATOR_FAILURES,
                         ids=["both-runs-fail", "backward-run-fails"])
def test_characteristic_point_of_the_first_failing_run(theta, t):
    with pytest.raises(CharacteristicPointError) as err:
        reconstruct_surface(oscillator(theta), n_curves=5, dt=1e-3)
    assert str(err.value) == (
        "strip from x0 = -0.4 aborted: characteristic point: "
        f"|F_q| < 1e-06 at t = {t}")


# two_runs is the strip integration as it was before both directions shared
# one batch: a forward run, then a backward run, each evaluating F for its
# checks and again as RK4's k1.  The merged batch must match it bit for bit,
# and raise the same error at the same column and time.


def _one_run(problem, states0, dt, steps, max_f_drift, x0_labels):
    out = np.empty((steps + 1,) + states0.shape)
    out[0] = states0
    f0 = f_partials(problem, states0[0], states0[1], states0[3],
                    states0[4])[0]
    state = states0
    for k in range(steps):
        fval, _, _, _, fq = f_partials(problem, state[0], state[1],
                                       state[3], state[4])
        bad = ~(np.abs(fq) >= ch.FQ_MIN)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise CharacteristicPointError(
                f"strip from x0 = {x0_labels[idx]} aborted: characteristic "
                f"point: |F_q| < {ch.FQ_MIN} at t = {k * dt}")
        if max_f_drift is not None:
            drift = float(np.max(np.abs(fval - f0)))
            if not (drift <= max_f_drift):
                raise ch.IntegrationError(
                    f"F drifted by {drift} (> {max_f_drift}) at t = {k * dt}")
        k1 = characteristic_field(problem, state)
        k2 = characteristic_field(problem, state + 0.5 * dt * k1)
        k3 = characteristic_field(problem, state + 0.5 * dt * k2)
        k4 = characteristic_field(problem, state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = state
    return out


def two_runs(problem, states0, dt, steps, max_f_drift, x0_labels):
    chunks = []
    for sign in (1.0, -1.0):
        traj = _one_run(problem, states0, sign * dt, steps, max_f_drift,
                        x0_labels)
        chunks.append(traj[1:] if chunks else traj)
    return np.concatenate(chunks, axis=0)


def outcome(integrate, problem, n_curves, dt, *args):
    """The trajectory's bytes, or the error's type and text;
    ``args`` go to ``integrate`` between the step count and the labels."""
    x0s = np.linspace(-ch.RANGE, ch.RANGE, n_curves)
    all_x0 = np.concatenate([x0s, x0s - ch.DERIVATIVE_OFFSET,
                             x0s + ch.DERIVATIVE_OFFSET])
    states0 = _launch_states(problem, all_x0)
    steps = int(round(ch.RANGE / dt))
    try:
        return integrate(problem, states0, dt, steps, *args,
                         all_x0).tobytes()
    except Exception as err:
        return type(err), str(err)


def walled(a, b):
    """F = q^2/2 + y - 0.045 + 0 * sqrt(a + b*y): F_q = q = 0.3 - t
    reaches zero in the forward run at t = 0.3, and y = 0.3t - t^2/2; F
    itself raises where a stage reaches a + b*y <= 0."""
    return PdeProblem(
        f=lambda x, y, p, q: (0.5 * q * q + y - 0.045
                              + 0.0 * ch.jets.sqrt(a + b * y)),
        c=0.0,
        initial_curve=lambda x: 0.0,
        initial_p=lambda x: 0.0,
        initial_q_seed=0.3,
    )


@pytest.mark.parametrize("problem, n_curves, dt, max_f_drift", [
    (PROBLEM, 41, 1e-3, ch.MAX_F_DRIFT),
    (PROBLEM, 41, 0.05, ch.MAX_F_DRIFT),
    (PROBLEM, 41, 0.1, ch.MAX_F_DRIFT),
    *[(oscillator(theta), 5, 1e-3, ch.MAX_F_DRIFT)
      for theta, _ in OSCILLATOR_FAILURES],
    # F raises in the backward run near t = -0.18, before the forward run
    # fails at t = 0.3; then in the forward run near t = 0.08
    (walled(0.07, 1.0), 3, 1e-3, ch.MAX_F_DRIFT),
    (walled(0.02, -1.0), 3, 1e-3, ch.MAX_F_DRIFT),
], ids=["example2", "example2-dt0.05", "example2-dt0.1",
        "oscillator-both-runs-fail", "oscillator-backward-run-fails",
        "f-raises-backward", "f-raises-forward"])
def test_merged_batch_matches_two_runs(problem, n_curves, dt, max_f_drift):
    expected = outcome(two_runs, problem, n_curves, dt, max_f_drift)
    assert outcome(_integrate_batch, problem, n_curves, dt) == expected


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
    # the offending launch point rides along in the message
    with pytest.raises(CharacteristicPointError, match=re.escape(
            "strip from x0 = -0.4 aborted: characteristic point: "
            "|F_q| < 1e-06 at t = 0.3")):
        reconstruct_surface(problem, n_curves=5, dt=1e-2)


def test_constant_f_is_characteristic_at_the_first_launch_point():
    # an F that returns a plain number has F_q = 0 at every launch point;
    # f_partials gives it the shape of its arguments, so the launch check
    # names the first of them
    problem = PdeProblem(f=lambda x, y, p, q: 0.0, c=0.5,
                         initial_curve=lambda x: 0.0,
                         initial_p=lambda x: 0.0, initial_q_seed=0.0)
    with pytest.raises(CharacteristicPointError, match=re.escape(
            "initial point x0 = -0.4 is characteristic")):
        reconstruct_surface(problem, n_curves=3, dt=0.1)
