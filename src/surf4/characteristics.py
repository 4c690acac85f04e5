"""Characteristic-strip integration for first-order PDEs F(x, y, p, q) = 0.

The module exists to rebuild, around the origin, the isoclinic surface
whose second Gauss-map sphere component is pinned to the non-great circle
b1 = c, with psi fixed to (x^2 + y^2) / 2.  F is conserved along
characteristic strips, which doubles as the integration accuracy check.

F is any callable of four scalar-like arguments; evaluating it on jets
supplies the partial derivatives that drive the characteristic field, so
no symbolic differentiation is needed.  Batched launches evaluate F once
per stage on array-valued jets: the forward and backward strips form one
batch, and the evaluation that checks |F_q| and the drift of F at a state
is also RK4's first stage from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .expr import _raise_first
from .frames import _worst, monge_curvatures, monge_frame
from .grassmann import C_AXES, great_circle_fit
from .jets import Jet


class CharacteristicPointError(RuntimeError):
    """|F_q| fell below the transversality floor along a strip."""


class IntegrationError(RuntimeError):
    pass


class BranchError(ValueError):
    """Newton converged onto the wrong compatibility branch."""


class SamplingError(ValueError):
    """The strips are too coarse for the samples a step or a check needs,
    or too many to hold."""


FQ_MIN = 1e-6              # transversality floor on |F_q| along strips
MAX_F_DRIFT = 1e-8         # bound on the drift of F along strips
NEWTON_TOL = 1e-12         # |F| at which the compatibility Newton stops
DERIVATIVE_OFFSET = 3e-5   # launch offset of the second-derivative strips
RANGE = 0.4                # x0 and t both span [-RANGE, RANGE]
DEFAULT_C = math.sqrt(0.5)  # b1 = c of the paper's example surface
DEFAULT_N_CURVES = 41      # launch curves of a default reconstruction
DEFAULT_DT = 1e-3          # strip step of a default reconstruction
MAX_FLOATS = np.iinfo(np.intp).max // 8  # most floats one array can hold


@dataclass
class PdeProblem:
    f: callable                 # F(x, y, p, q), scalar-generic
    c: float
    initial_curve: callable     # phi(x, 0)
    initial_p: callable         # phi_x(x, 0)
    initial_q_seed: float       # Newton seed of q at x = 0


def example2_problem(c=DEFAULT_C):
    """The b1 = c surface problem: psi = (x^2 + y^2)/2, phi(x, 0) = -x^2/2."""

    def f(x, y, p, q):
        radicand = (1.0 + p * p + q * q + x * x + y * y
                    + (y * p - x * q) ** 2)
        return 1.0 - y * p + x * q - c * jets.sqrt(radicand)

    return PdeProblem(
        f=f, c=c,
        initial_curve=lambda x: -0.5 * x * x,
        initial_p=lambda x: -x,
        initial_q_seed=-1.0,
    )


def f_partials(problem, x, y, p, q):
    """(F, F_x, F_y, F_p, F_q) from order-1 jets in (x, p) and in (y, q).

    Arguments may be floats or equal-shape arrays, and so are the results,
    even for an F that returns a plain number.
    """
    e1 = problem.f(Jet.variable("x", (x, p), 1), y,
                   Jet.variable("y", (x, p), 1), q)
    e2 = problem.f(x, Jet.variable("x", (y, q), 1),
                   p, Jet.variable("y", (y, q), 1))
    if not isinstance(e1, Jet):  # F independent of x and p
        e1 = Jet.constant(np.broadcast_to(e1, np.shape(x)), 1)
    if not isinstance(e2, Jet):
        e2 = Jet.constant(np.broadcast_to(e2, np.shape(x)), 1)
    return (e1.value, e1.derivative(1, 0), e2.derivative(1, 0),
            e1.derivative(0, 1), e2.derivative(0, 1))


def _field(p, q, fx, fy, fp, fq):
    """(x', y', z', p', q') from the partials of F at a state."""
    return np.array([fp, fq, p * fp + q * fq, -fx, -fy])


def characteristic_field(problem, state):
    """Right-hand side (x', y', z', p', q') on a (5,) or (5, n) state."""
    x, y, z, p, q = state
    return _field(p, q, *f_partials(problem, x, y, p, q)[1:])


def _rk4_step(problem, state, dt, k1):
    """One RK4 step from ``state``, whose field ``k1`` the caller has;
    ``dt`` is a number or holds one step per column."""
    k2 = characteristic_field(problem, state + 0.5 * dt * k1)
    k3 = characteristic_field(problem, state + 0.5 * dt * k2)
    k4 = characteristic_field(problem, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _checked_step(problem, state, dt, f0, t, x0_labels):
    """Check a (5, n) batch at time ``t``, then take one RK4 step from it.

    Raises :class:`CharacteristicPointError`, naming its launch point in
    ``x0_labels``, for the first column with |F_q| < FQ_MIN or NaN, and
    :class:`IntegrationError` when F has drifted more than MAX_F_DRIFT
    from ``f0``.  The check's evaluation of F is the step's ``k1``.
    """
    x, y, _, p, q = state
    fval, fx, fy, fp, fq = f_partials(problem, x, y, p, q)
    _raise_first(x0_labels, [(~(np.abs(fq) >= FQ_MIN), lambda x0: (
        CharacteristicPointError(
            f"strip from x0 = {x0} aborted: characteristic point: "
            f"|F_q| < {FQ_MIN} at t = {t}")))])
    drift = float(np.max(np.abs(fval - f0)))
    if not (drift <= MAX_F_DRIFT):
        raise IntegrationError(
            f"F drifted by {drift} (> {MAX_F_DRIFT}) at t = {t}"
        )
    return _rk4_step(problem, state, dt, _field(p, q, fx, fy, fp, fq))


def _run(problem, state, dt, f0, x0_labels, dest):
    """Checked RK4 steps from a (5, m) batch, each new state into the next
    row of ``dest``; ``dt`` is a number or holds one step per column."""
    for k in range(len(dest)):
        state = _checked_step(problem, state, dt, f0, k * dt, x0_labels)
        dest[k] = state.reshape(dest.shape[1:])


# what a step raises for a failing column: its checks, and F's arithmetic
_STEP_ERRORS = (CharacteristicPointError, IntegrationError, ArithmeticError,
                ValueError)


def _integrate_batch(problem, states0, dt, steps, x0_labels):
    """Classical RK4 from a (5, n) batch to t = steps*dt and t = -steps*dt,
    with ``x0_labels`` naming the launch point of each column.

    Returns the (2*steps + 1, 5, n) trajectory at t = 0, dt, ...,
    steps*dt, then -dt, ..., -steps*dt.  Both directions advance as one
    (5, 2n) batch.  Each column's arithmetic is elementwise, so the states
    are those of a forward run followed by a backward run; when the batch
    fails, those two runs are taken one after the other, and the error
    raised is the first of theirs.  The checks are those of
    :func:`_checked_step`.
    """
    states0 = np.asarray(states0, dtype=float)
    n = states0.shape[1]
    out = np.empty((2 * steps + 1,) + states0.shape)
    out[0] = states0
    f0 = f_partials(problem, states0[0], states0[1], states0[3],
                    states0[4])[0]
    try:
        # step k writes its (5, 2n) state into out[1 + k] and
        # out[1 + steps + k] through one (5, 2, n) view
        _run(problem, np.concatenate([states0, states0], axis=1),
             np.repeat([dt, -dt], n), np.concatenate([f0, f0]),
             np.concatenate([x0_labels, x0_labels]),
             out[1:].reshape(2, steps, 5, n).transpose(1, 2, 0, 3))
    except _STEP_ERRORS:
        _run(problem, states0, dt, f0, x0_labels, out[1:steps + 1])
        _run(problem, states0, -dt, f0, x0_labels, out[steps + 1:])
        raise
    return out


def _newton_q(problem, x, q0):
    p0 = float(problem.initial_p(x))
    q = float(q0)
    for step in range(61):
        fval, _, _, _, fq = f_partials(problem, x, 0.0, p0, q)
        fval = float(fval)
        if abs(fval) < NEWTON_TOL:
            return q
        if fq == 0.0 or step == 60:
            break
        q = q - fval / float(fq)
    raise IntegrationError(
        f"Newton failed to solve the compatibility equation at x = {x} "
        f"(residual {fval})"
    )


@dataclass
class SampleSet:
    """Scattered reconstruction samples with exact first derivatives.

    The second derivatives of phi are propagated along the flow from
    derivative-offset companion strips (accurate to the offset
    differencing, around 1e-7).
    """

    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    phi_xx: np.ndarray
    phi_xy: np.ndarray
    phi_yy: np.ndarray
    c: float
    f_drift: float
    phi_xy_spread: float  # disagreement of the two phi_xy routes

    def __len__(self):
        return len(self.x)


def _initial_q_values(problem, x0s):
    """h(x0) with F(x0, 0, phi_x(x0, 0), h) = 0 for every x0, continued
    from a Newton anchor at x = 0 in one sweep per side.

    Newton at x = 0 starts from the problem's declared seed; converging
    onto a root more than 0.5 away from it raises :class:`BranchError`, as
    does a discontinuous jump during continuation.  For the b1 = c problem
    at c = 1/sqrt(2) the continuation is good to |x| about 0.5; beyond the
    validity radius Newton divergence raises :class:`IntegrationError`.
    """
    x0s = np.asarray(x0s, dtype=float)
    anchor = _newton_q(problem, 0.0, problem.initial_q_seed)
    if abs(anchor - problem.initial_q_seed) > 0.5:
        raise BranchError(
            f"compatibility root {anchor} at x = 0 is not on the declared "
            f"branch through {problem.initial_q_seed}"
        )
    out = np.empty_like(x0s)
    for side in (x0s >= 0.0, x0s < 0.0):
        idx = np.flatnonzero(side)
        idx = idx[np.argsort(np.abs(x0s[idx]))]
        h = anchor
        reached = 0.0
        for i in idx:
            target = float(x0s[i])
            n = max(1, math.ceil(abs(target - reached) / 0.01))
            for xi in np.linspace(reached, target, n + 1)[1:]:
                h_next = _newton_q(problem, float(xi), h)
                if abs(h_next - h) > 0.5:
                    raise BranchError(
                        f"compatibility branch jumped near x = {xi}")
                h = h_next
            reached = target
            out[i] = h
    return out


def _launch_states(problem, x0s):
    h_values = _initial_q_values(problem, x0s)
    z0 = np.array([float(problem.initial_curve(x)) for x in x0s])
    p0 = np.array([float(problem.initial_p(x)) for x in x0s])
    states0 = np.stack([x0s, np.zeros(len(x0s)), z0, p0, h_values])
    fval, _, _, _, fq = f_partials(problem, states0[0], states0[1],
                                   states0[3], states0[4])
    # NaN counts as failing, as in the step checks
    _raise_first(x0s.tolist(), [(~(np.abs(fq) >= FQ_MIN), lambda x0: (
        CharacteristicPointError(
            f"initial point x0 = {x0} is characteristic")))])
    if not (np.max(np.abs(fval)) <= 1e-10):
        raise IntegrationError("initial data does not satisfy F = 0")
    return states0


def reconstruct_surface(problem, n_curves=DEFAULT_N_CURVES,
                        dt=DEFAULT_DT):
    """Launch strips from the initial curve and collect scattered samples.

    ``n_curves`` strips start at (x0, 0, phi(x0, 0), phi_x(x0, 0), h(x0))
    for x0 evenly spaced over [-RANGE, RANGE], with h from the
    compatibility solve, and run to t = -RANGE and t = RANGE.  A ``dt``
    that fits no step into RANGE raises :class:`SamplingError`.  Every
    sample carries the exact (phi_x, phi_y) = (p, q) of its strip.

    Companion strips launched at x0 -+ DERIVATIVE_OFFSET ride along in the
    same batch; cross-strip differences against the along-strip field then
    give second derivatives of phi at every sample by inverting the
    (launch, time) chart Jacobian.
    """
    # the trajectory holds (2 steps + 1) x 5 x 3 n_curves floats
    if not (2 * RANGE / dt + 1) * 15 * n_curves <= MAX_FLOATS:
        raise SamplingError(f"dt = {dt} with {n_curves} curves needs more "
                            "trajectory samples than an array can hold")
    steps = int(round(RANGE / dt))
    if steps == 0:
        raise SamplingError(
            f"dt = {dt} takes no step within the strip range +-{RANGE}")
    x0s = np.linspace(-RANGE, RANGE, n_curves)
    all_x0 = np.concatenate([x0s, x0s - DERIVATIVE_OFFSET,
                             x0s + DERIVATIVE_OFFSET])
    states = _integrate_batch(problem, _launch_states(problem, all_x0), dt,
                              steps, all_x0)

    main = states[:, :, :n_curves]
    xs, ys, zs, ps, qs = (main[:, k, :].ravel() for k in range(5))
    fval, fx, fy, fp, fq = f_partials(problem, xs, ys, ps, qs)
    drift = float(np.max(np.abs(fval)))
    minus = states[:, :, n_curves:2 * n_curves]
    plus = states[:, :, 2 * n_curves:]
    v = (plus - minus) / (2.0 * DERIVATIVE_OFFSET)
    xdot, ydot = np.asarray(fp), np.asarray(fq)
    pdot, qdot = -np.asarray(fx), -np.asarray(fy)
    vx, vy = v[:, 0, :].ravel(), v[:, 1, :].ravel()
    vp, vq = v[:, 3, :].ravel(), v[:, 4, :].ravel()
    det = vx * ydot - xdot * vy
    phi_xx = (vp * ydot - pdot * vy) / det
    phi_xy_p = (pdot * vx - vp * xdot) / det
    phi_xy_q = (vq * ydot - qdot * vy) / det
    phi_yy = (qdot * vx - vq * xdot) / det
    return SampleSet(x=xs, y=ys, phi=zs, phi_x=ps, phi_y=qs, phi_xx=phi_xx,
                     phi_xy=0.5 * (phi_xy_p + phi_xy_q), phi_yy=phi_yy,
                     c=problem.c, f_drift=drift,
                     phi_xy_spread=float(np.max(np.abs(phi_xy_p - phi_xy_q))))


# -- verification ---------------------------------------------------------

# thresholds of the reconstruction checks
B1_TOL = 1e-6              # |b1 - c| at every sample
GAMMA1_ORIGIN_TOL = 1e-6   # Gamma1 at the origin
FD_TOL = 1e-3              # fitted second derivatives at the origin
CURVATURE_TOL = 1e-4       # |K - kappa| on the sampled interior
CIRCLE_FLOOR = 0.01        # both circle-fit residuals stay above it
# the origin fit: smallest radius, fewest samples, and polynomial degree
# (quadratic fits at this radius carry cubic-term bias above FD_TOL)
FIT_RADIUS = 0.05
FIT_MIN_SAMPLES = 8
FIT_DEGREE = 3
N_CURVATURE_POINTS = 200   # interior samples of the K - kappa check


def sample_klein_vectors(samples):
    """Canonical (a, b) sphere vectors of the tangent planes, vectorized."""
    x, y, p, q = samples.x, samples.y, samples.phi_x, samples.phi_y
    # psi = (x^2 + y^2)/2, so psi_x = x and psi_y = y
    jac = p * y - q * x
    w = np.sqrt(1.0 + p * p + q * q + x * x + y * y + jac * jac)
    a = np.stack([(1.0 + jac), (q + x), (y - p)], axis=1) / w[:, None]
    b = np.stack([(1.0 - jac), (q - x), (y + p)], axis=1) / w[:, None]
    return a, b


def _fit_second_derivatives(samples, at, radius):
    """Least-squares local polynomial fit of (p, q) around ``at``.

    Returns (phi_xx, phi_xy, phi_yy) estimates from the linear terms of
    the fits (phi_xy is averaged between the two fields).
    """
    dx = samples.x - at[0]
    dy = samples.y - at[1]
    mask = dx * dx + dy * dy <= radius * radius
    n = int(np.count_nonzero(mask))
    if n < FIT_MIN_SAMPLES:
        raise SamplingError(
            f"only {n} samples within radius {radius} of {at}; "
            f"need {FIT_MIN_SAMPLES}"
        )
    dx, dy = dx[mask], dy[mask]
    # monomials by total degree: 1, dx and dy are columns 0, 1 and 2
    a_mat = np.column_stack([dx ** (total - j) * dy ** j
                             for total in range(FIT_DEGREE + 1)
                             for j in range(total + 1)])
    coef_p, *_ = np.linalg.lstsq(a_mat, samples.phi_x[mask], rcond=None)
    coef_q, *_ = np.linalg.lstsq(a_mat, samples.phi_y[mask], rcond=None)
    phi_xy = 0.5 * (coef_p[2] + coef_q[1])
    return float(coef_p[1]), float(phi_xy), float(coef_q[2])


def _curvatures_from_values(x, y, p, q, pxx, pxy, pyy):
    """K and kappa from raw derivative data (psi = (x^2 + y^2)/2), each
    argument an array over the points."""
    zero, one = np.zeros_like(x), np.ones_like(x)
    # slots in jet order: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)
    phi = Jet(2, np.array([zero, p, q, pxx, pxy, pyy]))
    psi = Jet(2, np.array([zero, x, y, one, zero, one]))
    return monge_curvatures(monge_frame(phi, psi, np.column_stack([x, y])))


def verify_reconstruction(samples):
    """Check every stated property of the reconstructed surface.

    The origin second derivatives come from a local polynomial fit of
    degree FIT_DEGREE over nearby samples.  The curvature check uses the
    flow-propagated second derivatives of the sample set.  A sample set
    too sparse for a check raises :class:`SamplingError`.  Returns the
    report as the ``reconstruct`` command prints it, keys in printed
    order.
    """
    if len(samples) < 100:
        raise SamplingError("need at least 100 samples to verify")
    a_vecs, b_vecs = sample_klein_vectors(samples)
    b1_dev = float(np.max(np.abs(b_vecs[:, 0] - samples.c)))

    stride = max(1, len(samples) // 4000)
    fit_a = great_circle_fit(a_vecs[::stride])
    fit_b = great_circle_fit(b_vecs[::stride])

    origin_idx = int(np.argmin(samples.x**2 + samples.y**2))
    if samples.x[origin_idx]**2 + samples.y[origin_idx]**2 > 1e-16:
        raise SamplingError("no sample at the origin")
    gamma1_origin = a_vecs[origin_idx][C_AXES]

    # a useful fit needs several strips inside the disc; widen the radius
    # when the launch spacing is coarse
    fit_radius = FIT_RADIUS
    axis_x = np.unique(samples.x[np.abs(samples.y) < 1e-15])
    if len(axis_x) > 1:
        spacing = float(np.median(np.diff(axis_x)))
        fit_radius = max(fit_radius, 2.6 * spacing)
    pxx, pxy, pyy = _fit_second_derivatives(samples, (0.0, 0.0), fit_radius)

    rng = np.random.default_rng(20240817)
    interior = np.flatnonzero(
        (np.abs(samples.x) <= 0.15) & (np.abs(samples.y) <= 0.15))
    picks = rng.choice(interior, size=min(N_CURVATURE_POINTS, len(interior)),
                       replace=False)
    K, kappa = _curvatures_from_values(
        samples.x[picks], samples.y[picks], samples.phi_x[picks],
        samples.phi_y[picks], samples.phi_xx[picks], samples.phi_xy[picks],
        samples.phi_yy[picks])
    with np.errstate(all="ignore"):
        worst_kk = _worst(np.abs(K - kappa))

    expected_gamma1 = np.array([math.sqrt(0.5), 0.0, -math.sqrt(0.5)])

    def below(name, value, threshold):
        return {"name": name, "value": value, "threshold": threshold,
                "passed": value < threshold}

    checks = [
        below("F conserved along strips", samples.f_drift, MAX_F_DRIFT),
        below("b1 equals c at every sample", b1_dev, B1_TOL),
        {"name": "Gamma1 circle residual above floor",
         "value": fit_a.residual, "threshold": CIRCLE_FLOOR,
         "passed": fit_a.residual > CIRCLE_FLOOR},
        {"name": "Gamma2 circle residual above floor",
         "value": fit_b.residual, "threshold": CIRCLE_FLOOR,
         "passed": fit_b.residual > CIRCLE_FLOOR},
        below("Gamma1 at origin",
              float(np.max(np.abs(gamma1_origin - expected_gamma1))),
              GAMMA1_ORIGIN_TOL),
        below("phi_xx(0,0) = -1", abs(pxx + 1.0), FD_TOL),
        below("phi_xy(0,0) = 2", abs(pxy - 2.0), FD_TOL),
        below("phi_yy(0,0) = 0", abs(pyy), FD_TOL),
        below("K - kappa on estimable samples", worst_kk, CURVATURE_TOL),
        below("phi_xy agreement of the two chart routes",
              samples.phi_xy_spread, 1e-4),
    ]
    return {
        "c": samples.c,
        "nSamples": len(samples),
        "fDrift": samples.f_drift,
        "b1MaxDeviation": b1_dev,
        "gamma1FitResidual": fit_a.residual,
        "gamma2FitResidual": fit_b.residual,
        "gamma1Origin": gamma1_origin,
        "phiXXOrigin": pxx,
        "phiXYOrigin": pxy,
        "phiYYOrigin": pyy,
        "kMinusKappaMax": worst_kk,
        "checks": checks,
        "passed": all(check["passed"] for check in checks),
    }
