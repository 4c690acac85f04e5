"""Characteristic-strip integration for first-order PDEs F(x, y, p, q) = 0.

The module exists to rebuild, around the origin, the isoclinic surface
whose second Gauss-map sphere component is pinned to the non-great circle
b1 = c, with psi fixed to (x^2 + y^2) / 2.  F is conserved along
characteristic strips, which doubles as the integration accuracy check.

F is any callable of four scalar-like arguments; evaluating it on jets
supplies the partial derivatives that drive the characteristic field, so
no symbolic differentiation is needed.  Batched launches evaluate F once
per stage on array-valued jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .frames import monge_curvatures, monge_frame
from .grassmann import great_circle_fit
from .jets import Jet


class CharacteristicPointError(RuntimeError):
    """|F_q| fell below the transversality floor along a strip."""

    def __init__(self, message, x0=None, t=None):
        super().__init__(message)
        self.x0 = x0
        self.t = t


class IntegrationError(RuntimeError):
    pass


class BranchError(ValueError):
    """Newton converged onto the wrong compatibility branch."""


@dataclass
class PdeProblem:
    f: callable                 # F(x, y, p, q), scalar-generic
    c: float
    initial_curve: callable     # phi(x, 0)
    initial_p: callable         # phi_x(x, 0)
    initial_q_seed: float = -1.0


def example2_problem(c=1.0 / math.sqrt(2.0)):
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


@dataclass
class CharStrip:
    t: float
    x: float
    y: float
    z: float
    p: float
    q: float

    def state(self):
        return np.array([self.x, self.y, self.z, self.p, self.q])


def f_partials(problem, x, y, p, q):
    """(F, F_x, F_y, F_p, F_q) via two order-1 jet evaluations.

    Arguments may be floats or equal-shape arrays.
    """
    xj = Jet.variable("x", (x, 0.0 * np.asarray(x)), 1)
    pj = Jet.variable("y", (0.0 * np.asarray(p), p), 1)
    e1 = problem.f(xj, y, pj, q)
    yj = Jet.variable("x", (y, 0.0 * np.asarray(y)), 1)
    qj = Jet.variable("y", (0.0 * np.asarray(q), q), 1)
    e2 = problem.f(x, yj, p, qj)
    if not isinstance(e1, Jet):  # F independent of x and p
        e1 = Jet.constant(e1, 1)
    if not isinstance(e2, Jet):
        e2 = Jet.constant(e2, 1)
    return (e1.value, e1.derivative(1, 0), e2.derivative(1, 0),
            e1.derivative(0, 1), e2.derivative(0, 1))


def characteristic_field(problem, state):
    """Right-hand side (x', y', z', p', q') on a (5,) or (5, n) state."""
    x, y, z, p, q = state
    _, fx, fy, fp, fq = f_partials(problem, x, y, p, q)
    return np.stack([fp, fq, p * fp + q * fq, -fx, -fy])


def _rk4_step(problem, state, dt):
    k1 = characteristic_field(problem, state)
    k2 = characteristic_field(problem, state + 0.5 * dt * k1)
    k3 = characteristic_field(problem, state + 0.5 * dt * k2)
    k4 = characteristic_field(problem, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_batch(problem, states0, dt, steps, fq_min=1e-6,
                     max_f_drift=1e-8, x0_labels=None):
    """Classical RK4 on a (5, n) batch; returns (steps+1, 5, n) trajectory.

    Aborts with :class:`CharacteristicPointError` when any column hits
    |F_q| < fq_min, and with :class:`IntegrationError` when F drifts more
    than ``max_f_drift`` from its initial values.
    """
    states0 = np.asarray(states0, dtype=float)
    squeeze = states0.ndim == 1
    if squeeze:
        states0 = states0[:, None]
    out = np.empty((steps + 1,) + states0.shape)
    out[0] = states0
    f0 = f_partials(problem, states0[0], states0[1], states0[3],
                    states0[4])[0]
    state = states0
    for k in range(steps):
        fval, _, _, _, fq = f_partials(problem, state[0], state[1],
                                       state[3], state[4])
        bad = np.abs(fq) < fq_min
        if np.any(bad):
            idx = int(np.argmax(bad))
            x0 = None if x0_labels is None else x0_labels[idx]
            raise CharacteristicPointError(
                f"characteristic point: |F_q| < {fq_min} at t = {k * dt}",
                x0=x0, t=k * dt,
            )
        if max_f_drift is not None:
            drift = float(np.max(np.abs(fval - f0)))
            if drift > max_f_drift:
                raise IntegrationError(
                    f"F drifted by {drift} (> {max_f_drift}) at t = {k * dt}"
                )
        state = _rk4_step(problem, state, dt)
        out[k + 1] = state
    if squeeze:
        return out[:, :, 0]
    return out


def strip_integrate(problem, start, dt, steps, fq_min=1e-6,
                    max_f_drift=1e-8):
    """Integrate a single characteristic strip, returning all states."""
    traj = _integrate_batch(problem, start.state(), dt, steps,
                            fq_min=fq_min, max_f_drift=max_f_drift)
    return [CharStrip(start.t + k * dt, *traj[k]) for k in range(len(traj))]


def compatibility_solve(problem, x, seed=None, tol=1e-12):
    """h(x) with F(x, 0, phi_x(x, 0), h) = 0, continued from x = 0.

    Newton at x = 0 starts from ``seed`` (default: the problem's declared
    seed); converging onto a different branch than the declared one raises
    :class:`BranchError`, as does a discontinuous jump during
    continuation.  For the b1 = c problem at c = 1/sqrt(2) the
    continuation is good to |x| about 0.5; beyond the validity radius
    Newton divergence raises :class:`IntegrationError`.
    """
    return float(_initial_q_values(problem, [x], seed=seed, tol=tol)[0])


def _newton_q(problem, x, q0, tol):
    p0 = float(problem.initial_p(x))
    q = float(q0)
    for _ in range(60):
        fval, _, _, _, fq = f_partials(problem, x, 0.0, p0, q)
        fval = float(fval)
        if abs(fval) < tol:
            return q
        if fq == 0.0:
            break
        q = q - fval / float(fq)
    fval = float(f_partials(problem, x, 0.0, p0, q)[0])
    if abs(fval) < tol:
        return q
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

    def columns(self):
        return np.column_stack([self.x, self.y, self.phi,
                                self.phi_x, self.phi_y])


def _initial_q_values(problem, x0s, seed=None, tol=1e-12):
    """Compatibility roots for many x0 by one continuation sweep from a
    Newton anchor at x = 0 started at ``seed`` (default: the problem's)."""
    x0s = np.asarray(x0s, dtype=float)
    anchor = _newton_q(problem, 0.0, problem.initial_q_seed if seed is None
                       else seed, tol)
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
                h_next = _newton_q(problem, float(xi), h, tol)
                if abs(h_next - h) > 0.5:
                    raise BranchError(
                        f"compatibility branch jumped near x = {xi}")
                h = h_next
            reached = target
            out[i] = h
    return out


def _launch_states(problem, x0s, fq_min):
    h_values = _initial_q_values(problem, x0s)
    z0 = np.array([float(problem.initial_curve(x)) for x in x0s])
    p0 = np.array([float(problem.initial_p(x)) for x in x0s])
    states0 = np.stack([x0s, np.zeros(len(x0s)), z0, p0, h_values])
    fval, _, _, _, fq = f_partials(problem, states0[0], states0[1],
                                   states0[3], states0[4])
    if np.any(np.abs(fq) < fq_min):
        bad = float(x0s[int(np.argmax(np.abs(fq) < fq_min))])
        raise CharacteristicPointError(
            f"initial point x0 = {bad} is characteristic", x0=bad, t=0.0)
    if np.max(np.abs(fval)) > 1e-10:
        raise IntegrationError("initial data does not satisfy F = 0")
    return states0


# launch offset of the companion strips that give second derivatives
DERIVATIVE_OFFSET = 3e-5


def reconstruct_surface(problem, x_range=(-0.4, 0.4), t_range=(-0.4, 0.4),
                        n_curves=41, dt=1e-3, fq_min=1e-6,
                        max_f_drift=1e-8):
    """Launch strips from the initial curve and collect scattered samples.

    Strips start at (x0, 0, phi(x0, 0), phi_x(x0, 0), h(x0)) with h from
    the compatibility solve, and run over t_range in both directions.
    Every sample carries the exact (phi_x, phi_y) = (p, q) of its strip.

    Companion strips launched at x0 -+ DERIVATIVE_OFFSET ride along in the
    same batch; cross-strip differences against the along-strip field then
    give second derivatives of phi at every sample by inverting the
    (launch, time) chart Jacobian.
    """
    x0s = np.linspace(x_range[0], x_range[1], n_curves)
    all_x0 = np.concatenate([x0s, x0s - DERIVATIVE_OFFSET,
                             x0s + DERIVATIVE_OFFSET])
    states0 = _launch_states(problem, all_x0, fq_min)

    chunks = []
    for sign, t_end in ((1.0, t_range[1]), (-1.0, t_range[0])):
        steps = int(round(abs(t_end) / dt))
        if steps == 0:
            continue
        try:
            traj = _integrate_batch(problem, states0, sign * dt, steps,
                                    fq_min=fq_min, max_f_drift=max_f_drift,
                                    x0_labels=all_x0)
        except CharacteristicPointError as err:
            raise CharacteristicPointError(
                f"strip from x0 = {err.x0} aborted: {err}",
                x0=err.x0, t=err.t) from err
        chunks.append(traj[1:] if chunks else traj)
    states = np.concatenate(chunks, axis=0)

    main = states[:, :, :n_curves]
    xs, ys, zs, ps, qs = (main[:, k, :].ravel() for k in range(5))
    drift = float(np.max(np.abs(f_partials(problem, xs, ys, ps, qs)[0])))
    minus = states[:, :, n_curves:2 * n_curves]
    plus = states[:, :, 2 * n_curves:]
    v = (plus - minus) / (2.0 * DERIVATIVE_OFFSET)
    _, fx, fy, fp, fq = f_partials(problem, xs, ys, ps, qs)
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


@dataclass
class ReconstructionReport:
    n_samples: int
    f_drift: float
    b1_max_deviation: float
    gamma1_fit_residual: float
    gamma2_fit_residual: float
    gamma1_origin: np.ndarray      # after the axis-relabeling convention map
    phi_xx_origin: float
    phi_xy_origin: float
    phi_yy_origin: float
    k_minus_kappa_max: float
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(ok for _, _, _, ok in self.checks)


def sample_klein_vectors(samples):
    """Canonical (a, b) sphere vectors of the tangent planes, vectorized."""
    x, y, p, q = samples.x, samples.y, samples.phi_x, samples.phi_y
    # psi = (x^2 + y^2)/2, so psi_x = x and psi_y = y
    jac = p * y - q * x
    w = np.sqrt(1.0 + p * p + q * q + x * x + y * y + jac * jac)
    a = np.stack([(1.0 + jac), (q + x), (y - p)], axis=1) / w[:, None]
    b = np.stack([(1.0 - jac), (q - x), (y + p)], axis=1) / w[:, None]
    return a, b


def _fit_second_derivatives(samples, at, radius=0.05, min_neighbors=8,
                            degree=2):
    """Least-squares local polynomial fit of (p, q) around ``at``.

    Returns (phi_xx, phi_xy, phi_yy) estimates from the linear terms of
    the fits (phi_xy is averaged between the two fields).
    """
    dx = samples.x - at[0]
    dy = samples.y - at[1]
    mask = dx * dx + dy * dy <= radius * radius
    n = int(np.count_nonzero(mask))
    if n < min_neighbors:
        raise ValueError(
            f"only {n} samples within radius {radius} of {at}; "
            f"need {min_neighbors}"
        )
    dx, dy = dx[mask], dy[mask]
    cols = [np.ones_like(dx)]
    powers = [(0, 0)]
    for total in range(1, degree + 1):
        for j in range(total + 1):
            cols.append(dx ** (total - j) * dy ** j)
            powers.append((total - j, j))
    a_mat = np.column_stack(cols)
    coef_p, *_ = np.linalg.lstsq(a_mat, samples.phi_x[mask], rcond=None)
    coef_q, *_ = np.linalg.lstsq(a_mat, samples.phi_y[mask], rcond=None)
    ix = powers.index((1, 0))
    iy = powers.index((0, 1))
    phi_xx = coef_p[ix]
    phi_xy = 0.5 * (coef_p[iy] + coef_q[ix])
    phi_yy = coef_q[iy]
    return float(phi_xx), float(phi_xy), float(phi_yy)


def _curvatures_from_values(x, y, p, q, pxx, pxy, pyy):
    """K and kappa from raw derivative data (psi = (x^2 + y^2)/2)."""
    phi = Jet.from_derivatives(2, {(0, 0): 0.0, (1, 0): p, (0, 1): q,
                                   (2, 0): pxx, (1, 1): pxy, (0, 2): pyy})
    psi = Jet.from_derivatives(2, {(0, 0): 0.0, (1, 0): x, (0, 1): y,
                                   (2, 0): 1.0, (1, 1): 0.0, (0, 2): 1.0})
    return monge_curvatures(monge_frame(None, (x, y), jets=(phi, psi)))


def verify_reconstruction(samples, b1_tol=1e-6, gamma1_origin_tol=1e-6,
                          fd_tol=1e-3, curvature_tol=1e-4,
                          circle_floor=0.01, fit_radius=0.05,
                          fit_degree=3, n_curvature_points=200):
    """Check every stated property of the reconstructed surface.

    The origin second derivatives come from a local polynomial fit over
    nearby samples (degree 3 by default; quadratic fits at this radius
    carry cubic-term bias above the 1e-3 tolerance).  The curvature check
    uses the flow-propagated second derivatives of the sample set.
    """
    if len(samples) < 100:
        raise ValueError("need at least 100 samples to verify")
    a_vecs, b_vecs = sample_klein_vectors(samples)
    b1_dev = float(np.max(np.abs(b_vecs[:, 0] - samples.c)))

    stride = max(1, len(samples) // 4000)
    fit_a = great_circle_fit(a_vecs[::stride])
    fit_b = great_circle_fit(b_vecs[::stride])

    origin_idx = int(np.argmin(samples.x**2 + samples.y**2))
    if samples.x[origin_idx]**2 + samples.y[origin_idx]**2 > 1e-16:
        raise ValueError("no sample at the origin")
    a_origin = a_vecs[origin_idx]
    # convention map: exchange of the last two sphere axes (the relabeling
    # the coordinate swap C induces on sphere coordinates)
    gamma1_origin = a_origin[[0, 2, 1]]

    # a useful fit needs several strips inside the disc; widen the radius
    # when the launch spacing is coarse
    axis_x = np.unique(samples.x[np.abs(samples.y) < 1e-15])
    if len(axis_x) > 1:
        spacing = float(np.median(np.diff(axis_x)))
        fit_radius = max(fit_radius, 2.6 * spacing)
    pxx, pxy, pyy = _fit_second_derivatives(
        samples, (0.0, 0.0), radius=fit_radius, degree=fit_degree)

    rng = np.random.default_rng(20240817)
    interior = np.flatnonzero(
        (np.abs(samples.x) <= 0.15) & (np.abs(samples.y) <= 0.15))
    picks = rng.choice(interior, size=min(n_curvature_points, len(interior)),
                       replace=False)
    worst_kk = 0.0
    for idx in picks:
        K, kappa = _curvatures_from_values(
            float(samples.x[idx]), float(samples.y[idx]),
            float(samples.phi_x[idx]), float(samples.phi_y[idx]),
            float(samples.phi_xx[idx]), float(samples.phi_xy[idx]),
            float(samples.phi_yy[idx]))
        worst_kk = max(worst_kk, abs(K - kappa))

    expected_gamma1 = np.array([math.sqrt(0.5), 0.0, -math.sqrt(0.5)])
    checks = [
        ("F conserved along strips", samples.f_drift, 1e-8,
         samples.f_drift < 1e-8),
        ("b1 equals c at every sample", b1_dev, b1_tol, b1_dev < b1_tol),
        ("Gamma1 circle residual above floor", fit_a.residual, circle_floor,
         fit_a.residual > circle_floor),
        ("Gamma2 circle residual above floor", fit_b.residual, circle_floor,
         fit_b.residual > circle_floor),
        ("Gamma1 at origin", float(np.max(np.abs(
            gamma1_origin - expected_gamma1))), gamma1_origin_tol,
         bool(np.max(np.abs(gamma1_origin - expected_gamma1))
              < gamma1_origin_tol)),
        ("phi_xx(0,0) = -1", abs(pxx + 1.0), fd_tol, abs(pxx + 1.0) < fd_tol),
        ("phi_xy(0,0) = 2", abs(pxy - 2.0), fd_tol, abs(pxy - 2.0) < fd_tol),
        ("phi_yy(0,0) = 0", abs(pyy), fd_tol, abs(pyy) < fd_tol),
        ("K - kappa on estimable samples", worst_kk, curvature_tol,
         worst_kk < curvature_tol),
        ("phi_xy agreement of the two chart routes", samples.phi_xy_spread,
         1e-4, samples.phi_xy_spread < 1e-4),
    ]
    return ReconstructionReport(
        n_samples=len(samples), f_drift=samples.f_drift,
        b1_max_deviation=b1_dev,
        gamma1_fit_residual=fit_a.residual,
        gamma2_fit_residual=fit_b.residual,
        gamma1_origin=gamma1_origin,
        phi_xx_origin=pxx, phi_xy_origin=pxy, phi_yy_origin=pyy,
        k_minus_kappa_max=worst_kk, checks=checks,
    )
