"""Per-point metric and curvature machinery for Monge surfaces in R^4.

Conventions fixed here and relied on throughout:

* Tangent basis T1 = (1, 0, phi_x, psi_x), T2 = (0, 1, phi_y, psi_y);
  normal basis N1 = (-phi_x, -phi_y, 1, 0), N2 = (-psi_x, -psi_y, 0, 1).
* The adapted frame comes from Gram-Schmidt of (T1, T2) and (N1, N2) in
  that order.  Second-fundamental-form coefficients a..g are frame
  dependent; every reported invariant (K, kappa, Delta, whether an
  isoclinic direction exists) is corrected by the frame-orientation signs
  so that it is frame independent and matches the Monge-chart
  determinant formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import SurfaceEvalError, eval_points
from .jets import Jet


class InternalInconsistencyError(RuntimeError):
    """Two independent formulas for the same invariant disagree.

    Signals an implementation bug, not bad input.
    """


# relative tolerance factors of point classification; reports embed them
TOLERANCES = {"delta": 1e-9, "kappa": 1e-8, "k": 1e-8, "rank": 1e-8,
              "wong": 1e-8}


def _bands(scale):
    """Absolute bands at the largest second-derivative magnitude ``scale``;
    its fourth power raises ``OverflowError`` past the largest float."""
    return {
        "delta": TOLERANCES["delta"] * scale**4,
        "kappa": TOLERANCES["kappa"] * scale**2,
        "k": TOLERANCES["k"] * scale**2,
        "rank": TOLERANCES["rank"] * scale,
    }


def wong_band(K, kappa):
    """The band within which |K -+ kappa| = 0 counts as isoclinic."""
    return TOLERANCES["wong"] * max(abs(K), abs(kappa), 1.0)


@dataclass
class MongeFrame:
    t1: np.ndarray
    t2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    E: float
    F: float
    G: float
    W: float
    Ehat: float
    Fhat: float
    Ghat: float
    phi_jet: object
    psi_jet: object


@dataclass
class AdaptedFrame:
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    chart: np.ndarray  # rows: (dx, dy) components of e1, e2
    # product of the signs of det of (e1,e2) in the (T1,T2) basis and of
    # det of (e3,e4) in the (N1,N2) basis
    orientation: float


@dataclass
class CurvatureReport:
    K: float
    kappa: float
    mean_h: tuple
    K1: float
    K2: float
    delta: float
    point_class: str            # hyperbolic | parabolic | elliptic
    inflection: str             # none | real | flat | imaginary
    isoclinic: bool             # |K -+ kappa| within wong_band
    gauss_singular: bool


def form_overflow(point):
    """The error for a point whose first fundamental form overflows."""
    return SurfaceEvalError("first fundamental form overflows at point "
                            f"{tuple(map(float, point))}")


def _slopes(phi, psi):
    """(phi_x, phi_y, psi_x, psi_y) as Python floats, which do not warn
    when a product overflows."""
    return tuple(float(jet.derivative(*k)) for jet in (phi, psi)
                 for k in ((1, 0), (0, 1)))


def _tangents(px, py, qx, qy):
    """T1 = (1, 0, phi_x, psi_x) and T2 = (0, 1, phi_y, psi_y)."""
    return np.array([1.0, 0.0, px, qx]), np.array([0.0, 1.0, py, qy])


def monge_frame(phi, psi, point):
    """First-order frame data and fundamental-form coefficients of the
    order-2 jets ``phi``, ``psi`` at ``point``."""
    px, py, qx, qy = _slopes(phi, psi)
    t1, t2 = _tangents(px, py, qx, qy)
    n1 = np.array([-px, -py, 1.0, 0.0])
    n2 = np.array([-qx, -qy, 0.0, 1.0])
    # scalar sums rather than dot products of t1, t2, n1, n2: numpy's dot
    # may sum the four terms in another order and round differently
    E = 1.0 + px * px + qx * qx
    F = px * py + qx * qy
    G = 1.0 + py * py + qy * qy
    eg = E * G
    W = eg - F * F
    if not math.isfinite(W):  # an inf or NaN in E, F or G reaches W
        raise form_overflow(point)
    if W <= 0.0:
        # W >= 1 in exact arithmetic; E*G - F^2 is not positive only when
        # it cancels an E*G of 1e16 or more down to its rounding error
        raise SurfaceEvalError("first fundamental form is numerically "
                               f"singular at point {tuple(map(float, point))}")
    Ehat = px * px + py * py + 1.0
    Fhat = px * qx + py * qy
    Ghat = qx * qx + qy * qy + 1.0
    _check_hatted_identity(W, eg, Ehat * Ghat, Fhat * Fhat, point)
    return MongeFrame(t1, t2, n1, n2, E, F, G, W, Ehat, Fhat, Ghat, phi, psi)


def _check_hatted_identity(W, eg, eg_hat, ff_hat, point):
    """Check Ehat*Ghat - Fhat^2 = W = E*G - F^2, given the products.

    Each side cancels when its products are large against W, as on a
    steep surface, and keeps only about 1e-16 of the larger product; so
    the bound is 1e-10 times the largest of 1, E*G and Ehat*Ghat (W is at
    most E*G).  For a surface of moderate slope both products are close
    to W, and the bound is 1e-10 relative to W.  Products that overflow
    are the form overflow error, not an inconsistency.
    """
    if not (math.isfinite(eg_hat) and math.isfinite(ff_hat)):
        raise form_overflow(point)
    if abs(eg_hat - ff_hat - W) > 1e-10 * max(1.0, eg, eg_hat):
        raise InternalInconsistencyError(
            "Ehat*Ghat - Fhat^2 differs from W beyond tolerance"
        )


def _norm(v):
    """The Euclidean norm of the vector ``v``, bit for bit
    ``np.linalg.norm(v)``: numpy's own 1-D path (a BLAS dot and a square
    root) without its argument handling."""
    x = np.asarray(v, float).ravel(order="K")
    return math.sqrt(x.dot(x))


def _gram_schmidt_pair(v1, v2):
    e1 = v1 / _norm(v1)
    w = v2 - (v2 @ e1) * e1
    e2 = w / _norm(w)
    return e1, e2


def _coords_in(basis1, basis2, vectors):
    """Rows: components of each vector in the (basis1, basis2) span, from
    one Gram matrix and one stacked solve that keeps one right-hand side
    per system (one system with both right-hand sides rounds
    differently)."""
    g = np.array([[basis1 @ basis1, basis1 @ basis2],
                  [basis1 @ basis2, basis2 @ basis2]])
    rhs = np.array([[[v @ basis1], [v @ basis2]] for v in vectors])
    return np.linalg.solve(np.array([g] * len(rhs)), rhs)[:, :, 0]


def adapted_frame(mf):
    """Orthonormal adapted frame by Gram-Schmidt of (T1, T2) and (N1, N2)."""
    e1, e2 = _gram_schmidt_pair(mf.t1, mf.t2)
    e3, e4 = _gram_schmidt_pair(mf.n1, mf.n2)
    chart = _coords_in(mf.t1, mf.t2, (e1, e2))
    normal_coords = _coords_in(mf.n1, mf.n2, (e3, e4))
    signs = np.sign(np.linalg.det(np.array([chart, normal_coords])))
    return AdaptedFrame(e1, e2, e3, e4, chart,
                        float(signs[0]) * float(signs[1]))


def _second_derivatives(phi_jet, psi_jet):
    """(phi_xx, phi_xy, phi_yy, psi_xx, psi_xy, psi_yy) as floats."""
    return tuple(float(jet.derivative(*k)) for jet in (phi_jet, psi_jet)
                 for k in ((2, 0), (1, 1), (0, 2)))


def _second_form_from(mf, frame):
    """Coefficients (a, b, c) toward e3 and (e, f, g) toward e4 of II."""
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
    dxx = np.array([0.0, 0.0, pxx, qxx])
    dxy = np.array([0.0, 0.0, pxy, qxy])
    dyy = np.array([0.0, 0.0, pyy, qyy])

    def second(u, v):
        return u[0] * v[0] * dxx + (u[0] * v[1] + u[1] * v[0]) * dxy \
            + u[1] * v[1] * dyy

    p, q = frame.chart
    pp, pq, qq = second(p, p), second(p, q), second(q, q)
    return (pp @ frame.e3, pq @ frame.e3, qq @ frame.e3,
            pp @ frame.e4, pq @ frame.e4, qq @ frame.e4)


def hessian_quantities(phi_jet, psi_jet):
    """The six Monge-chart determinants H_phi, H_psi, Q, L, M, N."""
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(phi_jet, psi_jet)
    h_phi = pxx * pyy - pxy * pxy
    h_psi = qxx * qyy - qxy * qxy
    q_det = (pxx * qyy - pxy * qxy) - (pxy * qxy - pyy * qxx)
    l_det = pxy * qyy - pyy * qxy
    m_det = pxx * qyy - pyy * qxx
    n_det = pxx * qxy - pxy * qxx
    return {"H_phi": h_phi, "H_psi": h_psi, "Q": q_det,
            "L": l_det, "M": m_det, "N": n_det}


def monge_curvatures(mf):
    """K and kappa by the Monge-chart determinant formulas.

    K = (Ehat H_psi - Fhat Q + Ghat H_phi) / W^2 and
    kappa = (E L - F M + G N) / W^2, with the determinants of
    :func:`hessian_quantities`.
    """
    hq = hessian_quantities(mf.phi_jet, mf.psi_jet)
    w2 = mf.W * mf.W
    K = (mf.Ehat * hq["H_psi"] - mf.Fhat * hq["Q"]
         + mf.Ghat * hq["H_phi"]) / w2
    kappa = (mf.E * hq["L"] - mf.F * hq["M"] + mf.G * hq["N"]) / w2
    return K, kappa


def _require_close(name, u, v, scale):
    if abs(u - v) > 1e-9 * max(1.0, scale, abs(u), abs(v)):
        raise InternalInconsistencyError(
            f"{name} routes disagree: {u!r} vs {v!r}"
        )


def resultant_determinant(a, b, c, e, f, g):
    """Delta as one quarter of the 4x4 resultant determinant."""
    m = np.array([
        [a, 2 * b, c, 0.0],
        [e, 2 * f, g, 0.0],
        [0.0, a, 2 * b, c],
        [0.0, e, 2 * f, g],
    ])
    return 0.25 * np.linalg.det(m)


def curvature_report(phi, psi, point):
    """Full curvature/classification record of the order-2 jets ``phi``,
    ``psi`` at ``point``.

    K, kappa and Delta are each computed along two independent routes
    (Monge-chart determinants vs adapted-frame coefficients, expanded
    discriminant vs resultant determinant) and must agree to 1e-9
    relative; disagreement raises :class:`InternalInconsistencyError`.
    Classification uses the bands of :data:`TOLERANCES`.
    """
    mf = monge_frame(phi, psi, point)
    try:
        frame = adapted_frame(mf)
    except np.linalg.LinAlgError:
        # the tangent or normal Gram matrix is singular in floating point,
        # as for a plane so steep that 1 + slope^2 rounds to slope^2
        raise SurfaceEvalError(
            "adapted frame is numerically singular at point "
            f"{tuple(map(float, point))}") from None
    a, b, c, e, f, g = _second_form_from(mf, frame)
    sigma = frame.orientation

    k_hessian, kappa_det = monge_curvatures(mf)
    k1, k2 = a * c - b * b, e * g - f * f
    k_frame = k1 + k2
    kappa_raw = (a - c) * f - (e - g) * b
    kappa_frame = sigma * kappa_raw

    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
    scale = max(abs(pxx), abs(pxy), abs(pyy), abs(qxx), abs(qxy), abs(qyy))
    try:
        bands = _bands(scale)
    except OverflowError:
        # Delta and its bounds live at scale^4, past the largest float
        raise SurfaceEvalError(
            "second derivatives overflow the Delta bound at point "
            f"{tuple(map(float, point))}") from None
    _require_close("K", k_hessian, k_frame, scale**2)
    _require_close("kappa", kappa_det, kappa_frame, scale**2)

    A = a * f - b * e
    B = a * g - c * e
    C = b * g - c * f
    delta_expanded = A * C - 0.25 * B ** 2
    delta_resultant = resultant_determinant(a, b, c, e, f, g)
    _require_close("Delta", delta_expanded, delta_resultant, scale**4)

    K = k_frame
    kappa = kappa_frame
    delta = delta_expanded

    if delta < -bands["delta"]:
        point_class = "hyperbolic"
    elif delta > bands["delta"]:
        point_class = "elliptic"
    else:
        point_class = "parabolic"

    inflection = "none"
    if point_class == "parabolic" and abs(kappa) <= bands["kappa"]:
        if K < -bands["k"]:
            inflection = "real"
        elif K > bands["k"]:
            inflection = "imaginary"
        else:
            inflection = "flat"

    # a NaN difference counts as within the band
    band = wong_band(K, kappa)
    isoclinic = not (abs(K - kappa_raw) > band and abs(K + kappa_raw) > band)

    d2 = np.array([[pxx, qxx, pxy, qxy], [pxy, qxy, pyy, qyy]])
    singular_values = np.linalg.svd(d2, compute_uv=False)
    gauss_singular = bool(singular_values[1] <= bands["rank"])

    return CurvatureReport(
        K=K, kappa=kappa,
        mean_h=(0.5 * (a + c), 0.5 * (e + g)),
        K1=k1, K2=k2, delta=delta,
        point_class=point_class, inflection=inflection,
        isoclinic=isoclinic,
        gauss_singular=gauss_singular,
    )


def _adapted_chart_jets(sd, targets):
    """Order-2 jets of the surface re-graphed in an adapted chart, one
    ``(phi, psi)`` pair per target.

    A target is ``(point, chart, rot, base, target_uv)``.  Its adapted
    chart translates the surface point ``base`` to the origin and rotates
    R^4 by ``rot``, whose rows are the adapted frame at ``point``, making
    the tangent plane the new (x, y)-plane; ``chart`` holds that frame's
    tangent rows in (dx, dy) components.  The preimage of the chart point
    ``target_uv`` is found by Newton iteration, each target from its own
    start and with its own stop and step; every iteration evaluates the
    targets not yet converged in one call, so each target takes the steps
    it would take alone.  Errors follow target order: a Newton iteration
    that does not converge, then a preimage outside the domain.  First and
    second derivatives of the re-graphed surface follow from the exact
    change-of-variables formulas.
    """
    # initial guesses from the tangent charts
    xys = [np.asarray(point, dtype=float) + chart.T @ target_uv
           for point, chart, _, _, target_uv in targets]
    found = [None] * len(targets)
    active = list(range(len(targets)))
    for _ in range(40):
        if not active:
            break
        pending = []
        for i, (phj, psj) in zip(active, eval_points(
                sd, [xys[i] for i in active], 2)):
            _, _, rot, base, target_uv = targets[i]
            xy = xys[i]
            pos = np.array([xy[0], xy[1], float(phj.value), float(psj.value)])
            t1, t2 = _tangents(*_slopes(phj, psj))
            res = rot[:2] @ (pos - base) - target_uv
            if np.hypot(res[0], res[1]) < 1e-14:
                found[i] = (xy, phj, psj, pos, t1, t2)
                continue
            xys[i] = xy - np.linalg.solve(
                rot[:2] @ np.column_stack([t1, t2]), res)
            pending.append(i)
        active = pending
    out = []
    for (point, _, rot, base, _), inverse in zip(targets, found):
        if inverse is None:
            raise ValueError(f"chart inversion did not converge near {point}")
        xy, phj, psj, pos, t1, t2 = inverse
        if not sd.domain.contains(xy):
            raise ValueError(
                f"closedness stencil point {tuple(map(float, xy))} leaves "
                "the domain"
            )
        out.append(_regraphed_jets(rot, base, phj, psj, pos, t1, t2))
    return out


def _regraphed_jets(rot, base, phj, psj, pos, t1, t2):
    """Order-2 jets of the rotated coordinates 3 and 4 as functions of
    the rotated coordinates 1 and 2, from the jets ``phj``, ``psj`` at the
    preimage, its position ``pos`` and its tangents ``t1``, ``t2``."""
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(phj, psj)
    hess_phi = np.array([[pxx, pxy], [pxy, pyy]])
    hess_psi = np.array([[qxx, qxy], [qxy, qyy]])

    def component(row):
        # derivative data of the row-th rotated coordinate, as functions
        # of the original chart
        weights = rot[row]
        val = weights @ (pos - base)
        grad = np.array([weights @ t1, weights @ t2])
        return val, grad, weights[2] * hess_phi + weights[3] * hess_psi

    _, grad_u, hess_u = component(0)
    _, grad_v, hess_v = component(1)
    jac = np.vstack([grad_u, grad_v])
    jac_inv = np.linalg.inv(jac)

    out = []
    for row in (2, 3):
        val, grad, hess = component(row)
        grad_uv = grad @ jac_inv
        hess_uv = jac_inv.T @ (
            hess - grad_uv[0] * hess_u - grad_uv[1] * hess_v) @ jac_inv
        out.append(Jet.from_derivatives(2, {
            (0, 0): val,
            (1, 0): grad_uv[0], (0, 1): grad_uv[1],
            (2, 0): hess_uv[0, 0], (1, 1): hess_uv[0, 1],
            (0, 2): hess_uv[1, 1],
        }))
    return out[0], out[1]


# central-difference step of the closedness check, in adapted-chart units
CLOSEDNESS_STEP = 1e-3


def _theta_components(phi, psi, target_uv):
    """Chart (dx, dy) components of theta from the re-graphed jets at the
    adapted-chart point ``target_uv``, through the coframe, the inverse of
    the transposed chart matrix."""
    mf = monge_frame(phi, psi, target_uv)
    frame = adapted_frame(mf)
    a, b, _, _, f, g = _second_form_from(mf, frame)
    coframe = np.linalg.inv(frame.chart.T)
    return coframe.T @ np.array([a + f, b + g])


def isoclinic_form_closedness(sd, points):
    """|d theta| for theta = (a+f) omega_1 + (b+g) omega_2, by central FD,
    one residual per point of ``points``.

    The form is evaluated in the chart adapted at each point (surface
    re-graphed over its own tangent plane, the chart in which the paper's
    frame quantities are defined); at the four stencil points it is
    converted to chart (dx, dy) components through the coframe, and the
    exterior-derivative coefficient is the central difference of those
    components.  Evaluating instead in a fixed ambient Monge chart makes
    the residual frame-dependent and O(1) even on K = kappa surfaces.
    The points are evaluated in one call and the stencil preimages of all
    of them solved together (see :func:`_adapted_chart_jets`).
    """
    h = CLOSEDNESS_STEP
    stencil = [np.array(uv) for uv in ((h, 0.0), (-h, 0.0), (0.0, h),
                                       (0.0, -h))]
    targets = []
    for point, (phi0, psi0) in zip(points, eval_points(sd, points, 2)):
        frame0 = adapted_frame(monge_frame(phi0, psi0, point))
        rot = np.vstack([frame0.e1, frame0.e2, frame0.e3, frame0.e4])
        base = np.array([point[0], point[1],
                         float(phi0.value), float(psi0.value)])
        targets += [(point, frame0.chart, rot, base, uv) for uv in stencil]
    theta = [_theta_components(phi, psi, target[4]) for target, (phi, psi)
             in zip(targets, _adapted_chart_jets(sd, targets))]
    residuals = []
    for k in range(0, len(theta), 4):
        q_plus, q_minus = theta[k][1], theta[k + 1][1]
        p_plus, p_minus = theta[k + 2][0], theta[k + 3][0]
        residuals.append(
            abs((q_plus - q_minus) / (2 * h) - (p_plus - p_minus) / (2 * h)))
    return residuals
