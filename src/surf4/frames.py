"""Per-point metric and curvature machinery for Monge surfaces in R^4.

Conventions fixed here and relied on throughout:

* Tangent basis T1 = (1, 0, phi_x, psi_x), T2 = (0, 1, phi_y, psi_y);
  normal basis N1 = (-phi_x, -phi_y, 1, 0), N2 = (-psi_x, -psi_y, 0, 1).
* The adapted frame comes from Gram-Schmidt of (T1, T2) and (N1, N2) in
  that order.  Second-fundamental-form coefficients a..g are frame
  dependent; every reported invariant (K, kappa, Delta, direction sets)
  is corrected by the frame-orientation signs so that it is frame
  independent and matches the Monge-chart determinant formulas.
* Direction vectors in reports are chart components (d/dx, d/dy),
  normalized with the first component of magnitude > 1e-12 positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import SurfaceEvalError, eval_surface
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
    asymptotic_dirs: list
    asymptotic_all: bool
    isoclinic_dirs: list        # [(unit 2-vector, '+'|'-'), ...]
    isoclinic_all: bool
    gauss_singular: bool
    # at a singular point the second-derivative matrix has normal form
    # [[C, 0, 0, 0], [0, 0, 0, 0]]; its top singular value reports |C|
    # (nonzero C marks a cross-cap); None when not singular
    singular_coefficient: float | None = None


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


def _gram_schmidt_pair(v1, v2):
    e1 = v1 / np.linalg.norm(v1)
    w = v2 - (v2 @ e1) * e1
    e2 = w / np.linalg.norm(w)
    return e1, e2


def _coords_in(basis1, basis2, vectors):
    """Rows: components of each vector in the (basis1, basis2) span, from
    one Gram matrix and one solve per vector (a single solve with both
    right-hand sides rounds differently)."""
    g = np.array([[basis1 @ basis1, basis1 @ basis2],
                  [basis1 @ basis2, basis2 @ basis2]])
    return np.array([np.linalg.solve(g, np.array([v @ basis1, v @ basis2]))
                     for v in vectors])


def adapted_frame(mf):
    """Orthonormal adapted frame by Gram-Schmidt of (T1, T2) and (N1, N2)."""
    e1, e2 = _gram_schmidt_pair(mf.t1, mf.t2)
    e3, e4 = _gram_schmidt_pair(mf.n1, mf.n2)
    chart = _coords_in(mf.t1, mf.t2, (e1, e2))
    normal_coords = _coords_in(mf.n1, mf.n2, (e3, e4))
    return AdaptedFrame(
        e1, e2, e3, e4, chart,
        float(np.sign(np.linalg.det(chart)))
        * float(np.sign(np.linalg.det(normal_coords))))


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


def _first_positive(v):
    """``v`` or ``-v``, whichever has its first component of magnitude
    > 1e-12 positive (``v`` when there is none)."""
    for comp in v:
        if abs(comp) > 1e-12:
            return -v if comp < 0 else v
    return v


def _chart_direction(frame, u):
    """The unit chart vector of the frame direction ``u``, signed by
    :func:`_first_positive`; None when it is zero."""
    v = u[0] * frame.chart[0] + u[1] * frame.chart[1]
    n = np.linalg.norm(v)
    if n == 0.0:
        return None
    return _first_positive(v / n)


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

    asym, asym_all = _asymptotic_directions(A, B, C, frame, point_class,
                                            bands)

    iso = []
    iso_all = False
    band = wong_band(K, kappa)
    for sign_raw in (1.0, -1.0):
        if abs(K - sign_raw * kappa_raw) > band:
            continue
        tag = "+" if sign_raw * sigma > 0 else "-"
        u = np.array([-(b + sign_raw * g), a + sign_raw * f])
        if np.linalg.norm(u) <= bands["rank"]:
            iso_all = True
            continue
        iso.append((_chart_direction(frame, u), tag))

    d2 = np.array([[pxx, qxx, pxy, qxy], [pxy, qxy, pyy, qyy]])
    singular_values = np.linalg.svd(d2, compute_uv=False)
    gauss_singular = bool(singular_values[1] <= bands["rank"])

    return CurvatureReport(
        K=K, kappa=kappa,
        mean_h=(0.5 * (a + c), 0.5 * (e + g)),
        K1=k1, K2=k2, delta=delta,
        point_class=point_class, inflection=inflection,
        asymptotic_dirs=asym, asymptotic_all=asym_all,
        isoclinic_dirs=iso, isoclinic_all=iso_all,
        gauss_singular=gauss_singular,
        singular_coefficient=float(singular_values[0]) if gauss_singular
        else None,
    )


def _asymptotic_directions(A, B, C, frame, point_class, bands):
    """Solve A u1^2 + B u1 u2 + C u2^2 = 0 for the asymptotic directions.

    Coefficients live at second-derivative-squared scale, so the
    degenerate test uses the kappa band.
    """
    band = bands["kappa"]
    if max(abs(A), abs(B), abs(C)) <= band:
        return [], True
    if point_class == "elliptic":
        return [], False

    def from_roots(swap):
        # roots of A u^2 + B u + C with (u, 1) directions; swap solves in
        # the other slot for stability when |A| < |C|
        aa, cc = (C, A) if swap else (A, C)
        dirs = []
        if abs(aa) <= band:
            dirs.append((1.0, 0.0))
            if abs(B) > band:
                dirs.append((-cc / B, 1.0))
        else:
            disc = B * B - 4.0 * aa * cc
            if point_class == "parabolic":
                dirs.append((-B / (2.0 * aa), 1.0))
            else:
                root = np.sqrt(max(disc, 0.0))
                dirs.append(((-B + root) / (2.0 * aa), 1.0))
                dirs.append(((-B - root) / (2.0 * aa), 1.0))
        if swap:
            dirs = [(v, u) for (u, v) in dirs]
        return dirs

    dirs = from_roots(swap=abs(A) < abs(C))
    out = []
    for u in dirs:
        vec = _chart_direction(frame, np.asarray(u))
        if vec is not None and not any(
            abs(abs(vec @ w) - 1.0) < 1e-9 for w in out
        ):
            out.append(vec)
    return out, False


def _adapted_chart_jets(sd, point, chart, rot, base, target_uv):
    """Order-2 jets of the surface re-graphed in the chart adapted at
    ``point``, evaluated at chart coordinates ``target_uv``.

    The adapted chart translates the surface point ``base`` to the origin
    and rotates R^4 by ``rot``, whose rows are the adapted frame at
    ``point``, making the tangent plane the new (x, y)-plane; ``chart``
    holds that frame's tangent rows in (dx, dy) components.  The preimage
    of the chart stencil point is found by Newton iteration; first and
    second derivatives of the re-graphed surface follow from the exact
    change-of-variables formulas.
    """
    # initial guess from the tangent chart
    xy = np.asarray(point, dtype=float) + chart.T @ target_uv
    for _ in range(40):
        phj, psj = eval_surface(sd, xy, order=2)
        pos = np.array([xy[0], xy[1], float(phj.value), float(psj.value)])
        t1, t2 = _tangents(*_slopes(phj, psj))
        res = rot[:2] @ (pos - base) - target_uv
        if np.hypot(res[0], res[1]) < 1e-14:
            break
        xy = xy - np.linalg.solve(rot[:2] @ np.column_stack([t1, t2]), res)
    else:
        raise ValueError(f"chart inversion did not converge near {point}")
    if not sd.domain.contains(xy):
        raise ValueError(
            f"closedness stencil point {tuple(xy)} leaves the domain"
        )
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


def isoclinic_form_closedness(sd, point):
    """|d theta| for theta = (a+f) omega_1 + (b+g) omega_2, by central FD.

    The form is evaluated in the chart adapted at ``point`` (surface
    re-graphed over its own tangent plane, the chart in which the paper's
    frame quantities are defined); at the four stencil points it is
    converted to chart (dx, dy) components through the coframe, the
    inverse of the transposed chart matrix, and the exterior-derivative
    coefficient is the central difference of those components.
    Evaluating instead in a fixed ambient Monge chart makes the residual
    frame-dependent and O(1) even on K = kappa surfaces.
    """
    h = CLOSEDNESS_STEP
    phi0, psi0 = eval_surface(sd, point, order=2)
    frame0 = adapted_frame(monge_frame(phi0, psi0, point))
    rot = np.vstack([frame0.e1, frame0.e2, frame0.e3, frame0.e4])
    base = np.array([point[0], point[1],
                     float(phi0.value), float(psi0.value)])

    def theta_components(target_uv):
        phi, psi = _adapted_chart_jets(sd, point, frame0.chart, rot, base,
                                       np.asarray(target_uv, float))
        mf = monge_frame(phi, psi, target_uv)
        frame = adapted_frame(mf)
        a, b, _, _, f, g = _second_form_from(mf, frame)
        coframe = np.linalg.inv(frame.chart.T)
        return coframe.T @ np.array([a + f, b + g])

    q_plus = theta_components((h, 0.0))[1]
    q_minus = theta_components((-h, 0.0))[1]
    p_plus = theta_components((0.0, h))[0]
    p_minus = theta_components((0.0, -h))[0]
    return abs((q_plus - q_minus) / (2 * h) - (p_plus - p_minus) / (2 * h))
