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

import warnings
from dataclasses import dataclass

import numpy as np

from .expr import eval_surface
from .jets import Jet


class InternalInconsistencyError(RuntimeError):
    """Two independent formulas for the same invariant disagree.

    Signals an implementation bug, not bad input.
    """


@dataclass
class ClassificationTolerances:
    """Relative tolerance factors for point classification.

    Absolute bands scale with the largest second-derivative magnitude s:
    delta band = delta * s^4, kappa and k bands = (kappa|k) * s^2, rank
    band = rank * s.  The Wong band is wong * max(|K|, |kappa|, 1).
    """

    delta: float = 1e-9
    kappa: float = 1e-8
    k: float = 1e-8
    rank: float = 1e-8
    wong: float = 1e-8

    def bands(self, scale):
        return {
            "delta": self.delta * scale**4,
            "kappa": self.kappa * scale**2,
            "k": self.k * scale**2,
            "rank": self.rank * scale,
        }


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
    point: tuple


@dataclass
class AdaptedFrame:
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    chart: np.ndarray    # rows: (dx, dy) components of e1, e2
    coframe: np.ndarray  # rows: (dx, dy) components of omega_1, omega_2
    orient_tangent: float  # sign of det of (e1,e2) in the (T1,T2) basis
    orient_normal: float   # sign of det of (e3,e4) in the (N1,N2) basis


@dataclass
class SecondFormCoefficients:
    a: float
    b: float
    c: float
    e: float
    f: float
    g: float
    frame: AdaptedFrame


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


@dataclass
class DeltaFieldDiagnostic:
    grad: tuple
    hessian_det: float
    K: float
    ratio: float | None


def monge_frame(sd, point, jets=None):
    """First-order frame data and fundamental-form coefficients at a point;
    ``sd`` is read only when ``jets`` is None."""
    if jets is None:
        jets = eval_surface(sd, point, order=2)
    phi, psi = jets
    px, py = float(phi.derivative(1, 0)), float(phi.derivative(0, 1))
    qx, qy = float(psi.derivative(1, 0)), float(psi.derivative(0, 1))
    t1 = np.array([1.0, 0.0, px, qx])
    t2 = np.array([0.0, 1.0, py, qy])
    n1 = np.array([-px, -py, 1.0, 0.0])
    n2 = np.array([-qx, -qy, 0.0, 1.0])
    # scalar sums rather than dot products of t1, t2, n1, n2: numpy's dot
    # may sum the four terms in another order and round differently
    E = 1.0 + px * px + qx * qx
    F = px * py + qx * qy
    G = 1.0 + py * py + qy * qy
    W = E * G - F * F
    if W <= 0.0:
        raise InternalInconsistencyError(f"W = {W} is not positive at {point}")
    Ehat = px * px + py * py + 1.0
    Fhat = px * qx + py * qy
    Ghat = qx * qx + qy * qy + 1.0
    if abs(Ehat * Ghat - Fhat * Fhat - W) > 1e-10 * max(1.0, abs(W)):
        raise InternalInconsistencyError(
            "Ehat*Ghat - Fhat^2 differs from W beyond tolerance"
        )
    return MongeFrame(t1, t2, n1, n2, E, F, G, W, Ehat, Fhat, Ghat,
                      phi, psi, (float(point[0]), float(point[1])))


def _gram_schmidt_pair(v1, v2):
    e1 = v1 / np.linalg.norm(v1)
    w = v2 - (v2 @ e1) * e1
    e2 = w / np.linalg.norm(w)
    return e1, e2


def _coords_in(basis1, basis2, v):
    # components of v in the (basis1, basis2) span, via the Gram system
    g = np.array([[basis1 @ basis1, basis1 @ basis2],
                  [basis1 @ basis2, basis2 @ basis2]])
    rhs = np.array([v @ basis1, v @ basis2])
    return np.linalg.solve(g, rhs)


def adapted_frame(mf, order="12"):
    """Orthonormal adapted frame by Gram-Schmidt.

    ``order`` selects the tangent Gram-Schmidt order: "12" (default,
    canonical) or "21" (used by the frame-invariance tests).
    """
    if order == "12":
        e1, e2 = _gram_schmidt_pair(mf.t1, mf.t2)
    elif order == "21":
        e1, e2 = _gram_schmidt_pair(mf.t2, mf.t1)
    else:
        raise ValueError(f"order must be '12' or '21', got {order!r}")
    e3, e4 = _gram_schmidt_pair(mf.n1, mf.n2)
    chart = np.array([_coords_in(mf.t1, mf.t2, e1),
                      _coords_in(mf.t1, mf.t2, e2)])
    coframe = np.linalg.inv(chart.T)
    normal_coords = np.array([_coords_in(mf.n1, mf.n2, e3),
                              _coords_in(mf.n1, mf.n2, e4)])
    return AdaptedFrame(
        e1, e2, e3, e4, chart, coframe,
        orient_tangent=float(np.sign(np.linalg.det(chart))),
        orient_normal=float(np.sign(np.linalg.det(normal_coords))),
    )


def second_form(sd, point, jets=None, frame=None):
    """Coefficients a, b, c (toward e3) and e, f, g (toward e4) of II."""
    mf = monge_frame(sd, point, jets=jets)
    if frame is None:
        frame = adapted_frame(mf)
    return _second_form_from(mf, frame)


def _second_derivatives(phi_jet, psi_jet):
    """(phi_xx, phi_xy, phi_yy, psi_xx, psi_xy, psi_yy) as floats."""
    return tuple(float(jet.derivative(*k)) for jet in (phi_jet, psi_jet)
                 for k in ((2, 0), (1, 1), (0, 2)))


def _second_form_from(mf, frame):
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
    dxx = np.array([0.0, 0.0, pxx, qxx])
    dxy = np.array([0.0, 0.0, pxy, qxy])
    dyy = np.array([0.0, 0.0, pyy, qyy])

    def second(u, v):
        return u[0] * v[0] * dxx + (u[0] * v[1] + u[1] * v[0]) * dxy \
            + u[1] * v[1] * dyy

    p, q = frame.chart[0], frame.chart[1]
    a = second(p, p) @ frame.e3
    b = second(p, q) @ frame.e3
    c = second(q, q) @ frame.e3
    e = second(p, p) @ frame.e4
    f = second(p, q) @ frame.e4
    g = second(q, q) @ frame.e4
    return SecondFormCoefficients(a, b, c, e, f, g, frame)


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


def _normalize_dir(vec):
    v = np.asarray(vec, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        return None
    v = v / n
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0:
                v = -v
            break
    return v


def _frame_dir_to_chart(frame, u):
    return _normalize_dir(u[0] * frame.chart[0] + u[1] * frame.chart[1])


def resultant_determinant(a, b, c, e, f, g):
    """Delta as one quarter of the 4x4 resultant determinant."""
    m = np.array([
        [a, 2 * b, c, 0.0],
        [e, 2 * f, g, 0.0],
        [0.0, a, 2 * b, c],
        [0.0, e, 2 * f, g],
    ])
    return 0.25 * np.linalg.det(m)


def curvature_report(sd, point, tol=None, jets=None, frame_order="12"):
    """Full curvature/classification record at one point.

    K, kappa and Delta are each computed along two independent routes
    (Monge-chart determinants vs adapted-frame coefficients, expanded
    discriminant vs resultant determinant) and must agree to 1e-9
    relative; disagreement raises :class:`InternalInconsistencyError`.
    """
    tol = tol or ClassificationTolerances()
    mf = monge_frame(sd, point, jets=jets)
    frame = adapted_frame(mf, order=frame_order)
    sf = _second_form_from(mf, frame)
    a, b, c, e, f, g = sf.a, sf.b, sf.c, sf.e, sf.f, sf.g
    sigma = frame.orient_tangent * frame.orient_normal

    k_hessian, kappa_det = monge_curvatures(mf)
    k1, k2 = a * c - b * b, e * g - f * f
    k_frame = k1 + k2
    kappa_raw = (a - c) * f - (e - g) * b
    kappa_frame = sigma * kappa_raw

    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
    scale = max(abs(pxx), abs(pxy), abs(pyy), abs(qxx), abs(qxy), abs(qyy))
    _require_close("K", k_hessian, k_frame, scale**2)
    _require_close("kappa", kappa_det, kappa_frame, scale**2)

    delta_expanded = (a * f - b * e) * (b * g - c * f) \
        - 0.25 * (a * g - c * e) ** 2
    delta_resultant = resultant_determinant(a, b, c, e, f, g)
    _require_close("Delta", delta_expanded, delta_resultant, scale**4)

    K = k_frame
    kappa = kappa_frame
    delta = delta_expanded
    bands = tol.bands(scale)

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

    asym, asym_all = _asymptotic_directions(
        a, b, c, e, f, g, frame, point_class, bands)

    iso = []
    iso_all = False
    wong_band = tol.wong * max(abs(K), abs(kappa), 1.0)
    for sign_raw in (1.0, -1.0):
        if abs(K - sign_raw * kappa_raw) > wong_band:
            continue
        tag = "+" if sign_raw * sigma > 0 else "-"
        u = np.array([-(b + sign_raw * g), a + sign_raw * f])
        if np.linalg.norm(u) <= bands["rank"]:
            iso_all = True
            continue
        iso.append((_frame_dir_to_chart(frame, u), tag))

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


def _asymptotic_directions(a, b, c, e, f, g, frame, point_class, bands):
    """Solve N(u1, u2) = 0 for the asymptotic directions.

    Coefficients live at second-derivative-squared scale, so the
    degenerate test uses the kappa band.
    """
    A = a * f - b * e
    B = a * g - c * e
    C = b * g - c * f
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
        vec = _frame_dir_to_chart(frame, np.asarray(u))
        if vec is not None and not any(
            abs(abs(vec @ w) - 1.0) < 1e-9 for w in out
        ):
            out.append(vec)
    return out, False


def _adapted_chart_jets(sd, point, frame, target_uv, h):
    """Order-2 jets of the surface re-graphed in the chart adapted at
    ``point``, evaluated at chart coordinates ``target_uv``.

    The adapted chart translates the surface point to the origin and
    rotates R^4 by the adapted frame, making the tangent plane the new
    (x, y)-plane.  The preimage of the chart stencil point is found by
    Newton iteration; first and second derivatives of the re-graphed
    surface follow from the exact change-of-variables formulas.
    """
    rot = np.vstack([frame.e1, frame.e2, frame.e3, frame.e4])
    phi0, psi0 = eval_surface(sd, point, order=1)
    base = np.array([point[0], point[1],
                     float(phi0.value), float(psi0.value)])
    # initial guess from the tangent chart
    xy = np.asarray(point, dtype=float) + frame.chart.T @ target_uv
    phj = psj = None
    for _ in range(40):
        with warnings.catch_warnings():
            # the domain check happens once Newton has landed
            warnings.simplefilter("ignore")
            phj, psj = eval_surface(sd, xy, order=2)
        pos = np.array([xy[0], xy[1], float(phj.value), float(psj.value)])
        res = rot[:2] @ (pos - base) - target_uv
        if np.hypot(res[0], res[1]) < 1e-14 * max(1.0, h):
            break
        jac = rot[:2] @ np.array([
            [1.0, 0.0],
            [0.0, 1.0],
            [float(phj.derivative(1, 0)), float(phj.derivative(0, 1))],
            [float(psj.derivative(1, 0)), float(psj.derivative(0, 1))],
        ])
        xy = xy - np.linalg.solve(jac, res)
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
        val = weights @ (np.array([xy[0], xy[1], float(phj.value),
                                   float(psj.value)]) - base)
        dx = weights @ np.array([1.0, 0.0, float(phj.derivative(1, 0)),
                                 float(psj.derivative(1, 0))])
        dy = weights @ np.array([0.0, 1.0, float(phj.derivative(0, 1)),
                                 float(psj.derivative(0, 1))])
        grad = np.array([dx, dy])
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


def isoclinic_form_closedness(sd, point, h=1e-3):
    """|d theta| for theta = (a+f) omega_1 + (b+g) omega_2, by central FD.

    The form is evaluated in the chart adapted at ``point`` (surface
    re-graphed over its own tangent plane, the chart in which the paper's
    frame quantities are defined); at the four stencil points it is
    converted to chart (dx, dy) components through the coframe, and the
    exterior-derivative coefficient is the central difference of those
    components.  Evaluating instead in a fixed ambient Monge chart makes
    the residual frame-dependent and O(1) even on K = kappa surfaces.
    """
    mf0 = monge_frame(sd, point)
    frame0 = adapted_frame(mf0)

    def theta_components(target_uv):
        phi, psi = _adapted_chart_jets(sd, point, frame0,
                                       np.asarray(target_uv, float), h)
        mf = monge_frame(sd, target_uv, jets=(phi, psi))
        frame = adapted_frame(mf)
        sf = _second_form_from(mf, frame)
        return frame.coframe.T @ np.array([sf.a + sf.f, sf.b + sf.g])

    q_plus = theta_components((h, 0.0))[1]
    q_minus = theta_components((-h, 0.0))[1]
    p_plus = theta_components((0.0, h))[0]
    p_minus = theta_components((0.0, -h))[0]
    return abs((q_plus - q_minus) / (2 * h) - (p_plus - p_minus) / (2 * h))


def delta_field_diagnostic(sd, point, h=1e-3, tol=None):
    """Finite-difference gradient and Hessian determinant of the Delta field.

    The H_Delta / K ratio is reported for inspection only; no identity is
    asserted (the proportionality constant comes from external sources
    without a value).
    """
    def delta_at(pt):
        return curvature_report(sd, pt, tol=tol).delta

    x, y = point
    d0 = delta_at(point)
    dpx, dmx = delta_at((x + h, y)), delta_at((x - h, y))
    dpy, dmy = delta_at((x, y + h)), delta_at((x, y - h))
    gx = (dpx - dmx) / (2 * h)
    gy = (dpy - dmy) / (2 * h)
    dxx = (dpx - 2 * d0 + dmx) / h**2
    dyy = (dpy - 2 * d0 + dmy) / h**2
    dpp = delta_at((x + h, y + h))
    dpm = delta_at((x + h, y - h))
    dmp = delta_at((x - h, y + h))
    dmm = delta_at((x - h, y - h))
    dxy = (dpp - dpm - dmp + dmm) / (4 * h**2)
    hess = dxx * dyy - dxy * dxy
    K = curvature_report(sd, point, tol=tol).K
    ratio = hess / K if abs(K) > 1e-12 else None
    return DeltaFieldDiagnostic(grad=(gx, gy), hessian_det=hess, K=K,
                                ratio=ratio)
