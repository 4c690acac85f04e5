"""Metric and curvature machinery for Monge surfaces in R^4, over batches
of points.

Conventions fixed here and relied on throughout:

* Tangent basis T1 = (1, 0, phi_x, psi_x), T2 = (0, 1, phi_y, psi_y);
  normal basis N1 = (-phi_x, -phi_y, 1, 0), N2 = (-psi_x, -psi_y, 0, 1).
* The adapted frame comes from Gram-Schmidt of (T1, T2) and (N1, N2) in
  that order, so each new pair is its old pair times a triangular matrix
  with a positive diagonal and keeps that pair's handedness.  This one
  convention fixes the sign of kappa (the sign of its Monge-chart
  determinant formula); no invariant is corrected by a run-time sign.
* Every function takes a batch: jets whose coefficients carry a trailing
  axis of n points with the sequence of the points, or vectors as the
  rows of an (n, k) array; one point is the batch with n = 1.  A point's
  numbers do not depend on its batch (reductions run per row: ``_norm``,
  ``np.vecdot``, ``_matvecs``, stacked ``solve``, ``det`` and ``svd``).
  Each check runs over the whole batch and raises for the first point it
  fails at, so a batch raises an error that one of its points raises
  alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import SurfaceEvalError, _raise_first, eval_points
from .jets import _power


class InternalInconsistencyError(RuntimeError):
    """Two independent formulas for the same invariant disagree.

    Signals an implementation bug, not bad input.
    """


# relative tolerance factors of point classification; reports embed them
TOLERANCES = {"delta": 1e-9, "kappa": 1e-8, "k": 1e-8, "rank": 1e-8,
              "wong": 1e-8}


def _bands(scale, scale2, scale4):
    """Absolute bands at the largest second-derivative magnitudes
    ``scale``, given their squares and fourth powers."""
    return {
        "delta": TOLERANCES["delta"] * scale4,
        "kappa": TOLERANCES["kappa"] * scale2,
        "k": TOLERANCES["k"] * scale2,
        "rank": TOLERANCES["rank"] * scale,
    }


def wong_band(K, kappa):
    """The band within which |K -+ kappa| = 0 counts as isoclinic."""
    return TOLERANCES["wong"] * np.maximum(np.maximum(np.abs(K),
                                                      np.abs(kappa)), 1.0)


@dataclass
class MongeFrame:
    t1: np.ndarray
    t2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    W: np.ndarray
    Ehat: np.ndarray
    Fhat: np.ndarray
    Ghat: np.ndarray
    phi_jet: object
    psi_jet: object


@dataclass
class AdaptedFrame:
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    chart: np.ndarray  # per point, rows: (dx, dy) components of e1, e2


@dataclass
class CurvatureReport:
    K: np.ndarray
    kappa: np.ndarray
    mean_h: tuple
    K1: np.ndarray
    K2: np.ndarray
    delta: np.ndarray
    point_class: np.ndarray     # hyperbolic | parabolic | elliptic
    inflection: np.ndarray      # none | real | flat | imaginary
    isoclinic: np.ndarray       # |K -+ kappa| within wong_band
    gauss_singular: np.ndarray


def _at(message):
    """error(point) for :func:`_raise_first`: ``message`` at the point."""
    return lambda point: SurfaceEvalError(
        f"{message} at point {tuple(map(float, point))}")


# the error for a point whose first fundamental form overflows
form_overflow = _at("first fundamental form overflows")


def _slopes(phi, psi):
    """(phi_x, phi_y, psi_x, psi_y), each an array over the points.

    Products of them may overflow: the arithmetic on them runs under
    ``np.errstate(all="ignore")``, and the checks that read it test
    finiteness explicitly.
    """
    return tuple(jet.derivative(*k) for jet in (phi, psi)
                 for k in ((1, 0), (0, 1)))


def _rows(*columns):
    """The rows of the columns ``columns`` (arrays over the points, or
    numbers) as a C-contiguous array; numbers alone give one row."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _worst(*values):
    """The largest of 0.0 and every number in ``values`` (numbers or
    arrays), passing over NaN as a running ``max`` from 0.0 does."""
    return float(np.fmax.reduce(np.concatenate(
        [np.ravel(v) for v in values]), initial=0.0))


def _matvecs(m, rows):
    """``m @ v`` for each row v of ``rows``, with one matrix ``m`` or a
    stack of matrices, one per row: bit for bit one product per row."""
    return np.matmul(m, rows[..., None])[..., 0]


def _central(values, h):
    """Central differences (d/dx, d/dy) of ``values`` at each point, from
    its four rows (x + h, y), (x - h, y), (x, y + h) and (x, y - h), in
    that order."""
    rows = values.reshape((-1, 4) + values.shape[1:])
    return ((rows[:, 0] - rows[:, 1]) / (2 * h),
            (rows[:, 2] - rows[:, 3]) / (2 * h))


def _tangents(px, py, qx, qy):
    """T1 = (1, 0, phi_x, psi_x) and T2 = (0, 1, phi_y, psi_y), as rows."""
    return _rows(1.0, 0.0, px, qx), _rows(0.0, 1.0, py, qy)


def monge_frame(phi, psi, points):
    """First-order frame data and fundamental-form coefficients of the
    order-2 jets ``phi``, ``psi`` at ``points``."""
    px, py, qx, qy = _slopes(phi, psi)
    t1, t2 = _tangents(px, py, qx, qy)
    n1 = _rows(-px, -py, 1.0, 0.0)
    n2 = _rows(-qx, -qy, 0.0, 1.0)
    with np.errstate(all="ignore"):
        # elementwise sums rather than dot products of t1, t2, n1, n2: a
        # dot may sum the four terms in another order and round otherwise
        E = 1.0 + px * px + qx * qx
        F = px * py + qx * qy
        G = 1.0 + py * py + qy * qy
        eg = E * G
        W = eg - F * F
        Ehat = px * px + py * py + 1.0
        Fhat = px * qx + py * qy
        Ghat = qx * qx + qy * qy + 1.0
        _check_hatted_identity(W, eg, Ehat * Ghat, Fhat * Fhat, points)
    return MongeFrame(t1, t2, n1, n2, E, F, G, W, Ehat, Fhat, Ghat, phi, psi)


def _check_hatted_identity(W, eg, eg_hat, ff_hat, points):
    """Check W = E*G - F^2 and Ehat*Ghat - Fhat^2 = W, given the products,
    at each of ``points``.

    W >= 1 in exact arithmetic: an inf or NaN W is the form overflow
    error, and a W that is not positive (an E*G of 1e16 or more cancelled
    down to its rounding error) the singular-form error.  Each side of the
    identity cancels when its products are large against W, as on a steep
    surface, and keeps only about 1e-16 of the larger product; so the
    bound is 1e-10 times the largest of 1, E*G and Ehat*Ghat (W is at
    most E*G).  For a surface of moderate slope both products are close
    to W, and the bound is 1e-10 relative to W.  Products that overflow
    are the form overflow error, not an inconsistency.
    """
    with np.errstate(all="ignore"):
        # a point that reaches this check has finite products
        bound = 1e-10 * np.maximum(np.maximum(eg, eg_hat), 1.0)
        _raise_first(points, [
            (~np.isfinite(W), form_overflow),
            (W <= 0.0, _at("first fundamental form is numerically singular")),
            (~(np.isfinite(eg_hat) & np.isfinite(ff_hat)), form_overflow),
            (np.abs(eg_hat - ff_hat - W) > bound,
             lambda point: InternalInconsistencyError(
                 "Ehat*Ghat - Fhat^2 differs from W beyond tolerance")),
        ])


def _norm(rows):
    """The Euclidean norm of each row (the last axis) of ``rows``, bit for
    bit ``np.linalg.norm`` of that row alone: a BLAS dot per C-contiguous
    row and a square root.  A square that overflows gives inf, without a
    warning."""
    rows = np.ascontiguousarray(rows, dtype=float)
    with np.errstate(all="ignore"):
        return np.sqrt(np.vecdot(rows, rows))


def _gram_schmidt_pair(v1, v2):
    e1 = v1 / _norm(v1)[:, None]
    w = v2 - np.vecdot(v2, e1)[:, None] * e1
    e2 = w / _norm(w)[:, None]
    return e1, e2


def _gram(basis1, basis2):
    """The 2x2 Gram matrix of each row pair of (basis1, basis2)."""
    return _rows(np.vecdot(basis1, basis1), np.vecdot(basis1, basis2),
                 np.vecdot(basis1, basis2),
                 np.vecdot(basis2, basis2)).reshape(-1, 2, 2)


def _coords_in(basis1, basis2, vectors):
    """Per point, the components of each of ``vectors`` in the (basis1,
    basis2) span, as rows: one Gram matrix per point and one stacked
    solve that keeps one right-hand side per system (one system with
    both right-hand sides rounds differently)."""
    rhs = _rows(*[np.vecdot(v, basis) for v in vectors
                  for basis in (basis1, basis2)])
    return np.linalg.solve(_gram(basis1, basis2)[:, None],
                           rhs.reshape(-1, len(vectors), 2, 1))[..., 0]


def adapted_frame(mf):
    """Orthonormal adapted frame by Gram-Schmidt of (T1, T2) and (N1, N2)."""
    with np.errstate(all="ignore"):
        e1, e2 = _gram_schmidt_pair(mf.t1, mf.t2)
        e3, e4 = _gram_schmidt_pair(mf.n1, mf.n2)
        chart = _coords_in(mf.t1, mf.t2, (e1, e2))
    return AdaptedFrame(e1, e2, e3, e4, chart)


def _second_derivatives(phi_jet, psi_jet):
    """(phi_xx, phi_xy, phi_yy, psi_xx, psi_xy, psi_yy), each an array
    over the points."""
    return tuple(jet.derivative(*k) for jet in (phi_jet, psi_jet)
                 for k in ((2, 0), (1, 1), (0, 2)))


def _second_form_from(second, frame):
    """Coefficients (a, b, c) toward e3 and (e, f, g) toward e4 of II,
    from the six second derivatives ``second`` of the chart that
    ``frame.chart`` refers to."""
    pxx, pxy, pyy, qxx, qxy, qyy = second
    dxx = _rows(0.0, 0.0, pxx, qxx)
    dxy = _rows(0.0, 0.0, pxy, qxy)
    dyy = _rows(0.0, 0.0, pyy, qyy)

    def second(u, v):
        return (u[:, 0] * v[:, 0])[:, None] * dxx \
            + (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0])[:, None] * dxy \
            + (u[:, 1] * v[:, 1])[:, None] * dyy

    p, q = frame.chart[:, 0], frame.chart[:, 1]
    with np.errstate(all="ignore"):
        pp, pq, qq = second(p, p), second(p, q), second(q, q)
    return (np.vecdot(pp, frame.e3), np.vecdot(pq, frame.e3),
            np.vecdot(qq, frame.e3), np.vecdot(pp, frame.e4),
            np.vecdot(pq, frame.e4), np.vecdot(qq, frame.e4))


def hessian_quantities(phi_jet, psi_jet):
    """The six Monge-chart determinants H_phi, H_psi, Q, L, M, N."""
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(phi_jet, psi_jet)
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
        w2 = mf.W * mf.W
        K = (mf.Ehat * hq["H_psi"] - mf.Fhat * hq["Q"]
             + mf.Ghat * hq["H_phi"]) / w2
        kappa = (mf.E * hq["L"] - mf.F * hq["M"] + mf.G * hq["N"]) / w2
    return K, kappa


def _disagree(u, v, scale):
    """Per point, whether the routes ``u`` and ``v`` differ by more than
    1e-9 relative to the largest of 1, ``scale``, |u| and |v|."""
    with np.errstate(all="ignore"):
        # a NaN route fails no comparison, whatever the bound
        return np.abs(u - v) > 1e-9 * np.maximum.reduce(
            [np.ones_like(u), scale, np.abs(u), np.abs(v)])


def _require_close(name, u, v, scale):
    """Raise at the first point where ``name``'s routes disagree."""
    _raise_first(range(len(u)), [(_disagree(u, v, scale), lambda i: (
        InternalInconsistencyError(f"{name} routes disagree: "
                                   f"{float(u[i])!r} vs {float(v[i])!r}")))])


def resultant_determinant(a, b, c, e, f, g):
    """Delta as one quarter of the 4x4 resultant determinant."""
    m = np.zeros((len(a), 4, 4))
    m[:, 0, :3] = _rows(a, 2 * b, c)
    m[:, 1, :3] = _rows(e, 2 * f, g)
    m[:, 2, 1:] = _rows(a, 2 * b, c)
    m[:, 3, 1:] = _rows(e, 2 * f, g)
    with np.errstate(all="ignore"):
        return 0.25 * np.linalg.det(m)


def curvature_report(phi, psi, points):
    """Full curvature/classification record of the order-2 jets ``phi``,
    ``psi`` at ``points``, one array entry per point.

    K, kappa and Delta are each computed along two independent routes
    (Monge-chart determinants vs adapted-frame coefficients, expanded
    discriminant vs resultant determinant) and must agree to 1e-9
    relative; disagreement raises :class:`InternalInconsistencyError`.
    Classification uses the bands of :data:`TOLERANCES`.
    """
    mf = monge_frame(phi, psi, points)
    # a tangent or normal Gram matrix singular in floating point, as for a
    # plane so steep that 1 + slope^2 rounds to slope^2, has det exactly 0
    # (its LU meets a zero pivot)
    grams = np.stack([_gram(mf.t1, mf.t2), _gram(mf.n1, mf.n2)], axis=1)
    _raise_first(points, [((np.linalg.det(grams) == 0.0).any(axis=1),
                           _at("adapted frame is numerically singular"))])
    second = _second_derivatives(phi, psi)
    a, b, c, e, f, g = _second_form_from(second, adapted_frame(mf))

    k_hessian, kappa_det = monge_curvatures(mf)
    pxx, pxy, pyy, qxx, qxy, qyy = second
    with np.errstate(all="ignore"):
        k1, k2 = a * c - b * b, e * g - f * f
        K = k1 + k2
        kappa = (a - c) * f - (e - g) * b
        scale = np.maximum.reduce(np.abs([pxx, pxy, pyy, qxx, qxy, qyy]))
        scale2, scale4 = _power(scale, 2), _power(scale, 4)
        # Delta and its bounds live at scale^4, past the largest float
        _raise_first(points, [(~np.isfinite(scale4), _at(
            "second derivatives overflow the Delta bound"))])
        bands = _bands(scale, scale2, scale4)
        # the determinant routes divide by W*W, inf past the largest
        # float: where a route fails there, the form overflows
        failed = (_disagree(k_hessian, K, scale2)
                  | _disagree(kappa_det, kappa, scale2))
        _raise_first(points, [(failed & ~np.isfinite(mf.W * mf.W),
                               form_overflow)])
        _require_close("K", k_hessian, K, scale2)
        _require_close("kappa", kappa_det, kappa, scale2)

        A = a * f - b * e
        B = a * g - c * e
        C = b * g - c * f
        delta = A * C - 0.25 * _power(B, 2)
        _require_close("Delta", delta, resultant_determinant(a, b, c, e, f, g),
                       scale4)

        point_class = np.where(
            delta < -bands["delta"], "hyperbolic",
            np.where(delta > bands["delta"], "elliptic", "parabolic"))
        inflection = np.where(
            (point_class == "parabolic") & (np.abs(kappa) <= bands["kappa"]),
            np.where(K < -bands["k"], "real",
                     np.where(K > bands["k"], "imaginary", "flat")),
            "none")

        # a NaN difference counts as within the band
        band = wong_band(K, kappa)
        isoclinic = ~((np.abs(K - kappa) > band)
                      & (np.abs(K + kappa) > band))

        d2 = np.stack([_rows(pxx, qxx, pxy, qxy), _rows(pxy, qxy, pyy, qyy)],
                      axis=1)
        singular_values = np.linalg.svd(d2, compute_uv=False)
        gauss_singular = singular_values[:, 1] <= bands["rank"]

        return CurvatureReport(
            K=K, kappa=kappa,
            mean_h=(0.5 * (a + c), 0.5 * (e + g)),
            K1=k1, K2=k2, delta=delta,
            point_class=point_class, inflection=inflection,
            isoclinic=isoclinic,
            gauss_singular=gauss_singular,
        )


def _chart_preimages(sd, points, frame, base, uv):
    """The preimages of chart targets on the surface: per target, the rows
    (e1, ..., e4) of the adapted frame at its point, and the tangent rows
    (T1, T2) and the six second derivatives at its preimage.

    ``uv`` holds the k chart points of each of ``points``, as an (n, k, 2)
    array, and each is a target.  The chart adapted at a point translates
    its surface point ``base`` to the origin and rotates R^4 by the rows
    of the adapted ``frame`` at it, making the tangent plane the new
    (x, y)-plane.  The preimage of each target is found by Newton
    iteration, each target from its own start and with its own stop and
    step; every iteration evaluates the targets not yet converged in one
    call, so each target takes the steps it would take alone.  Errors
    follow target order: a Newton iteration that does not converge, then
    a preimage outside the domain.
    """
    k = uv.shape[1]
    uv = uv.reshape(-1, 2)
    rot = np.repeat(np.stack([frame.e1, frame.e2, frame.e3, frame.e4],
                             axis=1), k, axis=0)
    base = np.repeat(base, k, axis=0)
    # initial guesses from the tangent charts
    xy = base[:, :2] + _matvecs(
        np.repeat(frame.chart, k, axis=0).transpose(0, 2, 1), uv)
    tangents, second = np.empty((len(uv), 2, 4)), np.empty((len(uv), 6))
    active = np.arange(len(uv))
    for _ in range(40):
        if not len(active):
            break
        phi, psi = eval_points(sd, xy[active], 2)
        t1, t2 = _tangents(*_slopes(phi, psi))
        moved = _rows(*xy[active].T, phi.value, psi.value) - base[active]
        res = _matvecs(rot[active, :2], moved) - uv[active]
        done = np.hypot(res[:, 0], res[:, 1]) < 1e-14
        tangents[active[done]] = np.stack([t1, t2], axis=1)[done]
        second[active[done]] = _rows(*_second_derivatives(phi, psi))[done]
        step, active = ~done, active[~done]
        jac = np.matmul(rot[active, :2], np.stack([t1, t2], axis=-1)[step])
        xy[active] -= np.linalg.solve(jac, res[step, :, None])[..., 0]
    stuck = np.zeros(len(uv), dtype=bool)
    stuck[active] = True
    _raise_first(range(len(uv)), [
        (stuck, lambda i: ValueError(
            f"chart inversion did not converge near {points[i // k]}")),
        (~sd.domain.contains(xy.T), lambda i: ValueError(
            f"closedness stencil point {tuple(map(float, xy[i]))} leaves "
            "the domain")),
    ])
    return rot, tangents, second


# central-difference step of the closedness check, in adapted-chart units
CLOSEDNESS_STEP = 1e-3


def isoclinic_form_closedness(sd, points):
    """|d theta| for theta = (a+f) omega_1 + (b+g) omega_2, by central FD,
    one residual per point of ``points``.

    The form is evaluated in the chart adapted at each point (surface
    graphed over its own tangent plane, the chart in which the paper's
    frame quantities are defined): at each stencil target the frame is
    Gram-Schmidt of that chart's coordinate vectors X_u, X_v and of its
    Monge normals, and theta(X_u), theta(X_v) go into the central
    difference (:func:`_central`).  Evaluating instead in a fixed ambient
    Monge chart makes the residual frame-dependent and O(1) even on
    K = kappa surfaces.  Stages run over all points, each raising for its
    first failing point: one evaluation, the frames, the stencil
    preimages (:func:`_chart_preimages`) and theta.
    """
    h = CLOSEDNESS_STEP
    stencil = np.array([(h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)])
    phi0, psi0 = eval_points(sd, points, 2)
    frame0 = adapted_frame(monge_frame(phi0, psi0, points))
    base = _rows(*np.array(points, dtype=float).reshape(-1, 2).T,
                 phi0.value, psi0.value)
    uv = np.broadcast_to(stencil, (len(base), 4, 2))
    rot, tangents, second = _chart_preimages(sd, points, frame0, base, uv)
    e1, e2, e3, e4 = rot.transpose(1, 0, 2)
    with np.errstate(all="ignore"):
        # rows X_u, X_v of [X_u X_v] = [T1 T2] (R12 [T1 T2])^-1, R12 the
        # rows (e1, e2), and the normals N_i = e_i - (e_i.X_u) e1
        # - (e_i.X_v) e2, i = 3, 4, of the chart (u, v) -> (u, v, ., .)
        jac = np.vecdot(rot[:, :2, None], tangents[:, None])
        x_uv = np.linalg.solve(jac.transpose(0, 2, 1), tangents)
        x_u, x_v = x_uv[:, 0], x_uv[:, 1]
        n3, n4 = (e - np.vecdot(e, x_u)[:, None] * e1
                  - np.vecdot(e, x_v)[:, None] * e2 for e in (e3, e4))
        u1, u2 = _gram_schmidt_pair(x_u, x_v)
        frame = AdaptedFrame(u1, u2, *_gram_schmidt_pair(n3, n4),
                             _coords_in(tangents[:, 0], tangents[:, 1],
                                        (u1, u2)))
        a, b, _, _, f, g = _second_form_from(second.T, frame)
        # theta(X_j) = (a + f) u1.X_j + (b + g) u2.X_j
        theta = ((a + f)[:, None] * np.vecdot(x_uv, u1[:, None])
                 + (b + g)[:, None] * np.vecdot(x_uv, u2[:, None]))
    d_x, d_y = _central(theta, h)
    return np.abs(d_x[:, 1] - d_y[:, 0])
