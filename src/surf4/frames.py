"""Metric and curvature machinery for Monge surfaces in R^4, over batches
of points.

Conventions fixed here and relied on throughout:

* Tangent basis T1 = (1, 0, phi_x, psi_x), T2 = (0, 1, phi_y, psi_y);
  normal basis N1 = (-phi_x, -phi_y, 1, 0), N2 = (-psi_x, -psi_y, 0, 1).
* The adapted frame comes from Gram-Schmidt of (T1, T2) and (N1, N2) in
  that order.  Second-fundamental-form coefficients a..g are frame
  dependent; every reported invariant (K, kappa, Delta, whether an
  isoclinic direction exists) is corrected by the frame-orientation signs
  so that it is frame independent and matches the Monge-chart
  determinant formulas.
* Every function takes a batch: jets whose coefficients carry a trailing
  axis of n points with the sequence of the points, or vectors as the
  rows of an (n, k) array; one point is the batch with n = 1.  A point's
  numbers do not depend on its batch (reductions run per row: ``_norm``,
  ``np.vecdot``, stacked ``solve``, ``det`` and ``svd``), and errors come
  in the order of a point-by-point run (:func:`_first_error`).
"""

from __future__ import annotations

import functools
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


def _powers(scale, k):
    """``s ** k`` for each element s of ``scale`` as a Python float, which
    raises ``OverflowError`` past the largest float (numpy would round
    differently and give inf)."""
    return np.array([s ** k for s in scale.tolist()])


def _bands(scale):
    """Absolute bands at the largest second-derivative magnitudes
    ``scale``; their fourth power raises ``OverflowError`` past the
    largest float."""
    return {
        "delta": TOLERANCES["delta"] * _powers(scale, 4),
        "kappa": TOLERANCES["kappa"] * _powers(scale, 2),
        "k": TOLERANCES["k"] * _powers(scale, 2),
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
    # product of the signs of det of (e1,e2) in the (T1,T2) basis and of
    # det of (e3,e4) in the (N1,N2) basis
    orientation: np.ndarray


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


def form_overflow(point):
    """The error for a point whose first fundamental form overflows."""
    return SurfaceEvalError("first fundamental form overflows at point "
                            f"{tuple(map(float, point))}")


def _raise_first(points, checks):
    """Raise, for the first of ``points`` that fails one of ``checks``,
    the error of the first check it fails; ``checks`` holds (failed over
    the points, error(point)) pairs in the order a point meets them."""
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        for mask, error in checks:
            if mask[i]:
                raise error(points[i])


def _first_error(n, batch, one):
    """``batch()`` over n points; when it raises, ``one(i)`` for each
    point i in order, so that the first point that fails alone raises
    its own error, as a point-by-point run would.  The batch error is
    raised if no point fails alone.  The errors rerun are those a check
    raises: ``SurfaceEvalError`` and ``OverflowError`` (arithmetic),
    ``ValueError`` and ``LinAlgError``, and internal inconsistencies."""
    try:
        return batch()
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        if n == 1:
            raise
        error = exc
    for i in range(n):
        one(i)
    raise error


def _pointwise_errors(batch):
    """``batch(phi, psi, points)`` whose error, when it raises, is the
    one the first failing point raises alone (see :func:`_first_error`)."""
    @functools.wraps(batch)
    def run(phi, psi, points):
        return _first_error(
            len(points), lambda: batch(phi, psi, points),
            lambda i: batch(Jet(phi.order, phi.c[:, i:i + 1]),
                            Jet(psi.order, psi.c[:, i:i + 1]),
                            points[i:i + 1]))
    return run


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
            (W <= 0.0, lambda point: SurfaceEvalError(
                "first fundamental form is numerically singular at point "
                f"{tuple(map(float, point))}")),
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


def _coords_in(basis1, basis2, vectors):
    """Per point, the components of each of ``vectors`` in the (basis1,
    basis2) span, as rows: one Gram matrix per point and one stacked
    solve that keeps one right-hand side per system (one system with
    both right-hand sides rounds differently)."""
    g = _rows(np.vecdot(basis1, basis1), np.vecdot(basis1, basis2),
              np.vecdot(basis1, basis2), np.vecdot(basis2, basis2))
    rhs = _rows(*[np.vecdot(v, basis) for v in vectors
                  for basis in (basis1, basis2)])
    return np.linalg.solve(g.reshape(-1, 1, 2, 2),
                           rhs.reshape(-1, len(vectors), 2, 1))[..., 0]


def adapted_frame(mf):
    """Orthonormal adapted frame by Gram-Schmidt of (T1, T2) and (N1, N2)."""
    with np.errstate(all="ignore"):
        e1, e2 = _gram_schmidt_pair(mf.t1, mf.t2)
        e3, e4 = _gram_schmidt_pair(mf.n1, mf.n2)
        chart = _coords_in(mf.t1, mf.t2, (e1, e2))
        normal_coords = _coords_in(mf.n1, mf.n2, (e3, e4))
        signs = np.sign(np.linalg.det(np.stack([chart, normal_coords],
                                               axis=1)))
    return AdaptedFrame(e1, e2, e3, e4, chart, signs[:, 0] * signs[:, 1])


def _second_derivatives(phi_jet, psi_jet):
    """(phi_xx, phi_xy, phi_yy, psi_xx, psi_xy, psi_yy), each an array
    over the points."""
    return tuple(jet.derivative(*k) for jet in (phi_jet, psi_jet)
                 for k in ((2, 0), (1, 1), (0, 2)))


def _second_form_from(mf, frame):
    """Coefficients (a, b, c) toward e3 and (e, f, g) toward e4 of II."""
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
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


def _require_close(name, u, v, scale):
    """Raise at the first point where the routes ``u`` and ``v`` of
    ``name`` differ by more than 1e-9 relative."""
    with np.errstate(all="ignore"):
        # a NaN route fails no comparison, whatever the bound
        failed = np.abs(u - v) > 1e-9 * np.maximum.reduce(
            [np.ones_like(u), scale, np.abs(u), np.abs(v)])
    if failed.any():
        i = int(np.argmax(failed))
        raise InternalInconsistencyError(
            f"{name} routes disagree: {float(u[i])!r} vs {float(v[i])!r}")


def resultant_determinant(a, b, c, e, f, g):
    """Delta as one quarter of the 4x4 resultant determinant."""
    m = np.zeros((len(a), 4, 4))
    m[:, 0, :3] = _rows(a, 2 * b, c)
    m[:, 1, :3] = _rows(e, 2 * f, g)
    m[:, 2, 1:] = _rows(a, 2 * b, c)
    m[:, 3, 1:] = _rows(e, 2 * f, g)
    with np.errstate(all="ignore"):
        return 0.25 * np.linalg.det(m)


@_pointwise_errors
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
    try:
        frame = adapted_frame(mf)
    except np.linalg.LinAlgError:
        # the tangent or normal Gram matrix is singular in floating point,
        # as for a plane so steep that 1 + slope^2 rounds to slope^2; the
        # point named is the batch's first, and a batch of one names it
        raise SurfaceEvalError(
            "adapted frame is numerically singular at point "
            f"{tuple(map(float, points[0]))}") from None
    a, b, c, e, f, g = _second_form_from(mf, frame)
    sigma = frame.orientation

    k_hessian, kappa_det = monge_curvatures(mf)
    pxx, pxy, pyy, qxx, qxy, qyy = _second_derivatives(mf.phi_jet,
                                                       mf.psi_jet)
    with np.errstate(all="ignore"):
        k1, k2 = a * c - b * b, e * g - f * f
        k_frame = k1 + k2
        kappa_raw = (a - c) * f - (e - g) * b
        kappa_frame = sigma * kappa_raw
        scale = np.abs(pxx)
        for d in (pxy, pyy, qxx, qxy, qyy):
            scale = np.maximum(scale, np.abs(d))
        try:
            bands = _bands(scale)
        except OverflowError:
            # Delta and its bounds live at scale^4, past the largest float
            raise SurfaceEvalError(
                "second derivatives overflow the Delta bound at point "
                f"{tuple(map(float, points[0]))}") from None
        _require_close("K", k_hessian, k_frame, _powers(scale, 2))
        _require_close("kappa", kappa_det, kappa_frame, _powers(scale, 2))

        A = a * f - b * e
        B = a * g - c * e
        C = b * g - c * f
        # B ** 2 of one float64 each, as numpy computes it for a number
        delta_expanded = A * C - 0.25 * np.array([v ** 2 for v in B])
        delta_resultant = resultant_determinant(a, b, c, e, f, g)
        _require_close("Delta", delta_expanded, delta_resultant,
                       _powers(scale, 4))

        K = k_frame
        kappa = kappa_frame
        delta = delta_expanded

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
        isoclinic = ~((np.abs(K - kappa_raw) > band)
                      & (np.abs(K + kappa_raw) > band))

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


def _adapted_chart_jets(sd, targets):
    """Order-2 jets of the surface re-graphed in an adapted chart, as one
    ``(phi, psi)`` batch with a column per target.

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
        phi, psi = eval_points(sd, [xys[i] for i in active], 2)
        t1s, t2s = _tangents(*_slopes(phi, psi))
        second = _rows(*_second_derivatives(phi, psi))
        pending = []
        for j, i in enumerate(active):
            _, _, rot, base, target_uv = targets[i]
            xy = xys[i]
            pos = np.array([xy[0], xy[1], phi.value[j], psi.value[j]])
            t1, t2 = t1s[j], t2s[j]
            res = rot[:2] @ (pos - base) - target_uv
            if np.hypot(res[0], res[1]) < 1e-14:
                found[i] = (xy, second[j], pos, t1, t2)
                continue
            xys[i] = xy - np.linalg.solve(
                rot[:2] @ np.column_stack([t1, t2]), res)
            pending.append(i)
        active = pending
    columns = []
    for (point, _, rot, base, _), inverse in zip(targets, found):
        if inverse is None:
            raise ValueError(f"chart inversion did not converge near {point}")
        xy, second, pos, t1, t2 = inverse
        if not sd.domain.contains(xy):
            raise ValueError(
                f"closedness stencil point {tuple(map(float, xy))} leaves "
                "the domain"
            )
        columns.append(_regraphed_coefficients(rot, base, second, pos, t1,
                                               t2))
    phi_c, psi_c = np.stack(columns, axis=-1)
    return Jet(2, phi_c), Jet(2, psi_c)


def _regraphed_coefficients(rot, base, second, pos, t1, t2):
    """Order-2 jet coefficients of the rotated coordinates 3 and 4 as
    functions of the rotated coordinates 1 and 2, from the second
    derivatives ``second`` of phi and psi at the preimage, its position
    ``pos`` and its tangents ``t1``, ``t2``."""
    pxx, pxy, pyy, qxx, qxy, qyy = second
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
        # slots in jet order: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)
        out.append([val, grad_uv[0], grad_uv[1], hess_uv[0, 0],
                    hess_uv[0, 1], hess_uv[1, 1]])
    return np.array(out)


@_pointwise_errors
def _frames_at(phi, psi, points):
    """The adapted frames of the order-2 jets at ``points``."""
    return adapted_frame(monge_frame(phi, psi, points))


# central-difference step of the closedness check, in adapted-chart units
CLOSEDNESS_STEP = 1e-3


@_pointwise_errors
def _theta_components(phi, psi, target_uvs):
    """Chart (dx, dy) components of theta from the re-graphed jets at the
    adapted-chart points ``target_uvs``, one row per point, through the
    coframe, the inverse of the transposed chart matrix."""
    mf = monge_frame(phi, psi, target_uvs)
    frame = adapted_frame(mf)
    a, b, _, _, f, g = _second_form_from(mf, frame)
    with np.errstate(all="ignore"):
        coframe = np.linalg.inv(frame.chart.transpose(0, 2, 1))
        return np.matmul(coframe.transpose(0, 2, 1),
                         _rows(a + f, b + g)[:, :, None])[:, :, 0]


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
    The points are evaluated in one call, their frames formed in one
    batch, the stencil preimages of all of them solved together (see
    :func:`_adapted_chart_jets`) and theta formed in one batch.
    """
    h = CLOSEDNESS_STEP
    stencil = [np.array(uv) for uv in ((h, 0.0), (-h, 0.0), (0.0, h),
                                       (0.0, -h))]
    phi0, psi0 = eval_points(sd, points, 2)
    frame0 = _frames_at(phi0, psi0, points)
    rot = np.stack([frame0.e1, frame0.e2, frame0.e3, frame0.e4], axis=1)
    base = _rows(*np.array(points, dtype=float).reshape(-1, 2).T,
                 phi0.value, psi0.value)
    targets = [(point, frame0.chart[i], rot[i], base[i], uv)
               for i, point in enumerate(points) for uv in stencil]
    phi, psi = _adapted_chart_jets(sd, targets)
    theta = _theta_components(phi, psi, [target[4] for target in targets])
    theta = theta.reshape(-1, 4, 2)
    q_plus, q_minus = theta[:, 0, 1], theta[:, 1, 1]
    p_plus, p_minus = theta[:, 2, 0], theta[:, 3, 0]
    return np.abs((q_plus - q_minus) / (2 * h) - (p_plus - p_minus) / (2 * h))
