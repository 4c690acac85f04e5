"""Coordinates on the Grassmannian of oriented 2-planes in R^4.

Pluecker coordinates are kept in the order (p12, p13, p14, p34, p42, p23),
with p42 rather than p24.  Sphere-pair (Klein) coordinates are

    a = (p12 + p34, p13 + p42, p14 + p23)
    b = (p12 - p34, p13 - p42, p14 - p23)

and both are automatically unit vectors for a valid Pluecker point.  The
two Gauss-map sphere components are Gamma_1 := a and Gamma_2 := b of the
tangent plane; this is the one convention used everywhere in the package
(closed-form sphere maps found elsewhere differ from it by fixed axis
relabelings, under which every invariant assertion is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import _raise_first, eval_points
from .frames import (InternalInconsistencyError, _central, _norm, _rows,
                     _slopes, _tangents, form_overflow, monge_curvatures,
                     monge_frame)
from .jets import Jet

# index pairs (i, j) of the coordinate 2-planes, in the fixed order
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
# their first and second indices
PLUCKER_I, PLUCKER_J = np.array(PLUCKER_PAIRS).T

# the coordinate swap exchanging the 3rd and 4th axes of R^4
C_SWAP = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])
# the sphere-axis relabeling C_SWAP induces; its lift also swaps a and b
C_AXES = [0, 2, 1]


def wedge6(v1, v2):
    """The six 2x2 minors of each row pair of (v1, v2), in Pluecker
    order, as rows."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return _rows(*[v1[..., i] * v2[..., j] - v1[..., j] * v2[..., i]
                   for i, j in PLUCKER_PAIRS])


# the (x, y)-plane as a Pluecker point
XY_PLANE = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


@dataclass
class KleinPoint:
    a_vec: np.ndarray
    b_vec: np.ndarray
    a_norm: np.ndarray
    b_norm: np.ndarray


@dataclass
class GreatCircleFit:
    alpha: np.ndarray
    residual: float
    degenerate: bool


# Vector functions act on the last axis: an (n, k) array is n rows, and
# a k-vector is one.


def plucker_from_pair(v1, v2):
    """Normalized wedge of each row pair of independent 4-vectors: the
    Pluecker point of their plane, a unit 6-row."""
    with np.errstate(all="ignore"):
        w = wedge6(v1, v2)
        norm = _norm(w)
        if np.any(norm <= 1e-12):
            raise ValueError(
                "vectors are linearly dependent (wedge norm <= 1e-12)")
        return w / norm[..., None]


def klein_from_plucker(p):
    """Sphere-pair coordinates of the Pluecker points ``p`` (rows);
    checks that both norms are 1 to 1e-10, then divides each vector by
    its norm.

    For a valid Pluecker point |a| = |b| = 1 holds identically (the sphere
    and quadric relations combine); a violation signals an invalid input.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(all="ignore"):
        a = _rows(p[..., 0] + p[..., 3], p[..., 1] + p[..., 4],
                  p[..., 2] + p[..., 5])
        b = _rows(p[..., 0] - p[..., 3], p[..., 1] - p[..., 4],
                  p[..., 2] - p[..., 5])
        a_norm = _norm(a)
        b_norm = _norm(b)
        unit = (np.abs(a_norm - 1.0) <= 1e-10) & (np.abs(b_norm - 1.0) <= 1e-10)
        _raise_first(range(unit.size), [(~unit.ravel(), lambda i: ValueError(
            f"Klein vectors are not unit (|a| = {float(a_norm.flat[i])}, "
            f"|b| = {float(b_norm.flat[i])}); input is not a valid "
            "Pluecker point"))])
        return KleinPoint(a / a_norm[..., None], b / b_norm[..., None],
                          a_norm, b_norm)


def tangent_pair(phi, psi, points):
    """(T1, T2) rows of the jets ``phi``, ``psi`` at ``points``; it reads
    only their slopes, so the jets may be of any order >= 1."""
    px, py, qx, qy = _slopes(phi, psi)
    with np.errstate(all="ignore"):
        # |T1 ^ T2|^2 = W is 1 plus these squares; plucker_from_pair
        # divides by its root
        minor = px * qy - qx * py
        total = px * px + py * py + qx * qx + qy * qy + minor * minor
    _raise_first(points, [(~np.isfinite(total), form_overflow)])
    return _tangents(px, py, qx, qy)


def gauss_map_at(phi, psi, points):
    """Tangent planes of the jets ``phi``, ``psi`` (any order >= 1) at
    ``points``, as (Pluecker rows, KleinPoint)."""
    t1, t2 = tangent_pair(phi, psi, points)
    plucker = plucker_from_pair(t1, t2)
    return plucker, klein_from_plucker(plucker)


@dataclass
class BlaschkeResult:
    residual1: np.ndarray
    residual2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    sign1: np.ndarray  # sign of t1 / ((K + kappa) sqrt(W)), 0 if tiny
    sign2: np.ndarray
    K: np.ndarray  # at the centres, by monge_curvatures
    kappa: np.ndarray
    sqrt_w: np.ndarray


# central-difference step of the Blaschke check
BLASCHKE_STEP = 1e-4


def blaschke_check(sd, points):
    """Pullback-of-area-form identities, checked by central differences,
    as one :class:`BlaschkeResult` over ``points``.

    t_i is the triple product (d_x Gamma_i x d_y Gamma_i) . Gamma_i; the
    identities fix |t_1| = |K + kappa| sqrt(W) and
    |t_2| = |K - kappa| sqrt(W).  Signs are reported for calibration, not
    asserted.  Stages run over all points, each raising for its first
    failing point: every moved stencil point against the domain, one
    order-2 evaluation of the four stencil points of every point and then
    of the centres, the Gauss map of all of them (it reads the slopes),
    and the curvatures of the centres.
    """
    h = BLASCHKE_STEP
    centres = np.array(points, dtype=float).reshape(-1, 2)
    n = len(centres)
    # rows (x + h, y), (x - h, y), (x, y + h), (x, y - h) per point; a
    # coordinate that does not move keeps its own float
    moved = np.repeat(centres, 4, 0)
    for row, col, step in ((0, 0, h), (1, 0, -h), (2, 1, h), (3, 1, -h)):
        moved[row::4, col] += step
    # a centre outside the domain has a moved point outside before it
    _raise_first(moved, [(~sd.domain.contains(moved.T), lambda pt: (
        ValueError(f"Blaschke stencil point {tuple(map(float, pt))} leaves "
                   "the domain")))])
    stencils = np.concatenate([moved, centres])
    phi, psi = eval_points(sd, stencils, 2)
    _, klein = gauss_map_at(phi, psi, stencils)

    with np.errstate(all="ignore"):
        t1, t2 = (np.vecdot(_cross(*_central(v[:4 * n], h)), v[4 * n:])
                  for v in (klein.a_vec, klein.b_vec))
        mf = monge_frame(Jet(2, phi.c[:, 4 * n:]), Jet(2, psi.c[:, 4 * n:]),
                         centres)
        K, kappa = monge_curvatures(mf)
        sqrt_w = np.sqrt(mf.W)
        rhs1 = np.abs(K + kappa) * sqrt_w
        rhs2 = np.abs(K - kappa) * sqrt_w

        def sign_of(t, rhs_signed):
            tiny = (np.abs(rhs_signed) < 1e-7) | (np.abs(t) < 1e-7)
            return np.where(tiny, 0.0, np.sign(t / rhs_signed))

        return BlaschkeResult(
            np.abs(np.abs(t1) - rhs1), np.abs(np.abs(t2) - rhs2), t1, t2,
            sign_of(t1, (K + kappa) * sqrt_w),
            sign_of(t2, (K - kappa) * sqrt_w), K, kappa, sqrt_w)


def _cross(u, v):
    """The cross product of each row pair of the 3-vector rows ``u``,
    ``v``, bit for bit ``np.cross(u, v)`` without its argument handling."""
    return _rows(u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
                 u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
                 u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])


# largest difference of the principal-angle cosines of isoclinic planes
ISOCLINIC_TOL = 1e-8


def _basis(p):
    """An orthonormal basis of the plane of the Pluecker point ``p``
    (columns of a 4x2 matrix)."""
    m = np.zeros((4, 4))
    m[PLUCKER_I, PLUCKER_J] = p
    m[PLUCKER_J, PLUCKER_I] = -np.asarray(p)
    u, _, _ = np.linalg.svd(m)
    return u[:, :2]


def planes_isoclinic(p1, p2):
    """True when the planes of the Pluecker points ``p1``, ``p2`` have
    equal principal angles.

    Orthonormal bases are reconstructed from the Pluecker data, and the
    singular values of the 2x2 matrix of mutual inner products (the
    cosines of the principal angles) must agree to ``ISOCLINIC_TOL``.
    """
    sv = np.linalg.svd(_basis(p1).T @ _basis(p2), compute_uv=False)
    return bool(abs(sv[0] - sv[1]) <= ISOCLINIC_TOL)


def graph_plane(alpha, beta):
    """Pluecker point of the plane u = alpha1 x + beta1 y,
    v = alpha2 x + beta2 y."""
    return plucker_from_pair(*_tangents(alpha[0], beta[0], alpha[1], beta[1]))


def isosup_residuals(alpha, beta):
    """(| |alpha|^2 - |beta|^2 |, |alpha . beta|) for the algebraic test."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return (abs(float(alpha @ alpha - beta @ beta)),
            abs(float(alpha @ beta)))


def lift_so4(m):
    """The induced orthogonal action on wedge coordinates, as a 6x6 array.

    Columns are the wedges of column pairs of the orthogonal 4x4 matrix
    ``m``, in Pluecker order; the lift satisfies
    wedge(Av1, Av2) = lift(A) wedge(v1, v2) and lift(AB) = lift(A) lift(B).
    """
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m @ m.T - np.eye(4))) > 1e-10:
        raise ValueError("matrix is not orthogonal to 1e-10")
    # C-contiguous, as a product with it rounds by its layout
    m6 = np.ascontiguousarray(wedge6(m[:, PLUCKER_I].T, m[:, PLUCKER_J].T).T)
    if np.max(np.abs(m6 @ m6.T - np.eye(6))) > 1e-10:
        raise InternalInconsistencyError("lift is not orthogonal to 1e-10")
    return m6


BETA_TARGET = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0])


def _left_quaternion_matrix(q):
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def _so4_rotating_a_factor(axis, angle):
    """SO(4) element whose lift rotates the a-sphere by ``angle`` about
    ``axis`` and fixes the b-sphere (quaternion left multiplication)."""
    q = np.concatenate([[np.cos(angle / 2.0)],
                        np.sin(angle / 2.0) * np.asarray(axis, float)])
    return _left_quaternion_matrix(q)


def _alpha_matrix(alpha):
    a1, a2, a3 = alpha
    s = np.sqrt(a1 * a1 + a2 * a2)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, a2 / s, a1, a1 * a3 / s],
        [0.0, -a1 / s, a2, a2 * a3 / s],
        [0.0, 0.0, a3, -s],
    ])


def rotation_from_alpha(alpha):
    """The 4x4 rotation whose lift sends BETA_TARGET to (alpha, alpha).

    For alpha1^2 + alpha2^2 below 1e-12 the explicit matrix degenerates;
    the construction is then applied to alpha with its last two sphere
    axes exchanged and composed with the SO(4) element rotating the
    a-sphere factor back (axis exchange itself is improper, so the proper
    rotation taking the swapped vector to alpha stands in for it).  The
    orthogonality of the matrix (inside ``lift_so4``) and the numeric
    postcondition are verified on every call.
    """
    alpha = np.asarray(alpha, dtype=float)
    if abs(_norm(alpha) - 1.0) > 1e-10:
        raise ValueError("alpha must be a unit 3-vector")
    a1, a2, a3 = alpha
    if a1 * a1 + a2 * a2 < 1e-12:
        swapped = np.array([a1, a3, a2])
        cross = _cross(swapped, alpha)
        angle = np.arctan2(_norm(cross), float(swapped @ alpha))
        axis = cross / _norm(cross)
        m = _so4_rotating_a_factor(axis, angle) @ _alpha_matrix(swapped)
    else:
        m = _alpha_matrix(alpha)
    image = lift_so4(m) @ BETA_TARGET
    target = np.concatenate([alpha, alpha])
    if np.max(np.abs(image - target)) > 1e-10:
        raise InternalInconsistencyError(
            "lift postcondition failed: lift(A) beta != (alpha, alpha)"
        )
    return m


def _first_positive(v):
    """``v`` or ``-v``, whichever has its first component of magnitude
    > 1e-12 positive (``v`` when there is none)."""
    for comp in v:
        if abs(comp) > 1e-12:
            return -v if comp < 0 else v
    return v


def great_circle_fit(samples):
    """Best great circle through unit 3-vector samples.

    alpha is the smallest-eigenvalue eigenvector of the Gram matrix of the
    samples, sign-fixed so its first nonzero component is positive; the
    residual is max |alpha . s|.  A rank-deficient sample set (circle not
    unique) is flagged degenerate.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise ValueError("need at least 3 sample vectors of dimension 3")
    gram = pts.T @ pts
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    alpha = _first_positive(eigenvectors[:, 0])
    residual = float(np.max(np.abs(pts @ alpha)))
    scale = max(float(eigenvalues[-1]), 1e-300)
    degenerate = bool(eigenvalues[1] <= 1e-12 * scale)
    return GreatCircleFit(alpha=alpha, residual=residual,
                          degenerate=degenerate)
