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

import math
from dataclasses import dataclass

import numpy as np

from .expr import eval_points, eval_surface
from .frames import (InternalInconsistencyError, _first_positive, _slopes,
                     _tangents, form_overflow, monge_curvatures, monge_frame)

# index pairs (i, j) of the coordinate 2-planes, in the fixed order
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

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
    """The six 2x2 minors of (v1, v2), in Pluecker order."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return np.array([v1[i] * v2[j] - v1[j] * v2[i] for i, j in PLUCKER_PAIRS])


# the (x, y)-plane as a Pluecker point
XY_PLANE = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


@dataclass
class KleinPoint:
    a_vec: np.ndarray
    b_vec: np.ndarray
    a_norm: float
    b_norm: float


@dataclass
class GreatCircleFit:
    alpha: np.ndarray
    residual: float
    degenerate: bool = False


def plucker_from_pair(v1, v2):
    """Normalized wedge of two independent 4-vectors: the Pluecker point
    of their plane, a unit 6-array."""
    w = wedge6(v1, v2)
    norm = np.linalg.norm(w)
    if norm <= 1e-12:
        raise ValueError("vectors are linearly dependent (wedge norm <= 1e-12)")
    return w / norm


def klein_from_plucker(p):
    """Sphere-pair coordinates of the Pluecker point ``p``; checks that
    both norms are 1 to 1e-10, then divides each vector by its norm.

    For a valid Pluecker point |a| = |b| = 1 holds identically (the sphere
    and quadric relations combine); a violation signals an invalid input.
    """
    a = np.array([p[0] + p[3], p[1] + p[4], p[2] + p[5]])
    b = np.array([p[0] - p[3], p[1] - p[4], p[2] - p[5]])
    a_norm = float(np.linalg.norm(a))
    b_norm = float(np.linalg.norm(b))
    if not (abs(a_norm - 1.0) <= 1e-10 and abs(b_norm - 1.0) <= 1e-10):
        raise ValueError(
            f"Klein vectors are not unit (|a| = {a_norm}, |b| = {b_norm}); "
            "input is not a valid Pluecker point"
        )
    return KleinPoint(a / a_norm, b / b_norm, a_norm, b_norm)


def tangent_pair(phi, psi, point):
    """(T1, T2) of the order-1 jets ``phi``, ``psi`` at ``point``."""
    px, py, qx, qy = _slopes(phi, psi)
    # |T1 ^ T2|^2 = W is 1 plus these squares; plucker_from_pair divides
    # by its root
    minor = px * qy - qx * py
    if not math.isfinite(px * px + py * py + qx * qx + qy * qy
                         + minor * minor):
        raise form_overflow(point)
    return _tangents(px, py, qx, qy)


def gauss_map_at(phi, psi, point):
    """Tangent plane of the order-1 jets ``phi``, ``psi`` at ``point``, as
    (Pluecker point, KleinPoint)."""
    t1, t2 = tangent_pair(phi, psi, point)
    plucker = plucker_from_pair(t1, t2)
    return plucker, klein_from_plucker(plucker)


@dataclass
class BlaschkeResult:
    residual1: float
    residual2: float
    t1: float
    t2: float
    rhs1: float  # |K + kappa| sqrt(W)
    rhs2: float  # |K - kappa| sqrt(W)
    sign1: float  # sign of t1 / ((K + kappa) sqrt(W)), 0 if tiny
    sign2: float


# central-difference step of the Blaschke check
BLASCHKE_STEP = 1e-4


def blaschke_check(sd, point):
    """Pullback-of-area-form identities, checked by central differences.

    t_i is the triple product (d_x Gamma_i x d_y Gamma_i) . Gamma_i; the
    identities fix |t_1| = |K + kappa| sqrt(W) and
    |t_2| = |K - kappa| sqrt(W).  Signs are reported for calibration, not
    asserted.
    """
    h = BLASCHKE_STEP
    x, y = point
    stencil = [(x + h, y), (x - h, y), (x, y + h), (x, y - h)]
    for pt in stencil:
        if not sd.domain.contains(pt):
            raise ValueError(f"Blaschke stencil point {pt} leaves the domain")
    stencil.append((x, y))
    kleins = [gauss_map_at(phi, psi, pt)[1] for pt, (phi, psi)
              in zip(stencil, eval_points(sd, stencil, 1))]

    def triple(vectors):
        plus_x, minus_x, plus_y, minus_y, center = vectors
        dx = (plus_x - minus_x) / (2 * h)
        dy = (plus_y - minus_y) / (2 * h)
        return float(np.cross(dx, dy) @ center)

    t1 = triple([klein.a_vec for klein in kleins])
    t2 = triple([klein.b_vec for klein in kleins])

    mf = monge_frame(*eval_surface(sd, point, order=2), point)
    K, kappa = monge_curvatures(mf)
    sqrt_w = np.sqrt(mf.W)
    rhs1 = abs(K + kappa) * sqrt_w
    rhs2 = abs(K - kappa) * sqrt_w

    def sign_of(t, rhs_signed):
        if abs(rhs_signed) < 1e-7 or abs(t) < 1e-7:
            return 0.0
        return float(np.sign(t / rhs_signed))

    return BlaschkeResult(
        residual1=abs(abs(t1) - rhs1),
        residual2=abs(abs(t2) - rhs2),
        t1=t1, t2=t2, rhs1=rhs1, rhs2=rhs2,
        sign1=sign_of(t1, (K + kappa) * sqrt_w),
        sign2=sign_of(t2, (K - kappa) * sqrt_w),
    )


# largest difference of the principal-angle cosines of isoclinic planes
ISOCLINIC_TOL = 1e-8


def _basis(p):
    """An orthonormal basis of the plane of the Pluecker point ``p``
    (columns of a 4x2 matrix)."""
    m = np.zeros((4, 4))
    for (i, j), value in zip(PLUCKER_PAIRS, p):
        m[i, j] = value
        m[j, i] = -value
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
    cols = [wedge6(m[:, i], m[:, j]) for i, j in PLUCKER_PAIRS]
    m6 = np.column_stack(cols)
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
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-10:
        raise ValueError("alpha must be a unit 3-vector")
    a1, a2, a3 = alpha
    if a1 * a1 + a2 * a2 < 1e-12:
        swapped = np.array([a1, a3, a2])
        cross = np.cross(swapped, alpha)
        angle = np.arctan2(np.linalg.norm(cross), float(swapped @ alpha))
        axis = cross / np.linalg.norm(cross)
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
