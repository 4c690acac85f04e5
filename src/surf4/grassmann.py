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

from .expr import eval_surface
from .frames import InternalInconsistencyError, monge_curvatures, monge_frame

# index pairs (i, j) of the coordinate 2-planes, in the fixed order
PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

# the coordinate swap exchanging the 3rd and 4th axes of R^4
C_SWAP = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
])


def wedge6(v1, v2):
    """The six 2x2 minors of (v1, v2), in Pluecker order."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return np.array([v1[i] * v2[j] - v1[j] * v2[i] for i, j in PLUCKER_PAIRS])


@dataclass
class PluckerPoint:
    p: np.ndarray

    def sphere_residual(self):
        return abs(float(self.p @ self.p) - 1.0)

    def quadric_residual(self):
        p = self.p
        return abs(float(p[0] * p[3] + p[1] * p[4] + p[2] * p[5]))

    def validate(self, tol=1e-12):
        if self.sphere_residual() > tol:
            raise ValueError("Pluecker point is not on the unit sphere")
        if self.quadric_residual() > tol:
            raise ValueError("Pluecker point violates the quadric relation")
        return self

    def basis(self):
        """An orthonormal basis of the plane (columns of a 4x2 matrix)."""
        m = np.zeros((4, 4))
        for (i, j), value in zip(PLUCKER_PAIRS, self.p):
            m[i, j] = value
            m[j, i] = -value
        u, _, _ = np.linalg.svd(m)
        return u[:, :2]


@dataclass
class KleinPoint:
    a_vec: np.ndarray
    b_vec: np.ndarray
    a_norm: float
    b_norm: float


@dataclass
class Rotation4:
    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if np.max(np.abs(self.m @ self.m.T - np.eye(4))) > 1e-10:
            raise ValueError("matrix is not orthogonal to 1e-10")
        self.det = float(np.sign(np.linalg.det(self.m)))


@dataclass
class Lift6:
    m6: np.ndarray


@dataclass
class GreatCircleFit:
    alpha: np.ndarray
    residual: float
    degenerate: bool = False


def plucker_from_pair(v1, v2):
    """Normalized wedge of two independent 4-vectors."""
    w = wedge6(v1, v2)
    norm = np.linalg.norm(w)
    if norm <= 1e-12:
        raise ValueError("vectors are linearly dependent (wedge norm <= 1e-12)")
    return PluckerPoint(w / norm)


def klein_from_plucker(point):
    """Sphere-pair coordinates; asserts unit norms instead of renormalizing.

    For a valid Pluecker point |a| = |b| = 1 holds identically (the sphere
    and quadric relations combine); a violation signals an invalid input.
    """
    p = point.p
    a = np.array([p[0] + p[3], p[1] + p[4], p[2] + p[5]])
    b = np.array([p[0] - p[3], p[1] - p[4], p[2] - p[5]])
    a_norm = float(np.linalg.norm(a))
    b_norm = float(np.linalg.norm(b))
    if abs(a_norm - 1.0) > 1e-10 or abs(b_norm - 1.0) > 1e-10:
        raise ValueError(
            f"Klein vectors are not unit (|a| = {a_norm}, |b| = {b_norm}); "
            "input is not a valid Pluecker point"
        )
    return KleinPoint(a / a_norm, b / b_norm, a_norm, b_norm)


def tangent_pair(sd, point, jets=None):
    """(T1, T2) at a surface point."""
    if jets is None:
        jets = eval_surface(sd, point, order=1)
    phi, psi = jets
    t1 = np.array([1.0, 0.0, float(phi.derivative(1, 0)),
                   float(psi.derivative(1, 0))])
    t2 = np.array([0.0, 1.0, float(phi.derivative(0, 1)),
                   float(psi.derivative(0, 1))])
    return t1, t2


def gauss_map_at(sd, point, jets=None):
    """Tangent plane at ``point`` as (PluckerPoint, KleinPoint)."""
    t1, t2 = tangent_pair(sd, point, jets=jets)
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


def blaschke_check(sd, point, h=1e-4):
    """Pullback-of-area-form identities, checked by central differences.

    t_i is the triple product (d_x Gamma_i x d_y Gamma_i) . Gamma_i; the
    identities fix |t_1| = |K + kappa| sqrt(W) and
    |t_2| = |K - kappa| sqrt(W).  Signs are reported for calibration, not
    asserted.
    """
    x, y = point
    for pt in ((x + h, y), (x - h, y), (x, y + h), (x, y - h)):
        if not sd.domain.contains(pt):
            raise ValueError(f"Blaschke stencil point {pt} leaves the domain")

    def gamma(pt):
        _, klein = gauss_map_at(sd, pt)
        return klein.a_vec, klein.b_vec

    a_px, b_px = gamma((x + h, y))
    a_mx, b_mx = gamma((x - h, y))
    a_py, b_py = gamma((x, y + h))
    a_my, b_my = gamma((x, y - h))
    a0, b0 = gamma((x, y))

    def triple(plus_x, minus_x, plus_y, minus_y, center):
        dx = (plus_x - minus_x) / (2 * h)
        dy = (plus_y - minus_y) / (2 * h)
        return float(np.cross(dx, dy) @ center)

    t1 = triple(a_px, a_mx, a_py, a_my, a0)
    t2 = triple(b_px, b_mx, b_py, b_my, b0)

    mf = monge_frame(sd, point)
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


def planes_isoclinic(p1, p2, tol=1e-9):
    """True when the two planes have equal principal angles.

    Orthonormal bases are reconstructed from the Pluecker data, and the
    singular values of the 2x2 matrix of mutual inner products (the
    cosines of the principal angles) are compared.
    """
    u1 = p1.basis()
    u2 = p2.basis()
    sv = np.linalg.svd(u1.T @ u2, compute_uv=False)
    return bool(abs(sv[0] - sv[1]) <= tol)


def graph_plane(alpha, beta):
    """Plane u = alpha1 x + beta1 y, v = alpha2 x + beta2 y as a PluckerPoint."""
    v1 = np.array([1.0, 0.0, alpha[0], alpha[1]])
    v2 = np.array([0.0, 1.0, beta[0], beta[1]])
    return plucker_from_pair(v1, v2)


def isosup_residuals(alpha, beta):
    """(| |alpha|^2 - |beta|^2 |, |alpha . beta|) for the algebraic test."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return (abs(float(alpha @ alpha - beta @ beta)),
            abs(float(alpha @ beta)))


def xy_plane():
    return PluckerPoint(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))


def lift_so4(rotation):
    """The induced orthogonal action on wedge coordinates.

    Columns are the wedges of column pairs of the 4x4 matrix, in Pluecker
    order; the lift satisfies wedge(Av1, Av2) = lift(A) wedge(v1, v2) and
    lift(AB) = lift(A) lift(B).
    """
    m = rotation.m if isinstance(rotation, Rotation4) else Rotation4(rotation).m
    cols = [wedge6(m[:, i], m[:, j]) for i, j in PLUCKER_PAIRS]
    m6 = np.column_stack(cols)
    if np.max(np.abs(m6 @ m6.T - np.eye(6))) > 1e-10:
        raise InternalInconsistencyError("lift is not orthogonal to 1e-10")
    return Lift6(m6)


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
    """The explicit rotation whose lift sends BETA_TARGET to (alpha, alpha).

    For alpha1^2 + alpha2^2 below 1e-12 the explicit matrix degenerates;
    the construction is then applied to alpha with its last two sphere
    axes exchanged and composed with the SO(4) element rotating the
    a-sphere factor back (axis exchange itself is improper, so the proper
    rotation taking the swapped vector to alpha stands in for it).  The
    numeric postcondition is verified on every call.
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
    rot = Rotation4(m)
    image = lift_so4(rot).m6 @ BETA_TARGET
    target = np.concatenate([alpha, alpha])
    if np.max(np.abs(image - target)) > 1e-10:
        raise InternalInconsistencyError(
            "lift postcondition failed: lift(A) beta != (alpha, alpha)"
        )
    return rot


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
    alpha = eigenvectors[:, 0]
    for comp in alpha:
        if abs(comp) > 1e-12:
            if comp < 0:
                alpha = -alpha
            break
    residual = float(np.max(np.abs(pts @ alpha)))
    scale = max(float(eigenvalues[-1]), 1e-300)
    degenerate = bool(eigenvalues[1] <= 1e-12 * scale)
    return GreatCircleFit(alpha=alpha, residual=residual,
                          degenerate=degenerate)


def rotation_taking_plane(p1, p2):
    """Some A in SO(4) with lift(A) p1 = +/- p2 (transitivity witness)."""
    u = _extend_to_so4(p1.basis())
    v = _extend_to_so4(p2.basis())
    return Rotation4(v @ u.T)


def _extend_to_so4(basis2):
    m = np.zeros((4, 4))
    m[:, :2] = basis2
    # orthogonal complement from the full SVD, orientation fixed last
    u_full, _, _ = np.linalg.svd(basis2)
    m[:, 2:] = u_full[:, 2:]
    if np.linalg.det(m) < 0:
        m[:, 3] = -m[:, 3]
    return m
