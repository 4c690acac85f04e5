"""Named property suites behind ``surf4 verify`` and the acceptance tests.

Each suite returns a list of CheckRow records; a suite passes when every
row does.  All randomness is seeded so identical invocations produce
identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr, frames, grassmann, lagrangian
from .expr import SurfaceDef, parse_surface
from .frames import _worst
from .grassmann import (
    C_SWAP,
    BETA_TARGET,
    ISOCLINIC_TOL,
    XY_PLANE,
    blaschke_check,
    graph_plane,
    isosup_residuals,
    klein_from_plucker,
    lift_so4,
    planes_isoclinic,
    plucker_from_pair,
    rotation_from_alpha,
)

SEED = 20240614


@dataclass
class CheckRow:
    suite: str
    name: str
    value: float
    threshold: float
    passed: bool


def _row(suite, name, value, threshold):
    value = float(value)
    return CheckRow(suite, name, value, threshold, value < threshold)


def _random_so4(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_polynomial_surface(rng):
    """SurfaceDef with random cubic phi, psi, coefficients in [-0.5, 0.5]."""
    def coeffs():
        return {(i, j): 0.5 * rng.uniform(-1.0, 1.0)
                for i in range(4) for j in range(4 - i)}

    return SurfaceDef(phi=expr.polynomial(coeffs()),
                      psi=expr.polynomial(coeffs()))


def random_gradient_surface(rng):
    """phi = dF/dx, psi = dF/dy for a random quartic F (Lagrangean), with
    coefficients in [-0.4, 0.4]."""
    f = {(i, j): 0.4 * rng.uniform(-1.0, 1.0)
         for i in range(5) for j in range(5 - i) if i + j >= 2}
    phi = {(i - 1, j): i * c for (i, j), c in f.items() if i > 0}
    psi = {(i, j - 1): j * c for (i, j), c in f.items() if j > 0}
    return SurfaceDef(phi=expr.polynomial(phi), psi=expr.polynomial(psi))


EXAMPLE1_TEXT = """\
phi = x^2 - y^2
psi = a*x + b*y - 2*x*y
param a = 1
param b = 2
"""

RSURF_Z2_TEXT = """\
phi = x^2 - y^2
psi = 2*x*y
domain = [-0.5, 0.5] x [-0.5, 0.5]
"""

RSURF_Z3_TEXT = """\
phi = x^3 - 3*x*y^2
psi = 3*x^2*y - y^3
domain = [-0.5, 0.5] x [-0.5, 0.5]
"""


def suite_plucker():
    """Both quadric relations and unit Klein vectors on random planes."""
    n_planes = 1000
    rng = np.random.default_rng(SEED)
    pairs = rng.normal(size=(n_planes, 2, 4))
    p = plucker_from_pair(pairs[:, 0], pairs[:, 1])
    klein = klein_from_plucker(p)
    worst_sphere = _worst(np.abs(np.vecdot(p, p) - 1.0))
    worst_quadric = _worst(np.abs(p[:, 0] * p[:, 3] + p[:, 1] * p[:, 4]
                                  + p[:, 2] * p[:, 5]))
    worst_unit = _worst(np.abs(klein.a_norm - 1.0), np.abs(klein.b_norm - 1.0))
    return [
        _row("plucker", f"sphere relation on {n_planes} planes",
             worst_sphere, 1e-12),
        _row("plucker", f"quadric relation on {n_planes} planes",
             worst_quadric, 1e-12),
        _row("plucker", "Klein vectors unit without renormalizing",
             worst_unit, 1e-10),
    ]


def suite_blaschke():
    """Pullback identities and constant calibrated signs."""
    n_surfaces = 50
    rng = np.random.default_rng(SEED + 1)
    grid = [(x, y) for x in (-0.3, 0.0, 0.3) for y in (-0.3, 0.0, 0.3)]
    worst = 0.0
    signs1, signs2 = set(), set()
    for _ in range(n_surfaces):
        result = blaschke_check(random_polynomial_surface(rng), grid)
        worst = _worst(worst, result.residual1, result.residual2)
        signs1 |= set(result.sign1[result.sign1 != 0].tolist())
        signs2 |= set(result.sign2[result.sign2 != 0].tolist())
    rows = [
        _row("blaschke",
             f"| |t_i| - |K +- kappa| sqrt(W) | on {n_surfaces} surfaces x "
             f"{len(grid)} points", worst, 1e-5),
        _row("blaschke", "calibrated sign of the a-factor identity constant",
             float(len(signs1)), 1.5),
        _row("blaschke", "calibrated sign of the b-factor identity constant",
             float(len(signs2)), 1.5),
    ]
    # corollary: half-sum and half-difference reproduce K and kappa
    sd = parse_surface(EXAMPLE1_TEXT)
    eps1 = signs1.pop() if len(signs1) == 1 else 1.0
    eps2 = signs2.pop() if len(signs2) == 1 else 1.0
    result = blaschke_check(sd, grid)
    k_est = 0.5 * (eps1 * result.t1 + eps2 * result.t2) / result.sqrt_w
    kappa_est = 0.5 * (eps1 * result.t1 - eps2 * result.t2) / result.sqrt_w
    worst_cor = _worst(np.abs(k_est - result.K),
                       np.abs(kappa_est - result.kappa))
    rows.append(_row(
        "blaschke", "corollary half-sum/half-difference gives K and kappa",
        worst_cor, 1e-5))
    return rows


def suite_wong():
    """Isoclinic machinery: Wong equivalence, swap map, algebraic tests."""
    n_planes, n_swap = 200, 50
    rng = np.random.default_rng(SEED + 2)
    rows = []

    # Wong equivalence on suite surfaces
    mismatches = 0
    total = 0
    surfaces = [parse_surface(EXAMPLE1_TEXT), parse_surface(RSURF_Z2_TEXT)]
    surfaces += [random_polynomial_surface(rng) for _ in range(10)]
    for sd in surfaces:
        points = lagrangian.grid_points(sd.domain, 5, 5)
        report = frames.curvature_report(*expr.eval_points(sd, points, 2),
                                         points)
        band = frames.wong_band(report.K, report.kappa)
        predicted = np.minimum(np.abs(report.K - report.kappa),
                               np.abs(report.K + report.kappa)) <= band
        mismatches += int(np.count_nonzero(predicted != report.isoclinic))
        total += len(points)
    rows.append(_row("wong", f"direction exists iff min|K -+ kappa| within "
                     f"band ({total} points)", float(mismatches), 0.5))

    # closedness of the isoclinic 1-form on K = kappa surfaces
    worst_closed = 0.0
    k_eq_kappa = [parse_surface(EXAMPLE1_TEXT),
                  random_gradient_surface(np.random.default_rng(SEED + 3))]
    for sd in k_eq_kappa:
        worst_closed = _worst(worst_closed, frames.isoclinic_form_closedness(
            sd, lagrangian.grid_points(sd.domain, 5, 5, shrink=0.4)))
    rows.append(_row("wong", "isoclinic 1-form closedness residual at 25 "
                     "points per K = kappa surface", worst_closed, 1e-4))

    # I+ = C I- under the lift of the coordinate swap
    lift_c = lift_so4(C_SWAP)
    worst_swap = 0.0
    for _ in range(n_swap):
        alpha = rng.normal(size=2)
        plane = graph_plane(alpha, (alpha[1], -alpha[0]))
        klein = klein_from_plucker(lift_c @ plane)
        worst_swap = _worst(worst_swap, np.abs(
            klein.a_vec - np.array([1.0, 0.0, 0.0])))
    rows.append(_row("wong", f"C maps the minus isocline set onto the plus "
                     f"set ({n_swap} planes)", worst_swap, 1e-10))

    # algebraic isoclinicity test agrees with the singular-value test
    disagreements = 0
    for k in range(n_planes):
        if k % 2 == 0:
            alpha = rng.normal(size=2)
            sign = 1.0 if k % 4 == 0 else -1.0
            beta = np.array([-sign * alpha[1], sign * alpha[0]])
        else:
            alpha, beta = rng.normal(size=2), rng.normal(size=2)
        algebraic = max(isosup_residuals(alpha, beta)) < ISOCLINIC_TOL
        svd_test = planes_isoclinic(XY_PLANE, graph_plane(alpha, beta))
        disagreements += int(algebraic != svd_test)
    rows.append(_row("wong", f"algebraic vs singular-value isoclinic test "
                     f"({n_planes} planes)", float(disagreements), 0.5))
    return rows


def suite_lift():
    """Lift lemmas: homomorphism, orthogonality, equivariance, alpha map."""
    n_pairs, n_alphas = 100, 100
    rng = np.random.default_rng(SEED + 4)
    worst_hom = worst_orth = worst_equi = 0.0
    for _ in range(n_pairs):
        a = _random_so4(rng)
        b = _random_so4(rng)
        la, lb = lift_so4(a), lift_so4(b)
        lab = lift_so4(a @ b)
        worst_hom = _worst(worst_hom, np.abs(lab - la @ lb))
        worst_orth = _worst(worst_orth, np.abs(la @ la.T - np.eye(6)))
        v1, v2 = rng.normal(size=4), rng.normal(size=4)
        lhs = plucker_from_pair(a @ v1, a @ v2)
        rhs = la @ plucker_from_pair(v1, v2)
        worst_equi = _worst(worst_equi, np.abs(lhs - rhs))
    worst_post = 0.0
    # the capped directions go through the documented pre-rotation
    caps = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    for alpha in np.concatenate([rng.normal(size=(n_alphas, 3)), caps]):
        alpha /= frames._norm(alpha)
        rot = rotation_from_alpha(alpha)
        image = lift_so4(rot) @ BETA_TARGET
        worst_post = _worst(worst_post, np.abs(
            image - np.concatenate([alpha, alpha])))
    return [
        _row("lift", f"homomorphism lift(AB) = lift(A) lift(B) "
             f"({n_pairs} pairs)", worst_hom, 1e-10),
        _row("lift", "lift orthogonality", worst_orth, 1e-10),
        _row("lift", "wedge equivariance on sampled vector pairs",
             worst_equi, 1e-10),
        _row("lift", f"alpha-rotation postcondition ({n_alphas} alphas "
             "plus caps)", worst_post, 1e-10),
    ]


def suite_lagrangean():
    """Necessity and desk-scale sufficiency of the great-circle criterion."""
    n_surfaces = 20
    rng = np.random.default_rng(SEED + 5)
    worst_b2 = worst_kk = worst_suff = 0.0
    factors = set()
    for _ in range(n_surfaces):
        sd = random_gradient_surface(rng)
        points = lagrangian.grid_points(sd.domain, 5, 5)
        phi, psi = expr.eval_points(sd, points, 2)
        _, klein = grassmann.gauss_map_at(phi, psi, points)
        worst_b2 = _worst(worst_b2, np.abs(klein.b_vec[:, 1]))
        report = frames.curvature_report(phi, psi, points)
        worst_kk = _worst(worst_kk, np.abs(report.K - report.kappa))
        rotation = _random_so4(rng)
        grid = lagrangian.congruence_grid(sd.domain, lagrangian.DEFAULT_GRID)
        rep = lagrangian.congruence_to_lagrangean(
            grid, expr.eval_points(sd, grid, 1), pre_rotation=rotation)
        factors.add(rep["circleFactor"])
        worst_suff = max(worst_suff, rep["symplecticResidual"]
                         if rep["matchedForm"] != "none" else np.inf)
    return [
        _row("lagrangean", f"|b2| on Gauss samples of {n_surfaces} "
             "gradient graphs", worst_b2, 1e-10),
        _row("lagrangean", "K - kappa on gradient graphs", worst_kk, 1e-9),
        _row("lagrangean", "recovered symplectic residual after a random "
             "rotation", worst_suff, 1e-8),
        _row("lagrangean", "no rotated surface reported non-congruent",
             float("none" in factors), 0.5),
    ]


SUITES = {
    "plucker": suite_plucker,
    "blaschke": suite_blaschke,
    "wong": suite_wong,
    "lift": suite_lift,
    "lagrangean": suite_lagrangean,
}


def run_suites(names):
    rows = []
    for name in names:
        rows.extend(SUITES[name]())
    return rows
