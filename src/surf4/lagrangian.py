"""Lagrangean verification and the congruence pipeline.

A surface is Lagrangean for a constant symplectic form when the form
pulls back to zero along it.  The main pipeline detects whether one of
the two Gauss-map sphere components lies in a great circle and, when it
does, builds the rigid rotation taking the surface to a Lagrangean one
(for the standard form or its orientation-reversed companion), then
measures the achieved pullback residual.

Rotated surfaces are never re-graphed: every check evaluates forms on
rotated tangent pairs.
"""

from __future__ import annotations

import numpy as np

from .expr import eval_points
from .frames import _matvecs, _norm, _worst
from .grassmann import (
    C_AXES,
    C_SWAP,
    great_circle_fit,
    klein_from_plucker,
    plucker_from_pair,
    rotation_from_alpha,
    tangent_pair,
)


# constant symplectic forms as antisymmetric 4x4 matrices, coordinates
# ordered (x, y, u, v) with u, v the graph components
# omega = dx ^ du + dy ^ dv
STANDARD_FORM = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                          [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
# Omega_1 = dx ^ du - dy ^ dv (orientation-reversed companion)
OMEGA1_FORM = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
                        [-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
# Omega_2 = dx ^ dv + dy ^ du
OMEGA2_FORM = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0],
                        [0.0, -1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])

TOL_CIRCLE = 1e-6  # great-circle fit residual of a circle factor
TOL_SYMP = 1e-8    # pullback residual of a matched symplectic form
DEFAULT_GRID = (15, 15)  # NX, NY of the default sample grid


def grid_points(domain, nx, ny, shrink=0.1):
    """Rectangular sample grid, shrunk away from the boundary."""
    dx = (domain.x1 - domain.x0) * shrink / 2.0
    dy = (domain.y1 - domain.y0) * shrink / 2.0
    xs = np.linspace(domain.x0 + dx, domain.x1 - dx, nx)
    ys = np.linspace(domain.y0 + dy, domain.y1 - dy, ny)
    return [(float(x), float(y)) for x in xs for y in ys]


def _check_congruence_grid(nx, ny):
    """Raise ValueError unless NX and NY are both at least 3."""
    if nx < 3 or ny < 3:
        raise ValueError("congruence grid must be at least 3x3")


def congruence_grid(domain, grid):
    """The sample points of the ``grid`` = (NX, NY) congruence grid over
    ``domain``; NX and NY must be at least 3."""
    _check_congruence_grid(*grid)
    return grid_points(domain, *grid)


def symplectic_residual(sd, form, grid=None, rotation=None):
    """max |form(R T1, R T2)| / (|T1| |T2|) over the grid."""
    if grid is None:
        grid = grid_points(sd.domain, *DEFAULT_GRID)
    pairs = tangent_pair(*eval_points(sd, grid, 1), grid)
    return _residuals_on_pairs(pairs, (form,), rotation)[0]


def _residuals_on_pairs(tangent_pairs, forms, rotation):
    """max |form(R T1, R T2)| / (|R T1| |R T2|) over the (T1, T2) rows of
    ``tangent_pairs``, for each of ``forms``; a residual that is NaN is
    passed over, as ``max`` passes it over."""
    t1, t2 = tangent_pairs
    if rotation is not None:
        t1, t2 = _matvecs(rotation, t1), _matvecs(rotation, t2)
    with np.errstate(all="ignore"):
        scale = _norm(t1) * _norm(t2)
        return [_worst(np.abs(np.vecdot(np.matmul(
            t1[:, None, :], form[None])[:, 0, :], t2)) / scale)
            for form in forms]


def congruence_from_tangent_samples(tangent_pairs, tol_circle, tol_symp):
    """Congruence pipeline on precomputed tangent pairs, the (T1, T2)
    pair of (n, 4) row arrays.

    Fits great circles to both Gauss sphere components; on a match builds
    the candidate rotation from the fitted circle normal and reports the
    pullback residuals of the standard form and of Omega_1 under it.
    "Not congruent" is a report outcome, not an error: the circle factor
    and matched form are then "none" and the rotation is the identity.
    Returns the report as the ``congruence`` command prints it, keys in
    printed order.
    """
    klein = klein_from_plucker(plucker_from_pair(*tangent_pairs))
    fit_a = great_circle_fit(klein.a_vec)
    fit_b = great_circle_fit(klein.b_vec)

    fit_residual = min(fit_a.residual, fit_b.residual)
    if fit_residual > tol_circle:
        factor, alpha, rotation = "none", None, None
    elif fit_b.residual <= fit_a.residual:
        factor, alpha = "gamma2", fit_b.alpha
        rotation = rotation_from_alpha(alpha).T
    else:
        # the a-factor case: swap the sphere factors with the fixed map C,
        # then run the alpha construction on the swapped circle normal
        factor, alpha = "gamma1", fit_a.alpha
        rotation = rotation_from_alpha(alpha[C_AXES]).T @ C_SWAP

    res_std, res_om1 = _residuals_on_pairs(
        tangent_pairs, (STANDARD_FORM, OMEGA1_FORM), rotation)
    matched, achieved = "none", min(res_std, res_om1)
    if rotation is not None:
        if res_std <= tol_symp:
            matched, achieved = "standard", res_std
        elif res_om1 <= tol_symp:
            matched, achieved = "orientationReversed", res_om1
    return {
        "circleFactor": factor,
        "alpha": alpha,
        "fitResidual": fit_residual,
        "rotation": np.eye(4) if rotation is None else rotation,
        "symplecticResidual": achieved,
        "matchedForm": matched,
        "residualStandard": res_std,
        "residualOmega1": res_om1,
        "fitResidualGamma1": fit_a.residual,
        "fitResidualGamma2": fit_b.residual,
        "tolerances": {"circle": tol_circle, "symplectic": tol_symp},
    }


def congruence_to_lagrangean(points, jets, tol_circle=TOL_CIRCLE,
                             tol_symp=TOL_SYMP, pre_rotation=None):
    """Run the congruence pipeline on sample ``points`` of a surface and
    their ``jets``, the (phi, psi) pair of order >= 1 with a coefficient
    column per point.

    ``pre_rotation`` applies an ambient rotation to the surface first
    (tangent pairs are rotated; the surface is never re-graphed).
    """
    pairs = tangent_pair(*jets, points)
    if pre_rotation is not None:
        r = np.asarray(pre_rotation, dtype=float)
        pairs = tuple(_matvecs(r, t) for t in pairs)
    return congruence_from_tangent_samples(pairs, tol_circle, tol_symp)
