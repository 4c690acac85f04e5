"""Negative controls for the ``verify`` rows that state a property.

Each test runs one row's own computation on a seeded control set where
the row's property fails, and asserts that every control misses the
row's threshold by at least ``MISS`` times: a row that read 0 whatever
its input would pass in ``verify`` and fail here.  The ``plucker`` and
``lift`` identities hold for every input and have no control, and the
``wong`` rows have none yet.
"""

import numpy as np

from surf4 import frames, grassmann, suites
from surf4.expr import eval_points
from surf4.frames import curvature_report
from surf4.grassmann import blaschke_check, gauss_map_at
from surf4.lagrangian import (DEFAULT_GRID, TOL_CIRCLE, congruence_grid,
                              congruence_to_lagrangean, grid_points)

MISS = 100.0  # least factor by which each control misses its threshold

# random cubics, which are not gradient graphs: the Lagrangean rows'
# controls, sampled on the grids of suite_lagrangean
CUBIC_RNG = np.random.default_rng(12345)
CUBICS = [suites.random_polynomial_surface(CUBIC_RNG) for _ in range(20)]


def gauss_and_curvature(sd):
    points = grid_points(sd.domain, 5, 5)
    phi, psi = eval_points(sd, points, 2)
    _, klein = gauss_map_at(phi, psi, points)
    return klein, curvature_report(phi, psi, points)


def test_b2_row_misses_on_cubics():
    worst = [np.max(np.abs(gauss_and_curvature(sd)[0].b_vec[:, 1]))
             for sd in CUBICS]
    assert min(worst) >= MISS * 1e-10, worst


def test_k_minus_kappa_row_misses_on_cubics():
    worst = [np.max(np.abs(report.K - report.kappa))
             for report in (gauss_and_curvature(sd)[1] for sd in CUBICS)]
    assert min(worst) >= MISS * 1e-9, worst


def test_congruence_rows_miss_on_cubics():
    # after the row's random rotation, neither Gauss factor lies on a
    # great circle, so no form is matched and the sufficiency row reads inf
    rng = np.random.default_rng(12345 + 1)
    for sd in CUBICS:
        grid = congruence_grid(sd.domain, DEFAULT_GRID)
        rep = congruence_to_lagrangean(grid, eval_points(sd, grid, 1),
                                       pre_rotation=suites._random_so4(rng))
        assert (rep["circleFactor"], rep["matchedForm"]) == ("none", "none")
        assert min(rep["fitResidualGamma1"],
                   rep["fitResidualGamma2"]) >= MISS * TOL_CIRCLE, rep


def test_blaschke_row_misses_with_the_sign_of_kappa_swapped(monkeypatch):
    # the suite's own surfaces and points, with t_1 held against
    # |K - kappa| sqrt(W) and t_2 against |K + kappa| sqrt(W)
    def swapped(mf):
        K, kappa = frames.monge_curvatures(mf)
        return K, -kappa

    monkeypatch.setattr(grassmann, "monge_curvatures", swapped)
    rng = np.random.default_rng(suites.SEED + 1)
    grid = [(x, y) for x in (-0.3, 0.0, 0.3) for y in (-0.3, 0.0, 0.3)]
    worst = []
    for _ in range(50):
        result = blaschke_check(suites.random_polynomial_surface(rng), grid)
        worst.append(max(np.max(result.residual1), np.max(result.residual2)))
    assert min(worst) >= MISS * 1e-5, worst
