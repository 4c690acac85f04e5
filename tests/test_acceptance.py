"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line; run with ``pytest -s
tests/test_acceptance.py`` to see the table.
"""

import math

import numpy as np

from surf4 import characteristics as ch
from surf4 import suites
from surf4.expr import eval_points, eval_surface, parse_surface
from surf4.frames import curvature_report, hessian_quantities
from surf4.grassmann import gauss_map_at, great_circle_fit, lift_so4
from surf4.lagrangian import (
    DEFAULT_GRID,
    OMEGA1_FORM,
    OMEGA2_FORM,
    STANDARD_FORM,
    congruence_to_lagrangean,
    grid_points,
    symplectic_residual,
)
from test_frames import first_point

EX1 = parse_surface(suites.EXAMPLE1_TEXT)
Z2 = parse_surface(suites.RSURF_Z2_TEXT)
Z3 = parse_surface(suites.RSURF_Z3_TEXT)


def report_at(sd, point):
    return first_point(curvature_report(*eval_points(sd, [point], 2),
                                        [point]))


def gauss_at(sd, point):
    return first_point(gauss_map_at(*eval_points(sd, [point], 1), [point]))


def congruence_of(sd):
    points = grid_points(sd.domain, *DEFAULT_GRID)
    return congruence_to_lagrangean(points, eval_points(sd, points, 1))


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_example1_pipeline():
    grid = grid_points(EX1.domain, 15, 15, shrink=0.0)

    # (a) the six Monge determinants, exactly
    worst_const = 0.0
    for pt in grid:
        hq = first_point(hessian_quantities(*eval_points(EX1, [pt], 2)))
        worst_const = max(
            worst_const,
            abs(hq["H_phi"] + 4), abs(hq["H_psi"] + 4), abs(hq["L"] + 4),
            abs(hq["N"] + 4), abs(hq["M"]), abs(hq["Q"]))

    # (b) K = kappa over the grid
    worst_kk = max(abs(report_at(EX1, pt).K
                       - report_at(EX1, pt).kappa) for pt in grid)

    # (c) great-circle fit of the second sphere component
    fit = great_circle_fit([gauss_at(EX1, pt)[1].b_vec for pt in grid])
    alpha_expected = np.array([0.0, 2.0, 1.0]) / np.sqrt(5.0)
    alpha_err = float(np.max(np.abs(fit.alpha - alpha_expected)))

    # (d) recovered congruence
    rep = congruence_of(EX1)

    # (e) the printed block rotation and its transformed graph
    s = math.sqrt(5.0)
    block = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, -2 / s, -1 / s],
        [0, 0, 1 / s, -2 / s],
    ])
    lift_so4(block)  # raises unless the block is orthogonal to 1e-10
    block_residual = symplectic_residual(EX1, STANDARD_FORM, rotation=block)
    hat = parse_surface(
        "phi = (a*(2*x*y - a*x - b*y) - b*(x^2 - y^2))/s\n"
        "psi = (b*(2*x*y - a*x - b*y) + a*(x^2 - y^2))/s\n"
        "param a = 1\nparam b = 2\nparam s = 2.2360679774997896")
    worst_nf = 0.0
    for pt in grid:
        phi, psi = eval_surface(hat, pt, order=1)
        worst_nf = max(worst_nf, abs(float(phi.derivative(0, 1))
                                     - float(psi.derivative(1, 0))))

    ok = (worst_const < 1e-12 and worst_kk < 1e-12
          and alpha_err < 1e-8 and fit.residual < 1e-10
          and rep["symplecticResidual"] < 1e-9
          and block_residual < 1e-12 and worst_nf < 1e-12)
    report(1, ok,
           f"determinants {worst_const:.1e}, K-kappa {worst_kk:.1e}, "
           f"alpha err {alpha_err:.1e}, fit {fit.residual:.1e}, "
           f"congruence {rep['symplecticResidual']:.1e}, "
           f"block rotation {block_residual:.1e}, normal form "
           f"{worst_nf:.1e}")


def test_criterion_2_r_surface_suite():
    ok = True
    details = []
    for sd, name in ((Z2, "z^2"), (Z3, "z^3")):
        grid = [(x, y) for x in np.linspace(-0.5, 0.5, 11)
                for y in np.linspace(-0.5, 0.5, 11)]
        worst_a = worst_mean = worst_sum = worst_closed = 0.0
        singular_mismatch = 0
        for pt in grid:
            _, klein = gauss_at(sd, pt)
            worst_a = max(worst_a, float(np.max(np.abs(
                klein.a_vec - np.array([1.0, 0.0, 0.0])))))
            rep = report_at(sd, pt)
            worst_mean = max(worst_mean, abs(rep.mean_h[0]),
                             abs(rep.mean_h[1]))
            worst_sum = max(worst_sum, abs(rep.K + rep.kappa))
            phi, psi = eval_surface(sd, pt, 2)
            pxx = float(phi.derivative(2, 0))
            qxx = float(psi.derivative(2, 0))
            px = float(phi.derivative(1, 0))
            qx = float(psi.derivative(1, 0))
            k_closed = -2.0 * (pxx**2 + qxx**2) / (1 + px**2 + qx**2) ** 3
            denom = max(abs(k_closed), 1e-30)
            if abs(rep.K - k_closed) > 1e-9 * max(1.0, denom):
                worst_closed = max(worst_closed, abs(rep.K - k_closed))
            expected_singular = (abs(pxx) < 1e-15 and abs(qxx) < 1e-15)
            singular_mismatch += int(rep.gauss_singular != expected_singular)
        res1 = symplectic_residual(sd, OMEGA1_FORM,
                                   grid=grid_points(sd.domain, 8, 8))
        res2 = symplectic_residual(sd, OMEGA2_FORM,
                                   grid=grid_points(sd.domain, 8, 8))
        case_ok = (worst_a < 1e-12 and worst_mean < 1e-10
                   and worst_sum < 1e-10 and worst_closed == 0.0
                   and res1 < 1e-12 and res2 < 1e-12
                   and singular_mismatch == 0)
        ok = ok and case_ok
        details.append(
            f"{name}: Gamma1 {worst_a:.1e}, mean {worst_mean:.1e}, "
            f"K+kappa {worst_sum:.1e}, omegas {max(res1, res2):.1e}, "
            f"singular mismatches {singular_mismatch}")
    report(2, ok, "; ".join(details))


def test_criterion_3_blaschke_identities():
    rows = suites.suite_blaschke()
    ok = all(r.passed for r in rows)
    report(3, ok, "; ".join(f"{r.name} = {r.value:.2e}" for r in rows))


def test_criterion_4_plucker_klein_algebra():
    rows = suites.suite_plucker()
    ok = all(r.passed for r in rows)
    report(4, ok, "; ".join(f"{r.name} = {r.value:.2e}" for r in rows))


def test_criterion_5_lift_lemmas():
    rows = suites.suite_lift()
    ok = all(r.passed for r in rows)
    report(5, ok, "; ".join(f"{r.name} = {r.value:.2e}" for r in rows))


def test_criterion_6_lagrangean_necessity_sufficiency():
    rows = suites.suite_lagrangean()
    ok = all(r.passed for r in rows)
    report(6, ok, "; ".join(f"{r.name} = {r.value:.2e}" for r in rows))


def test_criterion_7_example2_reconstruction():
    problem = ch.example2_problem()
    field = ch.characteristic_field(
        problem, np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
    field_err = float(np.max(np.abs(
        np.array([field[0], field[1], field[3], field[4]])
        - np.array([0.0, 0.5, 1.0, 0.0]))))
    samples = ch.reconstruct_surface(problem)
    rep = ch.verify_reconstruction(samples)
    # phi_xx(0,0) is exact from the initial data: p(x0, 0) = -x0
    axis = np.abs(samples.y) < 1e-15
    slope = np.polyfit(samples.x[axis], samples.phi_x[axis], 1)[0]
    ok = (field_err < 1e-12 and samples.f_drift < 1e-8
          and abs(slope + 1.0) < 1e-12 and rep["passed"])
    lines = "; ".join(f"{check['name']} = {check['value']:.2e}"
                      for check in rep["checks"])
    report(7, ok, f"field err {field_err:.1e}, initial phi_xx slope "
           f"{slope:+.12f}; {lines}")


def test_criterion_8_isoclinic_machinery():
    rows = suites.suite_wong()
    ok = all(r.passed for r in rows)
    report(8, ok, "; ".join(f"{r.name} = {r.value:.2e}" for r in rows))
