"""Command-line front end.

Subcommands:

* ``analyze``     per-point curvature/Gauss-map records plus a summary
* ``gaussmap``    CSV of sampled Gauss-map sphere vectors
* ``congruence``  great-circle detection and the Lagrangean congruence
* ``reconstruct`` the b1 = c example surface via characteristics
* ``verify``      property suites with a pass/fail table

Exit codes: 0 success, 1 property or verification failure, 2 input error.
All numbers serialize with 17 significant digits, reports embed the
tolerances they used, and identical invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import characteristics, suites
from .expr import SurfaceEvalError, SurfaceSyntaxError, parse_surface
from .frames import ClassificationTolerances, curvature_report
from .grassmann import gauss_map_at, great_circle_fit
from .lagrangian import congruence_to_lagrangean, grid_points

CSV_HEADER = ("x,y,K,kappa,K1,K2,Delta,class,inflection,singular,"
              "g1x,g1y,g1z,g2x,g2y,g2z")


# -- deterministic JSON with fixed float formatting --------------------------


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    raise TypeError(f"unsupported scalar {value!r}")


def to_json(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {to_json(val, indent + 1)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        rendered = [to_json(val, indent + 1) for val in obj]
        if sum(len(r) for r in rendered) < 60 and all(
                "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return ("[\n" + ",\n".join(inner + r for r in rendered)
                + "\n" + pad + "]")
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return _fmt(obj)


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- analyze ------------------------------------------------------------------


def _tolerances_dict(tol):
    return {"delta": tol.delta, "kappa": tol.kappa, "k": tol.k,
            "rank": tol.rank, "wong": tol.wong}


def analysis_report(sd, nx, ny, tol, source=None):
    points = grid_points(sd.domain, nx, ny, shrink=0.0)
    records = []
    counts = {"hyperbolic": 0, "parabolic": 0, "elliptic": 0}
    diff_min = diff_max = None
    sum_min = sum_max = None
    g1_samples, g2_samples = [], []
    for pt in points:
        report = curvature_report(sd, pt, tol=tol)
        _, klein = gauss_map_at(sd, pt)
        counts[report.point_class] += 1
        diff = abs(report.K - report.kappa)
        ksum = abs(report.K + report.kappa)
        diff_min = diff if diff_min is None else min(diff_min, diff)
        diff_max = diff if diff_max is None else max(diff_max, diff)
        sum_min = ksum if sum_min is None else min(sum_min, ksum)
        sum_max = ksum if sum_max is None else max(sum_max, ksum)
        g1_samples.append(klein.a_vec)
        g2_samples.append(klein.b_vec)
        records.append({
            "x": pt[0], "y": pt[1],
            "K": report.K, "kappa": report.kappa,
            "K1": report.K1, "K2": report.K2,
            "Delta": report.delta,
            "pointClass": report.point_class,
            "inflection": report.inflection,
            "gaussSingular": report.gauss_singular,
            "Gamma1": list(klein.a_vec),
            "Gamma2": list(klein.b_vec),
        })
    fit1 = great_circle_fit(g1_samples)
    fit2 = great_circle_fit(g2_samples)
    return {
        "surface": {
            "file": source,
            "params": dict(sorted(sd.params.items())),
            "domain": [sd.domain.x0, sd.domain.x1,
                       sd.domain.y0, sd.domain.y1],
        },
        "grid": {"nx": nx, "ny": ny},
        "tolerances": _tolerances_dict(tol),
        "records": records,
        "summary": {
            "counts": counts,
            "kMinusKappaAbs": {"min": diff_min, "max": diff_max},
            "kPlusKappaAbs": {"min": sum_min, "max": sum_max},
            "circleFitGamma1": {"alpha": list(fit1.alpha),
                                "residual": fit1.residual,
                                "degenerate": fit1.degenerate},
            "circleFitGamma2": {"alpha": list(fit2.alpha),
                                "residual": fit2.residual,
                                "degenerate": fit2.degenerate},
        },
    }


def _analysis_csv(report):
    lines = [CSV_HEADER]
    for rec in report["records"]:
        lines.append(",".join([
            _fmt(rec["x"]), _fmt(rec["y"]), _fmt(rec["K"]),
            _fmt(rec["kappa"]), _fmt(rec["K1"]), _fmt(rec["K2"]),
            _fmt(rec["Delta"]), rec["pointClass"], rec["inflection"],
            _fmt(rec["gaussSingular"]),
            *[_fmt(v) for v in rec["Gamma1"]],
            *[_fmt(v) for v in rec["Gamma2"]],
        ]))
    return "\n".join(lines) + "\n"


def _load_surface(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_surface(handle.read())


def _parse_grid(text):
    try:
        nx, ny = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be NX,NY integers, got {text!r}") from None
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError("grid sizes must be positive")
    return nx, ny


def _parse_congruence_grid(text):
    nx, ny = _parse_grid(text)
    if nx < 3 or ny < 3:
        raise argparse.ArgumentTypeError(
            "congruence grid must be at least 3x3")
    return nx, ny


def cmd_analyze(args):
    sd = _load_surface(args.surface)
    tol = ClassificationTolerances()
    report = analysis_report(sd, args.grid[0], args.grid[1], tol,
                             source=args.surface)
    if args.format == "json":
        _write_output(to_json(report) + "\n", args.out)
    else:
        _write_output(_analysis_csv(report), args.out)
    return 0


def cmd_gaussmap(args):
    sd = _load_surface(args.surface)
    points = grid_points(sd.domain, args.grid[0], args.grid[1], shrink=0.0)
    lines = ["x,y,g1x,g1y,g1z,g2x,g2y,g2z"]
    for pt in points:
        _, klein = gauss_map_at(sd, pt)
        lines.append(",".join(
            [_fmt(pt[0]), _fmt(pt[1])]
            + [_fmt(v) for v in klein.a_vec]
            + [_fmt(v) for v in klein.b_vec]))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_congruence(args):
    sd = _load_surface(args.surface)
    rep = congruence_to_lagrangean(
        sd, grid=args.grid, tol_circle=args.tol_circle,
        tol_symp=args.tol_symp)
    payload = {
        "circleFactor": rep.circle_factor,
        "alpha": None if rep.alpha is None else list(rep.alpha),
        "fitResidual": rep.fit_residual,
        "rotation": [list(row) for row in rep.rotation.m],
        "symplecticResidual": rep.symplectic_residual,
        "matchedForm": rep.matched_form,
        "residualStandard": rep.residual_standard,
        "residualOmega1": rep.residual_omega1,
        "fitResidualGamma1": rep.fit_residual_gamma1,
        "fitResidualGamma2": rep.fit_residual_gamma2,
        "tolerances": {"circle": rep.tol_circle, "symplectic": rep.tol_symp},
    }
    sys.stdout.write(to_json(payload) + "\n")
    return 0


def cmd_reconstruct(args):
    problem = characteristics.example2_problem(args.c)
    samples = characteristics.reconstruct_surface(
        problem, n_curves=args.n_curves, dt=args.dt)
    if args.out:
        lines = ["x,y,phi,phi_x,phi_y"]
        for row in samples.columns():
            lines.append(",".join(_fmt(v) for v in row))
        _write_output("\n".join(lines) + "\n", args.out)
    report = characteristics.verify_reconstruction(samples)
    payload = {
        "c": args.c,
        "nSamples": report.n_samples,
        "fDrift": report.f_drift,
        "b1MaxDeviation": report.b1_max_deviation,
        "gamma1FitResidual": report.gamma1_fit_residual,
        "gamma2FitResidual": report.gamma2_fit_residual,
        "gamma1Origin": list(report.gamma1_origin),
        "phiXXOrigin": report.phi_xx_origin,
        "phiXYOrigin": report.phi_xy_origin,
        "phiYYOrigin": report.phi_yy_origin,
        "kMinusKappaMax": report.k_minus_kappa_max,
        "checks": [{"name": name, "value": value, "threshold": threshold,
                    "passed": passed}
                   for name, value, threshold, passed in report.checks],
        "passed": report.passed,
    }
    sys.stdout.write(to_json(payload) + "\n")
    return 0 if report.passed else 1


def cmd_verify(args):
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    rows = suites.run_suites(names)
    width = max(len(row.name) for row in rows)
    failed = 0
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        failed += not row.passed
        sys.stdout.write(
            f"[{status}] {row.suite:10s} {row.name:<{width}s} "
            f"value {row.value:.3e}  threshold {row.threshold:g}\n")
    sys.stdout.write(
        f"{len(rows) - failed}/{len(rows)} checks passed\n")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surf4",
        description="Curvature and Gauss-map analysis of surfaces in R^4 "
                    "given in Monge form.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-point curvature records")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=_parse_grid, default=(15, 15),
                   metavar="NX,NY")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gaussmap", help="CSV of Gauss-map samples")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=_parse_grid, default=(15, 15),
                   metavar="NX,NY")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gaussmap)

    p = sub.add_parser("congruence",
                       help="great-circle test and Lagrangean congruence")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=_parse_congruence_grid, default=(15, 15),
                   metavar="NX,NY")
    p.add_argument("--tol-circle", type=float, default=1e-6)
    p.add_argument("--tol-symp", type=float, default=1e-8)
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("reconstruct",
                       help="rebuild the b1 = c example surface")
    p.add_argument("--c", type=float, default=float(np.sqrt(0.5)))
    p.add_argument("--out")
    p.add_argument("--n-curves", type=int, default=41)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(suites.SUITES))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, SurfaceSyntaxError,
            SurfaceEvalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
