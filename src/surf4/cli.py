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
import json
import math
import sys

import numpy as np

from . import characteristics, suites
from .expr import (SurfaceEvalError, SurfaceSyntaxError, eval_surface,
                   parse_surface)
from .frames import (TOLERANCES, InternalInconsistencyError, _first_error,
                     curvature_report)
from .grassmann import gauss_map_at, great_circle_fit, tangent_pair
from .jets import Jet
from .lagrangian import (DEFAULT_GRID, TOL_CIRCLE, TOL_SYMP,
                         _check_congruence_grid, congruence_grid,
                         congruence_to_lagrangean, grid_points)

CSV_HEADER = ("x,y,K,kappa,K1,K2,Delta,class,inflection,singular,"
              "g1x,g1y,g1z,g2x,g2y,g2z")
NUMBER = "%.17g"  # every float the commands print
CSV_BLOCK = 1024  # rows formatted per write of a numeric CSV


# -- deterministic JSON with fixed float formatting --------------------------


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            # JSON has no NaN or inf; the checks upstream reject them
            raise InternalInconsistencyError(
                f"non-finite number {value!r} reached the output")
        return NUMBER % float(value)
    raise TypeError(f"unsupported scalar {value!r}")


def to_json(obj, indent=0):
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block("{", [f'"{key}": {to_json(val, indent + 1)}'
                            for key, val in obj.items()], "}", indent)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        records = _record_rows(obj, to_json, lambda v: _json_list(
            [NUMBER % u for u in v], indent + 2))
        if records is None:
            return _json_list([to_json(v, indent + 1) for v in obj], indent)
        fields, rows = records
        template = _block("{", [f'"{str(key).replace("%", "%%")}": {field}'
                                for key, field in fields], "}", indent + 1)
        return _block("[", [template % row for row in rows], "]", indent)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return _fmt(obj)


def _block(open_, items, close, indent):
    pad = "  " * indent
    return (open_ + "\n" + ",\n".join([pad + "  " + item for item in items])
            + "\n" + pad + close)


def _json_list(rendered, indent):
    if sum(map(len, rendered)) < 60 and "\n" not in "".join(rendered):
        return "[" + ", ".join(rendered) + "]"
    return _block("[", rendered, "]", indent)


def _record_rows(rows, text, numbers):
    """``(key, % field)`` pairs and value rows for dicts of one key order
    holding finite floats (NUMBER), bools and strings (``text``) or lists
    of finite floats (``numbers``); None for other lists.  A non-finite
    float raises as :func:`_fmt` does, for the first one in row order."""
    keys = list(rows[0]) if rows and isinstance(rows[0], dict) else None
    if not keys or not all(isinstance(row, dict) and list(row) == keys
                           for row in rows):
        return None
    fields, columns, floats = [], [], []
    for key in keys:
        values = [row[key] for row in rows]
        field = "%s"
        if all(isinstance(v, float) for v in values):
            field = NUMBER
            floats += values
        elif all(isinstance(v, list) for v in values):
            items = [u for v in values for u in v]
            if not all(isinstance(u, float) for u in items):
                return None
            floats += items
            values = [numbers(v) for v in values]
        elif all(isinstance(v, (bool, np.bool_, str)) for v in values):
            render = {v: text(v) for v in set(values)}
            values = [render[v] for v in values]
        else:
            return None
        fields.append((key, field))
        columns.append(values)
    if not all(map(math.isfinite, floats)):
        for row in rows:
            to_json(row)  # raises, naming the first non-finite number
    return fields, zip(*columns)


def _csv_blocks(table):
    """The rows of a finite 2-D float array as CSV text, each number as
    :func:`_fmt` writes it, in blocks of CSV_BLOCK rows."""
    row = ",".join([NUMBER] * table.shape[1]) + "\n"
    for start in range(0, len(table), CSV_BLOCK):
        yield "".join([row % tuple(values) for values
                       in table[start:start + CSV_BLOCK].tolist()])


def _write_table(header, table, out_path):
    """Write a header line and a float array as CSV to ``out_path``."""
    bad = ~np.isfinite(table)
    if bad.any():
        _fmt(table[bad][0])  # raises, naming the first non-finite number
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        handle.writelines(_csv_blocks(table))


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- analyze ------------------------------------------------------------------
#
# analyze, gaussmap and congruence evaluate the surface one point at a
# time, each point's coefficients into one array per jet order, and then
# run each geometry function once on the whole grid.  The benchmark's
# tests pin the evaluation shape (eval_surface calls per grid point in
# perfbench/tests/test_perfbench.py); a grid evaluated in one
# expr.eval_points call, as the suites do, waits until that pin becomes
# a ceiling.


def _grid_geometry(sd, points, steps):
    """``fn(phi, psi, points)`` for each ``(order, fn, check)`` of
    ``steps``, on the order-``order`` jets of all ``points``.

    Each point is evaluated at each step's order in turn, into one
    preallocated (2, slots, n) coefficient array per step; then each fn
    runs once.  When anything raises, the points are rerun one at a time,
    each through every step's evaluation and ``check`` (fn, or the part
    of fn that checks points one by one) in turn, so the first failing
    point reports its first failing check, as a point-by-point run would.
    """
    def batch():
        coeffs = [None] * len(steps)
        for i, pt in enumerate(points):
            for k, (order, _, _) in enumerate(steps):
                jets = eval_surface(sd, pt, order)
                if coeffs[k] is None:
                    coeffs[k] = np.empty((2, len(jets[0].c), len(points)))
                coeffs[k][0, :, i] = jets[0].c
                coeffs[k][1, :, i] = jets[1].c
        return [fn(Jet(order, c[0]), Jet(order, c[1]), points)
                for (order, fn, _), c in zip(steps, coeffs)]

    def one(i):
        for order, _, check in steps:
            phi, psi = eval_surface(sd, points[i], order)
            check(Jet(order, phi.c.reshape(-1, 1)),
                  Jet(order, psi.c.reshape(-1, 1)), points[i:i + 1])

    return _first_error(len(points), batch, one)


def analysis_report(sd, nx, ny, source):
    points = grid_points(sd.domain, nx, ny, shrink=0.0)
    report, (_, klein) = _grid_geometry(
        sd, points, ((2, curvature_report, curvature_report),
                     (1, gauss_map_at, gauss_map_at)))
    point_class = report.point_class.tolist()
    records = [{
        "x": x, "y": y, "K": K, "kappa": kappa, "K1": k1, "K2": k2,
        "Delta": delta, "pointClass": cls, "inflection": inflection,
        "gaussSingular": singular, "Gamma1": gamma1, "Gamma2": gamma2,
    } for (x, y), K, kappa, k1, k2, delta, cls, inflection, singular,
        gamma1, gamma2 in zip(
            points, report.K.tolist(), report.kappa.tolist(),
            report.K1.tolist(), report.K2.tolist(), report.delta.tolist(),
            point_class, report.inflection.tolist(),
            report.gauss_singular.tolist(), klein.a_vec.tolist(),
            klein.b_vec.tolist())]
    counts = {name: point_class.count(name)
              for name in ("hyperbolic", "parabolic", "elliptic")}
    diffs = np.abs(report.K - report.kappa).tolist()
    sums = np.abs(report.K + report.kappa).tolist()
    fit1 = great_circle_fit(klein.a_vec)
    fit2 = great_circle_fit(klein.b_vec)
    return {
        "surface": {
            "file": source,
            "params": dict(sorted(sd.params.items())),
            "domain": [sd.domain.x0, sd.domain.x1,
                       sd.domain.y0, sd.domain.y1],
        },
        "grid": {"nx": nx, "ny": ny},
        "tolerances": dict(TOLERANCES),
        "records": records,
        "summary": {
            "counts": counts,
            "kMinusKappaAbs": {"min": min(diffs), "max": max(diffs)},
            "kPlusKappaAbs": {"min": min(sums), "max": max(sums)},
            "circleFitGamma1": {"alpha": list(fit1.alpha),
                                "residual": fit1.residual,
                                "degenerate": fit1.degenerate},
            "circleFitGamma2": {"alpha": list(fit2.alpha),
                                "residual": fit2.residual,
                                "degenerate": fit2.degenerate},
        },
    }


def _analysis_csv(report):
    fields, rows = _record_rows(
        report["records"], lambda v: v if isinstance(v, str) else _fmt(v),
        lambda v: ",".join([NUMBER % u for u in v]))
    template = ",".join([field for _, field in fields]) + "\n"
    return CSV_HEADER + "\n" + "".join([template % row for row in rows])


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
    if nx * ny > characteristics.MAX_FLOATS:
        raise argparse.ArgumentTypeError(
            f"grid of {nx * ny} points is more than an array can hold")
    return nx, ny


def _parse_analyze_grid(text):
    nx, ny = _parse_grid(text)
    if nx * ny < 3:  # the summary fits great circles to the samples
        raise argparse.ArgumentTypeError(
            "analyze grid must have at least 3 points")
    return nx, ny


def _parse_congruence_grid(text):
    nx, ny = _parse_grid(text)
    try:
        _check_congruence_grid(nx, ny)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return nx, ny


def _ranged(kind, ok, requirement):
    """argparse type: a ``kind`` number for which ``ok`` holds."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return parse


_positive = _ranged(float, lambda v: math.isfinite(v) and v > 0.0,
                    "a finite number > 0")


def cmd_analyze(args):
    sd = _load_surface(args.surface)
    report = analysis_report(sd, args.grid[0], args.grid[1], args.surface)
    if args.format == "json":
        _write_output(to_json(report) + "\n", args.out)
    else:
        _write_output(_analysis_csv(report), args.out)
    return 0


def cmd_gaussmap(args):
    sd = _load_surface(args.surface)
    points = grid_points(sd.domain, args.grid[0], args.grid[1], shrink=0.0)
    (_, klein), = _grid_geometry(sd, points,
                                 ((1, gauss_map_at, gauss_map_at),))
    _write_table("x,y,g1x,g1y,g1z,g2x,g2y,g2z",
                 np.column_stack([points, klein.a_vec, klein.b_vec]),
                 args.out)
    return 0


def cmd_congruence(args):
    sd = _load_surface(args.surface)
    points = congruence_grid(sd.domain, args.grid)

    def congruence(phi, psi, pts):
        return congruence_to_lagrangean(pts, (phi, psi),
                                        tol_circle=args.tol_circle,
                                        tol_symp=args.tol_symp)

    # each point's own check is its tangent pair's
    report, = _grid_geometry(sd, points, ((1, congruence, tangent_pair),))
    sys.stdout.write(to_json(report) + "\n")
    return 0


def cmd_reconstruct(args):
    problem = characteristics.example2_problem(args.c)
    samples = characteristics.reconstruct_surface(
        problem, n_curves=args.n_curves, dt=args.dt)
    # verify first: an input error must leave no output file behind
    report = characteristics.verify_reconstruction(samples)
    if args.out:
        table = np.column_stack([samples.x, samples.y, samples.phi,
                                 samples.phi_x, samples.phi_y])
        _write_table("x,y,phi,phi_x,phi_y", table, args.out)
    sys.stdout.write(to_json(report) + "\n")
    return 0 if report["passed"] else 1


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
    p.add_argument("--grid", type=_parse_analyze_grid, default=DEFAULT_GRID,
                   metavar="NX,NY")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gaussmap", help="CSV of Gauss-map samples")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                   metavar="NX,NY")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gaussmap)

    p = sub.add_parser("congruence",
                       help="great-circle test and Lagrangean congruence")
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=_parse_congruence_grid, default=DEFAULT_GRID,
                   metavar="NX,NY")
    p.add_argument("--tol-circle", type=_positive, default=TOL_CIRCLE)
    p.add_argument("--tol-symp", type=_positive, default=TOL_SYMP)
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("reconstruct",
                       help="rebuild the b1 = c example surface")
    p.add_argument("--c", default=characteristics.DEFAULT_C, type=_ranged(
        float, lambda c: math.isfinite(c) and abs(c) < 1.0,
        "a finite number with |c| < 1"))
    p.add_argument("--out")
    # verification needs a launch curve through the origin
    p.add_argument("--n-curves", type=_ranged(
        int, lambda n: n >= 3 and n % 2 == 1, "an odd integer >= 3"),
        default=characteristics.DEFAULT_N_CURVES)
    p.add_argument("--dt", type=_positive, default=characteristics.DEFAULT_DT)
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
    except (OSError, UnicodeDecodeError, SurfaceSyntaxError,
            SurfaceEvalError, characteristics.IntegrationError,
            characteristics.BranchError,
            characteristics.CharacteristicPointError,
            characteristics.SamplingError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
