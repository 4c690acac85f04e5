"""Inputs, command lists and output checks of the surf4 benchmark workloads.

Every workload is a fixed list of ``surf4`` CLI invocations (one
iteration), built from the seed alone.  The program only ever sees the
generated argv and surface files.

* ``survey``: ``analyze`` (JSON) and ``gaussmap`` (CSV) on a 60x60 grid and
  ``congruence`` on its default 15x15 grid, for the paper's ``example1``
  and for one seed-generated surface that mixes a cubic polynomial with
  ``sin``, ``exp`` and ``sqrt`` terms on a safe domain.  The expression
  tree is the same for every seed; only the parameter values change.
* ``reconstruct``: the ``b1 = c`` reconstruction with the CLI defaults
  (41 launch curves) for every seed.  The paper fixes the problem, and the
  one free knob, the launch count, moves peak memory in steps (about 70 MB
  at 39 curves, 80 MB at 43), which would drown the ``peak_rss_mb`` bound.
* ``verify``: ``verify --suite all``.  The suites carry their own fixed
  seed, so this workload is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

SURVEY_GRID = 60
WARMUP_GRID = 6

SEEDED_PHI = "a0*x^3 + a1*x*y^2 + s*sin(k*x + y)"
SEEDED_PSI = "b0*x^2*y + e*exp(m*y) + r*sqrt(d + x^2)"
SEEDED_DOMAIN = "[-0.8, 0.8] x [-0.8, 0.8]"

WHY = {
    "survey": "per-point expr/jets/frames/grassmann work and cli "
              "serialization on two 60x60 grids; bypasses characteristics "
              "and suites",
    "reconstruct": "CLI defaults: array-valued order-1 jets in "
                   "characteristics.f_partials (RK4 strips) plus a scalar "
                   "Newton continuation; bypasses expr, "
                   "frames.curvature_report and suites",
    "verify": "about 100 small surfaces at 9-225 points, finite-difference "
              "stencils and small-matrix lift/plucker suites; bypasses "
              "characteristics",
}

# Spans that must record calls on each workload, or the traced run fails.
EXPECTED_SPANS = {
    "survey": (
        "cli.main", "cli.analysis_report", "cli.to_json",
        "expr.parse_surface", "expr.eval_surface", "jets",
        "frames.curvature_report", "frames.monge_frame",
        "frames.adapted_frame", "frames.hessian_quantities",
        "frames.resultant_determinant",
        "grassmann.gauss_map_at", "grassmann.tangent_pair",
        "grassmann.plucker_from_pair", "grassmann.klein_from_plucker",
        "grassmann.great_circle_fit",
        "lagrangian.congruence_to_lagrangean",
        "lagrangian.congruence_from_tangent_samples",
    ),
    "reconstruct": (
        "cli.main", "cli.to_json", "jets",
        "characteristics.f_partials", "characteristics.characteristic_field",
        "characteristics.reconstruct_surface",
        "characteristics.verify_reconstruction",
        "grassmann.great_circle_fit",
    ),
    "verify": (
        "cli.main", "expr.eval_surface", "jets",
        "frames.curvature_report", "frames.isoclinic_form_closedness",
        "grassmann.gauss_map_at", "grassmann.tangent_pair",
        "grassmann.plucker_from_pair", "grassmann.klein_from_plucker",
        "grassmann.great_circle_fit", "grassmann.blaschke_check",
        "grassmann.lift_so4",
        "lagrangian.congruence_to_lagrangean",
        "lagrangian.congruence_from_tangent_samples",
        "suites.suite_plucker", "suites.suite_blaschke", "suites.suite_wong",
        "suites.suite_lift", "suites.suite_lagrangean",
    ),
}


@dataclass
class Command:
    """One CLI invocation of a workload iteration."""

    label: str              # e.g. "example1.analyze"
    argv: list
    kind: str               # the CLI subcommand
    out: str | None = None  # file the command writes, if any
    surface: str | None = None
    points: int = 0         # grid points, for analyze/gaussmap/congruence

    def digest_key(self):
        """Identity of the inputs: argv plus the surface file's text."""
        text = (Path(self.surface).read_text(encoding="utf-8")
                if self.surface else "")
        blob = json.dumps({"argv": self.argv, "surface": text})
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Workload:
    name: str
    commands: list          # one measured iteration
    warmup: list            # small commands run once before timing
    surfaces: list          # surface files parsed by the set-up probe
    params: dict            # seed-derived inputs, for the report


@dataclass
class Outcome:
    """What one invocation returned and wrote."""

    command: Command
    rc: int | None
    stdout: str
    stderr: str
    error: str | None       # traceback text if cli.main raised
    seconds: float
    out: bytes | None = None
    eval_calls: int = 0     # traced runs only


# -- inputs -------------------------------------------------------------------


def seeded_surface_text(seed):
    """Surface file text for the seed: fixed tree, seed-drawn parameters."""
    rng = random.Random(seed)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)

    params = {
        "a0": signed(0.2, 1.0), "a1": signed(0.2, 1.0),
        "s": signed(0.3, 1.0), "k": signed(0.5, 2.0),
        "b0": signed(0.2, 1.0), "e": signed(0.2, 0.8),
        "m": signed(0.2, 1.0), "r": signed(0.2, 0.8),
        "d": rng.uniform(0.5, 1.5),
    }
    lines = [f"# surf4 benchmark surface, seed {seed}"]
    lines += [f"param {name} = {value!r}" for name, value in params.items()]
    lines += [f"phi = {SEEDED_PHI}", f"psi = {SEEDED_PSI}",
              f"domain = {SEEDED_DOMAIN}"]
    return "\n".join(lines) + "\n"


def _grid_commands(tag, surface, work, grid, congruence_grid=None):
    grid_arg = f"{grid},{grid}"
    congruence = ["congruence", "--surface", str(surface)]
    if congruence_grid:
        congruence += ["--grid", f"{congruence_grid},{congruence_grid}"]
    analyze_out = str(work / f"{tag}.analyze.json")
    gaussmap_out = str(work / f"{tag}.gaussmap.csv")
    return [
        Command(f"{tag}.analyze",
                ["analyze", "--surface", str(surface), "--grid", grid_arg,
                 "--out", analyze_out],
                "analyze", analyze_out, str(surface), grid * grid),
        Command(f"{tag}.gaussmap",
                ["gaussmap", "--surface", str(surface), "--grid", grid_arg,
                 "--out", gaussmap_out],
                "gaussmap", gaussmap_out, str(surface), grid * grid),
        Command(f"{tag}.congruence", congruence, "congruence", None,
                str(surface), (congruence_grid or 15) ** 2),
    ]


def build(name, seed, work, example1, grid=SURVEY_GRID):
    """Workload ``name`` for ``seed``; inputs are written under ``work``.

    ``grid`` shrinks the survey grids for quick tests.
    """
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    if name == "survey":
        seeded = work / "seeded.surf"
        seeded.write_text(seeded_surface_text(seed), encoding="utf-8")
        commands, warmup = [], []
        for tag, path in (("example1", example1), ("seeded", seeded)):
            commands += _grid_commands(tag, path, work, grid)
            warmup += _grid_commands(f"warm-{tag}", path, work,
                                     WARMUP_GRID, WARMUP_GRID)
        return Workload(name, commands, warmup, [str(example1), str(seeded)],
                        {"grid": grid, "seededSurface": str(seeded)})
    if name == "reconstruct":
        out = str(work / "reconstruct.csv")
        command = Command("reconstruct", ["reconstruct", "--out", out],
                          "reconstruct", out)
        return Workload(name, [command], [], [], {})
    if name == "verify":
        command = Command("verify", ["verify", "--suite", "all"], "verify")
        warm = Command("warm-verify", ["verify", "--suite", "plucker"],
                       "verify")
        return Workload(name, [command], [warm], [], {})
    raise ValueError(f"unknown workload {name!r}")


# -- output checks ------------------------------------------------------------


class _Num(str):
    """A JSON number kept as its exact text."""


def _load_json(text):
    """Parse JSON keeping every number as its text; NaN/inf are errors."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_float=_Num, parse_int=_Num,
                      parse_constant=reject)


def _non_finite(obj):
    """Yield every number in a parsed document that is not finite."""
    if isinstance(obj, _Num):
        if not math.isfinite(float(obj)):
            yield str(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _non_finite(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _non_finite(value)


def _csv_rows(data, columns):
    """Data rows of a CSV output, each required to have ``columns`` fields."""
    rows = [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]
    if any(len(row) != columns for row in rows):
        raise ValueError("ragged CSV row")
    return rows


def _all_finite(rows):
    return all(math.isfinite(float(field)) for row in rows for field in row)


def check_outcome(outcome, digests, analyze_tokens):
    """Problems with one invocation's outputs (empty when correct).

    ``analyze_tokens`` maps a surface to the (x, y, Gamma1, Gamma2) tokens
    of its analyze output, so that gaussmap can be compared byte for byte.
    """
    cmd = outcome.command
    if outcome.error is not None:
        return [f"{cmd.label}: raised\n{outcome.error}"]
    problems = []
    if outcome.rc != 0:
        problems.append(f"{cmd.label}: exit code {outcome.rc}")
    if "Traceback" in outcome.stderr:
        problems.append(f"{cmd.label}: traceback on stderr")
    if cmd.out is not None and outcome.out is None:
        return problems + [f"{cmd.label}: wrote no {cmd.out}"]
    try:
        problems += _check_content(outcome, analyze_tokens)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{cmd.label}: unreadable output ({exc})")
    expected = digests.get(cmd.digest_key())
    if expected is not None:
        for stream, data in (("stdout", outcome.stdout.encode()),
                             ("out", outcome.out or b"")):
            digest = hashlib.sha256(data).hexdigest()
            if stream in expected and digest != expected[stream]:
                problems.append(f"{cmd.label}: {stream} digest differs "
                                "from the recorded one")
    return problems


def _check_content(outcome, analyze_tokens):
    cmd = outcome.command
    problems = []

    def parsed(text):
        document = _load_json(text)
        bad = list(_non_finite(document))
        if bad:
            problems.append(f"{cmd.label}: non-finite numbers {bad[:3]}")
        return document

    if cmd.kind == "analyze":
        records = parsed(outcome.out.decode("utf-8"))["records"]
        if len(records) != cmd.points:
            problems.append(f"{cmd.label}: {len(records)} records, "
                            f"expected {cmd.points}")
        analyze_tokens[cmd.surface] = [
            [rec["x"], rec["y"], *rec["Gamma1"], *rec["Gamma2"]]
            for rec in records]
    elif cmd.kind == "gaussmap":
        rows = _csv_rows(outcome.out, 8)
        if len(rows) != cmd.points:
            problems.append(f"{cmd.label}: {len(rows)} rows, "
                            f"expected {cmd.points}")
        if not _all_finite(rows):
            problems.append(f"{cmd.label}: non-finite numbers")
        if analyze_tokens.get(cmd.surface) != rows:
            problems.append(f"{cmd.label}: g1/g2 columns differ from "
                            "analyze Gamma1/Gamma2")
    elif cmd.kind == "congruence":
        report = parsed(outcome.stdout)
        if cmd.label.endswith("example1.congruence") and (
                report["circleFactor"] != "gamma2"
                or report["matchedForm"] == "none"):
            problems.append(f"{cmd.label}: example1 not matched through "
                            "gamma2")
    elif cmd.kind == "reconstruct":
        report = parsed(outcome.stdout)
        if report["passed"] is not True:
            problems.append(f"{cmd.label}: verification report failed")
        rows = _csv_rows(outcome.out, 5)
        if len(rows) != int(report["nSamples"]):
            problems.append(f"{cmd.label}: CSV rows differ from nSamples")
        if not _all_finite(rows):
            problems.append(f"{cmd.label}: non-finite numbers in CSV")
    elif cmd.kind == "verify":
        last = outcome.stdout.rstrip("\n").rsplit("\n", 1)[-1]
        match = re.fullmatch(r"(\d+)/(\d+) checks passed", last)
        if not match or match.group(1) != match.group(2):
            problems.append(f"{cmd.label}: {last!r}")
    return problems


def record_digests(outcomes):
    """Digest table entries for a list of outcomes."""
    table = {}
    for outcome in outcomes:
        entry = {"label": outcome.command.label,
                 "stdout": hashlib.sha256(outcome.stdout.encode()).hexdigest()}
        if outcome.out is not None:
            entry["out"] = hashlib.sha256(outcome.out).hexdigest()
        table[outcome.command.digest_key()] = entry
    return table
