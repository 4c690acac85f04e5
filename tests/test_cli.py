"""Command-line interface: subcommands, exit codes, stable output."""

import errno
import inspect
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surf4 import characteristics, lagrangian
from surf4.cli import (CSV_BLOCK, CSV_HEADER, _analysis_csv, _csv_blocks,
                       _fmt, _write_table, build_parser, main, to_json)
from surf4.frames import InternalInconsistencyError

DATA = os.path.join(os.path.dirname(__file__), "data")
SURFACES = os.path.join(os.path.dirname(__file__), os.pardir, "surfaces")


def surface(name):
    return os.path.join(SURFACES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_congruence_example1(capsys):
    code, out, _ = run(capsys, "congruence", "--surface",
                       surface("example1.surf"))
    assert code == 0
    payload = json.loads(out)
    assert payload["circleFactor"] == "gamma2"
    assert payload["symplecticResidual"] < 1e-9
    assert payload["fitResidual"] < 1e-10
    alpha = payload["alpha"]
    assert alpha[1] == pytest.approx(2 / 5**0.5, abs=1e-10)
    assert alpha[2] == pytest.approx(1 / 5**0.5, abs=1e-10)
    assert payload["tolerances"] == {"circle": 1e-6, "symplectic": 1e-8}


def test_analyze_rsurf_z2(capsys, tmp_path):
    out_file = tmp_path / "z2.json"
    code, _, _ = run(capsys, "analyze", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "5,5", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    records = payload["records"]
    assert len(records) == 25  # record count equals the grid size
    counts = payload["summary"]["counts"]
    assert sum(counts.values()) == len(records)
    assert counts["elliptic"] == 25
    for rec in records:
        assert rec["pointClass"] == "elliptic"
        assert rec["Gamma1"] == [1, 0, 0]
    assert "tolerances" in payload


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--surface", "missing.surf")
    assert code == 2
    assert "missing.surf" in err


def test_analyze_bad_surface_file(capsys, tmp_path):
    bad = tmp_path / "bad.surf"
    bad.write_text("phi = x +\npsi = y\n")
    code, _, err = run(capsys, "analyze", "--surface", str(bad))
    assert code == 2
    assert "line 1" in err


NON_FINITE = "phi = exp(1000*x)\npsi = x*y\n"
OUT = object()  # stands for an output file in the test's directory
# constants that overflow a float, on the math.exp and the float ** paths,
# and finite derivatives whose squares overflow the first fundamental form
# (the first grid point is (-1, -1) for analyze and gaussmap, and
# (-0.9, -0.9) for congruence); in "form-then-sqrt" a later point also
# fails, in its evaluation, and the first point's error must still win
OVERFLOWS = {
    "exp": ("phi = exp(1000)\npsi = x*y\n",
            "error: math range error in subexpression 'exp(1000.0)'\n"),
    "pow": ("phi = 2.0^2000\npsi = x*y\n", "in subexpression '2.0^2000'\n"),
    "form": ("phi = 1e200*x^2\npsi = x*y\n",
             "error: first fundamental form overflows at point (-"),
    "form-then-sqrt": ("phi = 1e200*x\npsi = sqrt(0.5 - x)\n",
                       "error: first fundamental form overflows at point (-"),
}
SURFACE_COMMANDS = {"analyze": ["analyze", "--grid", "3,3", "--out", OUT],
                    "gaussmap": ["gaussmap", "--grid", "3,3", "--out", OUT],
                    "congruence": ["congruence", "--grid", "3,3"]}
# too coarse to verify: F drifts past its bound in the forward run, one
# step leaves 5 samples near the origin, and a step longer than twice the
# strip range leaves none
COARSE_DT = [("0.05", "error: F drifted by 1.02012278624386e-08 (> 1e-08) "
                      "at t = 0.35000000000000003\n"),
             ("0.1", "error: F drifted by 9.30254580033818e-08 (> 1e-08) "
                     "at t = 0.1\n"),
             ("0.3", "error: only 5 samples within radius"),
             ("0.5", "error: only 5 samples within radius"),
             ("0.9", "error: dt = 0.9 takes no step")]
RECONSTRUCT_RANGES = {
    "--dt": "a finite number > 0",
    "--n-curves": "an odd integer >= 3",
    "--c": "a finite number with |c| < 1",
}
BAD_RECONSTRUCT_ARGS = [("--dt", "0"), ("--dt", "nan"), ("--dt", "-0.001"),
                        ("--n-curves", "0"), ("--n-curves", "1"),
                        ("--n-curves", "2"), ("--c", "2"), ("--c", "nan")]
BAD_TOLERANCES = [("--tol-circle", "nan"), ("--tol-symp", "-1")]
# paths the file system refuses: one below a regular file, and a name
# longer than a directory entry holds (neither can be created)
BELOW_FILE = os.path.join(surface("example1.surf"), "x")
FILESYSTEM_ERRORS = {
    "analyze-surface-below-file": (
        ["analyze", "--surface", BELOW_FILE], errno.ENOTDIR),
    "gaussmap-out-below-file": (
        ["gaussmap", "--surface", surface("example1.surf"), "--grid", "3,3",
         "--out", BELOW_FILE], errno.ENOTDIR),
    "analyze-out-name-too-long": (
        ["analyze", "--surface", surface("example1.surf"), "--grid", "3,3",
         "--out", "a" * 300], errno.ENAMETOOLONG),
}
# sizes past the largest array, rejected before numpy sees them: the step
# count of --dt 5e-324 is inf, and a 1e20 x 3 grid has 3e20 points
OVERSIZE = {
    **{f"reconstruct{flag}={value}": (
        ["reconstruct", flag, value],
        f"error: dt = {dt} with {curves} curves needs more trajectory "
        "samples than an array can hold\n")
       for flag, value, dt, curves in [
           ("--dt", "5e-324", "5e-324", 41), ("--dt", "1e-300", "1e-300", 41),
           ("--n-curves", "1000000000000000000001", "0.001",
            1000000000000000000001)]},
    **{f"{command}-grid-1e20,3": (
        argv + ["--grid", "100000000000000000000,3"],
        "argument --grid: grid of 300000000000000000000 points is more than "
        "an array can hold") for command, argv in SURFACE_COMMANDS.items()},
}
# Delta and its bounds grow with the fourth power of the largest second
# derivative, here 6 * A at (-1, -1): A = 1e76 fits a float, 1e77 does not
CUBIC = "phi = {}*x^3\npsi = sin(y)\n"
# valid surfaces too steep for double precision at (-1, -1): the adapted
# normal frame's Gram matrix rounds to singular, the hatted products
# overflow, and E*G - F^2 rounds to 0
STEEP = {
    "plane-1e10": ("phi = 1e10*x\npsi = 1e10*x\n",
                   "error: adapted frame is numerically singular at point "
                   "(-1.0, -1.0)\n"),
    "plane-1e100": ("phi = 1e100*x\npsi = 1e100*x\n",
                    "error: first fundamental form overflows at point "
                    "(-1.0, -1.0)\n"),
    "saddle-1e9": ("phi = 1e9*x*y\npsi = x^2\n",
                   "error: first fundamental form is numerically singular "
                   "at point (-1.0, -1.0)\n"),
}
# surface files the parser refuses: malformed numbers and domains whose
# width overflows a float
BAD_SURFACES = {
    "number-two-points": ("phi = 1.2.3\npsi = y\n",
                          "error: line 1, column 7: malformed number "
                          "'1.2.3'\n"),
    "number-bare-exponent": ("phi = 1e\npsi = y\n",
                             "error: line 1, column 7: malformed number "
                             "'1e'\n"),
    "number-param": ("param a = 1..5\nphi = a*x\npsi = y\n",
                     "error: line 1, column 11: malformed number '1..5'\n"),
    "domain-infinite": ("phi = x\npsi = y\ndomain = [0, 1e400] x [0, 1]\n",
                        "error: line 3, column 21: domain intervals must "
                        "have finite widths\n"),
    "domain-width-overflow": ("phi = x\npsi = y\n"
                              "domain = [-1e308, 1e308] x [0, 1]\n",
                              "error: line 3, column 26: domain intervals "
                              "must have finite widths\n"),
}

# a parameter literal past the largest float parses to inf, which the
# parser refuses whether or not the parameter is used; it refuses an
# overflowing literal inside phi or psi at the literal itself
PARAM_OVERFLOW = "phi = x^2\npsi = y^2\nparam a = 1e400\n"
PARAM_MESSAGE = ("error: line 3, column 11: parameter 'a' is not a finite "
                 "number\n")


@pytest.mark.parametrize("argv, text, message", [
    (["analyze"], "phi = sqrt(x)\npsi = y\n",
     "error: sqrt of a jet with non-positive value in subexpression "
     "'sqrt(x)'\n"),
    (["congruence", "--grid", "2,2"], "phi = x^2\npsi = x*y\n",
     "argument --grid: congruence grid must be at least 3x3"),
    (["analyze", "--grid", "1,2", "--out", OUT], "phi = x^2\npsi = x*y\n",
     "argument --grid: analyze grid must have at least 3 points"),
    (["analyze", "--grid", "3,3", "--out", OUT], CUBIC.format("1e77"),
     "error: second derivatives overflow the Delta bound at point "
     "(-1.0, -1.0)\n"),
    # the points at x = 1 fail their evaluation; the first point's
    # curvature check fails before them
    (["analyze", "--grid", "3,3", "--out", OUT],
     "phi = 1e80*x^3\npsi = sqrt(0.5 - x)\n",
     "error: second derivatives overflow the Delta bound at point "
     "(-1.0, -1.0)\n"),
    *[(["congruence", "--grid", "3,3", flag, value], "phi = x^2\npsi = x*y\n",
       f"argument {flag}: must be a finite number > 0, got '{value}'")
      for flag, value in BAD_TOLERANCES],
    *[(["reconstruct", flag, value], None,
       f"argument {flag}: must be {RECONSTRUCT_RANGES[flag]}, "
       f"got '{value}'") for flag, value in BAD_RECONSTRUCT_ARGS],
    (["reconstruct", "--c", "0.5"], None,
     "error: compatibility root -1.7320508075688774 at x = 0 is not on the "
     "declared branch through -1.0\n"),
    (["reconstruct", "--c", "-0.5"], None,
     "error: Newton failed to solve the compatibility equation at x = 0.0"),
    (["analyze", "--grid", "3,3", "--out", OUT], NON_FINITE,
     "error: non-finite derivative of phi at point (1.0, -1.0) in "
     "subexpression 'exp(1000.0 * x)'\n"),
    (["gaussmap", "--grid", "3,3", "--out", OUT], NON_FINITE,
     "error: non-finite derivative of phi at point (1.0, -1.0)"),
    (["congruence", "--grid", "3,3"], NON_FINITE,
     "error: non-finite derivative of phi at point"),
    *[(argv, text, message) for text, message in OVERFLOWS.values()
      for argv in SURFACE_COMMANDS.values()],
    *[(["reconstruct", "--dt", dt], None, message)
      for dt, message in COARSE_DT],
    (["reconstruct", "--dt", "0.5", "--out", OUT], None,
     "error: only 5 samples within radius"),
    *[(["analyze", "--grid", "3,3", "--out", OUT], text, message)
      for text, message in BAD_SURFACES.values()],
    *[(["analyze", "--grid", "3,3", "--out", OUT], text, message)
      for text, message in STEEP.values()],
    # the square of v = 1e-300 in the Taylor series of sqrt underflows to 0
    (["analyze", "--grid", "3,3", "--out", OUT],
     "phi = x\npsi = sqrt(-1e-300*x)\n",
     "error: non-finite derivative of psi at point (-1.0, -1.0) in "
     "subexpression 'sqrt(-1e-300 * x)'\n"),
    *[(argv, None, f"error: [Errno {code}] {os.strerror(code)}: ")
      for argv, code in FILESYSTEM_ERRORS.values()],
    (["analyze", "--grid", "3,3", "--out", OUT], b"phi = x\xff\npsi = y\n",
     "error: 'utf-8' codec can't decode byte 0xff in position 7: invalid "
     "start byte\n"),
    *[(argv, None if argv[0] == "reconstruct" else "phi = x\npsi = y\n",
       message) for argv, message in OVERSIZE.values()],
    # a trajectory that fits an array but no address space, so numpy's
    # allocation fails at once
    (["reconstruct", "--dt", "1e-16", "--n-curves", "3", "--out", OUT], None,
     "error: Unable to allocate 2.50 EiB for an array"),
    (["analyze", "--grid", "3,3"], PARAM_OVERFLOW, PARAM_MESSAGE),
    (["gaussmap", "--grid", "3,3", "--out", OUT], PARAM_OVERFLOW,
     PARAM_MESSAGE),
    (["analyze", "--grid", "3,3"], "phi = 1e400*x\npsi = y\n",
     "error: line 1, column 7: number '1e400' is not finite\n"),
], ids=["eval-error", "congruence-grid", "analyze-grid",
        "analyze-delta-overflow", "analyze-delta-overflow-then-sqrt",
        *[f"congruence{flag}={value}" for flag, value in BAD_TOLERANCES],
        *[f"reconstruct{flag}={value}" for flag, value in BAD_RECONSTRUCT_ARGS],
        "reconstruct-branch", "reconstruct-newton",
        "analyze-non-finite", "gaussmap-non-finite",
        "congruence-non-finite",
        *[f"{command}-overflow-{kind}" for kind in OVERFLOWS
          for command in SURFACE_COMMANDS],
        *[f"reconstruct--dt={dt}" for dt, _ in COARSE_DT],
        "reconstruct-out-coarse-dt",
        *[f"analyze-{kind}" for kind in BAD_SURFACES],
        *[f"analyze-steep-{kind}" for kind in STEEP],
        "analyze-sqrt-underflow", *FILESYSTEM_ERRORS, "analyze-undecodable",
        *OVERSIZE, "reconstruct-out-of-memory", "analyze-param-overflow",
        "gaussmap-param-overflow", "analyze-literal-overflow"])
def test_input_errors_exit_2(capsys, recwarn, tmp_path, argv, text, message):
    out_file = tmp_path / "out.txt"
    argv = [str(out_file) if arg is OUT else arg for arg in argv]
    if text is not None:
        path = tmp_path / "surface.surf"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv += ["--surface", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err and err.count("error:") == 1
    if message.startswith("error:"):
        # the one-line message and nothing else, numpy warnings included
        assert err.startswith("error:") and err.count("\n") == 1
        assert not [w for w in recwarn if w.category is RuntimeWarning]
    assert "nan" not in out.lower()
    assert not out_file.exists()


def reject_constant(token):
    raise ValueError(f"non-finite number {token} in the output")


@pytest.mark.parametrize("grid, text, points", [
    ("1,3", "phi = x^2\npsi = x*y\n", 3), ("3,3", CUBIC.format("1e76"), 9),
], ids=["grid-1,3", "delta-bound-1e76"])
def test_analyze_at_the_input_boundaries(capsys, tmp_path, grid, text,
                                         points):
    path = tmp_path / "surface.surf"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", "--surface", str(path),
                         "--grid", grid)
    assert (code, err) == (0, "")
    records = json.loads(out, parse_constant=reject_constant)["records"]
    assert len(records) == points


def test_report_file_name_is_escaped(capsys, tmp_path):
    directory = tmp_path / "dir\tx"
    directory.mkdir()
    path = directory / "e.surf"
    path.write_text("phi = x^2\npsi = x*y\n")
    code, out, _ = run(capsys, "analyze", "--surface", str(path),
                       "--grid", "3,3")
    assert code == 0
    assert json.loads(out)["surface"]["file"] == str(path)


@pytest.mark.parametrize("text", ['a"b\\c', "tab\t nl\n nul\x00 \x1f",
                                  "\u00e9\u2028"])
def test_to_json_strings_round_trip(text):
    assert json.loads(to_json({"s": text})) == {"s": text}


STEEP_PLANES = {s: f"phi = {s}*x\npsi = {s}*x\n" for s in ("1e5", "1e10",
                                                               "1e100")}


@pytest.mark.parametrize("text, flat", [
    (STEEP_PLANES["1e5"], True), ("phi = 1e6*x*y\npsi = x^2\n", False),
], ids=["plane-1e5", "saddle-1e6"])
def test_analyze_steep_surface(capsys, tmp_path, text, flat):
    # Ehat*Ghat - Fhat^2 (the plane) and E*G - F^2 (the saddle) cancel
    # about 1e10 down to W at (-1, -1), and the identity check still holds
    path = tmp_path / "steep.surf"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", "--surface", str(path),
                         "--grid", "3,3")
    assert (code, err) == (0, "")
    if flat:
        records = json.loads(out)["records"]
        assert {(r["K"], r["kappa"]) for r in records} == {(0, 0)}


@pytest.mark.parametrize("scale", sorted(STEEP_PLANES))
@pytest.mark.parametrize("command", ["gaussmap", "congruence"])
def test_steep_plane_gaussmap_and_congruence(capsys, tmp_path, command,
                                             scale):
    path = tmp_path / "steep.surf"
    path.write_text(STEEP_PLANES[scale])
    out_file = tmp_path / "out.txt"
    argv = [str(out_file) if arg is OUT else arg
            for arg in SURFACE_COMMANDS[command]]
    code, _, err = run(capsys, *argv, "--surface", str(path))
    assert (code, err) == (0, "")


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "analyze", "--nonsense")
    assert code == 2


def test_analyze_csv_header(capsys, tmp_path):
    out_file = tmp_path / "z2.csv"
    code, _, _ = run(capsys, "analyze", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "3,3", "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == ("x,y,K,kappa,K1,K2,Delta,class,inflection,singular,"
                       "g1x,g1y,g1z,g2x,g2y,g2z")
    assert len(lines) == 10


def test_gaussmap_csv(capsys, tmp_path):
    out_file = tmp_path / "gm.csv"
    code, _, _ = run(capsys, "gaussmap", "--surface", surface("rsurf_z2.surf"),
                     "--grid", "4,4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,g1x,g1y,g1z,g2x,g2y,g2z"
    assert len(lines) == 17
    assert all(line.split(",")[2] == "1" for line in lines[1:])


def test_byte_identical_reruns(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(capsys, "analyze", "--surface",
                         surface("example1.surf"), "--grid", "4,3",
                         "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("write, value", [
    (lambda v: to_json({"a": v}), float("nan")),
    (_fmt, float("inf")),
    (_fmt, -float("inf")),
], ids=["to_json-nan", "fmt-inf", "fmt-minus-inf"])
def test_non_finite_numbers_are_refused(write, value):
    with pytest.raises(InternalInconsistencyError, match="non-finite"):
        write(value)


def test_golden_analysis_report(capsys, tmp_path):
    out_file = tmp_path / "golden.json"
    code, _, _ = run(capsys, "analyze", "--surface",
                     surface("example1.surf"), "--grid", "3,3",
                     "--out", str(out_file))
    assert code == 0
    golden = os.path.join(DATA, "example1_3x3.json")

    def stable_lines(text):
        # the recorded source path varies with the invocation
        return [line for line in text.splitlines()
                if not line.lstrip().startswith('"file":')]

    with open(golden, encoding="utf-8") as handle:
        assert stable_lines(out_file.read_text()) == \
            stable_lines(handle.read())


# signed zeros, subnormals, the smallest normal and the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 6)),
              elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(allow_nan=False,
                                           allow_infinity=False))))
def test_csv_rows_format_each_number_like_fmt(table):
    expected = "".join(",".join(_fmt(v) for v in row) + "\n" for row in table)
    assert "".join(_csv_blocks(table)) == expected


@pytest.mark.parametrize("rows", [CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1])
def test_csv_blocks_cover_every_row(rows):
    table = np.random.default_rng(rows).normal(size=(rows, 5))
    blocks = list(_csv_blocks(table))
    assert len(blocks) == -(-rows // CSV_BLOCK)
    assert "".join(blocks).splitlines() == [
        ",".join(_fmt(v) for v in row) for row in table]


def walk_to_json(obj, indent=0):
    """to_json as one recursive walk, every number through _fmt: the
    reference for the row template that writes lists of flat records."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {walk_to_json(val, indent + 1)}'
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        rendered = [walk_to_json(val, indent + 1) for val in obj]
        if sum(len(r) for r in rendered) < 60 and all(
                "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        return ("[\n" + ",\n".join(inner + r for r in rendered)
                + "\n" + pad + "]")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return _fmt(obj)


def _outcome(write, obj):
    try:
        return write(obj)
    except InternalInconsistencyError as exc:
        return str(exc)


# 17-digit numbers in (-1, 1) are 19 or 20 characters long, so three of
# them straddle the 60-character rule for writing a list on one line
RECORD_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(-1.0, 1.0), st.floats(allow_nan=False,
                                                          allow_infinity=False))
RECORD_FIELDS = {
    float: RECORD_FLOATS,
    bool: st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    str: st.sampled_from(["elliptic", "none", 'q"%s\\', "%%", "é\t"]),
    list: st.lists(RECORD_FLOATS, max_size=4),
}


@st.composite
def flat_records(draw):
    """Lists of dicts with one key order and one kind per key, sometimes
    with a NaN or an infinity (of either number type) in one field."""
    keys = draw(st.lists(st.sampled_from(["x", "K", "a%sb", "Gamma1", "g"]),
                         min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from(sorted(RECORD_FIELDS, key=str)))
             for _ in keys]
    rows = [{key: draw(RECORD_FIELDS[kind]) for key, kind in zip(keys, kinds)}
            for _ in range(draw(st.integers(1, 4)))]
    numbers = [(row, key) for row in rows for key, kind in zip(keys, kinds)
               if kind in (float, list) and (kind is float or row[key])]
    if numbers and draw(st.booleans()):
        row, key = draw(st.sampled_from(numbers))
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                    np.float64(math.nan)]))
        if isinstance(row[key], list):
            row[key][draw(st.integers(0, len(row[key]) - 1))] = bad
        else:
            row[key] = bad
    return rows


@settings(max_examples=300, deadline=None)
@given(flat_records(), st.integers(0, 2))
def test_records_render_like_the_walk(rows, depth):
    obj = rows
    for _ in range(depth):
        obj = {"records": obj}
    assert _outcome(to_json, obj) == _outcome(walk_to_json, obj)


def _walk_analysis_csv(records):
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join([
            *[_fmt(rec[key]) for key in ("x", "y", "K", "kappa", "K1", "K2",
                                         "Delta")],
            rec["pointClass"], rec["inflection"], _fmt(rec["gaussSingular"]),
            *[_fmt(v) for v in rec["Gamma1"] + rec["Gamma2"]]]))
    return "\n".join(lines) + "\n"


# the fields of an analyze record, in its key order
ANALYZE_RECORD = {
    **{key: RECORD_FLOATS for key in ("x", "y", "K", "kappa", "K1", "K2",
                                      "Delta")},
    "pointClass": st.sampled_from(["hyperbolic", "parabolic", "elliptic"]),
    "inflection": st.sampled_from(["none", "real", "imaginary", "flat"]),
    "gaussSingular": st.booleans(),
    **{key: st.lists(RECORD_FLOATS, min_size=3, max_size=3)
       for key in ("Gamma1", "Gamma2")},
}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*ANALYZE_RECORD.values()).map(
    lambda values: dict(zip(ANALYZE_RECORD, values))), min_size=1,
    max_size=5))
def test_analysis_csv_rows_format_each_number_like_fmt(records):
    assert _analysis_csv({"records": records}) == _walk_analysis_csv(records)


def test_table_with_a_non_finite_number_writes_no_file(tmp_path):
    out_file = tmp_path / "table.csv"
    table = np.array([[1.0, 2.0], [np.inf, np.nan]])
    with pytest.raises(InternalInconsistencyError,
                       match=r"non-finite number np.float64\(inf\)"):
        _write_table("a,b", table, out_file)
    assert not out_file.exists()


# both sphere images 2-dimensional, as in test_not_congruent_is_a_report
NOT_CONGRUENT = "phi = x^2 + y^3\npsi = x*y + x^3\n"


@pytest.mark.parametrize("surface_file, golden", [
    ("rsurf_z2.surf", "congruence_rsurf_z2_5x5.json"),
    ("example1.surf", "congruence_example1_5x5.json"),
    (None, "congruence_not_congruent_5x5.json"),
], ids=["gamma1", "gamma2", "none"])
def test_golden_congruence_report(capsys, tmp_path, surface_file, golden):
    if surface_file is None:
        path = tmp_path / "surface.surf"
        path.write_text(NOT_CONGRUENT)
    else:
        path = surface(surface_file)
    code, out, _ = run(capsys, "congruence", "--surface", str(path),
                       "--grid", "5,5")
    assert code == 0
    with open(os.path.join(DATA, golden), encoding="utf-8") as handle:
        assert out == handle.read()


def test_largest_finite_param_is_accepted(capsys, tmp_path):
    path = tmp_path / "surface.surf"
    path.write_text("phi = x^2\npsi = y^2\n"
                    "param a = 1.7976931348623157e308\n")
    code, out, err = run(capsys, "analyze", "--surface", str(path),
                         "--grid", "3,3")
    assert (code, err) == (0, "")
    assert json.loads(out)["surface"]["params"] == {
        "a": 1.7976931348623157e308}


@pytest.mark.parametrize("name", ["rsurf_z2", "rsurf_z3", "gradient_x2y"])
@pytest.mark.parametrize("argv", [["analyze", "--format", "csv"],
                                  ["gaussmap"]], ids=["analyze", "gaussmap"])
def test_golden_csv_reports(capsys, tmp_path, name, argv):
    out_file = tmp_path / "out.csv"
    code, _, _ = run(capsys, *argv, "--surface", surface(f"{name}.surf"),
                     "--grid", "7,5", "--out", str(out_file))
    assert code == 0
    golden = os.path.join(DATA, f"{argv[0]}_{name}_7x5.csv")
    with open(golden, "rb") as handle:
        assert out_file.read_bytes() == handle.read()


def test_verify_plucker_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "plucker")
    assert code == 0
    assert "PASS" in out
    assert "checks passed" in out


def test_verify_lift_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lift")
    assert code == 0
    assert "FAIL" not in out


def test_reconstruct_small(capsys, tmp_path):
    out_file = tmp_path / "samples.csv"
    code, out, _ = run(capsys, "reconstruct", "--n-curves", "41",
                       "--dt", "4e-3", "--out", str(out_file))
    with open(os.path.join(DATA, "reconstruct_41_dt4e-3.json"),
              encoding="utf-8") as handle:
        assert out == handle.read()
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["nSamples"] > 100
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,phi,phi_x,phi_y"
    assert len(lines) == payload["nSamples"] + 1


def test_golden_reconstruct_defaults(capsys):
    code, out, _ = run(capsys, "reconstruct")
    assert code == 0
    with open(os.path.join(DATA, "reconstruct_defaults.json"),
              encoding="utf-8") as handle:
        assert out == handle.read()


def test_golden_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    with open(os.path.join(DATA, "verify_all.txt"),
              encoding="utf-8") as handle:
        assert out == handle.read()


def defaults_of(function):
    return {name: param.default for name, param
            in inspect.signature(function).parameters.items()}


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["reconstruct"])
    assert args.c.hex() == characteristics.DEFAULT_C.hex() == \
        characteristics.example2_problem().c.hex()
    library = defaults_of(characteristics.reconstruct_surface)
    assert args.n_curves == characteristics.DEFAULT_N_CURVES == \
        library["n_curves"]
    assert args.dt.hex() == characteristics.DEFAULT_DT.hex() == \
        library["dt"].hex()

    for argv in (["analyze"], ["gaussmap", "--out", "s.csv"],
                 ["congruence"]):
        args = parser.parse_args([*argv, "--surface", "s.surf"])
        assert args.grid == lagrangian.DEFAULT_GRID
    # the library takes sample points, not a grid size: DEFAULT_GRID is
    # the one default grid
    library = defaults_of(lagrangian.congruence_to_lagrangean)
    assert "grid" not in library
    assert args.tol_circle.hex() == lagrangian.TOL_CIRCLE.hex() == \
        library["tol_circle"].hex()
    assert args.tol_symp.hex() == lagrangian.TOL_SYMP.hex() == \
        library["tol_symp"].hex()


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def readme_examples():
    """The commands of the README "Examples" block, without ``surf4``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        lines = handle.read().split("Examples:\n\n```\n", 1)[1]
    block = lines.split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line]


def workflow_examples():
    """The CLI commands of the workflow's "README examples" step, read as
    plain text (the CI install list has no YAML parser), without
    ``python -m surf4.cli``."""
    path = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("      - name: README examples")
    assert lines[start + 1].strip() == "run: |"
    commands = []
    for line in lines[start + 2:]:
        if not line.startswith(" " * 10):  # the end of the run block
            break
        words = line.split()
        if words[:3] == ["python", "-m", "surf4.cli"]:
            commands.append(words[3:])
    return commands


def test_readme_examples_match_the_workflow_step():
    readme = readme_examples()
    assert readme and readme == workflow_examples()
