"""Random surfaces through the command line: exit 0 or 2, finite output."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from surf4.cli import main
from surf4.expr import Binary, Const, Param, Pow, Unary, Var, to_text

CONSTANTS = st.builds(lambda sign, magnitude: Const(sign * magnitude),
                      st.sampled_from([1.0, -1.0]),
                      st.floats(1e-300, 1e300))
# parameter literals of either sign from 1e-300 to 1e400: those past the
# largest float are input errors whether or not the parameter is used
PARAM_LITERALS = st.builds(
    lambda sign, mantissa, exponent: f"{sign}{mantissa!r}e{exponent}",
    st.sampled_from(["", "-"]), st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-300, 399))


def _extend(children):
    return st.one_of(
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-3, 6)),
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp",
                                          "sqrt"]), children),
    )


def _surfaces(params):
    # phi and psi over x, y and the declared parameters, each of which may
    # be used or left unused
    leaves = st.one_of(CONSTANTS, st.sampled_from(
        [Var("x"), Var("y"), *map(Param, sorted(params))]))
    expressions = st.recursive(leaves, _extend, max_leaves=6)
    return st.tuples(st.just(params), expressions, expressions)


SURFACES = st.dictionaries(st.sampled_from(["a", "b"]), PARAM_LITERALS,
                           max_size=2).flatmap(_surfaces)


def finite(token):
    value = float(token)
    assert math.isfinite(value), f"non-finite number {token} in the output"
    return value


def reject_constant(token):
    raise AssertionError(f"non-finite number {token} in the output")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    assert code in (0, 2), err.getvalue()
    # stderr holds the one error line of an exit 2 and nothing else, numpy
    # warnings included
    assert err.getvalue().count("\n") == code // 2
    assert err.getvalue().startswith("error:" if code else "")
    assert not [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(SURFACES)
def test_random_surfaces_exit_0_or_2_with_finite_output(surface):
    params, phi, psi = surface
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.surf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"param {name} = {literal}\n"
                              for name, literal in params.items())
            handle.write(f"phi = {to_text(phi)}\npsi = {to_text(psi)}\n")
        for command in ("analyze", "congruence"):
            _, out = run(command, "--surface", path, "--grid", "3,3")
            if out:
                json.loads(out, parse_float=finite,
                           parse_constant=reject_constant)
        out_file = os.path.join(tmp, "gauss.csv")
        code, _ = run("gaussmap", "--surface", path, "--grid", "3,3",
                      "--out", out_file)
        if code == 2:
            assert not os.path.exists(out_file)
        else:
            with open(out_file, encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            assert len(rows) == 9
            for row in rows:
                for token in row:
                    finite(token)
