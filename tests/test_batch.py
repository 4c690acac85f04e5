"""The geometry of a batch of points gives each point, bit for bit, what
the same call gives that point alone, and a batch that raises raises an
error that one of its points raises alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surf4.expr import SurfaceEvalError, eval_points, parse_surface
from surf4.frames import curvature_report
from surf4.grassmann import gauss_map_at
from surf4.suites import EXAMPLE1_TEXT, random_polynomial_surface

# the benchmark's seeded tree, with parameters in its seed ranges
SEEDED = ("param a0 = {}\nparam a1 = {}\nparam s = {}\nparam k = {}\n"
          "param b0 = {}\nparam e = {}\nparam m = {}\nparam r = {}\n"
          "param d = {}\n"
          "phi = a0*x^3 + a1*x*y^2 + s*sin(k*x + y)\n"
          "psi = b0*x^2*y + e*exp(m*y) + r*sqrt(d + x^2)\n"
          "domain = [-0.8, 0.8] x [-0.8, 0.8]\n")
SEEDED_RANGES = [(0.2, 1.0), (0.2, 1.0), (0.3, 1.0), (0.5, 2.0), (0.2, 1.0),
                 (0.2, 0.8), (0.2, 1.0), (0.2, 0.8)]


def seeded_surface(draw):
    signed = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(lo, hi))
              for lo, hi in SEEDED_RANGES]
    return parse_surface(SEEDED.format(*map(repr, signed),
                                       repr(draw(st.floats(0.5, 1.5)))))


@st.composite
def surfaces_and_points(draw):
    kind = draw(st.sampled_from(["polynomial", "example1", "seeded"]))
    if kind == "polynomial":
        sd = random_polynomial_surface(np.random.default_rng(
            draw(st.integers(0, 2**32 - 1))))
    elif kind == "example1":
        sd = parse_surface(EXAMPLE1_TEXT)
    else:
        sd = seeded_surface(draw)
    # grid lines, the axes with either zero, and points in between
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.8]),
                           st.floats(-0.8, 0.8))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1,
                           max_size=12))
    return sd, points


def leaves(value):
    """The arrays of a result, in field order, as lists."""
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value)
                for leaf in leaves(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [leaf for v in value for leaf in leaves(v)]
    return [value.tolist()]


def outcome(fn, phi, psi, points):
    """The fields of ``fn`` on the batch as lists, or its error."""
    try:
        return leaves(fn(phi, psi, points))
    except (SurfaceEvalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def column(jet, i):
    return type(jet)(jet.order, jet.c[:, i:i + 1])


def assert_batch_matches_columns(fn, phi, psi, points):
    """A batch that succeeds gives each point's fields bit for bit as the
    point alone; a batch that raises raises an error one of its points
    raises alone, and it raises whenever one of them does."""
    batch = outcome(fn, phi, psi, points)
    alone = [outcome(fn, column(phi, i), column(psi, i), points[i:i + 1])
             for i in range(len(points))]
    errors = [result for result in alone if isinstance(result, str)]
    if errors or isinstance(batch, str):
        assert batch in errors
    else:
        assert repr(batch) == repr([sum(field, []) for field in zip(*alone)])


@pytest.mark.parametrize("fn, order", [(curvature_report, 2),
                                       (gauss_map_at, 1)],
                         ids=["curvature_report", "gauss_map_at"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=surfaces_and_points())
def test_batch_equals_each_column_alone(fn, order, data):
    sd, points = data
    phi, psi = eval_points(sd, points, order)
    assert_batch_matches_columns(fn, phi, psi, points)


# batches in which some point fails a check; the library raises stage by
# stage, so the error raised need not be the first failing point's
FAILING = {
    # (0, 0) passes; at x = 2e76 the form is finite but the curvature's
    # Delta bound, 1e-9 * phi_xx^4, overflows; at x = 1e100 the slopes'
    # squares overflow the form, the first check either function makes
    "cubic": ("phi = x^3\npsi = y\n",
              [(0.0, 0.0), (2e76, 0.0), (1e100, 0.0), (2e76, 1.0)]),
    # the normal Gram matrix at (-1, -1) rounds to singular; (0, 0) passes
    "singular-frame": ("phi = 5e9*x^2\npsi = 5e9*x^2\n",
                       [(0.0, 0.0), (-1.0, -1.0)]),
    "delta-overflow": ("phi = x^3\npsi = y\n",
                       [(0.0, 0.0), (1.0, 0.0), (2e76, 0.0), (3e76, 1.0)]),
    # W is finite but W*W is not, at every point: at the second, the
    # determinant routes of K and kappa divide by inf and read 0 where
    # the frame route reads 1e129; the routes agree at the others
    "k-routes": ("phi = -1.13e90*y\n"
                 "psi = (y + 0.0136)^-2 * (exp(x) * y^3 - y)\n",
                 [(-1.0, -1.0), (-1.0, -0.33333333333333337), (1.0, 1.0)]),
}


@pytest.mark.parametrize("fn, order", [(curvature_report, 2),
                                       (gauss_map_at, 1)],
                         ids=["curvature_report", "gauss_map_at"])
@pytest.mark.parametrize("kind", FAILING)
def test_batch_error_is_one_points_own_error(fn, order, kind):
    text, points = FAILING[kind]
    phi, psi = eval_points(parse_surface(text), points, order)
    assert_batch_matches_columns(fn, phi, psi, points)

