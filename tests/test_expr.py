"""Surface-definition parsing, printing and evaluation."""

import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from surf4 import expr, frames, grassmann, jets, suites
from surf4.jets import Jet
from surf4.expr import (
    Const,
    Pow,
    SurfaceEvalError,
    SurfaceSyntaxError,
    eval_points,
    eval_surface,
    parse_surface,
    to_text,
)
from surf4.lagrangian import grid_points
from surf4.suites import random_gradient_surface, random_polynomial_surface
from test_fuzz_cli import SURFACES

EXAMPLE1 = ("phi = x^2 - y^2\n"
            "psi = a*x + b*y - 2*x*y\n"
            "param a = 1\n"
            "param b = 2")


def test_parse_example1():
    sd = parse_surface(EXAMPLE1)
    assert sd.params == {"a": 1.0, "b": 2.0}
    assert (sd.domain.x0, sd.domain.x1) == (-1.0, 1.0)
    phi, psi = eval_surface(sd, (0.3, -0.2), 2)
    assert phi.value == pytest.approx(0.3**2 - 0.2**2)
    assert psi.value == pytest.approx(0.3 - 0.4 + 2 * 0.3 * 0.2)


def test_parse_r_surface():
    sd = parse_surface("phi = x^2 - y^2\npsi = 2*x*y")
    phi, psi = eval_surface(sd, (0.0, 0.0), 2)
    assert phi.derivative(2, 0) == 2.0
    assert phi.derivative(0, 2) == -2.0
    assert phi.derivative(1, 1) == 0.0
    assert psi.derivative(1, 1) == 2.0
    assert psi.derivative(2, 0) == psi.derivative(0, 2) == 0.0


def test_syntax_error_position():
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("phi = x +")
    assert err.value.line == 1
    assert err.value.column == 10


def test_missing_psi():
    with pytest.raises(SurfaceSyntaxError, match="psi"):
        parse_surface("phi = x")


def test_undeclared_parameter():
    with pytest.raises(SurfaceSyntaxError, match="undeclared parameter 'c'"):
        parse_surface("phi = c*x\npsi = y")


def test_first_undeclared_parameter_is_named():
    # 'a' is read last, in psi, but comes first of the undeclared names
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("phi = b*x + sin(k)\npsi = a*y\nparam k = 1")
    assert str(err.value) == "line 1, column 1: undeclared parameter 'a'"


def test_param_lines_may_follow_use():
    sd = parse_surface("phi = k*x^2\npsi = y\nparam k = 3")
    phi, _ = eval_surface(sd, (1.0, 0.0), 2)
    assert phi.value == 3.0


def test_domain_line():
    sd = parse_surface(
        "phi = x\npsi = y\ndomain = [-0.5, 0.25] x [0, 2]")
    assert (sd.domain.x0, sd.domain.x1, sd.domain.y0, sd.domain.y1) == \
        (-0.5, 0.25, 0.0, 2.0)


def test_malformed_domain():
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("phi = x\npsi = y\ndomain = [1, -1] x [0, 1]")
    with pytest.raises(SurfaceSyntaxError):
        parse_surface("phi = x\npsi = y\ndomain = [0, 1] y [0, 1]")


# an expression line is parsed to its end before its duplicate check; a
# domain line checks for a duplicate first
@pytest.mark.parametrize("text, message, line, column", [
    ("phi = x\nphi = y\npsi = y", "phi defined twice", 2, 1),
    ("phi = x\npsi = y\npsi = x", "psi defined twice", 3, 1),
    ("phi = x\npsi = y\ndomain = [0, 1] x [0, 1]\ndomain = [0, 1] x [0, 1]",
     "domain defined twice", 4, 1),
    ("phi = x\npsi = y\ndomain = [0, 1] x [0, 1]\ndomain = [0, 1] y",
     "domain defined twice", 4, 1),
    ("psi = y", "missing 'phi = ...' line", 1, 1),
    ("phi = x", "missing 'psi = ...' line", 1, 1),
    ("param a = 1", "missing 'phi = ...' line", 1, 1),
    ("phi = x\nphi = x +\npsi = y", "expected a value, found end of line",
     2, 10),
    ("phi = x\npsi = y\ndomain = [0, 1] y [0, 1]",
     "expected 'x' between the domain intervals", 3, 17),
])
def test_statement_errors(text, message, line, column):
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_comments_and_blank_lines():
    sd = parse_surface("# a surface\n\nphi = x  # graph\npsi = y\n")
    assert eval_surface(sd, (0.5, 0.5), 1)[0].value == 0.5


@pytest.mark.parametrize("phi, innermost", [
    ("1/x", "1.0 / x"),
    ("sqrt(x)", "sqrt(x)"),
    ("x^-2", "x^-2"),
    ("sin(1/x)", "1.0 / x"),
], ids=["division", "sqrt", "negative-power", "nested"])
def test_eval_error_reports_subexpression(phi, innermost):
    sd = parse_surface(f"phi = {phi}\npsi = x")
    with pytest.raises(SurfaceEvalError) as err:
        eval_surface(sd, (0.0, 0.0), 2)
    assert err.value.subexpression == innermost
    assert str(err.value).endswith(f"in subexpression '{innermost}'")


def test_sqrt_eval_error():
    sd = parse_surface("phi = sqrt(x)\npsi = y")
    with pytest.raises(SurfaceEvalError, match="sqrt"):
        eval_surface(sd, (-0.5, 0.0), 2)


def test_outside_domain_warns_not_raises():
    # the domain is the callers' to check: evaluation outside it neither
    # raises nor warns
    sd = parse_surface("phi = x\npsi = y")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phi, _ = eval_surface(sd, (3.0, 0.0), 1)
    assert not caught
    assert phi.value == 3.0


def test_unary_minus_vs_power():
    sd = parse_surface("phi = -x^2\npsi = y")
    phi, _ = eval_surface(sd, (0.5, 0.0), 1)
    assert phi.value == -0.25  # ^ binds tighter than unary minus


def test_functions():
    sd = parse_surface("phi = sin(x)*cos(y) + exp(x)\npsi = sqrt(1 + y^2)")
    phi, psi = eval_surface(sd, (0.0, 0.0), 2)
    assert phi.value == pytest.approx(1.0)
    assert phi.derivative(1, 0) == pytest.approx(2.0)  # cos(0) + exp(0)
    assert psi.value == pytest.approx(1.0)


def test_print_parse_idempotent():
    cases = [
        EXAMPLE1,
        "phi = -x^2 + (x - y)/(1 + x*y)\npsi = sin(x - y^3)*2",
        "phi = x/(y - 2)/(x + 3)\npsi = x - (y - x) - y",
        "phi = sqrt(exp(x) + 2)\npsi = cos(-y)^3\ndomain = [-2, 2] x [-1, 3]",
    ]
    for text in cases:
        sd1 = parse_surface(text)
        printed = f"phi = {to_text(sd1.phi)}\npsi = {to_text(sd1.psi)}\n"
        # the param and domain lines pass through as written
        rest = [line for line in text.splitlines()
                if not line.startswith(("phi", "psi"))]
        sd2 = parse_surface(printed + "\n".join(rest))
        assert sd2 == sd1
        assert f"phi = {to_text(sd2.phi)}\npsi = {to_text(sd2.psi)}\n" \
            == printed


def test_negative_constant_keeps_its_sign_under_a_power():
    node = Pow(Const(-2.0), 2)
    assert to_text(node) == "(-2.0)^2"
    sd = parse_surface(f"phi = {to_text(node)}\npsi = y\n")
    assert eval_surface(sd, (0.0, 0.0), 1)[0].value == 4.0


def test_order1_agrees_with_truncated_order3():
    sd = parse_surface(EXAMPLE1)
    for point in [(0.0, 0.0), (0.4, -0.3), (-0.9, 0.7)]:
        low = eval_surface(sd, point, 1)
        high = eval_surface(sd, point, 3)
        for jet1, jet3 in zip(low, high):
            for (i, j), value in jet1.coeffs.items():
                assert value == pytest.approx(jet3.derivative(i, j),
                                              abs=1e-14)


# isoclinic_form_closedness takes the base position of its adapted chart
# from the order-2 jets, and blaschke_check and suite_lagrangean feed
# order-2 jets to the Gauss map, so their values and slopes must be the
# order-1 values and slopes
VALUE_SURFACES = [
    EXAMPLE1,
    "phi = x^3 - 3*x*y^2\npsi = 3*x^2*y - y^3\n",
    "phi = 2*x*y\npsi = x^2\n",
    "phi = sin(x*y) + exp(x - y)\npsi = sqrt(2 + x) * cos(y)^3\n",
    "phi = (1 + x^2)^-2 - y/(3 + x)\npsi = exp(-x*y)/(2 - y)\n",
]


def assert_order2_values_equal_order1_values(sd, points):
    for point in points:
        low = eval_surface(sd, point, 1)
        high = eval_surface(sd, point, 2)
        for k in ((0, 0), (1, 0), (0, 1)):
            # repr keeps the sign of a zero, which == would not compare
            assert [repr(float(jet.derivative(*k))) for jet in low] == \
                [repr(float(jet.derivative(*k))) for jet in high], (point, k)


@pytest.mark.parametrize("text", VALUE_SURFACES)
def test_order2_values_equal_order1_values(text):
    sd = parse_surface(text)
    assert_order2_values_equal_order1_values(sd, grid_points(sd.domain, 9, 9))


def test_order2_values_equal_order1_values_on_suite_surfaces():
    rng = np.random.default_rng(11)
    for build in [random_polynomial_surface, random_gradient_surface] * 10:
        sd = build(rng)
        assert_order2_values_equal_order1_values(
            sd, grid_points(sd.domain, 5, 5))


def test_polynomial_builder():
    node = expr.polynomial({(0, 0): 1.5, (2, 1): -2.0, (1, 0): 0.0})
    sd = expr.SurfaceDef(phi=node, psi=expr.polynomial({(0, 1): 1.0}))
    phi, _ = eval_surface(sd, (0.5, -1.0), 1)
    assert phi.value == pytest.approx(1.5 - 2.0 * 0.25 * -1.0)


# phi and psi repeat x^2, x^3 and y^2 across terms and between each other,
# next to powers of other bases, which are not memoized
REPEATED_POWERS = ("phi = x^2 + 3*x^2*y - x^3 + x^3*y^2 + y^2 - (x + y)^2\n"
                   "psi = x^2*y^2 - 2*x^3 + y^2*x + sin(x^2) / (2 + y^2)"
                   " + (x*y)^3 - y^-2\n")


def plain_eval(node, x, y, params):
    """The nodes' evaluation without the power memo: one Jet operation per
    node."""
    if isinstance(node, expr.Const):
        return node.value
    if isinstance(node, expr.Var):
        return x if node.name == "x" else y
    if isinstance(node, expr.Param):
        return params[node.name]
    if isinstance(node, expr.Unary):
        arg = plain_eval(node.arg, x, y, params)
        return -arg if node.op == "neg" else getattr(jets, node.op)(arg)
    if isinstance(node, expr.Pow):
        return plain_eval(node.base, x, y, params) ** node.exponent
    lhs = plain_eval(node.lhs, x, y, params)
    rhs = plain_eval(node.rhs, x, y, params)
    return {"+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
            "*": lambda: lhs * rhs, "/": lambda: lhs / rhs}[node.op]()


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("point", [(-0.0, 0.0), (0.0, -0.0), (0.3, -0.7),
                                   (-1.0, 0.5)])
def test_power_memo_matches_plain_walk(order, point, monkeypatch):
    sd = parse_surface(REPEATED_POWERS)
    if point[1] == 0.0:  # y^-2 has no jet at y = 0
        sd.psi = sd.psi.lhs
    x = Jet.variable("x", point, order)
    y = Jet.variable("y", point, order)
    expected = [plain_eval(node, x, y, sd.params) for node in (sd.phi, sd.psi)]
    powers = []
    int_power = jets._int_power

    def spy(c, n, order):
        powers.append(n)
        return int_power(c, n, order)

    # the tape's power step, and the power rule it recurses through
    monkeypatch.setitem(expr._STEPS, ("^", True, False), spy)
    monkeypatch.setattr(jets, "_int_power", spy)
    got = eval_surface(sd, point, order)
    for jet, want in zip(got, expected):
        assert (jet.c.shape, jet.c.tobytes()) == (want.c.shape,
                                                  want.c.tobytes())
    # x^2, x^3 and y^2 one step each, and (x + y)^2 and (x*y)^3 one step
    # per use; y^-2 one step, which squares y inside itself
    memo = [2, 3, 2] + ([-2, 2] if point[1] != 0.0 else [])
    assert sorted(powers) == sorted(memo + [2, 3])


def walk_eval(node, x, y, params, powers):
    """The nodes' evaluation as one recursive walk over the node types on
    Jet operators, with the power memo and the error wrapping at the
    innermost failing node: the reference the tape must equal."""
    if isinstance(node, expr.Const):
        return node.value
    if isinstance(node, expr.Var):
        return x if node.name == "x" else y
    if isinstance(node, expr.Param):
        try:
            return params[node.name]
        except KeyError:
            raise SurfaceEvalError("undeclared parameter", node.name) from None
    try:
        if isinstance(node, expr.Unary):
            arg = walk_eval(node.arg, x, y, params, powers)
            return -arg if node.op == "neg" else getattr(jets, node.op)(arg)
        if isinstance(node, expr.Binary):
            lhs = walk_eval(node.lhs, x, y, params, powers)
            rhs = walk_eval(node.rhs, x, y, params, powers)
            return {"+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
                    "*": lambda: lhs * rhs, "/": lambda: lhs / rhs}[node.op]()
        base = walk_eval(node.base, x, y, params, powers)
        if not isinstance(node.base, expr.Var):
            return base ** node.exponent
        key = (node.base.name, node.exponent)
        if key not in powers:
            powers[key] = base ** node.exponent
        return powers[key]
    except (ZeroDivisionError, ValueError, OverflowError) as e:
        raise SurfaceEvalError(str(e), to_text(node)) from e


def _evaluation(evaluate, columns):
    """The repr of every coefficient of the jets of phi and psi at each of
    ``columns`` points, or the error raised."""
    try:
        with np.errstate(all="ignore"):
            values = evaluate()
    except Exception as exc:
        return type(exc), str(exc)
    return [[[repr(v) for v in value.c.reshape(len(value.c), -1)[:, k]
              .tolist()] for value in values] for k in range(columns)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SURFACES, st.tuples(st.sampled_from([0.0, -0.0, 0.5, -1.0]),
                           st.floats(-1.0, 1.0)),
       st.integers(1, 3), st.booleans())
def test_node_eval_matches_the_recursive_walk(surface, point, order, drop):
    params, phi, psi = surface
    # parameter literals past the largest float evaluate as inf, and a
    # dropped parameter meets the undeclared-parameter error
    params = {name: float(literal) for name, literal in params.items()}
    if drop and params:
        params.pop(min(params))
    tape = expr._Tape(phi, psi)

    def taped(point, columns):
        x, y = (Jet.variable(name, point, order)._c for name in "xy")
        return _evaluation(lambda: tape.run(x, y, params, order), columns)

    def reference(point):
        x, y = (Jet.variable(name, point, order) for name in "xy")
        powers = {}  # phi and psi share one memo, as in one tape
        # a value that does not depend on x or y is the constant jet
        return _evaluation(lambda: [
            value if isinstance(value, Jet) else Jet.constant(value, order)
            for value in (walk_eval(node, x, y, params, powers)
                          for node in (phi, psi))], 1)

    assert taped(point, 1) == reference(point)
    # a batch's columns: each the bytes of its point alone, or the batch
    # fails as the point that fails first in the tape
    points = [point, point[::-1], (-point[0], -point[1])]
    want = [reference(pt) for pt in points]
    errors = [w for w in want if isinstance(w, tuple)]
    got = taped(tuple(np.array(points).T), len(points))
    if errors:
        assert got in errors
    else:
        assert got == [w[0] for w in want]


def test_tape_follows_its_trees():
    point = (0.3, -0.7)

    def coefficients(sd):
        return [jet.c.tobytes() for jet in eval_surface(sd, point, 2)]

    sd = parse_surface("phi = x^2 + y\npsi = x*y\n")
    before = coefficients(sd)
    for name, text in (("phi", "sin(x) - y^2"), ("psi", "exp(x*y)/(2 + y)")):
        setattr(sd, name, getattr(parse_surface(f"phi = {text}\n"
                                                f"psi = {text}\n"), name))
        fresh = expr.SurfaceDef(phi=sd.phi, psi=sd.psi)
        after = coefficients(sd)
        assert after == coefficients(fresh) != before
        before = after
    # Const(0.0) == Const(-0.0): trees that compare equal can differ in
    # their bytes, in two surfaces and in one whose psi is reassigned
    a, b = (expr.SurfaceDef(phi=expr.Var("x"),
                            psi=expr.Unary("neg", Const(zero)))
            for zero in (0.0, -0.0))
    assert a == b
    for sd, zero in ((a, 0.0), (b, -0.0), (a, 0.0)):
        assert coefficients(sd)[1] == Jet.constant(-zero, 2).c.tobytes()
    for zero in (0.0, -0.0):
        b.psi = expr.Unary("neg", Const(zero))
        assert coefficients(b)[1] == Jet.constant(-zero, 2).c.tobytes()


def test_failing_power_reports_the_innermost_subexpression():
    # the memo stores no failed power, and the first failure is reported
    sd = parse_surface("phi = x^-2 + x^-2\npsi = y\n")
    with pytest.raises(SurfaceEvalError) as err:
        eval_surface(sd, (0.0, 0.5), 2)
    assert str(err.value) == ("division by a jet with zero value in "
                              "subexpression 'x^-2'")


def test_non_finite_column_names_its_point():
    # 1 / 1e-320 overflows; an evaluation on arrays names the first such
    # column's point, as an evaluation at that point alone does
    sd = parse_surface("phi = 1/x\npsi = y")
    points = [(0.5, 0.25), (1e-320, -0.5), (-1e-320, 0.75)]
    with pytest.raises(SurfaceEvalError) as single:
        eval_surface(sd, points[1], 1)
    assert str(single.value) == ("non-finite derivative of phi at point "
                                 "(1e-320, -0.5) in subexpression '1.0 / x'")
    x, y = np.array(points).T
    for batch in (lambda: eval_surface(sd, (x, y), 1),
                  lambda: eval_points(sd, points, 1)):
        with pytest.raises(SurfaceEvalError) as err:
            batch()
        assert str(err.value) == str(single.value)


def test_constant_phi_takes_the_points_shape():
    sd = parse_surface("phi = a + 1\npsi = x*y\nparam a = -1")
    points = [(0.5, 0.25), (-0.0, -0.5), (1.0, 0.75)]
    x, y = np.array(points).T
    phi, psi = eval_surface(sd, (x, y), 2)
    assert phi.c.shape == psi.c.shape == (6, 3)
    for i, point in enumerate(points):
        alone = eval_surface(sd, point, 2)
        assert [j.c[:, i].tobytes() for j in (phi, psi)] == \
            [j.c.tobytes() for j in alone]


def test_raise_first_raises_the_first_points_first_error():
    points = ["p0", "p1", "p2"]

    def error(check):
        return lambda point: ValueError(f"{check} at {point}")

    expr._raise_first(points, [(np.zeros(3, bool), error("a")),
                               (np.zeros(3, bool), error("b"))])
    # p1 fails the later check b; p2 fails the earlier check a, and the
    # later check too: the first failing point wins, then its first check
    checks = [(np.array([False, False, True]), error("a")),
              (np.array([False, True, True]), error("b"))]
    with pytest.raises(ValueError, match="^b at p1$"):
        expr._raise_first(points, checks)
    with pytest.raises(ValueError, match="^a at p2$"):
        expr._raise_first(points[2:], [(mask[2:], e) for mask, e in checks])


def assert_points_match_single_evaluations(sd, points, order):
    """eval_points equals eval_surface at each point, bit for bit, or
    fails where one of them fails.  A point that fails alone fails as its
    batch of one with the same message (a one-point jet computes on floats,
    a batch on arrays); a longer batch may fail at another point or check
    first, so its message is not compared."""
    single = []
    for point in points:
        try:
            single.append(eval_surface(sd, point, order))
        except SurfaceEvalError as exc:
            with pytest.raises(SurfaceEvalError) as err:
                eval_points(sd, [point], order)
            assert str(err.value) == str(exc)
    if len(single) < len(points):
        with pytest.raises(SurfaceEvalError):
            eval_points(sd, points, order)
        return
    batch = eval_points(sd, points, order)
    assert [g.c.shape[1:] for g in batch] == [(len(points),)] * 2
    for i, want in enumerate(single):
        for g, w in zip(batch, want):
            assert (g.order, g.c[:, i].shape, g.c[:, i].tobytes()) == \
                (w.order, w.c.shape, w.c.tobytes())


COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                        st.floats(-1.0, 1.0))
POINTS = st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1,
                  max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SURFACES, POINTS, st.integers(1, 3))
def test_eval_points_matches_single_points(surface, points, order):
    params, phi, psi = surface
    text = "".join(f"param {name} = {literal}\n"
                   for name, literal in params.items())
    try:
        sd = parse_surface(f"{text}phi = {to_text(phi)}\npsi = {to_text(psi)}")
    except SurfaceSyntaxError:  # a parameter literal past the largest float
        return
    assert_points_match_single_evaluations(sd, points, order)


@pytest.mark.parametrize("text", [
    "phi = 1\npsi = a\nparam a = 2",
    "phi = sqrt(a) / 3\npsi = x - y\nparam a = 0.5",
    "phi = 1/(x + 2) + sqrt(3 + y)^3 - exp(x*y)/(1.5 + sin(x))\n"
    "psi = x^-2*y + cos(x + y)^3 - a*sqrt(x^2 + 1)\nparam a = 0.3",
], ids=["constant", "constant-phi", "division-and-sqrt"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_eval_points_matches_single_points_on_a_grid(text, order):
    sd = parse_surface(text)
    assert_points_match_single_evaluations(
        sd, grid_points(sd.domain, 9, 7), order)


@pytest.mark.parametrize("order", [2, 3])
def test_eval_points_matches_single_points_in_the_series_powers(order):
    # the sqrt and reciprocal series raise a number to the 2nd and 3rd
    # power, where numpy rounds one float64 and an array differently in
    # a fraction of the inputs; 3000 points meet some at either power
    sd = parse_surface("phi = sqrt(x)\npsi = 1/y\n"
                       "domain = [0.01, 10] x [0.01, 10]")
    points = [tuple(p) for p in
              np.random.default_rng(5).uniform(0.01, 10.0, (3000, 2))]
    assert_points_match_single_evaluations(sd, points, order)


def spy_evaluations(monkeypatch):
    """(order, number of points) of each eval_surface call; every caller
    reaches it through the expr module."""
    calls = []
    real = expr.eval_surface

    def counting(sd, point, order):
        calls.append((order, np.size(point[0])))
        return real(sd, point, order)

    monkeypatch.setattr(expr, "eval_surface", counting)
    return calls


def test_suite_lagrangean_evaluates_each_grid_once(monkeypatch):
    calls = spy_evaluations(monkeypatch)
    assert all(row.passed for row in suites.suite_lagrangean())
    # per surface: the 25 samples at order 2, read by both the Gauss map
    # and the curvature reports, and the 225-point congruence grid
    assert [order for order, _ in calls] == [2, 1] * 20


def test_blaschke_check_evaluates_once(monkeypatch):
    calls = spy_evaluations(monkeypatch)
    grassmann.blaschke_check(parse_surface(suites.EXAMPLE1_TEXT),
                             [(0.3, 0.2)])
    # the stencil and its centre in one order-2 call
    assert [order for order, _ in calls] == [2]


def test_suite_blaschke_evaluates_each_surface_once(monkeypatch):
    calls = spy_evaluations(monkeypatch)
    assert all(row.passed for row in suites.suite_blaschke())
    # per surface: its 9 points and their 36 stencil points in one
    # order-2 call; the corollary reads its curvatures from its own check
    assert calls == [(2, 45)] * 51


@pytest.mark.parametrize("sd", [
    parse_surface(suites.EXAMPLE1_TEXT),
    random_gradient_surface(np.random.default_rng(suites.SEED + 3)),
], ids=["example1", "gradient"])
def test_closedness_evaluates_once_per_newton_step(monkeypatch, sd):
    points = grid_points(sd.domain, 5, 5, shrink=0.4)
    calls = spy_evaluations(monkeypatch)
    alone = []
    for point in points:
        frames.isoclinic_form_closedness(sd, [point])
        assert calls[0] == (2, 1)
        alone.append([n for _, n in calls[1:]])
        calls.clear()
    frames.isoclinic_form_closedness(sd, points)
    # the 25 base points in one call, then one call per Newton step over
    # the stencil targets not yet converged, each target taking the steps
    # it takes alone
    steps = max(map(len, alone))
    assert steps >= 2
    assert calls == [(2, len(points))] + [
        (2, sum(sizes[k] for sizes in alone if k < len(sizes)))
        for k in range(steps)]
