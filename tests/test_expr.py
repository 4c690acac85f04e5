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
    jet_pow = Jet.__pow__
    monkeypatch.setattr(Jet, "__pow__", lambda self, n: powers.append(n)
                        or jet_pow(self, n))
    got = eval_surface(sd, point, order)
    for jet, want in zip(got, expected):
        assert (jet.c.shape, jet.c.tobytes()) == (want.c.shape,
                                                  want.c.tobytes())
    # x^2, x^3 and y^2 once each, and (x + y)^2 and (x*y)^3 once per use;
    # y^-2 once, which squares y inside its own call
    memo = [2, 3, 2] + ([-2, 2] if point[1] != 0.0 else [])
    assert sorted(powers) == sorted(memo + [2, 3])


def walk_eval(node, x, y, params, powers):
    """The nodes' evaluation as one recursive walk over the node types,
    with the power memo and the error wrapping at the innermost failing
    node: the reference the ``eval`` methods must equal."""
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


def _evaluation(evaluate, nodes, x, y, params):
    """The repr of every coefficient of each node's value (phi and psi
    share one power memo, as in eval_surface), or the error raised."""
    powers = {}
    try:
        with np.errstate(all="ignore"):
            values = [evaluate(node, x, y, params, powers) for node in nodes]
    except Exception as exc:
        return type(exc), str(exc)
    return [[repr(v) for v in value.c.ravel().tolist()]
            if isinstance(value, Jet) else repr(value) for value in values]


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
    x = Jet.variable("x", point, order)
    y = Jet.variable("y", point, order)
    assert _evaluation(lambda node, *args: node.eval(*args),
                       (phi, psi), x, y, params) == \
        _evaluation(walk_eval, (phi, psi), x, y, params)


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


def assert_points_match_single_evaluations(sd, points, order):
    """eval_points equals eval_surface at each point, bit for bit, or
    fails where one of them fails."""
    try:
        single = [eval_surface(sd, point, order) for point in points]
    except SurfaceEvalError:
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
    # order-2 call; the corollary evaluates its 9 points, then checks them
    assert calls == [(2, 45)] * 50 + [(2, 9), (2, 45)]


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
