"""Surface-definition parsing, printing and evaluation."""

import warnings

import pytest

from surf4 import expr
from surf4.expr import (
    DomainWarning,
    SurfaceEvalError,
    SurfaceSyntaxError,
    eval_surface,
    parse_surface,
    surface_to_text,
)

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
    sd = parse_surface("phi = x\npsi = y")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_surface(sd, (3.0, 0.0), 1)
    assert len(caught) == 1
    assert issubclass(caught[0].category, DomainWarning)


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
        printed = surface_to_text(sd1)
        sd2 = parse_surface(printed)
        assert sd2 == sd1
        assert surface_to_text(sd2) == printed


def test_order1_agrees_with_truncated_order3():
    sd = parse_surface(EXAMPLE1)
    for point in [(0.0, 0.0), (0.4, -0.3), (-0.9, 0.7)]:
        low = eval_surface(sd, point, 1)
        high = eval_surface(sd, point, 3)
        for jet1, jet3 in zip(low, high):
            for (i, j), value in jet1.coeffs.items():
                assert value == pytest.approx(jet3.derivative(i, j),
                                              abs=1e-14)


def test_polynomial_builder():
    node = expr.polynomial({(0, 0): 1.5, (2, 1): -2.0, (1, 0): 0.0})
    sd = expr.SurfaceDef(phi=node, psi=expr.polynomial({(0, 1): 1.0}))
    phi, _ = eval_surface(sd, (0.5, -1.0), 1)
    assert phi.value == pytest.approx(1.5 - 2.0 * 0.25 * -1.0)
