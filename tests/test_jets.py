"""Jet arithmetic against spec values, a finite-difference oracle and the
per-term reference kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surf4 import jets
from surf4.jets import _INDICES, _LEIBNIZ, _SLOT, Jet


def test_variable_x_order2():
    j = Jet.variable("x", (1.0, 2.0), 2)
    assert j.value == 1.0
    assert j.derivative(1, 0) == 1.0
    assert j.derivative(0, 1) == 0.0
    assert j.derivative(2, 0) == j.derivative(1, 1) == j.derivative(0, 2) == 0.0


def test_variable_y_order3():
    j = Jet.variable("y", (0.0, 0.0), 3)
    assert j.value == 0.0
    assert j.derivative(0, 1) == 1.0
    assert all(v == 0.0 for ij, v in j.coeffs.items() if ij != (0, 1))


def test_variable_order1():
    j = Jet.variable("x", (-0.5, 0.25), 1)
    assert j.value == -0.5
    assert j.derivative(1, 0) == 1.0
    assert j.derivative(0, 1) == 0.0


def test_invalid_order():
    with pytest.raises(ValueError):
        Jet.variable("x", (0.0, 0.0), 4)
    with pytest.raises(ValueError):
        Jet.variable("x", (0.0, 0.0), 0)


def test_mul_xy_at_point():
    x = Jet.variable("x", (1.0, 2.0), 2)
    y = Jet.variable("y", (1.0, 2.0), 2)
    m = x * y
    assert m.value == 2.0
    assert m.derivative(1, 0) == 2.0
    assert m.derivative(0, 1) == 1.0
    assert m.derivative(1, 1) == 1.0
    assert m.derivative(2, 0) == 0.0
    assert m.derivative(0, 2) == 0.0


def test_difference_of_squares():
    x = Jet.variable("x", (1.0, 1.0), 2)
    y = Jet.variable("y", (1.0, 1.0), 2)
    f = x * x - y * y
    assert f.value == 0.0
    assert f.derivative(1, 0) == 2.0
    assert f.derivative(0, 1) == -2.0
    assert f.derivative(2, 0) == 2.0
    assert f.derivative(0, 2) == -2.0
    assert f.derivative(1, 1) == 0.0


def test_sin_third_order():
    s = Jet.variable("x", (0.0, 0.0), 3).sin()
    assert s.value == 0.0
    assert s.derivative(1, 0) == 1.0
    assert s.derivative(2, 0) == 0.0
    assert s.derivative(3, 0) == -1.0


def test_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        Jet.variable("x", (0, 0), 2) + Jet.variable("x", (0, 0), 3)


def test_division_by_zero_value():
    x = Jet.variable("x", (0.0, 1.0), 2)
    with pytest.raises(ZeroDivisionError):
        (x + 1.0) / x


@pytest.mark.parametrize("divisor", [0.0, -0.0, 0, np.array([2.0, -0.0])])
def test_division_by_zero_number(divisor):
    x = Jet.variable("x", (np.array([1.0, 2.0]), np.zeros(2)), 2)
    with pytest.raises(ZeroDivisionError, match="zero value"):
        x / divisor


def test_sqrt_domain():
    x = Jet.variable("x", (-1.0, 0.0), 2)
    with pytest.raises(ValueError, match="non-positive"):
        x.sqrt()


def test_scalar_coercion_and_pow():
    x = Jet.variable("x", (0.5, 0.0), 3)
    g = 2.0 / (1.0 + x * x)
    assert g.value == pytest.approx(2.0 / 1.25, abs=1e-15)
    assert (x ** 3).derivative(2, 0) == pytest.approx(3.0)
    assert (x ** 0).value == 1.0
    assert (x ** -2).value == pytest.approx(0.5 ** -2, abs=1e-12)


# -- finite-difference oracle -------------------------------------------------
#
# Degree <= 4 polynomials make the central stencils below exact in exact
# arithmetic, so the oracle runs in mpmath and the comparison tests only
# the jet kernel.

STENCILS_1D = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def fd_oracle(poly, point, i, j, h="1e-4"):
    """d^(i+j) poly / dx^i dy^j at point, by mpmath central differences."""
    import mpmath as mp

    with mp.workdps(60):
        hh = mp.mpf(h)
        x0, y0 = mp.mpf(point[0]), mp.mpf(point[1])

        def eval_poly(x, y):
            total = mp.mpf(0)
            for (a, b), coefficient in poly.items():
                total += mp.mpf(coefficient) * x**a * y**b
            return total

        total = mp.mpf(0)
        for off_x, w_x in STENCILS_1D[i]:
            for off_y, w_y in STENCILS_1D[j]:
                total += (mp.mpf(w_x) * mp.mpf(w_y)
                          * eval_poly(x0 + off_x * hh, y0 + off_y * hh))
        return float(total / hh ** (i + j))


def eval_poly_jet(poly, point, order):
    x = Jet.variable("x", point, order)
    y = Jet.variable("y", point, order)
    total = Jet.constant(0.0, order)
    for (a, b), coefficient in poly.items():
        total = total + coefficient * x**a * y**b
    return total


def test_jets_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(12):
        poly = {(a, b): rng.uniform(-2.0, 2.0)
                for a in range(5) for b in range(5 - a)}
        point = tuple(rng.uniform(-1.0, 1.0, size=2))
        jet = eval_poly_jet(poly, point, 3)
        for (i, j), value in jet.coeffs.items():
            expected = fd_oracle(poly, point, i, j)
            if abs(expected) >= 1e-3:
                assert abs(value - expected) <= 1e-5 * abs(expected), (
                    (i, j), value, expected)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6),
)
def test_mul_commutative_associative(order, ca, cb, cc):
    point = (0.3, -0.7)
    keys = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    a = eval_poly_jet(dict(zip(keys, ca)), point, order)
    b = eval_poly_jet(dict(zip(keys, cb)), point, order)
    c = eval_poly_jet(dict(zip(keys, cc)), point, order)
    np.testing.assert_allclose((a * b).c, (b * a).c, atol=1e-12, rtol=1e-12)
    np.testing.assert_allclose(((a * b) * c).c, (a * (b * c)).c,
                               atol=1e-12, rtol=1e-10)


def test_transcendental_chain():
    # f = exp(sin(x) * cos(y)) / sqrt(1 + x^2): compare against mpmath
    import mpmath as mp

    point = (0.4, -0.3)
    x = Jet.variable("x", point, 2)
    y = Jet.variable("y", point, 2)
    f = (x.sin() * y.cos()).exp() / (1.0 + x * x).sqrt()

    def g(xx, yy):
        return mp.exp(mp.sin(xx) * mp.cos(yy)) / mp.sqrt(1 + xx * xx)

    with mp.workdps(40):
        for (i, j), value in f.coeffs.items():
            expected = float(mp.diff(g, (mp.mpf(point[0]), mp.mpf(point[1])),
                                     (i, j)))
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_array_coefficients_broadcast():
    xs = np.array([0.1, 0.2, 0.3])
    x = Jet.variable("x", (xs, np.zeros(3)), 1)
    f = 1.0 - 2.0 * x + x * x
    np.testing.assert_allclose(f.value, (1.0 - xs) ** 2, atol=1e-15)
    np.testing.assert_allclose(f.derivative(1, 0), 2.0 * (xs - 1.0),
                               atol=1e-15)


# -- kernel identity against the per-term reference ----------------------------
#
# LoopJet is the jet kernel as it was before the gathered product: a Python
# loop over the Leibniz terms of each coefficient, and number operands built
# into constant jets.  The kernel must reproduce it bit for bit, signed
# zeros included, for finite coefficients.


def _loop_leibniz_table(order):
    table = []
    slot = _SLOT[order]
    for (i, j) in _INDICES[order]:
        terms = []
        for k in range(i + 1):
            for l in range(j + 1):
                w = math.comb(i, k) * math.comb(j, l)
                terms.append((slot[(k, l)], slot[(i - k, j - l)], float(w)))
        table.append(terms)
    return table


_LOOP_LEIBNIZ = {o: _loop_leibniz_table(o) for o in (1, 2, 3)}


def _loop_power(v, k):
    """v ** k by the C library's pow, one element at a time: what a jet
    at a single point computes, whatever batch its column sits in."""
    return np.array([math.pow(s, k) for s in np.ravel(v)]).reshape(
        np.shape(v))


class LoopJet:
    __array_ufunc__ = None

    def __init__(self, order, c):
        self.order = order
        self.c = np.asarray(c, dtype=float)

    @staticmethod
    def constant(value, order, like=None):
        n = len(_INDICES[order])
        tail = np.shape(like)[1:] if like is not None else ()
        c = np.zeros((n,) + np.broadcast_shapes(np.shape(value), tail))
        c[0] = value
        return LoopJet(order, c)

    def _coerce(self, other):
        if isinstance(other, LoopJet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        if isinstance(other, (int, float, np.floating, np.ndarray)):
            return LoopJet.constant(other, self.order, like=self.c)
        return None

    def __add__(self, other):
        return LoopJet(self.order, self.c + self._coerce(other).c)

    __radd__ = __add__

    def __sub__(self, other):
        return LoopJet(self.order, self.c - self._coerce(other).c)

    def __rsub__(self, other):
        return LoopJet(self.order, self._coerce(other).c - self.c)

    def __neg__(self):
        return LoopJet(self.order, -self.c)

    def __mul__(self, other):
        a, b = self.c, self._coerce(other).c
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for k, terms in enumerate(_LOOP_LEIBNIZ[self.order]):
            acc = 0.0
            for s1, s2, w in terms:
                acc = acc + w * a[s1] * b[s2]
            out[k] = acc
        return LoopJet(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self._reciprocal()

    def __pow__(self, n):
        if n < 0:
            return (self ** -n)._reciprocal()
        result = LoopJet.constant(1.0, self.order, like=self.c)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _compose(self, series):
        w = LoopJet(self.order, self.c.copy())
        w.c[0] = np.zeros(np.shape(w.c[0]))
        result = LoopJet.constant(series[-1], self.order, like=self.c)
        for k in range(len(series) - 2, -1, -1):
            result = result * w
            result.c[0] = result.c[0] + series[k]
        return result

    def _reciprocal(self):
        v = self.c[0]
        if np.any(np.asarray(v) == 0.0):
            raise ZeroDivisionError("division by a jet with zero value")
        inv = 1.0 / v
        return self._compose([inv * _loop_power(-inv, k)
                              for k in range(self.order + 1)])

    def sqrt(self):
        v = self.c[0]
        if np.any(np.asarray(v) <= 0.0):
            raise ValueError("sqrt of a jet with non-positive value")
        r = np.sqrt(v)
        series = [r, 0.5 * r / v, -0.125 * r / _loop_power(v, 2),
                  0.0625 * r / _loop_power(v, 3)]
        return self._compose(series[: self.order + 1])

    def exp(self):
        e = np.exp(self.c[0])
        return self._compose([e, e, e / 2.0, e / 6.0][: self.order + 1])

    def sin(self):
        s, co = np.sin(self.c[0]), np.cos(self.c[0])
        return self._compose([s, co, -s / 2.0, -co / 6.0][: self.order + 1])

    def cos(self):
        s, co = np.sin(self.c[0]), np.cos(self.c[0])
        return self._compose([co, -s, -co / 2.0, s / 6.0][: self.order + 1])


# Magnitudes stay in [1e-2, 1e2] so that every reciprocal series and
# transcendental stays finite; zeros of both signs are drawn often.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.builds(lambda sign, mag: sign * mag, st.sampled_from([1.0, -1.0]),
              st.floats(1e-2, 1e2)),
)
_TAILS = st.sampled_from([(), (1,), (2,), (3,)])

_NUMBER_OPS = {
    "add": lambda j, v: j + v, "radd": lambda j, v: v + j,
    "sub": lambda j, v: j - v, "rsub": lambda j, v: v - j,
    "mul": lambda j, v: j * v, "rmul": lambda j, v: v * j,
    "div": lambda j, v: j / v, "rdiv": lambda j, v: v / j,
}
_JET_OPS = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
}
_UNARY_OPS = {
    "neg": lambda j: -j, "sqrt": lambda j: j.sqrt(),
    "exp": lambda j: j.exp(), "sin": lambda j: j.sin(),
    "cos": lambda j: j.cos(),
    **{f"pow{n}": (lambda j, n=n: j ** n) for n in range(-3, 10)},
}


@st.composite
def _coefficients(draw, order, tail):
    size = len(_INDICES[order]) * math.prod(tail)
    values = draw(st.lists(_VALUES, min_size=size, max_size=size))
    return np.array(values).reshape((len(_INDICES[order]),) + tail)


def _outcomes(fn):
    """``fn(cls)`` for Jet and for LoopJet: coefficient shape and bytes, or
    the exception type."""
    def outcome(cls):
        try:
            c = fn(cls).c
        except Exception as exc:
            return type(exc)
        return c.shape, c.tobytes()
    return outcome(Jet), outcome(LoopJet)


@pytest.mark.parametrize("kind", ["number", "jet", "unary"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_term_reference(kind, data):
    order = data.draw(st.integers(1, 3), label="order")
    tail = data.draw(_TAILS)
    a = data.draw(_coefficients(order, tail))
    if kind == "number":
        op = _NUMBER_OPS[data.draw(st.sampled_from(sorted(_NUMBER_OPS)))]
        # arrays shaped like the tail, or shaped otherwise
        value = data.draw(st.one_of(
            _VALUES, st.integers(-3, 3),
            st.one_of(st.just(tail), _TAILS).flatmap(lambda t: st.lists(
                _VALUES, min_size=math.prod(t), max_size=math.prod(t)).map(
                    lambda vs, t=t: np.array(vs).reshape(t)))), label="v")
        new, old = _outcomes(lambda cls: op(cls(order, a.copy()), value))
    elif kind == "jet":
        op = _JET_OPS[data.draw(st.sampled_from(sorted(_JET_OPS)))]
        b = data.draw(_coefficients(order, data.draw(_TAILS)))
        new, old = _outcomes(
            lambda cls: op(cls(order, a.copy()), cls(order, b.copy())))
    else:
        op = _UNARY_OPS[data.draw(st.sampled_from(sorted(_UNARY_OPS)))]
        new, old = _outcomes(lambda cls: op(cls(order, a.copy())))
    assert new == old


@pytest.mark.parametrize("order", [1, 2, 3])
def test_long_tail_product_matches_reference(order):
    # tails longer than the kernel's block are multiplied block by block
    rng = np.random.default_rng(order)
    n = len(_INDICES[order])
    a, b = (rng.uniform(-2.0, 2.0, (n, 10001)) for _ in range(2))
    a[:, ::7] = -0.0
    new, old = _outcomes(lambda cls: (cls(order, a) * cls(order, b)).exp())
    assert new == old


_SPOT_OPS = {
    "mul": lambda a, b: a * b, "pow1": lambda a, b: a ** 1,
    "pow3": lambda a, b: a ** 3,
    "sqrt": lambda a, b: a.sqrt(), "sin": lambda a, b: a.sin(),
}


@pytest.mark.parametrize("tail", [(4097,), (2, 3)], ids=["4097", "2x3"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("op", sorted(_SPOT_OPS))
def test_kernel_matches_reference_on_mixed_magnitudes(op, order, tail):
    # magnitudes from 1e-6 to 1e6 make the order of each Leibniz sum
    # matter, so the one-call reduction must add its terms in table order;
    # 4097 columns cross the kernel's block
    rng = np.random.default_rng(17 * order + len(tail))
    shape = (len(_INDICES[order]),) + tail
    a, b = (rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6, 6, shape)
            for _ in range(2))
    for c in (a, b):
        c[rng.random(shape) < 0.2] = 0.0
        c[rng.random(shape) < 0.2] = -0.0
    if op == "sqrt":
        a[0] = 10.0 ** rng.uniform(-6, 6, tail)
    new, old = _outcomes(
        lambda cls: _SPOT_OPS[op](cls(order, a.copy()), cls(order, b.copy())))
    assert isinstance(new, tuple)
    assert new == old


# -- the product's reduction on non-finite coefficients ------------------------
#
# LoopJet draws only finite magnitudes in [1e-2, 1e2] and no zero-weight
# padding, so it cannot tell how the reduction treats infinities, NaN and
# overflow.  There the product must equal its earlier two-step form, a
# reduction from the first term followed by + 0.0, bit for bit: the bytes
# of a NaN or an infinity decide which error a later operation raises
# (sqrt of NaN passes its sign check and fails as non-finite, sqrt of
# -inf fails the sign check).


def _two_step_product(a, b, order):
    s1, s2, w = _LEIBNIZ[order]
    shape = np.broadcast_shapes(a.shape, b.shape)
    a = a.reshape(a.shape[:1] + (1,) * (len(shape) - a.ndim) + a.shape[1:])
    b = b.reshape(b.shape[:1] + (1,) * (len(shape) - b.ndim) + b.shape[1:])
    terms = w.reshape(w.shape + (1,) * (len(shape) - 1)) * a[s1] * b[s2]
    acc = np.add.reduce(terms, axis=0) + 0.0
    return np.broadcast_to(acc, shape).copy()


# signed zeros, subnormals, both infinities, NaN of either sign, and
# magnitudes whose products overflow
_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                     math.inf, -math.inf, math.nan, -math.nan, 1e308,
                     -1.7976931348623157e308, 1e160, -1e155]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# tails of a and b: none, equal 1-D and 2-D tails, and tails that broadcast
_TAIL_PAIRS = st.sampled_from([((), ()), ((3,), (3,)), ((2, 3), (2, 3)),
                               ((1,), (4,)), ((4,), (1,)), ((2, 1), (1, 3)),
                               ((1, 3), (2, 3))])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_product_matches_two_step_reduction_on_non_finite_input(data):
    order = data.draw(st.integers(1, 3), label="order")
    tails = data.draw(_TAIL_PAIRS, label="tails")
    a, b = (np.array(data.draw(st.lists(
        _EDGE_VALUES, min_size=len(_INDICES[order]) * math.prod(tail),
        max_size=len(_INDICES[order]) * math.prod(tail)))).reshape(
            (len(_INDICES[order]),) + tail) for tail in tails)
    with np.errstate(all="ignore"):
        new = jets._product(a, b, order)
        old = _two_step_product(a, b, order)
    assert (new.shape, new.tobytes()) == (old.shape, old.tobytes())
