"""Truncated bivariate Taylor-jet arithmetic.

A :class:`Jet` holds the value and all partial derivatives of a scalar
function of two variables (x, y) at a base point, up to a fixed order in
{1, 2, 3}.  Coefficients are stored as *raw derivative values*
d^(i+j) f / dx^i dy^j, not Taylor-normalized; the i! j! conversion factors
live inside the arithmetic kernel (Leibniz rule with binomial weights).

The coefficients ``c`` read as one float64 array: derivatives on the
leading axis, the points of a batch on the trailing ones (the coefficient
tail).  A batch keeps that array and computes on it.  A one-point jet
(tail ``()``) keeps a list of Python floats and computes on it; its ``c``
is a new array on each read, so writing into it does not change the jet.
Every operator rounds alike on both; products add one Leibniz table's
terms in order, a batch in a gathered array kernel, a point in float
code generated from the table.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

# Multi-index enumeration, fixed per order: (0,0), (1,0), (0,1), (2,0), ...
_INDICES = {
    o: tuple((s - j, j) for s in range(o + 1) for j in range(s + 1))
    for o in (1, 2, 3)
}
_SLOT = {o: {ij: k for k, ij in enumerate(idx)} for o, idx in _INDICES.items()}


def _leibniz_table(order):
    """Leibniz rule as C-contiguous gather indices and weights (depth, slots).

    Row r holds the r-th term ((k, l), (i-k, j-l), C(i,k)*C(j,l)) of every
    output index (i, j), in a fixed term order.  Indices with fewer terms
    are padded with zero-weight copies of their first term, so a padded
    term is +-0.0 whenever the real terms are finite, and a sum that
    starts at +0.0 (never -0.0) is unchanged by it.
    """
    slot = _SLOT[order]
    table = []
    for (i, j) in _INDICES[order]:
        terms = [(slot[(k, l)], slot[(i - k, j - l)],
                  float(math.comb(i, k) * math.comb(j, l)))
                 for k in range(i + 1) for l in range(j + 1)]
        table.append(terms)
    depth = max(len(terms) for terms in table)
    padded = [terms + [terms[0][:2] + (0.0,)] * (depth - len(terms))
              for terms in table]
    s1, s2, w = map(np.ascontiguousarray, np.array(padded).transpose(2, 1, 0))
    return s1.astype(np.intp), s2.astype(np.intp), w


_LEIBNIZ = {o: _leibniz_table(o) for o in (1, 2, 3)}

# A long coefficient tail is multiplied this many columns at a time, so
# the gathered (depth, slots, columns) temporaries stay near 1 MB instead
# of growing with the batch.
_BLOCK = 4096


def _product(a, b, order):
    """Coefficients of the product of two jets with coefficients a, b of
    one shape.

    Each output is 0.0 + (w*a)*b + ... over its terms in table order, the
    rounding of a per-term loop: ``take`` gathers the terms into one block,
    which is multiplied in place (``a * w`` is ``w * a`` bit for bit) and
    summed over its leading (term) axis by one reduction; numpy adds those
    rows in order after its ``initial`` +0.0, so it rounds like the loop.
    """
    if a.ndim == 2 and a.shape[1] > _BLOCK:
        out = np.empty(a.shape)
        for i in range(0, a.shape[1], _BLOCK):
            block = slice(i, i + _BLOCK)
            out[:, block] = _product(a[:, block], b[:, block], order)
        return out
    s1, s2, w = _LEIBNIZ[order]
    terms = a.take(s1, axis=0)
    terms *= w.reshape(w.shape + (1,) * (a.ndim - 1))
    terms *= b.take(s2, axis=0)
    return np.add.reduce(terms, axis=0, initial=0.0)


def _point_product(order):
    """``_product`` of two one-point coefficient lists, as straight-line
    float code generated from ``_LEIBNIZ``: the same ``(w*a)*b`` terms,
    padded ones included, summed left to right from 0.0."""
    s1, s2, w = (t.T.tolist() for t in _LEIBNIZ[order])
    sums = ", ".join(
        " + ".join(["0.0"] + [f"{wt!r} * a{i} * b{j}"
                              for i, j, wt in zip(*terms)])
        for terms in zip(s1, s2, w))
    a, b = (", ".join(f"{x}{k}" for k in range(len(s1))) for x in "ab")
    namespace = {}
    exec(f"def product(a, b):\n    {a}, = a\n    {b}, = b\n"
         f"    return [{sums}]\n", namespace)
    return namespace["product"]


_POINT_PRODUCT = {o: _point_product(o) for o in (1, 2, 3)}
_BATCH_PRODUCT = {o: functools.partial(_product, order=o) for o in (1, 2, 3)}


def _kernel(c, order):
    """The product of two coefficient sets stored like ``c``."""
    return (_POINT_PRODUCT if isinstance(c, list) else _BATCH_PRODUCT)[order]


def _shifted(fn, c, o):
    """``fn(c, 0.0)`` with ``fn(c[0], o)`` at the value: ``fn`` of a jet
    and the constant jet (o, 0, 0, ...) without building it."""
    out = [fn(u, 0.0) for u in c] if isinstance(c, list) else fn(c, 0.0)
    out[0] = fn(c[0], o)
    return out


def _scaled(c, o):
    """``c * o + 0.0``: a jet times the constant jet (o, 0, 0, ...)."""
    if isinstance(c, list):
        return [u * o + 0.0 for u in c]
    out = c * o
    out += 0.0
    return out


def _some(mask):  # mask.any(), by the faster bool for one number
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _inverse(v):
    """``1.0 / v``, a constant jet's reciprocal, of a jet's value ``v``."""
    if _some(np.float64(v) == 0.0):
        raise ZeroDivisionError("division by a jet with zero value")
    return 1.0 / v


def _int_power(c, n, order):
    """A jet to the integer power ``n`` by repeated squaring of ``c + 0.0``.

    For finite coefficients ``c + 0.0`` (formed as ``c * 1.0 + 0.0``, the
    same bits) is the unit jet times ``c`` bit for bit (one nonzero
    Leibniz term 1*1*b, the rest +-0.0 in a sum from +0.0), and no product
    sees the sign of a zero factor; a non-finite coefficient stays where
    the unit product would turn 0*inf into NaN.
    """
    if n < 0:
        return _reciprocal(_int_power(c, -n, order), order)
    if n == 0:
        return Jet.constant(np.ones(np.shape(c[0])), order)._c
    mul = _kernel(c, order)
    result, base = None, _scaled(c, 1.0)
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


# A point's series coefficients are numpy float64 scalars, as a batch's
# are arrays (np.float64 of a value row is that row): numpy returns inf
# where Python's / raises, and np.sin need not round like math.sin.
def _compose(c, series, order):
    """Evaluate sum_k series[k] * (jet - value)^k by Horner."""
    mul = _kernel(c, order)
    if isinstance(c, list):
        series = [float(s) for s in series]
    w = c.copy()
    w[0] = 0.0
    result = Jet.constant(series[-1], order)._c
    for s in series[-2::-1]:
        result = mul(result, w)
        result[0] = result[0] + s
    return result


def _reciprocal(c, order):
    inv = _inverse(np.float64(c[0]))
    return _compose(c, [inv * _power(-inv, k) for k in range(order + 1)],
                    order)


def _sqrt(c, _, order):
    v = np.float64(c[0])
    if _some(v <= 0.0):
        raise ValueError("sqrt of a jet with non-positive value")
    r = np.sqrt(v)
    # Taylor coefficients of sqrt at v: binom(1/2, k) v^(1/2 - k)
    series = [r, 0.5 * r / v] + [weight * r / _power(v, k) for k, weight
                                 in ((2, -0.125), (3, 0.0625))[: order - 1]]
    return _compose(c, series, order)


def _exp(c, _, order):
    e = np.exp(c[0])
    return _compose(c, [e, e, e / 2.0, e / 6.0][: order + 1], order)


def _sin(c, _, order):
    s, co = np.sin(c[0]), np.cos(c[0])
    return _compose(c, [s, co, -s / 2.0, -co / 6.0][: order + 1], order)


def _cos(c, _, order):
    s, co = np.sin(c[0]), np.cos(c[0])
    return _compose(c, [co, -s, -co / 2.0, s / 6.0][: order + 1], order)


# The rules of the Jet operators and of expr's tapes, by operator and
# whether each operand is a jet's coefficients (True) or a number (False:
# a float, or a float64 array shaped like the coefficient tail, the
# constant jet (v, 0, 0, ...) never built).  A rule applies its nonzero
# terms, rounding as the full operation would (x + 0.0 turns -0.0 into
# +0.0); a rule of one operand gets it twice, ``^`` an int.
_RULES = {
    ("+", True, True): lambda a, b, o: (
        list(map(operator.add, a, b)) if isinstance(a, list) else a + b),
    ("+", True, False): lambda a, b, o: _shifted(operator.add, a, b),
    ("+", False, True): lambda a, b, o: _shifted(operator.add, b, a),
    ("-", True, True): lambda a, b, o: (
        list(map(operator.sub, a, b)) if isinstance(a, list) else a - b),
    ("-", True, False): lambda a, b, o: _shifted(operator.sub, a, b),
    ("-", False, True): lambda a, b, o: _shifted(lambda u, v: v - u, b, a),
    ("*", True, True): lambda a, b, o: _kernel(a, o)(a, b),
    ("*", True, False): lambda a, b, o: _scaled(a, b),
    ("*", False, True): lambda a, b, o: _scaled(b, a),
    ("/", True, True): lambda a, b, o: _kernel(a, o)(a, _reciprocal(b, o)),
    ("/", True, False): lambda a, b, o: _scaled(a, _inverse(b)),
    ("/", False, True): lambda a, b, o: _scaled(_reciprocal(b, o), a),
    ("^", True, False): _int_power,
    ("neg", True, True): lambda a, _, o: (
        [-u for u in a] if isinstance(a, list) else -a),
    ("sqrt", True, True): _sqrt,
    ("exp", True, True): _exp,
    ("sin", True, True): _sin,
    ("cos", True, True): _cos,
}


def _operator(op, reflected):
    """The Jet operator ``self op other`` (``other op self`` if
    ``reflected``) by its rule, or NotImplemented for another operand."""
    on_jet = _RULES[op, True, True]
    on_number = _RULES[(op, False, True) if reflected else (op, True, False)]

    def method(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        rule, o = (on_jet, o._c) if isinstance(o, Jet) else (on_number, o)
        a, b = (o, self._c) if reflected else (self._c, o)
        return _jet(self.order, rule(a, b, self.order))
    return method


def _method(op):
    """The Jet method applying the one-operand rule of ``op``."""
    rule = _RULES[op, True, True]
    return lambda self: _jet(self.order, rule(self._c, self._c, self.order))


def _check_order(order):
    if order not in (1, 2, 3):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order!r}")


class Jet:
    """Value plus partial derivatives up to ``order`` at a fixed base point."""

    __slots__ = ("order", "_c")

    # make ndarray <op> Jet defer to the reflected Jet operators instead of
    # broadcasting Jet as an object scalar
    __array_ufunc__ = None

    def __init__(self, order, c):
        _check_order(order)
        c = np.asarray(c, dtype=float)
        if c.shape[0] != len(_INDICES[order]):
            raise ValueError(
                f"coefficient array has leading size {c.shape[0]}, "
                f"expected {len(_INDICES[order])} for order {order}"
            )
        self.order = order
        self._c = c.tolist() if c.ndim == 1 else c

    @property
    def c(self):
        """The coefficients as one float64 array.  A one-point jet keeps
        floats, so for it this is a new array on each read, and writing
        into it does not change the jet."""
        c = self._c
        return np.array(c) if isinstance(c, list) else c

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value, order):
        """The constant ``value``, whose shape is the coefficient tail."""
        _check_order(order)
        return _seeded(order, value, None)

    @staticmethod
    def variable(which, point, order):
        """Jet of the coordinate function x or y at ``point``."""
        _check_order(order)
        if which not in ("x", "y"):
            raise ValueError(f"variable must be 'x' or 'y', got {which!r}")
        px, py = point
        return _seeded(order, px if which == "x" else py,
                       _SLOT[order][(1, 0) if which == "x" else (0, 1)])

    @staticmethod
    def from_derivatives(order, mapping):
        """Build a jet from a {(i, j): value} map of derivative values."""
        _check_order(order)
        c = [0.0] * len(_INDICES[order])
        for ij, v in mapping.items():
            c[_SLOT[order][ij]] = float(v)
        return _jet(order, c)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        return self._c[0]

    def derivative(self, i, j):
        """Return d^(i+j)/dx^i dy^j at the base point."""
        return self._c[_SLOT[self.order][(i, j)]]

    @property
    def coeffs(self):
        """Derivative values as a {(i, j): value} map."""
        return {ij: self._c[k] for k, ij in enumerate(_INDICES[self.order])}

    def __repr__(self):
        pairs = ", ".join(f"{ij}: {v}" for ij, v in self.coeffs.items())
        return f"Jet(order={self.order}, {{{pairs}}})"

    # -- arithmetic: _operand, then the rule, then _jet ----------------------

    def _operand(self, other):
        """``other`` as a Jet of this order and shape, or as a number that
        fits the coefficient tail (a float for one point); else None."""
        point = isinstance(self._c, list)
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}")
            if (point != isinstance(other._c, list)
                    or not point and other._c.shape != self._c.shape):
                raise ValueError(
                    f"jet shape mismatch: {self.c.shape} vs {other.c.shape}")
            return other
        if isinstance(other, (int, float, np.floating)):
            return float(other)
        if (isinstance(other, np.ndarray) and other.dtype == np.float64
                and other.shape == (() if point else self._c.shape[1:])):
            return float(other) if point else other
        return None

    __add__ = __radd__ = _operator("+", False)
    __sub__ = _operator("-", False)
    __rsub__ = _operator("-", True)
    __mul__ = __rmul__ = _operator("*", False)
    __truediv__ = _operator("/", False)
    __rtruediv__ = _operator("/", True)

    __neg__, sqrt, exp, sin, cos = map(
        _method, ("neg", "sqrt", "exp", "sin", "cos"))

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        rule = _RULES["^", True, False]
        return _jet(self.order, rule(self._c, int(n), self.order))


def _power(v, k):
    """``v ** k`` for a number ``v``, and for an array each element as that
    number alone would give it: the Python float power, and past the
    largest float the infinity of the power's sign.  numpy's array power
    squares exactly and may take another ``pow``, so for k >= 2 it
    disagrees with the power of one float in the last bit on a fraction
    of the inputs; a jet column must not depend on its batch.
    """
    def power(s):
        try:
            return s ** k
        except OverflowError:
            return math.copysign(math.inf, s) if k % 2 else math.inf
    return _each(power, v)


def _jet(order, c):
    """A Jet around coefficients the kernel built, unchecked: a list of
    floats for one point (coefficient tail ``()``), else an array."""
    jet = object.__new__(Jet)
    jet.order = order
    jet._c = c
    return jet


def _seeded(order, value, slot):
    """The jet whose value is ``value``, with 1.0 at ``slot`` (if any) and
    zeros elsewhere; ``value``'s shape is the coefficient tail."""
    if isinstance(value, (int, float)) or np.ndim(value) == 0:
        c = [0.0] * len(_INDICES[order])
        c[0] = float(value)
    else:
        c = np.zeros((len(_INDICES[order]),) + np.shape(value))
        c[0] = value
    if slot is not None:
        c[slot] = 1.0
    return _jet(order, c)


def _stack(points):
    """Batches of one-point jets: ``points`` yields each point's tuple of
    jets of one order, and the k-th batch, C-contiguous (slots, n), holds
    their k-th jets.  Only floats are kept: no jet outlives its turn."""
    floats = []
    for jets in points:
        floats += [u for jet in jets for u in jet._c]
    table = np.array(floats).reshape(-1, len(jets), len(jets[0]._c))
    return [_jet(jets[0].order, c) for c in table.transpose(1, 2, 0).copy()]


# -- scalar-generic helpers: work on Jets, plain numbers and arrays -------


def _each(fn, v):
    """``fn`` of a number as a float, and of each element of an array as
    of that float alone (numpy's own ufuncs may round differently)."""
    if np.ndim(v) == 0:
        return fn(float(v))
    return np.array([fn(s) for s in v.ravel().tolist()]).reshape(v.shape)


def sin(v):
    return v.sin() if isinstance(v, Jet) else _each(math.sin, v)


def cos(v):
    return v.cos() if isinstance(v, Jet) else _each(math.cos, v)


def exp(v):
    return v.exp() if isinstance(v, Jet) else _each(math.exp, v)


def sqrt(v):
    if isinstance(v, Jet):
        return v.sqrt()
    if np.any(np.asarray(v) <= 0.0):
        raise ValueError("sqrt of a non-positive value")
    return _each(math.sqrt, v)
