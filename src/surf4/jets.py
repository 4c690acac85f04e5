"""Truncated bivariate Taylor-jet arithmetic.

A :class:`Jet` holds the value and all partial derivatives of a scalar
function of two variables (x, y) at a base point, up to a fixed order in
{1, 2, 3}.  Coefficients are stored as *raw derivative values*
d^(i+j) f / dx^i dy^j, not Taylor-normalized; the i! j! conversion factors
live inside the arithmetic kernel (Leibniz rule with binomial weights).

The coefficients ``c`` are one float64 array: derivatives on the leading
axis, the points of a batch on the trailing ones (the coefficient tail).
A one-point jet (tail ``()``) multiplies in generated float code on lists,
a batch in a gathered array kernel; both add one table's terms in order.
"""

from __future__ import annotations

import math

import numpy as np

# Multi-index enumeration, fixed per order: (0,0), (1,0), (0,1), (2,0), ...
_INDICES = {
    o: tuple((s - j, j) for s in range(o + 1) for j in range(s + 1))
    for o in (1, 2, 3)
}
_SLOT = {o: {ij: k for k, ij in enumerate(idx)} for o, idx in _INDICES.items()}


def _leibniz_table(order):
    """Leibniz rule as gather indices and weights of shape (depth, slots).

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
    s1, s2, w = np.array(padded).transpose(2, 1, 0)
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
    rounding of a per-term loop, but gathered into one broadcast and
    summed by one reduction over the leading (term) axis.  numpy adds the
    rows of that axis in order, after its ``initial`` +0.0, so the
    reduction rounds like the loop.
    """
    if a.ndim == 2 and a.shape[1] > _BLOCK:
        out = np.empty(a.shape)
        for i in range(0, a.shape[1], _BLOCK):
            block = slice(i, i + _BLOCK)
            out[:, block] = _product(a[:, block], b[:, block], order)
        return out
    s1, s2, w = _LEIBNIZ[order]
    w = w.reshape(w.shape + (1,) * (a.ndim - 1))
    return np.add.reduce(w * a[s1] * b[s2], axis=0, initial=0.0)


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


def _kernel(c, order):
    """``(product, load)`` for coefficients shaped like ``c``; ``load``
    gives what ``product`` takes: floats for one point, else the array."""
    if c.ndim == 1:
        return _POINT_PRODUCT[order], np.ndarray.tolist
    return (lambda a, b: _product(a, b, order)), np.asarray


def _check_order(order):
    if order not in (1, 2, 3):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order!r}")


class Jet:
    """Value plus partial derivatives up to ``order`` at a fixed base point."""

    __slots__ = ("order", "c")

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
        self.c = c

    # -- construction ------------------------------------------------------

    @staticmethod
    def constant(value, order):
        """The constant ``value``, whose shape is the coefficient tail."""
        _check_order(order)
        c = np.zeros((len(_INDICES[order]),) + np.shape(value))
        c[0] = value
        return _jet(order, c)

    @staticmethod
    def variable(which, point, order):
        """Jet of the coordinate function x or y at ``point``."""
        _check_order(order)
        if which not in ("x", "y"):
            raise ValueError(f"variable must be 'x' or 'y', got {which!r}")
        px, py = point
        value = px if which == "x" else py
        c = np.zeros((len(_INDICES[order]),) + np.shape(value))
        c[0] = value
        c[_SLOT[order][(1, 0) if which == "x" else (0, 1)]] = 1.0
        return _jet(order, c)

    @staticmethod
    def from_derivatives(order, mapping):
        """Build a jet from a {(i, j): value} map of derivative values."""
        _check_order(order)
        c = np.zeros(len(_INDICES[order]))
        for ij, v in mapping.items():
            c[_SLOT[order][ij]] = v
        return _jet(order, c)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self):
        return self.c[0]

    def derivative(self, i, j):
        """Return d^(i+j)/dx^i dy^j at the base point."""
        return self.c[_SLOT[self.order][(i, j)]]

    @property
    def coeffs(self):
        """Derivative values as a {(i, j): value} map."""
        return {ij: self.c[k] for k, ij in enumerate(_INDICES[self.order])}

    def __repr__(self):
        pairs = ", ".join(f"{ij}: {v}" for ij, v in self.coeffs.items())
        return f"Jet(order={self.order}, {{{pairs}}})"

    # -- arithmetic ---------------------------------------------------------
    #
    # The other operand is a jet of one coefficient shape, or a number v: a
    # float, or a float64 array shaped like the coefficient tail, which
    # acts as the constant jet (v, 0, 0, ...) but is never built into one:
    # each operator applies its one nonzero term, rounding as the full
    # operation would (x + 0.0 turns -0.0 into +0.0, a sum starts at 0.0).

    def _operand(self, other):
        """``other`` as a Jet of this order or as a number that fits the
        coefficient tail; None if it is neither."""
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}")
            if other.c.shape != self.c.shape:
                raise ValueError(
                    f"jet shape mismatch: {self.c.shape} vs {other.c.shape}")
            return other
        if isinstance(other, (int, float, np.floating)):
            return float(other)
        if (isinstance(other, np.ndarray) and other.dtype == np.float64
                and other.shape == self.c.shape[1:]):
            return other
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Jet):
            return _jet(self.order, self.c + o.c)
        c = self.c + 0.0
        c[0] = self.c[0] + o
        return _jet(self.order, c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Jet):
            return _jet(self.order, self.c - o.c)
        c = self.c - 0.0
        c[0] = self.c[0] - o
        return _jet(self.order, c)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        c = 0.0 - self.c
        c[0] = o - self.c[0]
        return _jet(self.order, c)

    def __neg__(self):
        return _jet(self.order, -self.c)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Jet):
            mul, load = _kernel(self.c, self.order)
            return _jet(self.order, np.asarray(mul(load(self.c), load(o.c))))
        return _jet(self.order, self.c * o + 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Jet):
            return self * o._reciprocal()
        if np.any(o == 0.0):
            raise ZeroDivisionError("division by a jet with zero value")
        # the reciprocal of a constant jet is the constant 1.0 / v
        return _jet(self.order, self.c * (1.0 / o) + 0.0)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _jet(self.order, self._reciprocal().c * o + 0.0)

    def __pow__(self, n):
        """``self`` to an integer power by repeated squaring of ``self + 0.0``.

        For finite coefficients ``self + 0.0`` is bit for bit the unit jet
        times ``self`` (one nonzero Leibniz term 1*1*b, the rest +-0.0 in a
        sum from +0.0), and no product sees the sign of a zero factor; a
        non-finite coefficient stays where the unit product would turn
        0*inf into NaN.
        """
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        n = int(n)
        if n < 0:
            return (self.__pow__(-n))._reciprocal()
        if n == 0:
            return Jet.constant(np.ones(self.c.shape[1:]), self.order)
        mul, load = _kernel(self.c, self.order)
        result = None
        base = load(self.c + 0.0)
        while n:
            if n & 1:
                result = base if result is None else mul(result, base)
            base = mul(base, base) if n > 1 else base
            n >>= 1
        return _jet(self.order, np.asarray(result))

    # -- composition with univariate functions ------------------------------

    def _compose(self, series):
        """Evaluate sum_k series[k] * (self - value)^k by Horner."""
        mul, load = _kernel(self.c, self.order)
        series = load(np.array(series))
        w = load(self.c.copy())
        w[0] = 0.0
        result = load(Jet.constant(series[-1], self.order).c)
        for s in series[-2::-1]:
            result = mul(result, w)
            result[0] = result[0] + s
        return _jet(self.order, np.asarray(result))

    def _reciprocal(self):
        v = self.c[0]
        if (v == 0.0).any():
            raise ZeroDivisionError("division by a jet with zero value")
        inv = 1.0 / v
        series = [inv * _power(-inv, k) for k in range(self.order + 1)]
        return self._compose(series)

    def sqrt(self):
        v = self.c[0]
        if (v <= 0.0).any():
            raise ValueError("sqrt of a jet with non-positive value")
        r = np.sqrt(v)
        # Taylor coefficients of sqrt at v: binom(1/2, k) v^(1/2 - k)
        series = [r, 0.5 * r / v]
        for k, weight in ((2, -0.125), (3, 0.0625))[: self.order - 1]:
            series.append(weight * r / _power(v, k))
        return self._compose(series)

    def exp(self):
        e = np.exp(self.c[0])
        series = [e, e, e / 2.0, e / 6.0]
        return self._compose(series[: self.order + 1])

    def sin(self):
        s, co = np.sin(self.c[0]), np.cos(self.c[0])
        series = [s, co, -s / 2.0, -co / 6.0]
        return self._compose(series[: self.order + 1])

    def cos(self):
        s, co = np.sin(self.c[0]), np.cos(self.c[0])
        series = [co, -s, -co / 2.0, s / 6.0]
        return self._compose(series[: self.order + 1])


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
    """A Jet around a coefficient array the kernel built, unchecked."""
    jet = object.__new__(Jet)
    jet.order = order
    jet.c = c
    return jet


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
