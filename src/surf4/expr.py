"""Surface definition files: parsing, printing and evaluation.

Grammar (one statement per line, ``#`` starts a comment)::

    param <name> = <number>
    phi = <expression>
    psi = <expression>
    domain = [x0, x1] x [y0, y1]

Expressions use ``+ - * / ^`` with standard precedence, parentheses, the
variables ``x`` and ``y``, declared parameter names, and the functions
``sin``, ``cos``, ``exp``, ``sqrt``.  ``^`` takes an integer literal
exponent and binds tighter than unary minus, so ``-x^2`` is ``-(x^2)``.
Both ``phi`` and ``psi`` are required; the domain defaults to
[-1, 1] x [-1, 1].

Evaluation is generic over plain floats and :class:`surf4.jets.Jet`
operands, so the same AST drives both point evaluation and derivative
extraction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")
_KEYWORDS = ("param", "phi", "psi", "domain")


class SurfaceSyntaxError(ValueError):
    """Parse failure, carrying 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SurfaceEvalError(ArithmeticError):
    """Evaluation failure, carrying the offending subexpression if one is
    to blame."""

    def __init__(self, message, subexpression=None):
        if subexpression is not None:
            message = f"{message} in subexpression '{subexpression}'"
        super().__init__(message)
        self.subexpression = subexpression


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float

    def eval(self, x, y, params, powers):
        return self.value


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"

    def eval(self, x, y, params, powers):
        return x if self.name == "x" else y


@dataclass(frozen=True)
class Param:
    name: str

    def eval(self, x, y, params, powers):
        try:
            return params[self.name]
        except KeyError:
            raise SurfaceEvalError("undeclared parameter", self.name) from None


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, exp, sqrt
    arg: "Expr"

    def eval(self, x, y, params, powers):
        try:
            return _UNARY[self.op](self.arg.eval(x, y, params, powers))
        except _EVAL_ERRORS as e:
            raise SurfaceEvalError(str(e), to_text(self)) from e


@dataclass(frozen=True)
class Binary:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"

    def eval(self, x, y, params, powers):
        try:
            return _BINARY[self.op](self.lhs.eval(x, y, params, powers),
                                    self.rhs.eval(x, y, params, powers))
        except _EVAL_ERRORS as e:
            raise SurfaceEvalError(str(e), to_text(self)) from e


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def eval(self, x, y, params, powers):
        # a power of a variable is computed once per powers dict; a key for
        # another base would walk it, and Const(0.0) == Const(-0.0)
        try:
            base = self.base.eval(x, y, params, powers)
            if not isinstance(self.base, Var):
                return base ** self.exponent
            key = (self.base.name, self.exponent)
            if key not in powers:
                powers[key] = base ** self.exponent
            return powers[key]
        except _EVAL_ERRORS as e:
            raise SurfaceEvalError(str(e), to_text(self)) from e


Expr = Const | Var | Param | Unary | Binary | Pow


@dataclass
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, point):
        x, y = point
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass
class SurfaceDef:
    phi: Expr
    psi: Expr
    params: dict = field(default_factory=dict)
    domain: Rect = field(default_factory=lambda: Rect(-1.0, 1.0, -1.0, 1.0))


# -- tokenizer ----------------------------------------------------------------


@dataclass
class _Token:
    kind: str  # num, ident, op, lparen, rparen, lbracket, rbracket, comma, end
    text: str
    line: int
    column: int
    value: float | None = None  # the parsed float of a num token


def _tokenize_line(text, lineno):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (
                text[j].isdigit()
                or text[j] == "."
                or (text[j] in "eE" and not seen_e)
                or (text[j] in "+-" and j > i and text[j - 1] in "eE")
            ):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            literal = text[i:j]
            try:
                value = float(literal)
            except ValueError:
                raise SurfaceSyntaxError(
                    f"malformed number {literal!r}", lineno, col) from None
            tokens.append(_Token("num", literal, lineno, col, value))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], lineno, col))
            i = j
            continue
        kind = {
            "(": "lparen", ")": "rparen", "[": "lbracket", "]": "rbracket",
            ",": "comma",
        }.get(ch)
        if kind:
            tokens.append(_Token(kind, ch, lineno, col))
        elif ch in "+-*/^=":
            tokens.append(_Token("op", ch, lineno, col))
        else:
            raise SurfaceSyntaxError(f"unexpected character {ch!r}", lineno, col)
        i += 1
    tokens.append(_Token("end", "", lineno, len(text) + 1))
    return tokens


# -- recursive-descent expression parser --------------------------------------


class _ExprParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise SurfaceSyntaxError(message, tok.line, tok.column)

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            got = tok.text or "end of line"
            self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    def parse_expression(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Unary("neg", self.parse_unary())
        if self.peek().kind == "op" and self.peek().text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = Pow(node, self.parse_int_literal())
        return node

    def parse_int_literal(self):
        sign = 1
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.expect("num")
        try:
            value = int(tok.text)
        except ValueError:
            self.error("exponent must be an integer literal", tok)
        return sign * value

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            if not math.isfinite(tok.value):
                self.error(f"number {tok.text!r} is not finite", tok)
            return Const(tok.value)
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen")
                arg = self.parse_expression()
                self.expect("rparen")
                return Unary(name, arg)
            if name in ("x", "y"):
                return Var(name)
            return Param(name)
        if tok.kind == "lparen":
            self.next()
            node = self.parse_expression()
            self.expect("rparen")
            return node
        got = repr(tok.text) if tok.text else "end of line"
        self.error(f"expected a value, found {got}")


# -- surface file parser -------------------------------------------------------


def _parse_number(parser):
    sign = 1.0
    while parser.peek().kind == "op" and parser.peek().text in "+-":
        if parser.next().text == "-":
            sign = -sign
    tok = parser.expect("num")
    return sign * tok.value


def _parse_domain(parser):
    parser.expect("lbracket")
    x0 = _parse_number(parser)
    parser.expect("comma")
    x1 = _parse_number(parser)
    parser.expect("rbracket")
    sep = parser.expect("ident")
    if sep.text != "x":
        parser.error("expected 'x' between the domain intervals", sep)
    parser.expect("lbracket")
    y0 = _parse_number(parser)
    parser.expect("comma")
    y1 = _parse_number(parser)
    parser.expect("rbracket")
    if not (x0 < x1 and y0 < y1):
        parser.error("domain intervals must satisfy x0 < x1 and y0 < y1", sep)
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        parser.error("domain intervals must have finite widths", sep)
    return Rect(x0, x1, y0, y1)


def parse_surface(text):
    """Parse a surface definition from text into a :class:`SurfaceDef`."""
    phi = psi = None
    params = {}
    domain = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if tokens[0].kind == "end":
            continue
        parser = _ExprParser(tokens)
        head = parser.expect("ident")
        if head.text not in _KEYWORDS:
            parser.error(
                f"expected one of {', '.join(_KEYWORDS)}, found {head.text!r}",
                head,
            )
        if head.text == "param":
            name_tok = parser.expect("ident")
            parser.expect("op", "=")
            value_tok = parser.peek()
            value = _parse_number(parser)
            parser.expect("end")
            if name_tok.text in ("x", "y") or name_tok.text in _FUNCTIONS:
                parser.error(f"{name_tok.text!r} is reserved", name_tok)
            if name_tok.text in params:
                parser.error(f"parameter {name_tok.text!r} redeclared", name_tok)
            if not math.isfinite(value):
                parser.error(f"parameter {name_tok.text!r} is not a finite "
                             "number", value_tok)
            params[name_tok.text] = value
            continue
        if head.text == "domain":
            parser.expect("op", "=")
            if domain is not None:
                parser.error("domain defined twice", head)
            domain = _parse_domain(parser)
            parser.expect("end")
            continue
        parser.expect("op", "=")
        node = parser.parse_expression()
        parser.expect("end")
        if head.text == "phi":
            if phi is not None:
                parser.error("phi defined twice", head)
            phi = node
        else:
            if psi is not None:
                parser.error("psi defined twice", head)
            psi = node
    if phi is None:
        raise SurfaceSyntaxError("missing 'phi = ...' line", 1, 1)
    if psi is None:
        raise SurfaceSyntaxError("missing 'psi = ...' line", 1, 1)
    sd = SurfaceDef(phi=phi, psi=psi, params=params)
    if domain is not None:
        sd.domain = domain
    for name in sorted(_param_refs(phi) | _param_refs(psi)):
        if name not in params:
            raise SurfaceSyntaxError(f"undeclared parameter {name!r}", 1, 1)
    return sd


def _param_refs(node):
    if isinstance(node, Param):
        return {node.name}
    if isinstance(node, Unary):
        return _param_refs(node.arg)
    if isinstance(node, Binary):
        return _param_refs(node.lhs) | _param_refs(node.rhs)
    if isinstance(node, Pow):
        return _param_refs(node.base)
    return set()


# -- printer -------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4}


def to_text(node):
    """Render an AST back to parseable text."""
    text, _ = _render(node)
    return text


def _render(node):
    if isinstance(node, Const):
        # a negative constant binds like unary minus: (-2.0)^2, not -(2.0^2)
        text = repr(node.value)
        return text, _PRECEDENCE["neg"] if text[0] == "-" else 5
    if isinstance(node, (Var, Param)):
        return node.name, 5
    if isinstance(node, Pow):
        base, prec = _render(node.base)
        if prec < _PRECEDENCE["pow"]:
            base = f"({base})"
        return f"{base}^{node.exponent}", _PRECEDENCE["pow"]
    if isinstance(node, Unary):
        if node.op == "neg":
            arg, prec = _render(node.arg)
            if prec < _PRECEDENCE["neg"]:
                arg = f"({arg})"
            return f"-{arg}", _PRECEDENCE["neg"]
        arg, _ = _render(node.arg)
        return f"{node.op}({arg})", 5
    if isinstance(node, Binary):
        lhs, lp = _render(node.lhs)
        rhs, rp = _render(node.rhs)
        prec = _PRECEDENCE[node.op]
        if lp < prec:
            lhs = f"({lhs})"
        # -, / are left-associative: parenthesize equal-precedence right sides
        if rp < prec or (rp == prec and node.op in "-/"):
            rhs = f"({rhs})"
        return f"{lhs} {node.op} {rhs}", prec
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation -----------------------------------------------------------------


# each Unary, Binary and Pow reports these at itself; an operand that
# fails raises SurfaceEvalError, so the innermost failing node is named
_EVAL_ERRORS = (ZeroDivisionError, ValueError, OverflowError)
_UNARY = {"neg": operator.neg, "sin": jets.sin, "cos": jets.cos,
          "exp": jets.exp, "sqrt": jets.sqrt}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def eval_surface(sd, point, order):
    """Jets of phi and psi at ``point``.

    Each AST node evaluates itself on float or Jet operands for x and y.
    phi and psi share one dict of variable powers (see :meth:`Pow.eval`),
    so each ``x^k`` or ``y^k`` is computed once per call.  The point is
    not checked against the declared domain; callers that can leave it
    check it themselves.  Evaluation errors (division by zero, sqrt
    domain, overflow, a non-finite value or derivative) raise
    :class:`SurfaceEvalError`.
    """
    xj = Jet.variable("x", point, order)
    yj = Jet.variable("y", point, order)
    # overflow, and division by a power that underflows to 0, show up as
    # inf or NaN coefficients, rejected just below
    with np.errstate(all="ignore"):
        powers = {}
        phi = sd.phi.eval(xj, yj, sd.params, powers)
        psi = sd.psi.eval(xj, yj, sd.params, powers)
    if not isinstance(phi, Jet):
        phi = Jet.constant(phi, order)
    if not isinstance(psi, Jet):
        psi = Jet.constant(psi, order)
    for name, jet in (("phi", phi), ("psi", psi)):
        if not all(map(math.isfinite, jet.c.ravel().tolist())):
            raise SurfaceEvalError(
                f"non-finite derivative of {name} at point "
                f"{_first_bad_point(jet.c, point)}",
                to_text(getattr(sd, name)))
    return phi, psi


def _first_bad_point(c, point):
    """(x, y) of the first column of the coefficients ``c`` at ``point``
    (numbers, or arrays of x and y) that holds a non-finite value."""
    x, y = np.broadcast_arrays(*point)
    bad = np.broadcast_to(~np.isfinite(c).all(axis=0), x.shape).ravel()
    i = int(np.argmax(bad))
    return float(x.ravel()[i]), float(y.ravel()[i])


def eval_points(sd, points, order):
    """Jets of phi and psi at each of ``points``, from one
    :func:`eval_surface` call on the arrays of their x and y.

    Returns the ``(phi, psi)`` pair with a coefficient column per point (a
    jet that does not depend on x or y is broadcast to every point).  Each
    column equals ``eval_surface(sd, point, order)`` bit for bit.  A point
    that fails fails the whole batch.
    """
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    out = []
    for jet in eval_surface(sd, (x, y), order):
        c = jet.c if jet.c.ndim == 2 else jet.c[:, np.newaxis]
        out.append(Jet(order, np.broadcast_to(c, (len(c), len(x)))))
    return tuple(out)


def polynomial(coeffs):
    """Expression sum c_ij x^i y^j from a {(i, j): c} table (test helper)."""
    node = None
    for (i, j) in sorted(coeffs):
        c = coeffs[(i, j)]
        if c == 0.0:
            continue
        term = Const(float(c))
        if i:
            term = Binary("*", term, Pow(Var("x"), i) if i > 1 else Var("x"))
        if j:
            term = Binary("*", term, Pow(Var("y"), j) if j > 1 else Var("y"))
        node = term if node is None else Binary("+", node, term)
    return node if node is not None else Const(0.0)
