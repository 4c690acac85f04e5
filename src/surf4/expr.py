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

Evaluation compiles phi and psi once into a flat tape of steps on jet
coefficients (see :func:`eval_surface`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet, _jet

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


def _raise_first(points, checks):
    """Raise, for the first of ``points`` that fails one of ``checks``,
    the error of the first check it fails; ``checks`` holds (failed over
    the points, error(point)) pairs in the order a point meets them."""
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        for mask, error in checks:
            if mask[i]:
                raise error(points[i])


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, exp, sqrt
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Const | Var | Param | Unary | Binary | Pow


@dataclass
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, point):
        """Whether ``point`` = (x, y) lies in the rectangle; elementwise
        for arrays of x and y."""
        x, y = point
        return ((self.x0 <= x) & (x <= self.x1)
                & (self.y0 <= y) & (y <= self.y1))


@dataclass
class SurfaceDef:
    phi: Expr
    psi: Expr
    params: dict = field(default_factory=dict)
    domain: Rect = field(default_factory=lambda: Rect(-1.0, 1.0, -1.0, 1.0))
    _tape = None  # eval_surface's _Tape of phi and psi, not a field


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
    def __init__(self, tokens, used):
        self.tokens = tokens
        self.pos = 0
        self.used = used  # the parameter names read, over every line

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
            self.used.add(name)
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
    def interval():
        parser.expect("lbracket")
        lo = _parse_number(parser)
        parser.expect("comma")
        hi = _parse_number(parser)
        parser.expect("rbracket")
        return lo, hi

    x0, x1 = interval()
    sep = parser.expect("ident")
    if sep.text != "x":
        parser.error("expected 'x' between the domain intervals", sep)
    y0, y1 = interval()
    if not (x0 < x1 and y0 < y1):
        parser.error("domain intervals must satisfy x0 < x1 and y0 < y1", sep)
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        parser.error("domain intervals must have finite widths", sep)
    return Rect(x0, x1, y0, y1)


def parse_surface(text):
    """Parse a surface definition from text into a :class:`SurfaceDef`."""
    exprs = {}
    params = {}
    used = set()
    domain = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if tokens[0].kind == "end":
            continue
        parser = _ExprParser(tokens, used)
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
        try:
            node = parser.parse_expression()
        except RecursionError:
            parser.error("expression nested too deeply", head)
        parser.expect("end")
        if head.text in exprs:
            parser.error(f"{head.text} defined twice", head)
        exprs[head.text] = node
    for name in ("phi", "psi"):
        if name not in exprs:
            raise SurfaceSyntaxError(f"missing '{name} = ...' line", 1, 1)
    sd = SurfaceDef(params=params, **exprs)
    if domain is not None:
        sd.domain = domain
    undeclared = used - params.keys()
    if undeclared:
        raise SurfaceSyntaxError(
            f"undeclared parameter {min(undeclared)!r}", 1, 1)
    return sd


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


# a step that raises one of these reports it at its own node
_EVAL_ERRORS = (ZeroDivisionError, ValueError, OverflowError)
# A step's function, by its operator and whether each operand depends on x
# or y (a jet's coefficients, by the rules of jets) or not (a number).
_STEPS = {
    **jets._RULES,
    ("+", False, False): lambda a, b, o: a + b,
    ("-", False, False): lambda a, b, o: a - b,
    ("*", False, False): lambda a, b, o: a * b,
    ("/", False, False): lambda a, b, o: a / b,
    ("^", False, False): lambda a, n, o: a ** n,
    ("param", False, False): lambda params, name, o: params[name],
    ("neg", False, False): lambda a, _, o: -a,
    ("sin", False, False): lambda a, _, o: jets.sin(a),
    ("cos", False, False): lambda a, _, o: jets.cos(a),
    ("exp", False, False): lambda a, _, o: jets.exp(a),
    ("sqrt", False, False): lambda a, _, o: jets.sqrt(a),
}


class _Tape:
    """phi and psi as steps ``(fn, i, j, node)`` in their trees' post-order:
    step k sets register 3 + k to ``fn(regs[i], regs[j], order)`` over x,
    y, params, the step results and, from the end (the k-th at ``-1 - k``),
    the constants, exponents and parameter names.  ``x^k`` and ``y^k`` are
    one step each; a parameter is a step that reads ``params`` as it runs.
    The build recurses: a tree too deep for Python raises RecursionError.
    """

    def __init__(self, phi, psi):
        self.phi, self.psi = phi, psi
        literals, self.steps, powers = [], [], {}

        def literal(value):
            literals.append(value)
            return -len(literals), False

        def emit(node):
            """(register, whether it holds a jet) of ``node``."""
            if isinstance(node, Var):
                return ("x", "y").index(node.name), True
            if isinstance(node, Const):
                return literal(node.value)
            key = isinstance(node, Pow) and isinstance(node.base, Var) and (
                node.base.name, node.exponent)
            if key in powers:
                return powers[key]
            if isinstance(node, Param):
                op, operands = "param", [(2, False), literal(node.name)]
            elif isinstance(node, Pow):
                op, operands = "^", [emit(node.base), literal(node.exponent)]
            elif isinstance(node, Unary):
                op, operands = node.op, [emit(node.arg)] * 2
            else:
                op, operands = node.op, [emit(node.lhs), emit(node.rhs)]
            (i, a), (j, b) = operands
            self.steps.append((_STEPS[op, a, b], i, j, node))
            out = len(self.steps) + 2, a or b
            if key:
                powers[key] = out
            return out

        self.outputs = [emit(phi), emit(psi)]
        self.registers = [None] * len(self.steps) + literals[::-1]

    def run(self, x, y, params, order):
        """Jets of phi and psi, where x and y have the coefficients ``x``
        and ``y``: a number is a constant jet of their shape."""
        regs = [x, y, params, *self.registers]
        try:
            for k, (fn, i, j, node) in enumerate(self.steps, 3):
                regs[k] = fn(regs[i], regs[j], order)
        except _EVAL_ERRORS as e:
            raise SurfaceEvalError(str(e), to_text(node)) from e
        except KeyError as e:  # a parameter step's
            raise SurfaceEvalError("undeclared parameter", e.args[0]) from None
        return [_jet(order, regs[r]) if jet
                else Jet.constant(np.full(np.shape(x[0]), regs[r]), order)
                for r, jet in self.outputs]


def eval_surface(sd, point, order):
    """Jets of phi and psi at ``point``, whose x and y are two floats or
    two arrays of one shape; a phi or psi that does not depend on x or y
    takes that shape too.

    phi and psi run as one :class:`_Tape`, kept on ``sd`` and built again
    when ``sd.phi`` or ``sd.psi`` is not the tree it was built from.  The
    point is not checked against the declared domain; callers that can
    leave it check it themselves.  Evaluation errors (division by zero,
    sqrt domain, overflow, a non-finite value or derivative, a tree too
    deep for Python's recursion limit) raise :class:`SurfaceEvalError`.
    """
    xj, yj = (Jet.variable(name, point, order) for name in "xy")
    # overflow, and division by a power that underflows to 0, show up as
    # inf or NaN coefficients, rejected just below
    try:
        tape = sd._tape
        if tape is None or tape.phi is not sd.phi or tape.psi is not sd.psi:
            tape = sd._tape = _Tape(sd.phi, sd.psi)
        with np.errstate(all="ignore"):
            phi, psi = tape.run(xj._c, yj._c, sd.params, order)
        for name, jet in (("phi", phi), ("psi", psi)):
            c = jet._c if isinstance(jet._c, list) else jet.c.ravel().tolist()
            if not all(map(math.isfinite, c)):
                bad = ~np.isfinite(jet.c).all(axis=0)
                _raise_first(np.stack(point, axis=-1).reshape(-1, 2), [(
                    bad.ravel(), lambda pt: SurfaceEvalError(
                        f"non-finite derivative of {name} at point "
                        f"{tuple(map(float, pt))}",
                        to_text(getattr(sd, name))))])
    except RecursionError:  # building the tape, or in to_text
        raise SurfaceEvalError("expression nested too deeply") from None
    return phi, psi


def eval_points(sd, points, order):
    """Jets of phi and psi at each of ``points``, from one
    :func:`eval_surface` call on the arrays of their x and y.

    Returns the ``(phi, psi)`` pair with a coefficient column per point.
    Each column equals ``eval_surface(sd, point, order)`` bit for bit.  A
    point that fails fails the whole batch.
    """
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    return eval_surface(sd, (x, y), order)


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
