"""Integrand expressions in one variable, with Taylor-mode differentiation.

Grammar (full EBNF in docs/expression-grammar.md):

    expression := term (("+" | "-") term)*
    term       := factor (("*" | "/") factor)*
    factor     := "-" factor | power
    power      := atom ("^" factor)?
    atom       := NUMBER | "pi" | "x" | NAME "(" expression ")" | "(" expression ")"

NAME is one of sin, cos, exp, log, sqrt.  "^" is right-associative and
binds tighter than unary minus.  Whitespace is ignored.

Differentiation works on truncated Taylor series: a jet of order m at x0
holds the coefficients t_0..t_m of the expansion there, and derivatives
come back as f^(k)(x0) = k! * t_k.  Keeping scaled coefficients rather
than raw derivatives avoids factorial blow-up at high order; the k!
factor appears only at the API boundary.  An expression is compiled once,
on first evaluation: one walk folds exact rational subtrees and builds the
jet functions.  Exponents that fold to an exact integer use binary
exponentiation on jets; every other exponent goes through
exp(e * log(base)), restricted to positive bases.  A literal longer than
MAX_LITERAL_DIGITS is a ParseError; a folded constant wider than
MAX_CONSTANT_BITS bits, and a literal or rational exponent beyond the
double range, is an EvalDomainError when it is evaluated.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

__all__ = [
    "Expr",
    "ParseError",
    "EvalDomainError",
    "TaylorJet",
    "MAX_JET_ORDER",
    "MAX_NESTING",
    "MAX_LITERAL_DIGITS", "MAX_CONSTANT_BITS",
    "parse",
    "jet_eval",
    "jet_provider",
    "evaluator",
    "derivative_function",
]

#: Hard cap on the jet order; the recurrences are O(m^2) and nothing in the
#: quadrature engine needs more.
MAX_JET_ORDER = 128

#: Deepest accepted nesting: parentheses, calls, unary minus, "^" and each
#: operator of a chain (a+b+c is (a+b)+c) open a level.  Parsing and
#: evaluation recurse per level; this keeps both far from Python's limit.
MAX_NESTING = 100

#: Limits of exact arithmetic: a number literal's digits plus its exponent's
#: magnitude (Python's int/str limit, which unparse relies on), and the bits
#: of a folded constant's numerator or denominator.
MAX_LITERAL_DIGITS = 4300
MAX_CONSTANT_BITS = 1 << 20


class ParseError(ValueError):
    """Syntax error with a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class EvalDomainError(ValueError):
    """Evaluation left a function's domain; names the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{subexpr.unparse()}'")
        self.subexpr = subexpr


# -- syntax tree -------------------------------------------------------


class Expr:
    __slots__ = ()

    def unparse(self) -> str:
        raise NotImplementedError

    @cached_property
    def height(self) -> int:
        """Levels of the tree from this node down; a leaf has height 1."""
        children = [v for v in vars(self).values() if isinstance(v, Expr)]
        return 1 + max((child.height for child in children), default=0)

    @cached_property
    def compiled(self) -> "Compiled":
        """The jet function and exact value, built by one walk on first use."""
        return _compile(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.unparse()!r})"


@dataclass(frozen=True, repr=False)
class Num(Expr):
    value: Fraction

    def unparse(self):
        value = self.value
        if value.denominator == 1:
            return str(value.numerator)
        try:
            return str(float(value))
        except OverflowError:
            # Beyond the double range: exact, parenthesized like a quotient.
            return f"({value.numerator} / {value.denominator})"


@dataclass(frozen=True, repr=False)
class Pi(Expr):
    def unparse(self):
        return "pi"


@dataclass(frozen=True, repr=False)
class Var(Expr):
    def unparse(self):
        return "x"


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def unparse(self):
        return f"-{self.arg.unparse()}"


@dataclass(frozen=True, repr=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def unparse(self):
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


@dataclass(frozen=True, repr=False)
class Call(Expr):
    name: str
    arg: Expr

    def unparse(self):
        return f"{self.name}({self.arg.unparse()})"


# -- tokenizer / parser ------------------------------------------------

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_ATOM_HINT = "a number, 'x', 'pi', a function call, or '('"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # factor() calls in progress

    def nested(self, node: Expr, tok: _Token) -> Expr:
        """``node``, unless its tree nests deeper than MAX_NESTING levels."""
        if node.height > MAX_NESTING + 1:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        return node

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def match_op(self, *ops) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def expression(self) -> Expr:
        node = self.term()
        while (tok := self.match_op("+", "-")) is not None:
            node = self.nested(BinOp(tok.text, node, self.term()), tok)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (tok := self.match_op("*", "/")) is not None:
            node = self.nested(BinOp(tok.text, node, self.factor()), tok)
        return node

    def factor(self) -> Expr:
        # Every recursion of the grammar passes here: bound it before any node exists.
        tok = self.peek()
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1
        node = Neg(self.factor()) if self.match_op("-") else self.power()
        self.depth -= 1
        return self.nested(node, tok)

    def power(self) -> Expr:
        base = self.atom()
        if self.match_op("^"):
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            digits, _, exponent = tok.text.lower().partition("e")
            exponent = exponent.lstrip("+-").lstrip("0")  # sized by its text: it may be huge
            if (len(exponent) > len(str(MAX_LITERAL_DIGITS))
                    or sum(map(str.isdigit, digits)) + int(exponent or 0) > MAX_LITERAL_DIGITS):
                raise ParseError(f"number literal exceeds {MAX_LITERAL_DIGITS} digits", tok.pos)
            return Num(Fraction(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text == "pi":
                return Pi()
            if tok.text in FUNCTIONS:
                # The argument is the parenthesized atom that must follow.
                if self.peek().text != "(":
                    raise ParseError(f"expected '(' after function {tok.text!r}", self.peek().pos)
                return Call(tok.text, self.atom())
            raise ParseError(
                f"unknown identifier {tok.text!r}; expected x, pi, or one of "
                + ", ".join(FUNCTIONS),
                tok.pos,
            )
        if self.match_op("("):
            node = self.expression()
            if not self.match_op(")"):
                raise ParseError("expected ')'", self.peek().pos)
            return node
        raise ParseError(f"expected {_ATOM_HINT}", tok.pos)


def parse(text: str) -> Expr:
    """Parse an expression in the variable x.  Raises :class:`ParseError`."""
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


# -- jets ---------------------------------------------------------------


@dataclass(frozen=True)
class TaylorJet:
    """Truncated Taylor coefficients t_0..t_m of an integrand at a point."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, k: int) -> float:
        """f^(k) at the expansion point, i.e. k! * t_k."""
        if not 0 <= k <= self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        return math.factorial(k) * self.coeffs[k]

    def derivatives(self) -> tuple:
        """(f, f', ..., f^(m)) at the expansion point."""
        return tuple(math.factorial(k) * t for k, t in enumerate(self.coeffs))


def _constant(value: float, m: int) -> list:
    out = [0.0] * (m + 1)
    out[0] = value
    return out


def _mul(u, v):
    m = len(u)
    return [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(m)]


def _div(u, v, node):
    if v[0] == 0.0:
        raise EvalDomainError("division by zero", node)
    m = len(u)
    out = [0.0] * m
    out[0] = u[0] / v[0]
    for k in range(1, m):
        acc = u[k]
        for j in range(k):
            acc -= out[j] * v[k - j]
        out[k] = acc / v[0]
    return out


def _exp(u, node):
    m = len(u)
    out = [0.0] * m
    try:
        out[0] = math.exp(u[0])
    except OverflowError:
        raise EvalDomainError("exp beyond the double range", node) from None
    for k in range(1, m):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * u[j] * out[k - j]
        out[k] = acc / k
    return out


def _log(u, node):
    if u[0] <= 0.0:
        raise EvalDomainError("log of a non-positive value", node)
    m = len(u)
    out = [0.0] * m
    out[0] = math.log(u[0])
    for k in range(1, m):
        acc = 0.0
        for j in range(1, k):
            acc += j * out[j] * u[k - j]
        out[k] = (u[k] - acc / k) / u[0]
    return out


def _sqrt(u, node):
    if u[0] <= 0.0:
        raise EvalDomainError("sqrt of a non-positive value", node)
    m = len(u)
    out = [0.0] * m
    out[0] = math.sqrt(u[0])
    for k in range(1, m):
        acc = u[k]
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out[k] = acc / (2.0 * out[0])
    return out


def _sin_cos(u, node):
    if math.isinf(u[0]):  # a nan argument passes through, as in every other rule
        raise EvalDomainError(f"{node.name} of an infinite value", node)
    m = len(u)
    s = [0.0] * m
    c = [0.0] * m
    s[0] = math.sin(u[0])
    c[0] = math.cos(u[0])
    for k in range(1, m):
        sa = 0.0
        ca = 0.0
        for j in range(1, k + 1):
            sa += j * u[j] * c[k - j]
            ca += j * u[j] * s[k - j]
        s[k] = sa / k
        c[k] = -ca / k
    return s, c


#: Integer exponents beyond this are treated as evaluation errors rather
#: than ground through binary exponentiation.
_MAX_INT_EXPONENT = 1 << 20


def _powi(u, exponent, node):
    if abs(exponent) > _MAX_INT_EXPONENT:
        raise EvalDomainError(f"integer exponent exceeds {_MAX_INT_EXPONENT} in magnitude", node)
    one = _constant(1.0, len(u) - 1)
    if exponent == 0:
        return one
    e = abs(exponent)
    result = one
    base = list(u)
    while e:
        if e & 1:
            result = _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    if exponent < 0:
        result = _div(one, result, node)
    return result


#: Function name -> jet rule (u, node); the parser accepts exactly these names.
_CALLS = {
    "sin": lambda u, node: _sin_cos(u, node)[0],
    "cos": lambda u, node: _sin_cos(u, node)[1],
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
}
FUNCTIONS = tuple(_CALLS)

#: Operator -> (exact rule, jet rule (u, v, node) -> jet); "^" jets come from _power.
_BINARY = {
    "+": (operator.add, lambda u, v, node: [p + q for p, q in zip(u, v)]),
    "-": (operator.sub, lambda u, v, node: [p - q for p, q in zip(u, v)]),
    "*": (operator.mul, lambda u, v, node: _mul(u, v)),
    "/": (operator.truediv, _div),
    "^": (operator.pow, None),
}

_TOO_WIDE = object()


def _fold(op: str, left, right):
    """Exact ``left op right``: None if it is not a rational, _TOO_WIDE if
    its size bound, taken from the operands, exceeds MAX_CONSTANT_BITS."""
    if left is None or right is None or (op == "^" and right.denominator != 1):
        return None
    lw, rw = (max(q.numerator.bit_length(), q.denominator.bit_length()) for q in (left, right))
    if (abs(right) * lw if op == "^" else lw + rw + 1) > MAX_CONSTANT_BITS:  # a sum may carry
        return _TOO_WIDE
    try:
        return _BINARY[op][0](left, right)
    except ZeroDivisionError:
        return None


class Compiled(NamedTuple):
    """What ``Expr.compiled`` holds."""

    jet: Callable  # (x0, m) -> [t_0..t_m]
    exact: Fraction | None  # the value, when the expression is an exact rational


def _double(value: Fraction, node) -> Callable:
    """A call returning ``value`` as a double, converted once; beyond the
    double range the call raises a domain error naming ``node``."""
    try:
        number = float(value)
    except OverflowError:
        def beyond():
            raise EvalDomainError("constant beyond the double range", node)

        return beyond
    return lambda: number


def _power(base, exponent, value, node):
    """The jet function of base^exponent; ``value`` is the exponent's exact value or None."""
    if value is not None and value.denominator == 1:
        return lambda x0, m: _powi(base(x0, m), value.numerator, node)
    scale = None if value is None else _double(value, node.right)

    def jet(x0, m):
        b, e = base(x0, m), (exponent(x0, m) if value is None else None)
        if b[0] <= 0.0:
            raise EvalDomainError("non-integer power of a non-positive base", node)
        log_b = _log(b, node)  # a rational exponent scales it in O(m)
        return _exp(_mul(e, log_b) if value is None else [scale() * t for t in log_b], node)

    return jet


def _compile(node: Expr) -> Compiled:
    """One walk: fold exact rational subtrees and build each node's jet function.
    Jets run operands left to right, a base before its exponent, and raise
    a literal's range error only then, so errors surface in evaluation order."""
    match node:
        case Num(value):
            number = _double(value, node)
            return Compiled(lambda x0, m: _constant(number(), m), value)
        case Pi():
            return Compiled(lambda x0, m: _constant(math.pi, m), None)
        case Var():  # x0 + (x - x0)
            return Compiled(lambda x0, m: ([x0, 1.0] + [0.0] * (m - 1))[:m + 1], None)
        case Neg(arg):
            arg, exact = _compile(arg)
            return Compiled(lambda x0, m: [-t for t in arg(x0, m)], None if exact is None else -exact)
        case Call(name, arg):
            rule, arg = _CALLS[name], _compile(arg).jet
            return Compiled(lambda x0, m: rule(arg(x0, m), node), None)
        case BinOp(op, left, right):
            (left, left_exact), (right, right_exact) = _compile(left), _compile(right)
            rule = _BINARY[op][1]
            jet = (_power(left, right, right_exact, node) if op == "^"
                   else lambda x0, m: rule(left(x0, m), right(x0, m), node))
            exact = _fold(op, left_exact, right_exact)
            if exact is not _TOO_WIDE:
                return Compiled(jet, exact)

            def too_wide(x0, m):  # the node's own errors, such as a huge exponent, come first
                jet(x0, m)
                raise EvalDomainError(f"exact constant wider than {MAX_CONSTANT_BITS} bits", node)

            return Compiled(too_wide, None)


def jet_eval(expr: Expr, x0, m: int) -> TaylorJet:
    """Taylor coefficients of ``expr`` at x0 up to order m."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"jet order must be a nonnegative integer, got {m!r}")
    if m > MAX_JET_ORDER:
        raise ValueError(f"jet order {m} exceeds the cap {MAX_JET_ORDER}")
    return TaylorJet(tuple(expr.compiled.jet(float(x0), m)))


def jet_provider(expr: Expr):
    """Adapter for the quadrature engine: (x, m) -> derivatives 0..m at x."""

    def jets(x, m):
        return jet_eval(expr, x, m).derivatives()

    return jets


def evaluator(expr: Expr):
    """Plain float evaluation, x -> f(x)."""

    def value(x):
        return expr.compiled.jet(float(x), 0)[0]

    return value


def derivative_function(expr: Expr, k: int):
    """The k-th derivative as a callable, x -> f^(k)(x)."""
    if k < 0 or k > MAX_JET_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_JET_ORDER}")

    def value(x):
        return jet_eval(expr, x, k).derivative(k)

    return value
