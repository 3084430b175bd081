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

Each operation has one order-0 rule, and it alone computes t_0 and checks
the domain.  The jet rules call it on t_0 and run their recurrences above
it; the batch form, each node's order-0 value at a list of points (one
float for a node that does not depend on x), is made of these rules alone.
So a jet and a batch fail at the same node with the same message.
``evaluator`` evaluates through the batch form, one point or a whole list
at once.  Integer powers run one binary exponentiation for both forms.

Jets come in batches too: ``jet_provider(expr).many`` runs the jet rules
once with each coefficient t_k a ``_Points``, a list over the points whose
operators act point by point, so each point's jet has the bits of its own
walk.  A batch saves the walk per point but allocates a list per operation
and term, so above order _BATCH_ORDER each point gets its own walk.

Products are priced by degree.  The walk records each node's degree as a
polynomial in x (a constant 0, x 1, sums the max, products the sum, an
integer power the multiple, anything else dense) and picks each product's
rule once: a scale for a constant times a jet, else a Cauchy product over
the band of terms below both degrees, which integer powers use too; a
dense product is the full band.  Every result is bit for bit the dense
product's: the terms left out are signed zeros, each sum starts as the
dense sum does, and an operand holding inf or nan takes the full band.
The other rules run over every term.

Every sum of terms starts at 0.0 or at a jet entry and adds left to right
in an explicit loop, not through sum(): from Python 3.12 sum() of floats
is compensated, and results would then depend on the interpreter.
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


def _pointwise(op):
    """``op`` and its reflected form point by point, the other operand a
    _Points or one number for every point."""

    def forward(u, v):
        return _Points(map(op, u, v if type(v) is _Points else [v] * len(u)))

    return forward, lambda u, v: _Points(map(op, [v] * len(u), u))


class _Points(list):
    """A coefficient of a batch of jets: its value at each point of the batch.

    The operators act point by point (``+=`` too, which a list would read
    as extend), so the jet rules run unchanged on jets whose coefficients
    are _Points, and each point keeps its own jet's order of operations.
    """

    __slots__ = ()
    __add__, __radd__ = _pointwise(operator.add)
    __sub__, __rsub__ = _pointwise(operator.sub)
    __mul__, __rmul__ = _pointwise(operator.mul)
    __truediv__, __rtruediv__ = _pointwise(operator.truediv)
    __iadd__, __isub__, __imul__ = __add__, __sub__, __mul__

    def __neg__(self):
        return _Points(map(operator.neg, self))


# -- order-0 rules ------------------------------------------------------
# Each rule maps order-0 values to order-0 values: a list over the points of
# a batch, or one float, for a node that is the same at every point and for
# t_0 of a jet (a _Points in a batch of jets, which the arithmetic rules
# take as one number).  The batch form is made of these rules, and the jet
# rules call them on t_0, so each domain check and its message live here
# only.  A rule raises when its check fails at any point.


def _plus(u, v):
    if type(u) is list:
        return [p + q for p, q in zip(u, v)] if type(v) is list else [p + v for p in u]
    return [u + q for q in v] if type(v) is list else u + v


def _minus(u, v):
    if type(u) is list:
        return [p - q for p, q in zip(u, v)] if type(v) is list else [p - v for p in u]
    return [u - q for q in v] if type(v) is list else u - v


def _times(u, v):
    """The order-0 Cauchy product, 0 + u*v."""
    if type(u) is list:
        return [0.0 + p * q for p, q in zip(u, v)] if type(v) is list else [0.0 + p * v for p in u]
    return [0.0 + u * q for q in v] if type(v) is list else 0.0 + u * v


def _over(u, v, node):
    try:
        if type(u) is list:
            return [p / q for p, q in zip(u, v)] if type(v) is list else [p / v for p in u]
        return [u / q for q in v] if type(v) is list else u / v
    except ZeroDivisionError:
        raise EvalDomainError("division by zero", node) from None


def _negated(u):
    return [-t for t in u] if type(u) is list else -u


def _scaled(s, u):
    return [s * t for t in u] if type(u) is list else s * u


def _checked(fn, error, message):
    """The order-0 rule of ``fn``: a domain error, its message formatted with
    the node, wherever ``fn`` raises ``error``."""

    def rule(u, node, message=message):
        try:
            return type(u)(map(fn, u)) if isinstance(u, list) else fn(u)
        except error:
            raise EvalDomainError(message.format(node=node), node) from None

    return rule


# math.exp overflows exactly beyond the double range, math.log rejects
# exactly the non-positive values, math.sin and math.cos the infinities.
_exp0 = _checked(math.exp, OverflowError, "exp beyond the double range")
_log0 = _checked(math.log, ValueError, "log of a non-positive value")
_sin0 = _checked(math.sin, ValueError, "{node.name} of an infinite value")
_cos0 = _checked(math.cos, ValueError, "{node.name} of an infinite value")


def _sqrt0(u, node):
    message = "sqrt of a non-positive value"
    if (0.0 in u) if isinstance(u, list) else u == 0.0:  # the jet recurrence divides by sqrt(t_0)
        raise EvalDomainError(message, node)
    try:  # math.sqrt rejects exactly the negative values
        return type(u)(map(math.sqrt, u)) if isinstance(u, list) else math.sqrt(u)
    except ValueError:
        raise EvalDomainError(message, node) from None


# -- jet rules ----------------------------------------------------------
# Each rule takes t_0 from the order-0 rule and runs its recurrence above it.
#
# Products are priced by degree.  Every entry of a jet of degree d above t_d
# is a signed zero while the jet is finite, so a product term with such a
# factor is a signed zero too.  Leaving such terms out of a sum changes
# nothing when the sum starts as the dense one does: from 0, which turns a
# lone -0.0 into +0.0, after which a running sum is never -0.0.  Since
# 0 * inf is nan, an operand with an inf or nan entry takes the full band.


def _band(u, v, du, dv):
    """The Cauchy product over the terms below degrees du and dv:
    t_k = u_lo v_(k-lo) + ... + u_hi v_(k-hi), zero above du + dv."""
    top = len(u) - 1
    out = [0.0] * (top + 1)
    for k in range(min(top, du + dv) + 1):
        acc = 0.0
        for j in range(k - dv if k > dv else 0, (k if k < du else du) + 1):
            acc += u[j] * v[k - j]
        out[k] = acc
    return out


def _mul(u, v, du=None, dv=None):
    """The Cauchy product of jets of degrees du and dv (None: dense): a scale
    when one is a constant, else the band of terms below both degrees."""
    top = len(u) - 1
    du = top if du is None or du > top else du
    dv = top if dv is None or dv > top else dv
    if du == top == dv:
        return _band(u, v, top, top)
    total = sum(u) + sum(v)  # only its finiteness is tested, at every point of a batch
    if not (all(map(math.isfinite, total)) if type(total) is _Points else math.isfinite(total)):
        return _band(u, v, top, top)
    if du == 0 or dv == 0:
        return _times(u[0], v) if du == 0 else _times(u, v[0])
    return _band(u, v, du, dv)


def _div(u, v, node):
    m = len(u)
    out = [_over(u[0], v[0], node)] * m
    for k in range(1, m):
        acc = u[k]
        for j in range(k):
            acc -= out[j] * v[k - j]
        out[k] = acc / v[0]
    return out


def _exp(u, node):
    m = len(u)
    out = [_exp0(u[0], node)] * m
    for k in range(1, m):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * u[j] * out[k - j]
        out[k] = acc / k
    return out


def _log(u, node, *message):
    """``message``, if given, replaces the order-0 rule's."""
    m = len(u)
    out = [_log0(u[0], node, *message)] * m
    for k in range(1, m):
        acc = 0.0
        for j in range(1, k):
            acc += j * out[j] * u[k - j]
        out[k] = (u[k] - acc / k) / u[0]
    return out


def _sqrt(u, node):
    m = len(u)
    out = [_sqrt0(u[0], node)] * m
    for k in range(1, m):
        acc = u[k]
        for j in range(1, k):
            acc -= out[j] * out[k - j]
        out[k] = acc / (2.0 * out[0])
    return out


def _sin_cos(u, node):
    m = len(u)
    s = [_sin0(u[0], node)] * m
    c = [_cos0(u[0], node)] * m
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


def _powi(u, exponent, node, mul, one, over, du=None):
    """u^exponent by binary exponentiation, by the product mul(u, v, du, dv)
    of operands of degrees du and dv (None: dense), the unit ``one`` and the
    division over(u, v, node): jet rules or order-0 rules alike."""
    if abs(exponent) > _MAX_INT_EXPONENT:
        raise EvalDomainError(f"integer exponent exceeds {_MAX_INT_EXPONENT} in magnitude", node)
    if exponent == 0:
        return one
    e = abs(exponent)
    result, dr = one, 0
    base, db = u, du
    while e:
        if e & 1:
            result = mul(result, base, dr, db)
            dr = None if db is None else dr + db
        e >>= 1
        if e:
            base = mul(base, base, db, db)
            db = None if db is None else 2 * db
    return over(one, result, node) if exponent < 0 else result


#: Function name -> (jet rule (u, node), batch rule (u, node)); the parser
#: accepts exactly these names.
_CALLS = {
    "sin": (lambda u, node: _sin_cos(u, node)[0], _sin0),
    "cos": (lambda u, node: _sin_cos(u, node)[1], _cos0),
    "exp": (_exp, _exp0),
    "log": (_log, _log0),
    "sqrt": (_sqrt, _sqrt0),
}
FUNCTIONS = tuple(_CALLS)

#: Operator -> exact rule.
_EXACT = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow,
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
        return _EXACT[op](left, right)
    except ZeroDivisionError:
        return None


class Compiled(NamedTuple):
    """What ``Expr.compiled`` holds."""

    jet: Callable  # (x0, m) -> [t_0..t_m]
    many: Callable  # list of points -> their values (one float if it does not depend on x)
    exact: Fraction | None  # the value, when the expression is an exact rational
    degree: int | None  # the degree as a polynomial in x; None if it is not one


def _double(value: Fraction, node) -> Callable:
    """A call returning ``value`` as a double, converted once, whatever its
    argument (a literal's batch rule is this call); beyond the double range
    the call raises a domain error naming ``node``."""
    try:
        number = float(value)
    except OverflowError:
        def beyond(_=None):
            raise EvalDomainError("constant beyond the double range", node)

        return beyond
    return lambda _=None: number


def _arith(op, left: Compiled, right: Compiled, node) -> Compiled:
    """The rules of left op right for + - * /; the exact value is left to the caller."""
    ljet, lmany, _, dl = left
    rjet, rmany, _, dr = right
    if op == "/":
        return Compiled(lambda x0, m: _div(ljet(x0, m), rjet(x0, m), node),
                        lambda xs: _over(lmany(xs), rmany(xs), node), None, None)
    known = dl is not None and dr is not None
    if op == "*":
        jet, many = (lambda u, v: _mul(u, v, dl, dr)), _times
        degree = dl + dr if known else None
    else:
        jet = many = _plus if op == "+" else _minus
        degree = max(dl, dr) if known else None
    return Compiled(lambda x0, m: jet(ljet(x0, m), rjet(x0, m)),
                    lambda xs: many(lmany(xs), rmany(xs)), None, degree)


def _power(base: Compiled, exponent: Compiled, node) -> Compiled:
    """The rules of base^exponent; the exact value is left to the caller."""
    bjet, bmany, _, db = base
    ejet, emany, value, de = exponent
    if value is not None and value.denominator == 1:
        e = value.numerator
        degree = 0 if e == 0 or db == 0 else (None if db is None or e < 0 else db * e)
        return Compiled(lambda x0, m: _powi(bjet(x0, m), e, node, _mul, _constant(1.0, m), _div, db),
                        lambda xs: _powi(bmany(xs), e, node, lambda u, v, du, dv: _times(u, v),
                                         1.0, _over),
                        None, degree)
    scale = None if value is None else _double(value, node.right)

    def rule(b, e, log, exp, mul):  # e is None for a rational exponent, which scales log(b)
        log_b = log(b, node, "non-integer power of a non-positive base")
        return exp(_scaled(scale(), log_b) if e is None else mul(e, log_b), node)

    return Compiled(
        lambda x0, m: rule(bjet(x0, m), None if value is not None else ejet(x0, m),
                           _log, _exp, lambda e, log_b: _mul(e, log_b, de)),
        lambda xs: rule(bmany(xs), None if value is not None else emany(xs), _log0, _exp0, _times),
        None, None)


def _compile(node: Expr) -> Compiled:
    """One walk: fold exact rational subtrees, record each node's degree, and
    build each node's jet and batch rules.  Jets run operands left to right,
    a base before its exponent, and raise a literal's range error only then,
    so errors surface in evaluation order."""
    match node:
        case Num(value):
            number = _double(value, node)
            return Compiled(lambda x0, m: _constant(number(), m), number, value, 0)
        case Pi():
            return Compiled(lambda x0, m: _constant(math.pi, m), lambda xs: math.pi, None, 0)
        case Var():  # x0 + (x - x0)
            return Compiled(lambda x0, m: ([x0, 1.0] + [0.0] * (m - 1))[:m + 1], lambda xs: xs,
                            None, 1)
        case Neg(arg):
            jet, many, exact, degree = _compile(arg)
            return Compiled(lambda x0, m: _negated(jet(x0, m)),
                            lambda xs: _negated(many(xs)),
                            None if exact is None else -exact, degree)
        case Call(name, arg):
            rule, rule_many = _CALLS[name]
            jet, many, _, _ = _compile(arg)
            return Compiled(lambda x0, m: rule(jet(x0, m), node),
                            lambda xs: rule_many(many(xs), node), None, None)
        case BinOp(op, left, right):
            left, right = _compile(left), _compile(right)
            compiled = _power(left, right, node) if op == "^" else _arith(op, left, right, node)
            exact = _fold(op, left.exact, right.exact)
            if exact is not _TOO_WIDE:
                return compiled._replace(exact=exact)
            message = f"exact constant wider than {MAX_CONSTANT_BITS} bits"

            def too_wide(rule):  # the node's own errors, such as a huge exponent, come first
                def run(*args):
                    rule(*args)
                    raise EvalDomainError(message, node)

                return run

            return compiled._replace(jet=too_wide(compiled.jet), many=too_wide(compiled.many))


def jet_eval(expr: Expr, x0, m: int) -> TaylorJet:
    """Taylor coefficients of ``expr`` at x0 up to order m."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"jet order must be a nonnegative integer, got {m!r}")
    if m > MAX_JET_ORDER:
        raise ValueError(f"jet order {m} exceeds the cap {MAX_JET_ORDER}")
    return TaylorJet(tuple(expr.compiled.jet(float(x0), m)))


#: Highest order at which ``jet_provider(expr).many`` walks the expression
#: once for all its points; above it each point gets its own walk.  A batch
#: saves the walk per point but builds a list per operation and term, so its
#: gain falls with the order.  Over 513 points of three benchmark-shaped
#: integrands (Python 3.11, 2-core Xeon, best of 7) it was 3.9-8.1x faster
#: than per-point jets at order 1, 1.3-2.1x at 7, 1.2-1.3x at 15, 1.0-1.4x
#: at 23, 0.7-1.1x at 31 and 0.7-0.9x at 63.
_BATCH_ORDER = 23


def jet_provider(expr: Expr):
    """Adapter for the quadrature engine: (x, m) -> derivatives 0..m at x.

    Its attribute ``many`` maps a list of points to the derivatives at each,
    the tuples the adapter gives, bit for bit.  Up to order _BATCH_ORDER it
    runs one walk of the expression for all the points, each coefficient a
    _Points; above it, and if that walk raises, it runs one jet per point,
    so an error is the one the first failing point raises.  ``many`` alone
    chooses between the two: a caller hands it every point, in the order
    its errors should take, with no order test or fallback of its own.
    """

    def jets(x, m):
        return jet_eval(expr, x, m).derivatives()

    def many(xs, m):
        if isinstance(m, int) and 0 <= m <= _BATCH_ORDER:
            points = _Points(map(float, xs))
            try:
                coeffs = expr.compiled.jet(points, m)
            except EvalDomainError:
                pass
            else:
                scaled = (math.factorial(k) * t for k, t in enumerate(coeffs))
                return list(zip(*(t if type(t) is _Points else [t] * len(points) for t in scaled)))
        return [jets(x, m) for x in xs]

    jets.many = many
    return jets


def evaluator(expr: Expr):
    """Plain float evaluation, x -> f(x).

    Its attribute ``many`` maps a list of floats to their values in one
    pass of the batch form.  If that raises, the batch form runs again one
    point at a time, so the error is the one the first failing point raises.
    """

    def batch(xs):
        values = expr.compiled.many(xs)
        return values if type(values) is list else [values] * len(xs)

    def many(xs):
        try:
            return batch(xs)
        except EvalDomainError:  # the first point that fails raises its own error
            return [batch([x])[0] for x in xs]

    def value(x):
        return many([float(x)])[0]

    value.many = many
    return value


def derivative_function(expr: Expr, k: int):
    """The k-th derivative as a callable, x -> f^(k)(x).

    Its attribute ``many`` maps a list of points to the derivatives at
    each through ``jet_provider(expr).many``: bit for bit the values of
    the scalar call, and the error the first failing point raises.
    """
    if k < 0 or k > MAX_JET_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_JET_ORDER}")
    jets = jet_provider(expr).many

    def value(x):
        return jet_eval(expr, x, k).derivative(k)

    value.many = lambda xs: [jet[k] for jet in jets(xs, k)]
    return value
