"""Expression front end.

Grammar (ASCII only)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')* base ('^' integer)?
    base   := number | name | '(' expr ')'

``i`` is the imaginary unit and exponents are integers.  Every product,
quotient and power is bounded before it is expanded: its degree, the sum of
the operands' degrees (|n| d for a base of degree d to the n), must stay
within ``MAX_POWER_DEGREE``, and a power on the right of a product or
quotient gets only the degree its left operand leaves.  Write bits(c) for
log2 of the larger of the modulus of c's numerator over Z[i] and its
denominator: a power to the n needs |n| bits(c) <= ``MAX_POWER_BITS`` for
each coefficient c of its base (for 1/c if the base is a constant and
n < 0), so that 0, +-1 and +-i take any exponent, and every coefficient of
every product, quotient and power needs bits(c) <= ``MAX_POWER_BITS``.  An
expression is evaluated in its target ring with that ring's own arithmetic:
one declared variable gives an element of Q(i)(x), a
:class:`RationalFunction`; two give an element of Q(i)[x, y], a
:class:`BivariatePolynomial`, whose divisors must be nonzero constants.
Every division, a negative power included, is checked by
``_Parser._divide``.
"""

from __future__ import annotations

import re

from ..errors import ExprSyntaxError, NonPolynomialExponent, UndeclaredVariable
from .gaussian import GaussianRational
from .poly import BivariatePolynomial, RationalFunction, UnivariatePolynomial

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")
# bound on the degree of a product, quotient or power: dense products cost
# about 4x per doubling of the degree, so a larger one is refused as an
# input error instead of running for hours
MAX_POWER_DEGREE = 1000
# bound on the bits of a coefficient: 2^100000 would be expanded at once
# and then exceed the digits a report can print
MAX_POWER_BITS = 10000


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if not m or m.end() == pos:
                stripped = self.text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(self.text) - len(stripped)
                raise ExprSyntaxError(
                    f"unexpected character {stripped[0]!r}", bad_at)
            if m.group(1) is not None:
                self.tokens.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, variables):
        self.toks = _Tokenizer(text)
        self.variables = list(variables)
        if len(self.variables) == 1:
            self.ring = RationalFunction
            self.gens = [RationalFunction.variable()]
        elif len(self.variables) == 2:
            self.ring = BivariatePolynomial
            self.gens = [BivariatePolynomial.var_x(),
                         BivariatePolynomial.var_y()]
        else:
            raise ValueError("parse_expression expects one or two variables")

    def parse(self):
        value = self.expr()
        kind, tok, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {tok!r}", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, tok, _ = self.toks.peek()
            if kind == "op" and tok in "+-":
                self.toks.next()
                rhs = self.term()
                value = value + rhs if tok == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, tok, pos = self.toks.peek()
            if kind == "op" and tok in "*/":
                self.toks.next()
                # the degrees of the operands add up, so a power on the right
                # is refused before it is expanded if it exceeds what is left
                rhs = self.factor(MAX_POWER_DEGREE - self._degree(value))
                if self._degree(value) + self._degree(rhs) > MAX_POWER_DEGREE:
                    raise ExprSyntaxError("expression too large", pos)
                value = value * rhs if tok == "*" \
                    else self._divide(value, rhs, pos)
                _check_bits(value, "expression too large", pos)
            else:
                return value

    def factor(self, budget=MAX_POWER_DEGREE):
        """A factor; a power in it may have degree ``budget`` at most."""
        kind, tok, pos = self.toks.peek()
        if kind == "op" and tok == "-":
            self.toks.next()
            return -self.factor(budget)
        value = self.base()
        kind, tok, pos = self.toks.peek()
        if kind == "op" and tok == "^":
            self.toks.next()
            exp = self.integer()
            degree = self._degree(value)
            growth = _growth(value, exp, degree == 0)
            alone = abs(exp) * degree > MAX_POWER_DEGREE or \
                abs(exp) * growth > MAX_POWER_BITS
            if alone or abs(exp) * degree > budget:
                raise ExprSyntaxError("exponent too large" if alone
                                      else "expression too large", pos)
            value = self._divide(self.ring.coerce(1), value ** -exp, pos) \
                if exp < 0 else value ** exp
            _check_bits(value, "exponent too large", pos)
        return value

    def _degree(self, value) -> int:
        """max(deg num, deg den) in one variable, deg_x + deg_y in two."""
        if self.ring is RationalFunction:
            return max(value.num.degree(), value.den.degree())
        return value.degree_x() + value.degree_y()

    def _divide(self, num, den, pos):
        """num / den, the one rule for divisors: nonzero, and in two
        variables a constant."""
        if den.is_zero():
            raise ExprSyntaxError("division by zero", pos)
        if self.ring is RationalFunction:
            return num / den
        if den.degree_y() > 0 or den.degree_x() > 0:
            raise NonPolynomialExponent(
                "variables in the denominator are not allowed for a "
                "polynomial expression")
        c = den.coefficient(0, 0).inverse()
        return BivariatePolynomial([row.scale(c) for row in num.rows])

    def integer(self) -> int:
        kind, tok, pos = self.toks.peek()
        negative = False
        if kind == "op" and tok == "-":
            self.toks.next()
            negative = True
            kind, tok, pos = self.toks.peek()
        if kind != "int":
            raise ExprSyntaxError("malformed exponent", pos, expected="integer")
        self.toks.next()
        return -tok if negative else tok

    def base(self):
        kind, tok, pos = self.toks.next()
        if kind == "int":
            return self.ring.coerce(tok)
        if kind == "name":
            if tok == "i":
                return self.ring.coerce(GaussianRational(0, 1))
            if tok not in self.variables:
                raise UndeclaredVariable(
                    f"undeclared variable {tok!r} at position {pos}")
            return self.gens[self.variables.index(tok)]
        if kind == "op" and tok == "(":
            value = self.expr()
            kind2, tok2, pos2 = self.toks.next()
            if kind2 != "op" or tok2 != ")":
                raise ExprSyntaxError("unbalanced parenthesis", pos2,
                                      expected="')'")
            return value
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos,
                                  expected="number, name or '('")
        raise ExprSyntaxError(f"unexpected token {tok!r}", pos,
                              expected="number, name or '('")


def _coefficients(value):
    if isinstance(value, RationalFunction):
        return value.num.coeffs + value.den.coeffs
    return [c for row in value.rows for c in row.coeffs]


def _growth(value, exp: int, constant: bool) -> float:
    """About the bits that each unit of |exp| adds to the coefficients of
    the power: the largest ``bits`` of a coefficient, of the inverse for a
    constant and a negative ``exp``; exact for a constant, so that 0, +-1
    and +-i take any exponent."""
    if value.is_zero():
        return 0.0  # 0^n is 0, or a division by zero
    coeffs = _coefficients(value)
    if constant and exp < 0:
        coeffs = [coeffs[0].inverse()]
    return max(c.bits() for c in coeffs)


def _check_bits(value, message: str, pos: int):
    """Refuse a value with a coefficient of more than MAX_POWER_BITS."""
    if any(c.bits() > MAX_POWER_BITS for c in _coefficients(value)):
        raise ExprSyntaxError(message, pos)


def parse_expression(text: str, variables):
    """Parse ``text`` over the declared variables.

    Two variables (x-like first, y-like second) -> BivariatePolynomial;
    the expression must be polynomial (no variable in any denominator).
    One variable -> RationalFunction.
    """
    return _Parser(text, variables).parse()


def parse_bivariate(text: str, xvar: str = "x", yvar: str = "y") -> BivariatePolynomial:
    return parse_expression(text, [xvar, yvar])


def parse_rational(text: str, var: str = "x") -> RationalFunction:
    return parse_expression(text, [var])


def parse_univariate(text: str, var: str = "x") -> UnivariatePolynomial:
    r = parse_rational(text, var)
    if not r.is_polynomial():
        raise NonPolynomialExponent("expected a polynomial, got a quotient")
    return r.num
