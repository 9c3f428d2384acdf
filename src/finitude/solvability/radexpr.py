"""Radical expression trees.

Nodes: exact constants, the variable x, sums, products, quotients, integer
powers, and integer-index roots root(m, .) with m >= 2.  Evaluation uses the
principal branch throughout: root(m, z) = exp(log(z)/m) with Arg(log) in
(-pi, pi], so the argument of the result lies in (-pi/m, pi/m].  A shared
subtree evaluates identically at both occurrences, which lets dependent
radicals (Cardano's paired cube roots, Ferrari's nested square roots) be
written as plain trees.

Serialization follows the parser grammar extended with "root(m, expr)"; the
imaginary unit prints as the name i.  Constants are exact Gaussian rationals,
or complex floats, which flag the expression ``exact = False``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from ..algebra.gaussian import GaussianRational
from ..algebra.poly import RationalFunction, UnivariatePolynomial

class RadicalExpression:
    """Base node; use the subclass constructors or the helpers below.

    Calling a node evaluates it at x in complex doubles with the principal
    branch convention.
    """

    exact = True

    def __call__(self, x: complex) -> complex:
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_string()}>"


class Const(RadicalExpression):
    def __init__(self, value):
        if isinstance(value, complex):
            self.value = value
            self.exact = False
        else:
            self.value = GaussianRational.coerce(value)
            self.exact = True

    def __call__(self, x):
        return complex(self.value)

    def to_string(self):
        if not self.exact:
            z = self.value
            return f"({z.real!r} + {z.imag!r}*i)"
        g = self.value
        if g.im == 0:
            return _frac_str(g.re)
        re = _frac_str(g.re)
        im = _frac_str(abs(g.im))
        sign = "+" if g.im > 0 else "-"
        imag = "i" if abs(g.im) == 1 else f"{im}*i"
        if g.re == 0:
            return imag if g.im > 0 else f"(0 - {imag})"
        return f"({re} {sign} {imag})"


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if q.numerator < 0:
        return f"(0 - {-q.numerator}/{q.denominator})"
    return f"{q.numerator}/{q.denominator}"


class Var(RadicalExpression):
    def __call__(self, x):
        return complex(x)

    def to_string(self):
        return "x"


class Add(RadicalExpression):
    def __init__(self, parts):
        self.parts = list(parts)
        self.exact = all(p.exact for p in self.parts)

    def __call__(self, x):
        out = self.parts[0](x)
        for p in self.parts[1:]:
            out = out + p(x)
        return out

    def to_string(self):
        return "(" + " + ".join(p.to_string() for p in self.parts) + ")"


class Mul(RadicalExpression):
    def __init__(self, parts):
        self.parts = list(parts)
        self.exact = all(p.exact for p in self.parts)

    def __call__(self, x):
        out = self.parts[0](x)
        for p in self.parts[1:]:
            out = out * p(x)
        return out

    def to_string(self):
        return "(" + "*".join(p.to_string() for p in self.parts) + ")"


class Div(RadicalExpression):
    def __init__(self, num, den):
        self.num = num
        self.den = den
        self.exact = num.exact and den.exact

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def to_string(self):
        return f"({self.num.to_string()}/{self.den.to_string()})"


class Pow(RadicalExpression):
    def __init__(self, base, exponent: int):
        self.base = base
        self.exponent = int(exponent)
        self.exact = base.exact

    def __call__(self, x):
        return self.base(x) ** self.exponent

    def to_string(self):
        return f"{self.base.to_string()}^{self.exponent}"


class Root(RadicalExpression):
    """Principal m-th root; argument of the value lies in (-pi/m, pi/m]."""

    def __init__(self, index: int, child):
        if index < 2:
            raise ValueError("root index must be >= 2")
        self.index = int(index)
        self.child = child
        self.exact = child.exact

    def __call__(self, x):
        z = self.child(x)
        if z == 0:
            return z
        return cmath.exp(cmath.log(z) / self.index)

    def to_string(self):
        return f"root({self.index}, {self.child.to_string()})"


# --- helpers ----------------------------------------------------------------


def const(value) -> Const:
    return Const(value)


def var() -> Var:
    return Var()


def add(*parts) -> RadicalExpression:
    flat = [p for p in parts if not _is_zero(p)]
    if not flat:
        return Const(0)
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*parts) -> RadicalExpression:
    flat = [p for p in parts if not _is_one(p)]
    if any(_is_zero(p) for p in flat):
        return Const(0)
    if not flat:
        return Const(1)
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def div(num, den) -> RadicalExpression:
    if _is_one(den):
        return num
    return Div(num, den)


def root(index: int, child) -> RadicalExpression:
    return Root(index, child)


def neg(p) -> RadicalExpression:
    return mul(Const(-1), p)


def _is_zero(p) -> bool:
    return isinstance(p, Const) and p.exact and p.value.is_zero()


def _is_one(p) -> bool:
    return isinstance(p, Const) and p.exact and p.value.is_one()


def from_polynomial(poly: UnivariatePolynomial) -> RadicalExpression:
    """Expression tree for an exact univariate polynomial in x."""
    parts = []
    for k, c in enumerate(poly.coeffs):
        if c.is_zero():
            continue
        if k == 0:
            parts.append(Const(c))
        elif c.is_one():
            parts.append(Var() if k == 1 else Pow(Var(), k))
        else:
            parts.append(mul(Const(c), Var() if k == 1 else Pow(Var(), k)))
    return add(*parts)


def from_rational(fn: RationalFunction) -> RadicalExpression:
    num = from_polynomial(fn.num)
    if fn.is_polynomial():
        return num
    return div(num, from_polynomial(fn.den))


def unity_root(n: int, k: int = 1) -> RadicalExpression | None:
    """Exact radical tree for exp(2 pi i k / n), for the indices that admit
    small closed forms (n in 1,2,3,4,5,6,8,10,12 and their products with
    k).  Returns None when no exact tree is available here."""
    k %= n
    if k == 0:
        return Const(1)
    g = Fraction(k, n)
    n, k = g.denominator, g.numerator
    table = {
        1: Const(1),
        2: Const(-1),
        4: Const(GaussianRational(0, 1)),
    }
    if n in table and k == 1:
        return table[n]
    if n == 4:  # k == 3
        return Const(GaussianRational(0, -1))
    if n == 3 or n == 6:
        # exp(2 pi i /3) = (-1 + sqrt(-3)) / 2 under the principal branch:
        # root(2, -3) = i sqrt(3)
        s3 = Root(2, Const(-3))
        if n == 3:
            base = div(add(Const(-1), s3), Const(2))
            return base if k == 1 else div(add(Const(-1), neg(s3)), Const(2))
        base = div(add(Const(1), s3), Const(2))       # exp(i pi / 3)
        conj = div(add(Const(1), neg(s3)), Const(2))  # exp(-i pi / 3)
        return {1: base, 5: conj}.get(k)
    if n == 8:
        h = div(Root(2, Const(2)), Const(2))
        i_const = Const(GaussianRational(0, 1))
        table8 = {
            1: mul(h, add(Const(1), i_const)),
            3: mul(h, add(Const(-1), i_const)),
            5: mul(h, add(Const(-1), neg(i_const))),
            7: mul(h, add(Const(1), neg(i_const))),
        }
        return table8.get(k)
    if n == 12:
        s3 = Root(2, Const(3))
        i_const = Const(GaussianRational(0, 1))
        table12 = {
            1: div(add(s3, i_const), Const(2)),
            5: div(add(neg(s3), i_const), Const(2)),
            7: div(add(neg(s3), neg(i_const)), Const(2)),
            11: div(add(s3, neg(i_const)), Const(2)),
        }
        return table12.get(k)
    if n in (5, 10):
        # cos(2 pi /5) = (sqrt(5) - 1)/4, sin(2 pi/5) = sqrt(10 + 2 sqrt 5)/4
        s5 = Root(2, Const(5))
        i_const = Const(GaussianRational(0, 1))
        if n == 5:
            cos_ = {1: div(add(s5, Const(-1)), Const(4)),
                    2: div(add(neg(s5), Const(-1)), Const(4)),
                    3: div(add(neg(s5), Const(-1)), Const(4)),
                    4: div(add(s5, Const(-1)), Const(4))}[k]
            inner = {1: add(Const(10), mul(Const(2), s5)),
                     2: add(Const(10), mul(Const(-2), s5)),
                     3: add(Const(10), mul(Const(-2), s5)),
                     4: add(Const(10), mul(Const(2), s5))}[k]
            sin_ = div(Root(2, inner), Const(4))
            if k in (3, 4):
                sin_ = neg(sin_)
            return add(cos_, mul(i_const, sin_))
        # n == 10, k odd: exp(pi i k/5) = -zeta_5^((k+5)/2)
        return neg(unity_root(5, ((k + 5) // 2) % 5))
    return None
