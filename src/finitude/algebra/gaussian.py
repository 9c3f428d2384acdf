"""Exact Gaussian-rational arithmetic.

A :class:`GaussianRational` is a complex number ``re + im*i`` with both parts
arbitrary-precision rationals.  These are the scalars for every exact
computation in the package: polynomial coefficients, resultants, tower
coefficients, residues.  The field operations are closed and conjugation is an
involution, so Q(i) behaves as an honest exact field.

Each value is stored as three integers ``(a, b, d)`` for ``(a + b*i)/d`` over
one common denominator, normalised so that ``d > 0`` and
``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``).  The representation is then
unique, so ``==`` compares triples, and each ring operation does plain integer
arithmetic (Brown and Traub, JACM 1971; von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 6).  Keeping the two parts as separate
``fractions.Fraction`` objects would cost one gcd per part per intermediate
``Fraction``.

A gcd costs time quadratic in the length of its arguments unless one of them
is short, and the Euclidean schemes over Q(i)[t] (the residue blocks of
``integrate``) reach numerators and denominators of 20,000 bits.  So every
gcd starts from a denominator; ``+`` and ``-`` over unequal denominators
take the gcd of the two denominators and then only a gcd with that (Knuth,
TAOCP vol. 2, 4.5.1); and ``*`` of values whose denominators are not both
below 2**62 cancels each numerator against the other operand's denominator
before multiplying (Henrici, JACM 1956).  A product of two non-real values
then still needs a gcd against its denominator, since Gaussian content is
not multiplicative over Z: (2 + i)(2 - i) = 5.
"""

from __future__ import annotations

import math
from fractions import Fraction

_gcd = math.gcd
_new = object.__new__
# products of values with denominators below this are normalised by one gcd
_SMALL = 1 << 62


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot build a Fraction from {value!r}")


def _triple(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0, divided through by gcd(d, a, b); the gcd
    starts from d, so a short denominator keeps it cheap."""
    if d != 1:
        g = _gcd(d, a, b)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0 and gcd(a, b, d) == 1 already."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _sum(a: int, b: int, d: int, c: int, e: int, f: int):
    """(a + b*i)/d + (c + e*i)/f for normalised operands with d != f.  A
    prime of the result's common factor divides gcd(d, f), so that gcd
    bounds the second one."""
    g = _gcd(d, f)
    if g == 1:
        return _reduced(a * f + c * d, b * f + e * d, d * f)
    s = d // g
    f //= g
    re = a * f + c * s
    im = b * f + e * s
    h = _gcd(g, re, im)
    if h != 1:
        return _reduced(re // h, im // h, s * f * (g // h))
    return _reduced(re, im, s * f * g)


class GaussianRational:
    """Element of Q(i), stored as the normalised integer triple (a, b, d)
    for (a + b*i)/d.

    ``re`` and ``im`` are read-only properties that return
    ``fractions.Fraction``, so callers that compare, sort, format or round the
    parts see the same types and values as with stored ``Fraction`` parts.
    Values are immutable in the way ``Fraction`` is: no public attribute can
    be assigned, and the slots are private.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re = _to_fraction(re)
            im = _to_fraction(im)
            dr, di = re.denominator, im.denominator
            # lowest-terms parts over their lcm already have gcd(a, b, d) = 1
            d = dr // _gcd(dr, di) * di
            a = re.numerator * (d // dr)
            b = im.numerator * (d // di)
        self._a = a
        self._b = b
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # --- constructors ----------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _reduced(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _reduced(value.numerator, 0, value.denominator)
        if isinstance(value, complex):
            return GaussianRational(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    # --- predicates ----------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    def is_integer(self) -> bool:
        return not self._b and self._d == 1

    # --- ring / field operations ----------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d = self._d
        if d == other._d:
            return _triple(self._a + other._a, self._b + other._b, d)
        return _sum(self._a, self._b, d, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d = self._d
        if d == other._d:
            return _triple(self._a - other._a, self._b - other._b, d)
        return _sum(self._a, self._b, d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d < _SMALL and f < _SMALL:
            return _triple(a * c - b * e, a * e + b * c, d * f)
        # cancel each numerator against the other denominator first
        if f != 1:
            g = _gcd(f, a, b)
            if g != 1:
                a //= g
                b //= g
                f //= g
        if d != 1:
            g = _gcd(d, c, e)
            if g != 1:
                c //= g
                e //= g
                d //= g
        re, im, d = a * c - b * e, a * e + b * c, d * f
        if b and e and d != 1:
            g = _gcd(d, re, im)
            if g != 1:
                return _reduced(re // g, im // g, d // g)
        # with a real factor the content of the product is the product of
        # the contents, which the cancellation left prime to d
        return _reduced(re, im, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b = self._a, self._b
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        d = self._d
        return _triple(a * d, -b * d, n)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        c, e = other._a, other._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        # (a + bi)/d * f/(c + ei) = (a + bi)(c - ei) f / (d n)
        a, b, f = self._a, self._b, other._d
        return _triple((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    def mod_p(self, p: int, s: int):
        """(a + b s)/d mod p, the image under i -> s in F_p for a prime p
        with s*s = -1 (mod p); None when p divides d."""
        d = self._d
        if d == 1:
            return (self._a + self._b * s) % p
        if not d % p:
            return None
        return (self._a + self._b * s) * pow(d, -1, p) % p

    def bits(self) -> float:
        """log2 of the larger of |a + b i| and d: the size of the parts, 0
        for 0, +-1 and +-i."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        return max(math.log2(n) / 2 if n else 0.0, math.log2(d))

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2 (an exact nonnegative rational)."""
        return Fraction(self._a * self._a + self._b * self._b,
                        self._d * self._d)

    # --- comparisons / hashing ----------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # equal to hash(re) for real values and hash((re, im)) otherwise, so
        # that int and Fraction keys find equal values in dicts and sets
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    # --- conversions ----------

    def __complex__(self) -> complex:
        # int / int is correctly rounded even where either int overflows a float
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self) -> float:
        return math.hypot(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({re}{sign}{imag})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
