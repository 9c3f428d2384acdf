"""Dense exact polynomial arithmetic over the Gaussian rationals.

Three layers:

* :class:`UnivariatePolynomial` -- coefficients lowest degree first;
* :class:`RationalFunction` -- reduced quotient with monic denominator;
* :class:`BivariatePolynomial` -- a polynomial in ``y`` whose coefficients
  are univariate polynomials in ``x`` (the natural shape for algebraic
  curves P(x, y) = 0).

Everything here is exact; the numeric layer lives in ``roots.py``.  Degrees
stay at desk scale (tens, not thousands), so representations are dense.
Two kernels run on Gaussian-integer vectors (``gaussvec.py``): a product of
two non-constant polynomials, cleared to integer lists once and normalised
once per output coefficient, and the subresultant recurrence over
Z[i][x], which gives every resultant (``resultant_y``, ``discriminant_y``
and ``UnivariatePolynomial.resultant``) from its integer tail with one
division; only ``subresultant_prs`` divides its members back to
Q(i)[x].  ``divmod``, ``gcd`` and the square-free factorization stay on
scalars: their quotients and remainders are over Q(i), and on cleared
vectors they would need a content gcd at each step as the numerators
grow.

The field operations of :class:`RationalFunction` keep each result reduced
with a monic denominator without a gcd of a whole numerator against a
whole product of denominators, as ``gaussian.py`` does for scalars (Knuth,
TAOCP vol. 2, 4.5.1; Henrici, JACM 1956): a sum takes g = gcd(b, d) of the
denominators and then only gcd(t, g) of the new numerator t; a product
cancels each numerator against the other denominator; a power needs no
gcd; a derivative divides gcd(b, b') out of the quotient rule.
The class docstring says why each result is reduced.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DegreeTooLow, SquareFreeRequired, ZeroPolynomial
from . import gaussvec
from .gaussian import GaussianRational, ZERO, power


def _coprime_mod_p(a, b) -> bool:
    """True when the images of a and b under i -> s mod the first prime
    keep their degrees and are coprime.  That proves a and b coprime over
    Q(i): over the localisation of Z[i] at (p, i - s), a common factor of
    positive degree can be taken primitive (Gauss's lemma), its leading
    coefficient divides that of a, a unit there, so its image keeps its
    degree and divides both images.  False says nothing."""
    # only here: importing finitude.cli does not load the module
    from .modular import PRIMES, coprime, image
    p, s = PRIMES[0]
    fa, fb = image(a.coeffs, p, s), image(b.coeffs, p, s)
    return fa is not None and fb is not None and fa[-1] != 0 \
        and fb[-1] != 0 and coprime(fa, fb, p)


class UnivariatePolynomial:
    """Polynomial in one variable with GaussianRational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePolynomial is immutable")

    # --- constructors ----------

    @staticmethod
    def constant(c) -> "UnivariatePolynomial":
        return UnivariatePolynomial([c])

    @staticmethod
    def variable() -> "UnivariatePolynomial":
        return UnivariatePolynomial([0, 1])

    @staticmethod
    def monomial(c, k: int) -> "UnivariatePolynomial":
        return UnivariatePolynomial([0] * k + [c])

    @staticmethod
    def coerce(value) -> "UnivariatePolynomial":
        if isinstance(value, UnivariatePolynomial):
            return value
        return UnivariatePolynomial.constant(value)

    # --- structure ----------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else ZERO

    # --- ring operations ----------

    def __add__(self, other):
        a, b = self.coeffs, UnivariatePolynomial.coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-UnivariatePolynomial.coerce(other))

    def __rsub__(self, other):
        return UnivariatePolynomial.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if len(b) <= 1:
            return self.scale(b[0]) if b else other
        if len(a) <= 1:
            return other.scale(a[0]) if a else self
        return _poly(gaussvec.product(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, UnivariatePolynomial.constant(1))

    def scale(self, c) -> "UnivariatePolynomial":
        c = GaussianRational.coerce(c)
        return _poly([a * c for a in self.coeffs])

    def divmod(self, other):
        other = UnivariatePolynomial.coerce(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        num = list(self.coeffs)
        dd, dn = other.degree(), self.degree()
        if dn < dd:
            return UnivariatePolynomial(), self
        inv_lead = other.leading().inverse()
        quot = [ZERO] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = num[dd + k] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    num[j + k] = num[j + k] - c * b
        return UnivariatePolynomial(quot), UnivariatePolynomial(num[:dd])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other) -> "UnivariatePolynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    # --- calculus / evaluation ----------

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            [c * k for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            [ZERO] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __call__(self, x):
        """Horner evaluation; exact on GaussianRational, numeric on complex."""
        if isinstance(x, (int, Fraction, GaussianRational)):
            acc = ZERO
            for c in reversed(self.coeffs):
                acc = acc * GaussianRational.coerce(x) + c
            return acc
        acc = 0j
        xc = complex(x)
        for c in reversed(self.coeffs):
            acc = acc * xc + complex(c)
        return acc

    def compose(self, inner: "UnivariatePolynomial") -> "UnivariatePolynomial":
        acc = UnivariatePolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + UnivariatePolynomial.constant(c)
        return acc

    def shift(self, a) -> "UnivariatePolynomial":
        """p(x + a), exact Taylor shift."""
        return self.compose(UnivariatePolynomial([a, 1]))

    def reversed_coeffs(self, length=None) -> "UnivariatePolynomial":
        """x^d * p(1/x) padded to ``length`` coefficients before reversal."""
        n = length if length is not None else len(self.coeffs)
        cs = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        return UnivariatePolynomial(list(reversed(cs)))

    # --- gcd machinery ----------

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other) -> "UnivariatePolynomial":
        a, b = self, UnivariatePolynomial.coerce(other)
        if a.degree() > 0 and b.degree() > 0 and _coprime_mod_p(a, b):
            return UnivariatePolynomial.constant(1)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "UnivariatePolynomial":
        if self.is_zero():
            raise ZeroPolynomial("squarefree part of zero")
        if self.degree() == 0:
            return UnivariatePolynomial.constant(1)
        return self.exact_div(self.gcd(self.derivative())).monic()

    # --- misc ----------

    def resultant(self, other) -> GaussianRational:
        """res(self, other), highest-first convention: ``resultant_y`` of
        the two as polynomials in y with constant coefficients, other
        first.  A zero operand raises ZeroPolynomial."""
        other = UnivariatePolynomial.coerce(other)
        return resultant_y(BivariatePolynomial(other.coeffs),
                           BivariatePolynomial(self.coeffs)).constant_value()

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            try:
                other = UnivariatePolynomial.coerce(other)
            except TypeError:
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UnivariatePolynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        return self.format()

    def format(self, var: str = "x") -> str:
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coefficient(k)
            if c.is_zero():
                continue
            if k == 0:
                term = str(c)
            else:
                xk = var if k == 1 else f"{var}^{k}"
                if c.is_one():
                    term = xk
                elif c == GaussianRational(-1):
                    term = f"-{xk}"
                else:
                    term = f"{c}*{xk}"
            parts.append(term)
        return signed_sum(parts)


def signed_sum(parts) -> str:
    """Printed terms joined by " + ", or by " - " before a term that starts
    with a minus sign; "0" when there are none."""
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def squarefree_factorization(p: UnivariatePolynomial):
    """Yun's algorithm: list of (monic factor, multiplicity), constants drop out."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree factorization of zero")
    if p.degree() == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = p.gcd(dp)
    b = p.exact_div(a)
    c = dp.exact_div(a)
    d = c - b.derivative()
    out = []
    k = 1
    while b.degree() > 0:
        a = b.gcd(d)
        if a.degree() > 0:
            out.append((a.monic(), k))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        k += 1
    return out


def _poly(cs) -> UnivariatePolynomial:
    """The GaussianRational list cs, top zeros dropped, as a polynomial."""
    while cs and cs[-1].is_zero():
        cs.pop()
    p = object.__new__(UnivariatePolynomial)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


_ONE = UnivariatePolynomial.constant(1)


def _quotient(num, den) -> "RationalFunction":
    """num/den already in normal form: coprime, den monic (0/1 for zero)."""
    f = object.__new__(RationalFunction)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _common(p, q) -> UnivariatePolynomial:
    """gcd(p, q) of nonzero p and q; no gcd runs when one is constant."""
    if p.degree() == 0 or q.degree() == 0:
        return _ONE
    return p.gcd(q)


def _over(t, den, g) -> "RationalFunction":
    """t/den in normal form, for monic den and g | den such that every
    common factor of t and den divides g."""
    if t.is_zero():
        return _quotient(t, _ONE)
    h = _common(t, g)
    if h.degree() > 0:
        return _quotient(t.exact_div(h), den.exact_div(h))
    return _quotient(t, den)


class RationalFunction:
    """Reduced quotient num/den of univariate polynomials: gcd(num, den) = 1
    and den monic (zero is 0/1), so the form is unique and ``==`` compares
    it.

    ``__init__`` normalises any pair.  The operations keep their operands'
    form instead of normalising a whole cross product, so every gcd they
    run is between factors of the result (the rules of the module
    docstring):

    * ``a/b + c/d``: with g = gcd(b, d), b = g s and d = g e, the sum is
      t/(g s e) for t = a e + c s.  An irreducible factor p of t and s
      would divide a e, hence e (a is coprime to b), and p g would divide
      both b and d; likewise for e.  So only gcd(t, g) can be nontrivial.
      No gcd runs when b == d is constant, g = 1 leaves the result
      reduced as it stands, and b == d skips gcd(b, d).
    * ``a/b * c/d``: a and d, and c and b, are cancelled first; the
      product of the cofactors is then reduced (Henrici).
    * ``(a/b)**n`` is a^n/b^n, reduced as it stands.
    * ``(a/b)'``: with g = gcd(b, b') it is (a' (b/g) - a (b'/g))/(b (b/g)).
      Every irreducible p | b divides b/g once, and modulo p, b'/g is m p'
      times a product of factors coprime to p, for p's multiplicity m; in
      characteristic 0 that is not 0.  So p divides the first term of the
      numerator and not the second, and the quotient is reduced.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = UnivariatePolynomial.coerce(num)
        den = _ONE if den is None else UnivariatePolynomial.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = _ONE
        else:
            # skipping the gcd of a constant denominator and the scaling of
            # a monic one leaves the normal form as it is
            if den.degree() > 0:
                g = num.gcd(den)
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            if not den.leading().is_one():
                lead = den.leading().inverse()
                num = num.scale(lead)
                den = den.scale(lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, UnivariatePolynomial):
            return _quotient(value, _ONE)
        return _quotient(UnivariatePolynomial.constant(value), _ONE)

    @staticmethod
    def variable() -> "RationalFunction":
        return _quotient(UnivariatePolynomial.variable(), _ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        return self.num.constant_value()

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return _over(a + c, b, b)
        g = _common(b, d)
        s, e = (b, d) if g.degree() == 0 else (b.exact_div(g), d.exact_div(g))
        return _over(a * e + c * s, b * e, g)

    __radd__ = __add__

    def __neg__(self):
        return _quotient(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) + (-self)

    def __mul__(self, other):
        other = RationalFunction.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return _quotient(UnivariatePolynomial(), _ONE)
        g = _common(a, d)
        if g.degree() > 0:
            a, d = a.exact_div(g), d.exact_div(g)
        g = _common(c, b)
        if g.degree() > 0:
            c, b = c.exact_div(g), b.exact_div(g)
        return _quotient(a * c, b * d)

    __rmul__ = __mul__

    def _reciprocal(self) -> "RationalFunction":
        """den/num, scaled to a monic denominator."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        lead = self.num.leading()
        if lead.is_one():
            return _quotient(self.den, self.num)
        lead = lead.inverse()
        return _quotient(self.den.scale(lead), self.num.scale(lead))

    def __truediv__(self, other):
        return self * RationalFunction.coerce(other)._reciprocal()

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self._reciprocal() ** -n
        return _quotient(self.num ** n, self.den ** n)

    def derivative(self) -> "RationalFunction":
        a, b = self.num, self.den
        if b.degree() == 0:
            return _quotient(a.derivative(), b)
        db = b.derivative()
        g = _common(b, db)
        s, db = (b, db) if g.degree() == 0 else \
            (b.exact_div(g), db.exact_div(g))
        return _quotient(a.derivative() * s - a * db, b * s)

    def __call__(self, x):
        if isinstance(x, (int, Fraction, GaussianRational)):
            d = self.den(x)
            if d.is_zero():
                raise ZeroDivisionError("evaluation at a pole")
            return self.num(x) / d
        return self.num(x) / self.den(x)

    def __eq__(self, other):
        try:
            other = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return self.format()

    def format(self, var: str = "x") -> str:
        if self.is_polynomial():
            return self.num.format(var)
        return f"({self.num.format(var)})/({self.den.format(var)})"


class BivariatePolynomial:
    """P(x, y) stored as a polynomial in y over Q(i)[x].

    ``rows[j]`` is the univariate coefficient of y^j.  Content in y is *not*
    forcibly removed on construction; call :meth:`primitive_y` when a caller
    needs the normalized curve.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rs = [UnivariatePolynomial.coerce(r) for r in rows]
        while rs and rs[-1].is_zero():
            rs.pop()
        object.__setattr__(self, "rows", tuple(rs))

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    # --- constructors ----------

    @staticmethod
    def constant(c) -> "BivariatePolynomial":
        return BivariatePolynomial([UnivariatePolynomial.constant(c)])

    @staticmethod
    def var_x() -> "BivariatePolynomial":
        return BivariatePolynomial([UnivariatePolynomial.variable()])

    @staticmethod
    def var_y() -> "BivariatePolynomial":
        return BivariatePolynomial([UnivariatePolynomial(),
                                    UnivariatePolynomial.constant(1)])

    @staticmethod
    def coerce(value) -> "BivariatePolynomial":
        if isinstance(value, BivariatePolynomial):
            return value
        if isinstance(value, UnivariatePolynomial):
            return BivariatePolynomial([value])
        return BivariatePolynomial.constant(value)

    # --- structure ----------

    def is_zero(self) -> bool:
        return not self.rows

    def degree_y(self) -> int:
        return len(self.rows) - 1

    def degree_x(self) -> int:
        return max((r.degree() for r in self.rows), default=-1)

    def coefficient_y(self, j: int) -> UnivariatePolynomial:
        if 0 <= j < len(self.rows):
            return self.rows[j]
        return UnivariatePolynomial()

    def coefficient(self, i: int, j: int) -> GaussianRational:
        return self.coefficient_y(j).coefficient(i)

    def leading_y(self) -> UnivariatePolynomial:
        if not self.rows:
            raise ZeroPolynomial("zero polynomial")
        return self.rows[-1]

    # --- ring operations ----------

    def __add__(self, other):
        other = BivariatePolynomial.coerce(other)
        n = max(len(self.rows), len(other.rows))
        return BivariatePolynomial(
            [self.coefficient_y(j) + other.coefficient_y(j) for j in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial([-r for r in self.rows])

    def __sub__(self, other):
        return self + (-BivariatePolynomial.coerce(other))

    def __rsub__(self, other):
        return BivariatePolynomial.coerce(other) + (-self)

    def __mul__(self, other):
        other = BivariatePolynomial.coerce(other)
        if self.is_zero() or other.is_zero():
            return BivariatePolynomial()
        out = [UnivariatePolynomial()] * (len(self.rows) + len(other.rows) - 1)
        for j1, r1 in enumerate(self.rows):
            if r1.is_zero():
                continue
            for j2, r2 in enumerate(other.rows):
                out[j1 + j2] = out[j1 + j2] + r1 * r2
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, BivariatePolynomial.constant(1))

    # --- views / substitutions ----------

    def derivative_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            [r.scale(j) for j, r in enumerate(self.rows)][1:])

    def derivative_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial([r.derivative() for r in self.rows])

    def __call__(self, x, y):
        if isinstance(x, (int, Fraction, GaussianRational)) and \
                isinstance(y, (int, Fraction, GaussianRational)):
            acc = ZERO
            for r in reversed(self.rows):
                acc = acc * GaussianRational.coerce(y) + r(x)
            return acc
        acc = 0j
        yc = complex(y)
        for r in reversed(self.rows):
            acc = acc * yc + r(x)
        return acc

    def shift_x(self, a) -> "BivariatePolynomial":
        return BivariatePolynomial([r.shift(a) for r in self.rows])

    def primitive_y(self) -> "BivariatePolynomial":
        """Divide out the x-content so the curve is primitive in y."""
        if self.is_zero():
            return self
        g = UnivariatePolynomial()
        for r in self.rows:
            g = g.gcd(r) if not g.is_zero() else \
                (r.monic() if not r.is_zero() else g)
            if g.degree() == 0:
                break
        if g.is_zero() or g.degree() == 0:
            return self
        return BivariatePolynomial([r.exact_div(g) for r in self.rows])

    def squarefree_y(self) -> bool:
        """True when P has no repeated factor in y (gcd with dP/dy trivial)."""
        if self.degree_y() < 1:
            return True
        r = resultant_y(self, self.derivative_y())
        return not r.is_zero()

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"BivariatePolynomial(deg_x={self.degree_x()}, deg_y={self.degree_y()})"

    def __str__(self):
        return self.format()

    def format(self, xvar: str = "x", yvar: str = "y") -> str:
        parts = []
        for j in range(self.degree_y(), -1, -1):
            row = self.coefficient_y(j)
            if row.is_zero():
                continue
            if j == 0:
                parts.append(row.format(xvar))
                continue
            yj = yvar if j == 1 else f"{yvar}^{j}"
            if row.is_constant() and row.constant_value().is_one():
                parts.append(yj)
            elif row.is_constant():
                parts.append(f"{row.constant_value()}*{yj}")
            else:
                parts.append(f"({row.format(xvar)})*{yj}")
        return signed_sum(parts)


def resultant_y(P: BivariatePolynomial, Q: BivariatePolynomial) -> UnivariatePolynomial:
    """Res_y(P, Q), exact.

    Sign convention (documented and bit-stable): the Sylvester matrix puts
    P's coefficient rows first and writes coefficients lowest y-degree
    first, so Res_y(y - a, y - b) = b - a for monic linear inputs.  In the
    usual highest-first convention this is Res(Q, P).

    Computed from the tail of the subresultant recurrence over Z[i][x]
    (``_recurrence``), which puts the higher y-degree first; Res(P, Q) =
    (-1)^(deg P deg Q) Res(Q, P).
    """
    P = BivariatePolynomial.coerce(P)
    Q = BivariatePolynomial.coerce(Q)
    if P.is_zero() or Q.is_zero():
        raise ZeroPolynomial("resultant of the zero polynomial")
    seq, _, res, _ = _recurrence(P, Q)
    return -res if seq[0] is P and P.degree_y() * Q.degree_y() % 2 else res


def _recurrence(P: BivariatePolynomial, Q: BivariatePolynomial):
    """(seq, members, resultant, back) for the pair seq = [F, G], P and Q
    with the higher y-degree n first: the members after F and G of the
    recurrence of ``gaussvec.subresultants``, as Z[i][x] rows, and
    Res(F, G) in y, highest-first, over Q(i)[x].

    The recurrence runs on aF and bG, for the least integers a and b that
    make them Gaussian-integral.  Their j-th subresultant, a determinant
    of m - j rows of F's coefficients and n - j rows of G's (m = deg G), is
    a^(m-j) b^(n-j) times that of F and G; so are the member after one of
    y-degree j + 1, and the resultant (j = 0).  ``back(u, j)`` divides the
    vector u by that factor, and the resultant is divided back once.
    """
    seq = sorted((P, Q), key=BivariatePolynomial.degree_y, reverse=True)
    (a, F), (b, G) = map(gaussvec.clear_rows, (seq[0].rows, seq[1].rows))
    members, psi, _ = gaussvec.subresultants(F, G)
    n, m = len(F) - 1, len(G) - 1

    def back(u, j):
        return _poly(gaussvec.rationals(u, a ** (m - j) * b ** (n - j)))

    return seq, members, back(gaussvec.resultant(F, G, members, psi), 0), back


def subresultant_prs(P: BivariatePolynomial, Q: BivariatePolynomial):
    """([P, Q, R_1, R_2, ...], resultant): the subresultant remainder
    sequence in y over Q(i)[x], the higher y-degree first (Collins;
    Brown-Traub, JACM 1971), and the resultant of its first two members,
    highest-first.  Each R of y-degree i is similar over Q(i)(x) to the
    i-th subresultant; the signs are Brown's (ACM TOMS 1978), as in
    sympy's ``subresultants``.  Each member is divided back once from the
    recurrence of ``_recurrence``.
    """
    seq, members, res, back = _recurrence(P, Q)
    degrees = [R.degree_y() for R in seq] + [len(R) - 1 for R in members]
    seq += [BivariatePolynomial([back(r, j - 1) for r in R])
            for R, j in zip(members, degrees[1:])]
    return seq, res


def series_mul(a, b, order, zero):
    """a * b truncated at s^order, for coefficient lists lowest first of
    ``complex`` or GaussianRational; zero terms are skipped and each sum
    starts from ``zero``."""
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai == zero:
            continue
        for j, bj in enumerate(b[:order + 1 - i]):
            if bj != zero:
                out[i + j] = out[i + j] + ai * bj
    return out


def series_inverse(a, order, zero):
    """1/a truncated at s^order, for a series with a[0] != 0."""
    a0 = a[0]
    inv = [1 / a0]
    for m in range(1, order + 1):
        acc = zero
        for k in range(1, min(m, len(a) - 1) + 1):
            acc = acc + a[k] * inv[m - k]
        inv.append(-acc / a0)
    return inv


def series_power(a, alpha, order, g0):
    """a^alpha truncated at s^order, for a[0] != 0 and g0 a value of
    a[0]^alpha, by J.C.P. Miller's recurrence from a g' = alpha a' g:
    m a_0 g_m = sum_{k=1..m} ((alpha + 1) k - m) a_k g_{m-k}."""
    g = [g0]
    for m in range(1, order + 1):
        acc = ZERO
        for k in range(1, min(m, len(a) - 1) + 1):
            acc = acc + ((alpha + 1) * k - m) * a[k] * g[m - k]
        g.append(acc / (m * a[0]))
    return g


def discriminant_y(P: BivariatePolynomial) -> UnivariatePolynomial:
    """(-1)^{n(n-1)/2} Res_y(P, dP/dy) / lc_y(P), exact."""
    P = BivariatePolynomial.coerce(P)
    n = P.degree_y()
    if n < 2:
        raise DegreeTooLow("discriminant requires degree >= 2 in y")
    res = resultant_y(P, P.derivative_y())
    disc = res.exact_div(P.leading_y())
    if (n * (n - 1) // 2) % 2:
        disc = -disc
    return disc


def singular_locator(P: BivariatePolynomial) -> UnivariatePolynomial:
    """squarefree_part(lc_y(P) * disc_y(P)), from one resultant: disc_y
    vanishes exactly when P has a repeated y-factor."""
    disc = discriminant_y(P)
    if disc.is_zero():
        raise SquareFreeRequired(
            "P has repeated y-factors; deflate before monodromy")
    return (P.leading_y() * disc).squarefree_part()
