"""Rational-function integration in Liouville form.

integrate_rational produces r0 + sum lambda_i ln r_i with r0 rational and
square-free, monic, pairwise coprime log arguments: Hermite reduction via
p-adic digits and extended gcds removes all higher-order poles exactly, and
the Rothstein-Trager resultant delivers the residues.  Rational residues
stay Gaussian-rational; irrational ones are carried exactly as roots of a
square-free factor m(t) of the resultant, with the log argument a
polynomial over the quotient ring Q(i)[t]/(m) (dynamic evaluation splits m
whenever a zero divisor shows up).

The whole form differentiates back exactly: conjugate log sums reduce to
coefficient-wise traces over the quotient ring, so ``LiouvilleForm.derivative``
returns a plain rational function and the identity d(form)/dx = f is
checkable with no floating point at all.
"""

from __future__ import annotations

from fractions import Fraction

from ..algebra.gaussian import GaussianRational
from ..algebra.poly import (BivariatePolynomial, RationalFunction,
                            UnivariatePolynomial, interpolate, resultant_y,
                            squarefree_factorization)
from ..algebra.roots import complex_roots, exact_gaussian_roots
from ..config import ROOT_TOL
from ..errors import ZeroPolynomial


class _SplitNeeded(Exception):
    """Raised when a quotient-ring inverse discovers a factor of m."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__("modulus split")


class QuotientRing:
    """Q(i)[t] / (m(t)) with m square-free (not necessarily irreducible)."""

    def __init__(self, modulus: UnivariatePolynomial):
        self.modulus = modulus.monic()
        self.degree = self.modulus.degree()

    def element(self, poly) -> "RingElement":
        return RingElement(self, UnivariatePolynomial.coerce(poly) % self.modulus)

    def t(self) -> "RingElement":
        return self.element(UnivariatePolynomial.variable())

    def one(self) -> "RingElement":
        return self.element(1)

    def zero(self) -> "RingElement":
        return self.element(0)


class RingElement:
    __slots__ = ("ring", "poly")

    def __init__(self, ring: QuotientRing, poly: UnivariatePolynomial):
        self.ring = ring
        self.poly = poly

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other):
        return RingElement(self.ring, (self.poly + other.poly)
                           % self.ring.modulus)

    def __sub__(self, other):
        return RingElement(self.ring, (self.poly - other.poly)
                           % self.ring.modulus)

    def __neg__(self):
        return RingElement(self.ring, -self.poly)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return RingElement(self.ring, (self.poly * other.poly)
                               % self.ring.modulus)
        return RingElement(self.ring, self.poly.scale(other))

    def inverse(self) -> "RingElement":
        g, s, _t = self.poly.extended_gcd(self.ring.modulus)
        if g.degree() != 0:
            raise _SplitNeeded(g)
        return RingElement(self.ring, s.scale(g.constant_value().inverse())
                           % self.ring.modulus)

    def trace(self) -> GaussianRational:
        """Trace of the multiplication-by-self operator on the quotient."""
        m = self.ring.modulus
        d = self.ring.degree
        total = GaussianRational(0)
        basis = UnivariatePolynomial.constant(1)
        for k in range(d):
            prod = (self.poly * basis) % m
            total = total + prod.coefficient(k)
            basis = (basis * UnivariatePolynomial.variable()) % m
        return total

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.poly == other.poly

    def __repr__(self):
        return f"RingElement({self.poly.format('t')})"


# polynomials in x with RingElement coefficients as plain lists (low first)

def _rpoly_trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _rpoly_mod(a, b):
    """Remainder of RingElement-coefficient polynomials, b monic."""
    a = list(a)
    while len(a) >= len(b) and a:
        c = a[-1]
        if not c.is_zero():
            for k in range(len(b) - 1):
                a[len(a) - len(b) + k] = a[len(a) - len(b) + k] - c * b[k]
        a.pop()
        _rpoly_trim(a)
    return a


def _rpoly_monic(a):
    inv = a[-1].inverse()
    return [c * inv for c in a[:-1]] + [a[0].ring.one()]


def _rpoly_gcd(a, b):
    """Monic gcd by the Euclidean scheme, normalizing every remainder to
    curb coefficient growth (inverses may raise _SplitNeeded)."""
    a, b = list(a), list(b)
    while b:
        b = _rpoly_monic(b)
        a, b = b, _rpoly_mod(a, b)
    return a


def _rpoly_derivative(a):
    return _rpoly_trim([a[k] * k for k in range(1, len(a))])


def _rpoly_div_exact(num, den):
    """Exact division of RingElement-coefficient polynomials."""
    num = list(num)
    out = [None] * (len(num) - len(den) + 1)
    inv_lead = den[-1].inverse()
    for pos in range(len(num) - len(den), -1, -1):
        c = num[pos + len(den) - 1] * inv_lead
        out[pos] = c
        for k in range(len(den)):
            num[pos + k] = num[pos + k] - c * den[k]
    return _rpoly_trim(out)


class AlgebraicResidueBlock:
    """Conjugate family: sum over roots t of m(t) of t * ln g(t, x)."""

    def __init__(self, ring: QuotientRing, argument):
        self.ring = ring            # modulus m(t), square-free
        self.argument = list(argument)  # RingElement coeffs, monic in x

    def modulus(self) -> UnivariatePolynomial:
        return self.ring.modulus

    def residue_enclosures(self, tol=ROOT_TOL):
        return [enc.center for enc, _ in complex_roots(self.ring.modulus, tol)]

    def derivative_contribution(self) -> RationalFunction:
        """d/dx of the conjugate log sum, exactly.

        Sum over conjugates of t g_x/g = Tr(t g_x q) / Norm(g), where
        Norm(g) = Res_t(m, g) and q = Norm / g in the quotient ring.
        """
        ring = self.ring
        m = ring.modulus
        g = self.argument
        # Norm via the bivariate resultant: encode m and g as polynomials in
        # t over Q(i)[x] and eliminate t
        m_rows = [UnivariatePolynomial.constant(c) for c in m.coeffs]
        g_rows = []
        max_tdeg = max(c.poly.degree() for c in g)
        for td in range(max_tdeg + 1):
            g_rows.append(UnivariatePolynomial(
                [c.poly.coefficient(td) for c in g]))
        norm = resultant_y(BivariatePolynomial([r for r in m_rows]),
                           BivariatePolynomial(g_rows))
        # q = Norm / g in the ring's polynomial arithmetic
        norm_as_rpoly = [ring.element(UnivariatePolynomial.constant(c))
                         for c in norm.coeffs]
        q = _rpoly_div_exact(norm_as_rpoly, g)
        gx = _rpoly_derivative(g)
        prod = _rpoly_mul(gx, q)
        t_el = ring.t()
        numerator_coeffs = [(t_el * c).trace() for c in prod]
        numerator = UnivariatePolynomial(numerator_coeffs)
        return RationalFunction(numerator, norm)

    def format(self) -> str:
        arg = _rpoly_format(self.argument)
        return (f"RootSum(t | {self.ring.modulus.format('t')}, "
                f"t*ln({arg}))")


def _rpoly_mul(a, b):
    ring = a[0].ring
    out = [ring.zero() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _rpoly_trim(out)


def _rpoly_format(coeffs) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k].poly
        if c.is_zero():
            continue
        if c.degree() == 0:
            cs = str(c.constant_value())
        else:
            cs = f"({c.format('t')})"
        if k == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append("x" if k == 1 else f"x^{k}")
        else:
            parts.append(f"{cs}*" + ("x" if k == 1 else f"x^{k}"))
    return " + ".join(parts) if parts else "0"


class LogTerm:
    """lambda * ln(argument) with exact Gaussian-rational lambda."""

    def __init__(self, lam: GaussianRational, argument: UnivariatePolynomial):
        if lam.is_zero():
            raise ValueError("lambda must be nonzero")
        self.lam = lam
        self.argument = argument.monic()

    def derivative_contribution(self) -> RationalFunction:
        return RationalFunction(self.argument.derivative().scale(self.lam),
                                self.argument)

    def format(self) -> str:
        return f"{self.lam}*ln({self.argument.format()})"


class LiouvilleForm:
    """r0(x) + sum lambda_i ln r_i(x), residues exact."""

    def __init__(self, r0: RationalFunction, logs, blocks=()):
        self.r0 = r0
        self.logs = list(logs)          # LogTerm (rational lambda)
        self.blocks = list(blocks)      # AlgebraicResidueBlock

    def derivative(self) -> RationalFunction:
        total = self.r0.derivative()
        for term in self.logs:
            total = total + term.derivative_contribution()
        for block in self.blocks:
            total = total + block.derivative_contribution()
        return total

    def format(self) -> str:
        parts = []
        if not self.r0.is_zero():
            parts.append(self.r0.format())
        parts.extend(term.format() for term in self.logs)
        parts.extend(block.format() for block in self.blocks)
        return " + ".join(parts) if parts else "0"

    def to_json(self, root_tol=ROOT_TOL):
        """The report form; algebraic residues are certified to root_tol."""
        logs = [{"lambda": str(term.lam), "arg": term.argument.format()}
                for term in self.logs]
        for block in self.blocks:
            encl = block.residue_enclosures(root_tol)
            logs.append({
                "lambda": f"RootOf({block.ring.modulus.format('t')})",
                "lambda_enclosures": [[z.real, z.imag] for z in encl],
                "arg": _rpoly_format(block.argument),
            })
        return {"r0": self.r0.format(), "logs": logs}

    def __repr__(self):
        return f"LiouvilleForm({self.format()})"


# --- Hermite reduction -----------------------------------------------------


def _padic_digits(num: UnivariatePolynomial, base: UnivariatePolynomial):
    digits = []
    rest = num
    while not rest.is_zero():
        rest, digit = rest.divmod(base)
        digits.append(digit)
    return digits


def _hermite_component(num: UnivariatePolynomial, base: UnivariatePolynomial,
                       power: int):
    """Reduce num / base^power (base square-free).

    Returns (r0 contribution, residual numerator M) with the component equal
    to d(r0)/dx-free terms plus M/base, deg M < deg base.  Uses the Bezout
    identity 1 = sigma base + tau base' and integration by parts:
    N/base^j = N sigma / base^(j-1) + d/dx(-N tau / ((j-1) base^(j-1)))
               + (N tau)' / ((j-1) base^(j-1)).
    """
    r0 = RationalFunction.coerce(0)
    _g, sigma, tau = base.extended_gcd(base.derivative())
    levels = {}
    for k, digit in enumerate(_padic_digits(num, base)):
        j = power - k
        levels[j] = levels.get(j, UnivariatePolynomial()) + digit
    for j in range(power, 1, -1):
        n_cur = levels.get(j)
        if n_cur is None or n_cur.is_zero():
            continue
        t_part = n_cur * tau
        r0 = r0 + RationalFunction(t_part.scale(Fraction(-1, j - 1)),
                                   base ** (j - 1))
        bump = n_cur * sigma + t_part.derivative().scale(Fraction(1, j - 1))
        levels[j - 1] = levels.get(j - 1, UnivariatePolynomial()) + bump
    n1 = levels.get(1, UnivariatePolynomial())
    if n1.is_zero():
        return r0, n1
    quotient, residual = n1.divmod(base)
    if not quotient.is_zero():
        r0 = r0 + RationalFunction(quotient.antiderivative())
    return r0, residual


def integrate_rational(f: RationalFunction) -> LiouvilleForm:
    """Liouville form of the indefinite integral of a rational function.

    The algebraic part comes from the polynomial quotient and Hermite
    reduction; the residues from the Rothstein-Trager resultant, kept exact
    (Gaussian-rational when possible, else as conjugate root families).
    The identity derivative() == f holds exactly.
    """
    f = RationalFunction.coerce(f)
    if f.is_zero():
        return LiouvilleForm(RationalFunction.coerce(0), [])
    quotient, rest = f.num.divmod(f.den)
    r0 = RationalFunction(quotient.antiderivative())
    logs = []
    blocks = []
    if not rest.is_zero():
        proper = RationalFunction(rest, f.den)
        pieces = _split_squarefree(proper)
        residue_num = UnivariatePolynomial()
        residue_den = UnivariatePolynomial.constant(1)
        for base, power, num in pieces:
            part_r0, residual = _hermite_component(num, base, power)
            r0 = r0 + part_r0
            if not residual.is_zero():
                # accumulate residual / base over pairwise coprime bases
                residue_num = residue_num * base + residual * residue_den
                residue_den = residue_den * base
        if not residue_num.is_zero():
            logs, blocks = _rothstein_trager(residue_num, residue_den)
    return LiouvilleForm(r0, logs, blocks)


def _split_squarefree(proper: RationalFunction):
    """[(base, power, numerator)] over the square-free power factorization."""
    den = proper.den
    factors = squarefree_factorization(den)
    pieces = []
    numerators = []
    remaining = proper.num
    remaining_den = den
    for base, power in factors:
        block = base ** power
        other = remaining_den.exact_div(block)
        # split remaining / (block * other) = a/block + b/other:
        # with 1 = s block + t other, a = remaining t mod block and then
        # b = (remaining - a other) / block exactly
        _g, s, t = block.extended_gcd(other)
        a = (remaining * t) % block
        b = (remaining - a * other).exact_div(block)
        pieces.append((base, power, a))
        remaining = b
        remaining_den = other
    return pieces


def _rothstein_trager(num: UnivariatePolynomial, den: UnivariatePolynomial):
    """Log terms of num/den with den square-free, deg num < deg den."""
    den = den.monic()
    dden = den.derivative()
    # R(t) = Res_x(num - t den', den), exact, by interpolation over integer
    # t with a Euclidean resultant per sample (cheap at desk degrees)
    bound = den.degree()
    generic_deg = max(num.degree(), dden.degree())
    ts, values = [], []
    t = 0
    while len(ts) <= bound:
        tg = GaussianRational(t)
        spec = num - dden.scale(tg)
        t += 1
        if spec.degree() != generic_deg:
            continue  # leading coefficient vanished; node would shrink the
            # Sylvester structure and break the interpolation
        ts.append(tg)
        values.append(spec.resultant(den))
    resultant = interpolate(ts, values)
    if resultant.is_zero():
        raise ZeroPolynomial("degenerate Rothstein-Trager resultant")
    squarefree = resultant.squarefree_part()
    rational_roots, residual = exact_gaussian_roots(squarefree)
    logs = []
    for lam, _mult in rational_roots:
        if lam.is_zero():
            continue
        arg = (num - dden.scale(lam)).gcd(den)
        logs.append(LogTerm(lam, arg))
    blocks = []
    if residual.degree() > 0:
        blocks.extend(_algebraic_blocks(residual, num, den))
    return logs, blocks


def _algebraic_blocks(modulus: UnivariatePolynomial,
                      num: UnivariatePolynomial,
                      den: UnivariatePolynomial):
    """Conjugate residue families over Q(i)[t]/(m), splitting m on zero
    divisors (dynamic evaluation)."""
    queue = [modulus.monic()]
    blocks = []
    while queue:
        m = queue.pop()
        if m.degree() == 0:
            continue
        ring = QuotientRing(m)
        try:
            a_coeffs = _rpoly_trim(
                [ring.element(UnivariatePolynomial.constant(c))
                 - ring.t() * ring.element(UnivariatePolynomial.constant(d))
                 for c, d in zip(_padded(num, den), _padded_d(num, den))])
            g = _rpoly_gcd(a_coeffs,
                           [ring.element(UnivariatePolynomial.constant(c))
                            for c in den.coeffs])
        except _SplitNeeded as split:
            factor = split.factor.monic()
            queue.append(factor)
            queue.append(m.exact_div(factor).monic())
            continue
        blocks.append(AlgebraicResidueBlock(ring, g))
    return blocks


def _padded(num: UnivariatePolynomial, den: UnivariatePolynomial):
    length = max(num.degree(), den.derivative().degree()) + 1
    return [num.coefficient(k) for k in range(length)]


def _padded_d(num: UnivariatePolynomial, den: UnivariatePolynomial):
    length = max(num.degree(), den.derivative().degree()) + 1
    dd = den.derivative()
    return [dd.coefficient(k) for k in range(length)]
