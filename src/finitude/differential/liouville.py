"""Rational-function integration in Liouville form.

integrate_rational produces r0 + sum lambda_i ln r_i with r0 rational and
square-free, monic, pairwise coprime log arguments.  Mack's linear Hermite
reduction, one inverse modulo a square-free part per multiplicity level,
removes all higher-order poles exactly and leaves the canonical r0: the
antiderivative of the polynomial quotient, with constant term 0, plus a
proper rational function.  One subresultant sequence of den and
num - t den' then gives both the Rothstein-Trager resultant
R(t) = Res_x(den, num - t den'), from its tail, and the log arguments
(Lazard-Rioboo-Trager): the residues whose log argument has x-degree i
are the roots of Q_i in R = prod Q_i^i, and the primitive part of the
member of degree i serves them all.  The roots of
each Q_i are certified once, to ``root_tol``, and recognised as Gaussian
rational or not where they are found, so each residue's class is known.
Rational residues stay Gaussian-rational and take that member at the
residue; irrational ones are carried exactly as roots of the rest m(t) of
Q_i, with their enclosures and the log argument g(t, x) that member made
monic in x, its coefficients polynomials in t reduced mod m.  The inverses
modulo m and modulo the square-free parts, the arithmetic mod m and the
sequence itself run on Gaussian-integer vectors (``gaussvec``).

The whole form differentiates back exactly: a conjugate log sum has the
derivative Tr(t g_x q) / den, with q = den / g mod m and the trace a sum
over the power sums of the roots of m.  Each g(a, x) is gcd(den,
num - a den'), so it divides the square-free denominator den the block
came from; an exact division modulo m checks that, and the Norm
Res_t(m, g) takes den's place only where it fails.  So
``LiouvilleForm.derivative`` returns a plain rational function and the
identity d(form)/dx = f is checkable with no floating point at all.
"""

from __future__ import annotations

from ..algebra import gaussvec
from ..algebra.gaussian import ZERO, GaussianRational
from ..algebra.poly import (BivariatePolynomial, RationalFunction,
                            UnivariatePolynomial, resultant_y,
                            squarefree_factorization, subresultant_prs)
from ..algebra.roots import exact_gaussian_roots
from ..config import ROOT_TOL
from ..errors import ZeroPolynomial


class AlgebraicResidueBlock:
    """Conjugate family: sum over roots t of m(t) of t * ln g(t, x).

    ``argument`` is g as a BivariatePolynomial in which x plays y: row k is
    the coefficient of x^k, a polynomial in t reduced mod m; g is monic in x.
    ``multiple`` is a polynomial in x that g divides modulo m: the
    square-free denominator of the part the block integrates.
    ``enclosures`` are the certified centres of the roots of m, sorted by
    (real, imaginary) part.
    """

    def __init__(self, modulus: UnivariatePolynomial,
                 argument: BivariatePolynomial, enclosures,
                 multiple: UnivariatePolynomial):
        self.modulus = modulus      # m(t), monic and square-free
        self.argument = argument
        self.enclosures = list(enclosures)
        self.multiple = multiple

    def derivative_contribution(self) -> RationalFunction:
        """d/dx of the conjugate log sum, exactly.

        Sum over conjugates of t g_x/g = Tr(t g_x q) / N for every nonzero
        N that g divides modulo m, with q = N / g modulo m, since then
        N = g(a, x) q(a, x) at each root a.  Tr(t c) is sum_k c_k p_{k+1}
        with p_j the power sums of the roots of m.  N is ``multiple`` once
        ``_quotient_mod`` has checked that division, and otherwise the
        Norm Res_t(m, g), which g always divides.
        """
        m, g, multiple = self.modulus, self.argument, self.multiple
        quotient = _quotient_mod(multiple, g, m)
        if quotient is None:
            multiple = _resultant_norm(m, g)
            quotient = _quotient_mod(multiple, g, m)
        prod = g.derivative_y() * quotient
        sums = _power_sums(m, max(row.degree() for row in prod.rows) + 1)
        numerator = UnivariatePolynomial(
            [sum((c * p for c, p in zip(row.coeffs, sums)), ZERO)
             for row in prod.rows])
        return RationalFunction(numerator, multiple)

    def format_argument(self) -> str:
        parts = []
        for k in range(self.argument.degree_y(), -1, -1):
            c = self.argument.rows[k]
            if c.is_zero():
                continue
            cs = str(c.constant_value()) if c.degree() == 0 \
                else f"({c.format('t')})"
            xk = "x" if k == 1 else f"x^{k}"
            if k == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(xk)
            else:
                parts.append(f"{cs}*{xk}")
        return " + ".join(parts) if parts else "0"

    def format(self) -> str:
        return (f"RootSum(t | {self.modulus.format('t')}, "
                f"t*ln({self.format_argument()}))")


def _quotient_mod(num: UnivariatePolynomial, g: BivariatePolynomial,
                  m: UnivariatePolynomial):
    """num / g modulo m, for g monic in x (x plays y), or None when g does
    not divide num modulo m; on cleared vectors (``gaussvec.quotient_mod``)."""
    rows = gaussvec.quotient_mod(num.coeffs, g.rows, m.coeffs)
    return None if rows is None else BivariatePolynomial(
        [UnivariatePolynomial(row) for row in rows])


def _resultant_norm(m: UnivariatePolynomial, g: BivariatePolynomial):
    """Norm(g) = Res_t(m, g) exactly, up to sign: t is eliminated as the y
    of both."""
    t_rows = [UnivariatePolynomial([row.coefficient(j) for row in g.rows])
              for j in range(max(row.degree() for row in g.rows) + 1)]
    return resultant_y(BivariatePolynomial(m.coeffs),
                       BivariatePolynomial(t_rows))


def _power_sums(m: UnivariatePolynomial, count: int):
    """[p_1, ..., p_count]: the power sums of the roots of the monic m, by
    Newton's identities."""
    a, d = m.coeffs, m.degree()
    sums = [GaussianRational(d)]  # p_0
    for j in range(1, count + 1):
        s = a[d - j] * j if j <= d else ZERO
        for i in range(1, min(j - 1, d) + 1):
            s = s + a[d - i] * sums[j - i]
        sums.append(-s)
    return sums[1:]


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

    def to_json(self):
        """The report form, with the centres of the algebraic residues."""
        logs = [{"lambda": str(term.lam), "arg": term.argument.format()}
                for term in self.logs]
        for block in self.blocks:
            logs.append({
                "lambda": f"RootOf({block.modulus.format('t')})",
                "lambda_enclosures": [[z.real, z.imag]
                                      for z in block.enclosures],
                "arg": block.format_argument(),
            })
        return {"r0": self.r0.format(), "logs": logs}

    def __repr__(self):
        return f"LiouvilleForm({self.format()})"


# --- Hermite reduction -----------------------------------------------------


def _hermite_reduce(num: UnivariatePolynomial, den: UnivariatePolynomial):
    """(g, h) with num/den = g' + h, g proper and den(h) square-free, for
    num/den proper: Mack's linear Hermite reduction (Bronstein, Symbolic
    Integration I, 2.2).

    With D- = gcd(D, D') and D* = D/D-, each multiplicity level solves
    B (-D* D-'/D-) + C D-* = A with deg B < deg D-*, where D-* is the
    square-free part of D-, and sets A <- C - B' D*/D-*, g <- g + B/D-.
    """
    g = RationalFunction.coerce(0)
    d_minus = den.gcd(den.derivative())
    d_star = den.exact_div(d_minus)
    while d_minus.degree() > 0:
        d_minus2 = d_minus.gcd(d_minus.derivative())
        d_minus_star = d_minus.exact_div(d_minus2)
        a = -(d_star * d_minus.derivative()).exact_div(d_minus)
        s = UnivariatePolynomial(
            gaussvec.inverse_mod(a.coeffs, d_minus_star.coeffs))
        b = (num * s) % d_minus_star
        c = (num - b * a).exact_div(d_minus_star)
        num = c - b.derivative() * d_star.exact_div(d_minus_star)
        g = g + RationalFunction(b, d_minus)
        d_minus = d_minus2
    return g, RationalFunction(num, d_star)


def integrate_rational(f: RationalFunction,
                       root_tol: float = ROOT_TOL) -> LiouvilleForm:
    """Liouville form of the indefinite integral of a rational function.

    r0 is the antiderivative of the polynomial quotient, with constant term
    0, plus the proper rational part from Hermite reduction; the residues
    come from Rothstein-Trager, kept exact (Gaussian-rational when
    possible, else as conjugate root families whose roots are certified to
    ``root_tol``).  The identity derivative() == f holds exactly.
    """
    f = RationalFunction.coerce(f)
    quotient, rest = f.num.divmod(f.den)
    g, h = _hermite_reduce(rest, f.den)
    logs, blocks = ([], []) if h.is_zero() \
        else _rothstein_trager(h.num, h.den, root_tol)
    return LiouvilleForm(RationalFunction(quotient.antiderivative()) + g,
                         logs, blocks)


def _rothstein_trager(num: UnivariatePolynomial, den: UnivariatePolynomial,
                      root_tol: float):
    """Log terms of num/den with den monic and square-free, deg num < deg den.

    Lazard-Rioboo-Trager: one subresultant sequence of den and
    A = num - t den' gives both R(t) = Res_x(den, A), from its tail, and the
    log arguments.  Split as R = prod Q_i^i, the log argument of the
    residues in Q_i is S_i, the primitive part in x of the member of
    x-degree i (den itself for i = deg den).  At a root a of
    Q_i, gcd(den, A(a, x)) has degree i, so the i-th principal subresultant
    coefficient does not vanish at a; the member of degree i is similar to
    that subresultant over Q(i)(t), so both have the same primitive part,
    and its leading coefficient, which divides that coefficient, is a unit
    mod Q_i.  So S_i(a, x) is that gcd, up to a constant.
    """
    dden = den.derivative()
    # A(t, x) = num - t den' and den, with x as the y
    length = max(num.degree(), dden.degree()) + 1
    A = BivariatePolynomial(
        [UnivariatePolynomial([num.coefficient(k), -dden.coefficient(k)])
         for k in range(length)])
    seq, resultant = subresultant_prs(BivariatePolynomial(den.coeffs), A)
    if seq[-1].degree_y() > 0:
        raise ZeroPolynomial("degenerate Rothstein-Trager resultant")
    members = {S.degree_y(): S for S in seq}
    classes = squarefree_factorization(resultant)
    arguments = {i: members[i].primitive_y() for _q, i in classes}
    rational, rest = exact_gaussian_roots(classes, root_tol)
    logs = [LogTerm(lam, UnivariatePolynomial(
                [row(lam) for row in arguments[i].rows]))
            for lam, i in rational if not lam.is_zero()]
    blocks = []
    for q, i in classes:
        enclosures = [enc.center for enc, j in rest if j == i]
        if not enclosures:
            continue
        m = q
        for lam, j in rational:
            if j == i:
                m = m.exact_div(UnivariatePolynomial([-lam, 1]))
        S = arguments[i]
        # g = S / lc_x(S) mod m, monic in x
        inv = gaussvec.inverse_mod(S.leading_y().coeffs, m.coeffs)
        rows = gaussvec.multiply_mod([row.coeffs for row in S.rows[:-1]],
                                     inv, m.coeffs)
        blocks.append(AlgebraicResidueBlock(m, BivariatePolynomial(
            [UnivariatePolynomial(row) for row in rows] + [1]), enclosures,
            den))
    return logs, blocks
