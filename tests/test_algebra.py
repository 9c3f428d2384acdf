"""Exact arithmetic, parser, resultants, and certified roots."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from finitude.algebra import (BivariatePolynomial, GaussianRational,
                              RationalFunction, UnivariatePolynomial,
                              complex_roots, discriminant_y, exact_nth_root,
                              parse_bivariate, parse_expression,
                              parse_rational, parse_univariate, resultant_y,
                              squarefree_factorization)
from finitude.errors import (DegreeTooLow, ExprSyntaxError,
                             NonPolynomialExponent, UndeclaredVariable)


def rand_gauss(rng, bound=20):
    return GaussianRational(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)),
                            Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)))


class TestGaussianRational:
    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            a, b = rand_gauss(rng), rand_gauss(rng)
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a * b) / b == a

    def test_conjugation_involution(self):
        rng = random.Random(8)
        for _ in range(100):
            a = rand_gauss(rng)
            assert a.conjugate().conjugate() == a
            assert (a * a.conjugate()).is_real()

    def test_exact_nth_root(self):
        assert exact_nth_root(GaussianRational(8), 3) == GaussianRational(2)
        assert exact_nth_root(GaussianRational(Fraction(1, 4)), 2) == \
            GaussianRational(Fraction(1, 2))
        assert exact_nth_root(GaussianRational(-1), 2) == GaussianRational(0, 1)
        assert exact_nth_root(GaussianRational(2), 2) is None
        z = GaussianRational(0, 2)  # (1+i)^2 = 2i
        assert exact_nth_root(z, 2) ** 2 == z


class TestParser:
    def test_bivariate_structure(self):
        P = parse_expression("y^5 + y - x", ["x", "y"])
        assert isinstance(P, BivariatePolynomial)
        assert P.degree_y() == 5 and P.degree_x() == 1

    def test_rational_function(self):
        f = parse_expression("1/(x^2-1)", ["x"])
        assert isinstance(f, RationalFunction)
        assert f.den == parse_univariate("x^2-1")
        assert f.num == UnivariatePolynomial.constant(1)

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("y^", ["x", "y"])
        assert err.value.position == 2

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            parse_expression("z + 1", ["x", "y"])

    def test_nonpolynomial_exponent(self):
        with pytest.raises(NonPolynomialExponent):
            parse_expression("x^-2 + y", ["x", "y"])
        with pytest.raises(NonPolynomialExponent):
            parse_expression("y/x", ["x", "y"])

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
            P = BivariatePolynomial(
                [UnivariatePolynomial(r) for r in rows])
            if P.is_zero():
                continue
            again = parse_bivariate(P.format())
            assert again == P
        for _ in range(25):
            num = UnivariatePolynomial([rng.randint(-9, 9) for _ in range(4)])
            den = UnivariatePolynomial([rng.randint(-9, 9) for _ in range(3)])
            if num.is_zero() or den.is_zero():
                continue
            f = RationalFunction(num, den)
            assert parse_rational(f.format()) == f


class TestResultant:
    def test_spec_examples(self):
        assert resultant_y(parse_bivariate("y^2 - x"),
                           parse_bivariate("2*y")) == parse_univariate("-4*x")
        assert resultant_y(parse_bivariate("y - x"),
                           parse_bivariate("y - x")).is_zero()
        # documented convention: Res_y(y - a, y - b) = b - a
        assert resultant_y(parse_bivariate("y - x"),
                           parse_bivariate("y - 2")) == parse_univariate("2 - x")

    def test_multiplicativity_random(self):
        rng = random.Random(3)
        for _ in range(10):
            def rand_poly(dy, dx):
                return BivariatePolynomial(
                    [UnivariatePolynomial(
                        [rng.randint(-4, 4) for _ in range(dx + 1)])
                     for _ in range(dy + 1)])
            P = rand_poly(2, 1) + BivariatePolynomial.var_y() ** 2
            Q = rand_poly(1, 1) + BivariatePolynomial.var_y()
            R = rand_poly(1, 1) + BivariatePolynomial.var_y()
            assert resultant_y(P, Q * R) == resultant_y(P, Q) * resultant_y(P, R)


def _oracle_pairs(count=60):
    """Seeded pairs (P, Q) with small Gaussian-integer coefficients; in half
    of them lc_y(P) = x(x - 1) and in a third lc_y(Q) = x - 2, so that some
    interpolation nodes of resultant_y are skipped."""
    rng = random.Random(2024)

    def curve(degree, lead):
        rows = [UnivariatePolynomial(
            [GaussianRational(rng.randint(-4, 4),
                              rng.choice([0, 0, rng.randint(-2, 2)]))
             for _ in range(rng.randint(1, 3))]) for _ in range(degree)]
        return BivariatePolynomial(rows + [lead])

    for k in range(count):
        lead_p = UnivariatePolynomial([0, -1, 1]) if k % 2 == 0 else \
            UnivariatePolynomial([rng.randint(1, 4), rng.randint(-3, 3)])
        lead_q = UnivariatePolynomial([-2, 1]) if k % 3 == 0 else \
            UnivariatePolynomial([rng.randint(1, 4)])
        yield curve(rng.randint(1, 4), lead_p), curve(rng.randint(1, 3), lead_q)


X, Y = sympy.symbols("x y")


def to_sympy(P):
    rows = P.rows if isinstance(P, BivariatePolynomial) else [P]
    return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * X ** i * Y ** j
               for j, row in enumerate(rows) for i, c in enumerate(row.coeffs))


class TestSympyOracle:
    """The exact layer against sympy, an independent implementation."""

    def test_resultant_against_sylvester_determinant(self):
        for P, Q in _oracle_pairs():
            # highest-first Sylvester matrix of (Q, P): Res_y(P, Q) = Res(Q, P)
            matrix = DomainMatrix.from_Matrix(
                sylvester(to_sympy(Q), to_sympy(P), Y))
            oracle = matrix.domain.to_sympy(matrix.det())
            assert sympy.expand(to_sympy(resultant_y(P, Q)) - oracle) == 0, \
                (str(P), str(Q))

    def test_discriminant_against_sympy(self):
        checked = 0
        for P in (P for pair in _oracle_pairs() for P in pair):
            if P.degree_y() < 2:
                continue
            oracle = sympy.discriminant(to_sympy(P), Y)
            assert sympy.expand(to_sympy(discriminant_y(P)) - oracle) == 0, \
                str(P)
            checked += 1
        assert checked >= 60


class TestDiscriminant:
    def test_spec_examples(self):
        assert discriminant_y(parse_bivariate("y^2 - x")) == \
            parse_univariate("4*x")
        assert discriminant_y(parse_bivariate("y^2 - (x^2 - 1)")) == \
            parse_univariate("4*x^2 - 4")
        with pytest.raises(DegreeTooLow):
            discriminant_y(parse_bivariate("y - x"))

    def test_quintic(self):
        assert discriminant_y(parse_bivariate("y^5 + y - x")) == \
            parse_univariate("3125*x^4 + 256")


class TestSquarefree:
    def test_spec_examples(self):
        p = parse_univariate("(x-1)^2*(x+2)")
        assert squarefree_factorization(p) == [
            (parse_univariate("x+2"), 1), (parse_univariate("x-1"), 2)]
        assert squarefree_factorization(parse_univariate("x^2+1")) == [
            (parse_univariate("x^2+1"), 1)]
        assert squarefree_factorization(UnivariatePolynomial.constant(5)) == []

    def test_reconstruction_random(self):
        rng = random.Random(5)
        for _ in range(20):
            p = UnivariatePolynomial.constant(1)
            for _ in range(rng.randint(1, 3)):
                factor = UnivariatePolynomial(
                    [rng.randint(-5, 5), rng.randint(-5, 5), 1])
                p = p * factor ** rng.randint(1, 3)
            rebuilt = UnivariatePolynomial.constant(1)
            for f, m in squarefree_factorization(p):
                rebuilt = rebuilt * f ** m
            assert rebuilt == p.monic()


class TestComplexRoots:
    def test_quadratic_i(self):
        roots = [e.center for e, _ in complex_roots(parse_univariate("x^2+1"))]
        assert sorted(z.imag for z in roots) == pytest.approx([-1.0, 1.0])

    def test_cube_roots_of_unity(self):
        roots = [e.center for e, _ in complex_roots(parse_univariate("x^3-1"))]
        assert all(abs(z ** 3 - 1) < 1e-9 for z in roots)
        assert len(roots) == 3

    def test_multiplicity(self):
        pairs = complex_roots(parse_univariate("(x-2)^2*(x+1)"))
        by_mult = sorted((m, e.center) for e, m in pairs)
        assert by_mult[0][0] == 1 and abs(by_mult[0][1] + 1) < 1e-9
        assert by_mult[1][0] == 2 and abs(by_mult[1][1] - 2) < 1e-9

    def test_certification_bound(self):
        rng = random.Random(13)
        for _ in range(15):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))] + [1]
            p = UnivariatePolynomial(coeffs)
            tol = 1e-10
            maxc = max(abs(c) for c in p.coeffs)
            for enc, _ in complex_roots(p, tol):
                z = enc.center
                bound = p.degree() * tol * maxc * max(1.0, abs(z)) ** p.degree()
                assert abs(p(z)) <= max(bound, 1e-9)

    def test_disjoint_enclosures(self):
        pairs = complex_roots(parse_univariate("x^5 - x"), 1e-12)
        encs = [e for e, _ in pairs]
        for i, a in enumerate(encs):
            for b in encs[:i]:
                assert not a.overlaps(b)


class TestRationalFunction:
    def test_normalization(self):
        f = RationalFunction(parse_univariate("2*x^2 - 2"),
                             parse_univariate("4*x - 4"))
        assert f == parse_rational("(x+1)/2")
        assert f.den.leading().is_one()
        assert f.num.gcd(f.den).degree() == 0

    def test_derivative_quotient_rule(self):
        f = parse_rational("(x^2+1)/(x-2)")
        g = f.derivative()
        h = parse_rational("(x^2 - 4*x - 1)/(x^2 - 4*x + 4)")
        assert g == h
