"""Exact arithmetic, parser, resultants, and certified roots."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from finitude.algebra import (BivariatePolynomial, GaussianRational,
                              RationalFunction, UnivariatePolynomial,
                              complex_roots, discriminant_y, exact_nth_root,
                              gaussvec, modular, parse_bivariate,
                              parse_expression, parse_rational,
                              parse_univariate, poly, resultant_y, roots,
                              squarefree_factorization)
from finitude.errors import (DegreeTooLow, ExprSyntaxError,
                             IterationLimitExceeded, NonPolynomialExponent,
                             UndeclaredVariable)
from finitude.algebra.poly import subresultant_prs
from finitude.differential import integrate_rational


def rand_gauss(rng, bound=20):
    return GaussianRational(Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)),
                            Fraction(rng.randint(-bound, bound),
                                     rng.randint(1, bound)))


def _reference_operands(count):
    """Seeded operand pairs, each a pair of (re, im) Fractions."""
    rng = random.Random(11)
    huge = 10**60

    def part(shared):
        kind = rng.randrange(6)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return Fraction(rng.randint(-9, 9))
        if kind == 2:
            return Fraction(rng.randint(-huge, huge), rng.randint(1, huge))
        if kind == 3:  # shares its denominator with the other operand
            return Fraction(rng.randint(-40, 40), shared)
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    zero = (Fraction(0), Fraction(0))
    for k in range(count):
        shared = rng.choice([6, 12, 35, huge + 1])
        x = (part(shared), part(shared))
        y = (part(shared), part(shared))
        if k % 50 == 0:
            x = zero
        elif k % 50 == 1:
            y = zero
        yield x, y


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] ** 2 + x[1] ** 2
    return (x[0] / n, -x[1] / n)


def _ref_str(re, im):
    """The format of a (Fraction, Fraction) pair, written out apart from
    GaussianRational.__str__."""
    if not im:
        return str(re)
    if not re:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    mag = abs(im)
    return "({}{}{})".format(re, "+" if im > 0 else "-",
                             "i" if mag == 1 else f"{mag}*i")


def _check_scalar(g, ref):
    re, im = Fraction(ref[0]), Fraction(ref[1])
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == (re, im)
    # normalised triple (a + b i)/d: unique, so == may compare triples
    a, b, d = g._a, g._b, g._d
    assert d > 0 and math.gcd(a, b, d) == 1
    if not re and not im:
        assert (a, b, d) == (0, 0, 1)
    assert Fraction(a, d) == re and Fraction(b, d) == im
    assert hash(g) == (hash(re) if not im else hash((re, im)))
    assert str(g) == _ref_str(re, im)
    assert repr(g) == f"GaussianRational({re!r}, {im!r})"
    assert g.is_zero() == (re == 0 and im == 0)
    assert (g.im == 0) == (im == 0)
    assert g.is_integer() == (im == 0 and re.denominator == 1)
    assert g.is_one() == (re == 1 and im == 0)


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
            assert (a * a.conjugate()).im == 0

    def test_against_fraction_pairs(self):
        """Every operation against a plain (Fraction, Fraction) reference,
        on seeded operands that include zero, integers, shared
        denominators and 60-digit numerators and denominators."""
        for x, y in _reference_operands(2000):
            g, h = GaussianRational(*x), GaussianRational(*y)
            _check_scalar(g, x)
            _check_scalar(g + h, (x[0] + y[0], x[1] + y[1]))
            _check_scalar(g - h, (x[0] - y[0], x[1] - y[1]))
            _check_scalar(-g, (-x[0], -x[1]))
            _check_scalar(g * h, _ref_mul(x, y))
            _check_scalar(g.conjugate(), (x[0], -x[1]))
            assert g.norm() == x[0] ** 2 + x[1] ** 2
            assert type(g.norm()) is Fraction
            _check_scalar(g ** 3, _ref_mul(x, _ref_mul(x, x)))
            if y == (0, 0):
                for divide in (lambda: g / h, h.inverse, lambda: h ** -1):
                    with pytest.raises(ZeroDivisionError):
                        divide()
                continue
            _check_scalar(g / h, _ref_mul(x, _ref_inverse(y)))
            _check_scalar(h.inverse(), _ref_inverse(y))
            inv = _ref_inverse(y)
            _check_scalar(h ** -2, _ref_mul(inv, inv))

    def test_cancellation_against_fraction_pairs(self):
        """Operands built from the primes 2, 3, 5 and 13, so that sums and
        products cancel partly against the denominators, including the
        split primes 2 = -i(1 + i)^2, 5 = (2 + i)(2 - i) and 13 that divide
        the product of two non-real values with coprime parts."""
        rng = random.Random(12)

        def smooth():
            return math.prod(rng.choice([1, 1, 2, 3, 5, 13])
                             for _ in range(rng.randrange(5)))

        def part():
            if rng.randrange(4) == 0:
                return Fraction(0)
            sign = rng.choice([1, -1])
            return Fraction(sign * smooth() * rng.choice([1, 1, 7, 10**40 + 3]),
                            smooth())

        splits = [(1, 1), (2, 1), (2, -1), (3, 2), (1, 2), (5, 0), (0, 13)]
        for k in range(1500):
            x, y = (part(), part()), (part(), part())
            if k % 3 == 0:  # numerators that are Gaussian primes over 5, 13
                den = smooth()
                x = tuple(Fraction(v, den) for v in rng.choice(splits))
                y = tuple(Fraction(v, smooth()) for v in rng.choice(splits))
            g, h = GaussianRational(*x), GaussianRational(*y)
            _check_scalar(g + h, (x[0] + y[0], x[1] + y[1]))
            _check_scalar(g - h, (x[0] - y[0], x[1] - y[1]))
            _check_scalar(g - g, (0, 0))
            _check_scalar(g * h, _ref_mul(x, y))
            _check_scalar(g * g.conjugate(), (x[0] ** 2 + x[1] ** 2, 0))
            if y != (0, 0):
                _check_scalar(g / h, _ref_mul(x, _ref_inverse(y)))

    def test_equality_with_numbers(self):
        for x, _ in _reference_operands(300):
            g = GaussianRational(*x)
            assert g == GaussianRational(*x) and not g != GaussianRational(*x)
            assert g != GaussianRational(x[0] + 1, x[1])
            assert g != GaussianRational(x[0], x[1] + Fraction(1, 3))
            if x[1] == 0:
                assert g == x[0] and x[0] == g
                assert {x[0]: "key"}[g] == "key"
                if x[0].denominator == 1:
                    assert g == int(x[0]) and int(x[0]) == g
                    assert {int(x[0]): "key"}[g] == "key"
            else:
                assert g != x[0]
        assert GaussianRational(Fraction(1, 2), Fraction(-3, 4)) == \
            complex(0.5, -0.75)
        assert GaussianRational(Fraction(1, 3)) != complex(1 / 3)
        assert GaussianRational(3) == 3.0
        assert GaussianRational(0, 1) != "i"

    def test_formatting(self):
        cases = [((0, 0), "0",
                  "GaussianRational(Fraction(0, 1), Fraction(0, 1))"),
                 ((3, 0), "3", None), ((0, 1), "i", None),
                 ((0, -1), "-i", None),
                 ((0, Fraction(-2, 3)), "-2/3*i", None),
                 ((Fraction(1, 2), -1), "(1/2-i)", None),
                 ((Fraction(-1, 6), Fraction(5, 4)),
                  "(-1/6+5/4*i)",
                  "GaussianRational(Fraction(-1, 6), Fraction(5, 4))")]
        for parts, text, rep in cases:
            g = GaussianRational(*parts)
            assert str(g) == text
            if rep is not None:
                assert repr(g) == rep

    def test_huge_parts_convert_to_finite_floats(self):
        g = GaussianRational(Fraction(10**400 + 1, 10**399))
        assert complex(g) == complex(10.0)
        assert abs(g) == 10.0
        h = GaussianRational(Fraction(1, 3 * 10**400), Fraction(10**400, 7))
        assert complex(h / GaussianRational(0, 10**400)) == \
            complex(1 / 7, 0.0)

    def test_immutable(self):
        g = GaussianRational(1, 2)
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 3)
        assert g == GaussianRational(1, 2)

    def test_exact_nth_root(self):
        assert exact_nth_root(GaussianRational(8), 3) == GaussianRational(2)
        assert exact_nth_root(GaussianRational(Fraction(1, 4)), 2) == \
            GaussianRational(Fraction(1, 2))
        assert exact_nth_root(GaussianRational(-1), 2) == GaussianRational(0, 1)
        assert exact_nth_root(GaussianRational(2), 2) is None
        z = GaussianRational(0, 2)  # (1+i)^2 = 2i
        assert exact_nth_root(z, 2) ** 2 == z

    def test_exact_nth_root_out_of_float_range(self):
        # exact whatever the size: no value outside double range is
        # converted to a float
        big = GaussianRational(Fraction(2 * 10 ** 200 - 1, 3), 10 ** 190)
        assert exact_nth_root(big * big, 2) == big
        assert exact_nth_root(big * big + 1, 2) is None
        assert exact_nth_root(big ** 5, 5) ** 5 == big ** 5
        assert exact_nth_root(GaussianRational(10 ** 600 + 1), 3) is None
        assert exact_nth_root(GaussianRational(Fraction(-27, 10 ** 30)),
                              3) == GaussianRational(Fraction(-3, 10 ** 10))
        assert exact_nth_root(GaussianRational(-4), 4) ** 4 == -4
        # seeded Gaussian integers up to 10^300: v^n is a power, v^n + 1 not
        rng = random.Random(32)
        for n in range(3, 10):
            for digits in (1, 20, 100, 300):
                v = GaussianRational(rng.randint(-10 ** digits, 10 ** digits),
                                     rng.randint(-10 ** digits, 10 ** digits))
                assert exact_nth_root(v ** n, n) ** n == v ** n
                assert exact_nth_root(v ** n + 1, n) is None


def _random_expression(rng, names, depth=4):
    """A seeded random expression tree over ``names`` as (text, value): the
    leaves are small integers, ``i`` and the names, the nodes + - * /, unary
    minus and exponents in -3..4, with parentheses where the grammar needs
    them and at random.  The value is the sympy value of the tree, or the
    error class of the first bad divisor met leaf to root and left to right,
    the parser's order: ExprSyntaxError for a zero divisor and, over two
    names, NonPolynomialExponent for one that holds a variable.  Over two
    names a divisor is built from constants alone half of the time."""
    symbols = {"i": sympy.I, "x": X, "y": Y}

    def divide(num, den):
        for v in (num, den):
            if isinstance(v, type):
                return v
        den = sympy.cancel(den)
        if den == 0:
            return ExprSyntaxError
        if len(names) == 2 and den.free_symbols:
            return NonPolynomialExponent
        return num / den

    def wrap(node, level):
        # levels: 0 sum, 1 product, 2 signed or powered factor, 3 base
        text, value, have = node
        if have < level or rng.random() < 0.1:
            return f"({text})", value, 3
        return node

    def tree(depth, leaves):
        kind = rng.randrange(7) if depth else 0
        if kind == 0:
            leaf = rng.choice(["0", "1", "2", "3", "5", "i", *leaves, *leaves])
            return leaf, symbols.get(leaf) or sympy.Integer(leaf), 3
        if kind == 1:
            text, value, _ = wrap(tree(depth - 1, leaves), 2)
            return "-" + text, value if isinstance(value, type) else -value, 2
        if kind == 2:
            text, value, _ = wrap(tree(depth - 1, leaves), 3)
            k = rng.randint(-3, 4)
            if not isinstance(value, type):
                value = value ** k if k >= 0 \
                    else divide(sympy.Integer(1), value ** -k)
            return f"{text}^{k}", value, 2
        op = "+-*/"[kind - 3]
        low = 0 if op in "+-" else 1
        lhs = wrap(tree(depth - 1, leaves), low)
        rhs_leaves = () if op == "/" and len(names) == 2 \
            and rng.random() < 0.5 else leaves
        rhs = wrap(tree(depth - 1, rhs_leaves), low + 1)
        a, b = lhs[1], rhs[1]
        if op == "/":
            value = divide(a, b)
        elif isinstance(a, type) or isinstance(b, type):
            value = a if isinstance(a, type) else b
        else:
            value = {"+": a + b, "-": a - b, "*": a * b}[op]
        return f"{lhs[0]}{op}{rhs[0]}", value, low

    text, value, _ = tree(depth, tuple(names))
    return text, value


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

    def test_exponent_bound(self):
        # |n| times the degree of the base may reach 1000, not more; on a
        # constant c, |n| log2 of c's numerator modulus or denominator
        # (the bits the parts of c^n grow by) may reach 10000, not more
        assert parse_expression("(x+1)^1000", ["x"]).num.degree() == 1000
        assert parse_expression("x^-1000", ["x"]).den.degree() == 1000
        assert parse_expression("(x*y)^500", ["x", "y"]).degree_x() == 500
        for text, value in [("(-1)^20000", 1), ("1^10001", 1),
                            ("i^10001", GaussianRational(0, 1)),
                            ("(1+i)^20000", 2 ** 10000),
                            ("2^-10000", Fraction(1, 2 ** 10000))]:
            assert parse_expression(text, ["x"]) == value
        assert parse_expression("2^5001", ["x", "y"]) \
            == parse_expression("2*2^5000", ["x", "y"])
        for text, variables, position in [("x^-1001", ["x"], 1),
                                          ("(x/(x+1))^1001", ["x"], 9),
                                          ("(1/(x^2+1))^501", ["x"], 11),
                                          ("(x*y)^501", ["x", "y"], 5),
                                          ("2^10001", ["x"], 1),
                                          ("(1+i)^20002", ["x"], 5),
                                          ("(1/2)^10001", ["x"], 5),
                                          ("((1-i)/2)^-20002", ["x"], 9),
                                          ("3^6310", ["x", "y"], 1)]:
            with pytest.raises(ExprSyntaxError, match="exponent too large") \
                    as err:
                parse_expression(text, variables)
            assert err.value.position == position

    def test_product_bound(self):
        # the degree of a product or quotient, the sum of its operands'
        # degrees, may reach 1000, and every coefficient of every result
        # may reach 10000 bits, as for a power
        assert parse_expression("x^600*x^400", ["x"]).num.degree() == 1000
        assert parse_expression("x^600/x^-400", ["x"]).num.degree() == 1000
        assert parse_expression("2^5000*2^5000", ["x"]) == 2 ** 10000
        assert parse_expression("2^6000/2^5000", ["x", "y"]).coefficient(
            0, 0) == 2 ** 1000
        # a power on the right is refused at its exponent, before it is
        # expanded; any other operand at the operator
        for text, variables, position in [("x^600*x^401", ["x"], 7),
                                          ("x^600/x^-401", ["x"], 7),
                                          ("(x*y)^300*(x*y)^201",
                                           ["x", "y"], 15),
                                          ("x^600*(x+1)*x^400", ["x"], 13),
                                          ("x^600*(x^401)", ["x"], 5),
                                          ("2^5000*2^5000*2^5000", ["x"], 13),
                                          ("2^5000/2^-5001", ["x"], 6),
                                          ("2^5000*2^5001*x", ["x", "y"], 6)]:
            with pytest.raises(ExprSyntaxError,
                               match="expression too large") as err:
                parse_expression(text, variables)
            assert err.value.position == position
        # a power of a polynomial is bounded by its largest coefficient
        with pytest.raises(ExprSyntaxError, match="exponent too large"):
            parse_expression("(1000000*x+1)^1000", ["x"])

    def test_sum_of_coprime_powers_is_fast(self):
        # the gcds that normalise the sum are proved trivial mod p; Euclid
        # over Q(i) did not finish in minutes
        start = time.perf_counter()
        f = parse_rational("1/(x+1)^120 + 1/(x+2)^120")
        assert time.perf_counter() - start < 1.0
        assert f.den == parse_univariate("(x+1)^120*(x+2)^120")

    def test_against_sympy(self):
        rng = random.Random(14)
        seen = {"rational": 0, "polynomial": 0,
                ExprSyntaxError: 0, NonPolynomialExponent: 0}
        for k in range(200):
            names = ["x"] if k % 2 else ["x", "y"]
            text, value = _random_expression(rng, names)
            if isinstance(value, type):
                with pytest.raises(value):
                    parse_expression(text, names)
                seen[value] += 1
                continue
            got = parse_expression(text, names)
            expected = sympy.sympify(text, locals={"i": sympy.I, "x": X,
                                                   "y": Y})
            if names == ["x"]:
                num, den = sympy.fraction(sympy.cancel(expected))
                lead = sympy.Poly(den, X, domain="QQ_I").LC()
                assert _sympy_poly(got.num) == \
                    sympy.Poly(num / lead, X, domain="QQ_I"), text
                assert _sympy_poly(got.den) == \
                    sympy.Poly(den / lead, X, domain="QQ_I"), text
                seen["rational"] += 1
            else:
                assert sympy.Poly(to_sympy(got), X, Y, domain="QQ_I") == \
                    sympy.Poly(expected, X, Y, domain="QQ_I"), text
                seen["polynomial"] += 1
        assert min(seen.values()) >= 10, seen

    def test_negative_power_of_the_variable(self):
        # one variable: x^-2 is 1/x^2, as 1/x^2 is
        assert parse_rational("x^-2") == parse_rational("1/x^2") == \
            RationalFunction(1, parse_univariate("x^2"))

    def test_variable_in_nested_divisor_is_rejected(self):
        # two variables: every divisor must be constant, not only the
        # quotient that the whole expression reduces to
        with pytest.raises(NonPolynomialExponent):
            parse_bivariate("y^3 - x/(1/x)")

    def test_zero_divisor(self):
        for text, names in [("1/0", ["x"]), ("(x-x)^-1", ["x"]),
                            ("y^2 - x/(1-1)", ["x", "y"])]:
            with pytest.raises(ExprSyntaxError, match="division by zero"):
                parse_expression(text, names)

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


def _product_pairs(count=240):
    """Seeded pairs of coefficient lists over Q(i) of degrees 0-40, a third
    of them both of degree 16 or more, with parts of 3 to 200 bits over
    denominators 1 to 2^40; some real, some imaginary, some with zero runs
    at the bottom, top and inside, and some the same list twice."""
    rng = random.Random(2121)

    def draw(length, bits, kind):
        def part():
            value = rng.getrandbits(bits) - (1 << (bits - 1))
            return Fraction(value, rng.choice([1, 1, 2, 6, 35,
                                               rng.getrandbits(40) + 1]))
        coeffs = [GaussianRational(0 if kind == "imaginary" else part(),
                                   0 if kind == "real" else part())
                  for _ in range(length)]
        if kind == "padded" and length:
            start = rng.randrange(length)
            stop = rng.randrange(start, length)
            coeffs[start:stop] = [GaussianRational(0)] * (stop - start)
            coeffs[0] = GaussianRational(0)
        return coeffs + [GaussianRational(rng.randint(1, 9),
                                          rng.randint(-1, 1))]

    kinds = ["gaussian", "real", "imaginary", "padded"]
    for k in range(count):
        bits = rng.choice([3, 8, 30, 64, 200])
        lengths = [rng.randint(0, 40), rng.randint(0, 40)]
        if k % 3 == 0:
            lengths = [rng.randint(16, 40)] * 2
        p = draw(lengths[0], bits, kinds[k % 4])
        q = p if k % 7 == 0 else draw(lengths[1], bits, kinds[k // 4 % 4])
        yield p, q


class TestProducts:
    def test_products_against_schoolbook(self):
        """Q(i)[x] products on Gaussian-integer vectors against plain
        schoolbook products of GaussianRationals."""
        for p, q in _product_pairs():
            expected = [GaussianRational(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    expected[i + j] = expected[i + j] + a * b
            f = UnivariatePolynomial(p)
            got = f * (f if q is p else UnivariatePolynomial(q))
            assert got == UnivariatePolynomial(expected)
            for c in got.coeffs:  # normalised triples
                assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1

    def test_powers_against_repeated_products(self):
        g = GaussianRational(Fraction(2, 3), -1)
        f = parse_univariate("x^2 - (1 + i)*x + 1/2")
        P = parse_bivariate("x*y^2 + y - 3")
        for value, one in ((g, GaussianRational(1)),
                           (f, UnivariatePolynomial.constant(1)),
                           (P, BivariatePolynomial.constant(1))):
            expected = one
            for n in range(7):
                assert value ** n == expected
                expected = expected * value
        # a negative power of a polynomial raises, and does not loop
        for value in (f, P):
            with pytest.raises(ValueError):
                value ** -1


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


def _tail_pairs():
    """Pairs (P, Q) whose subresultant sequence ends in a step from y-degree
    e to 0 for e = 2, 3 and 4, each also with Q of the higher y-degree:
    binomials with their y-derivatives, and y^n + c(x) against y^k + d(x)."""
    for text in ("y^3 - x", "y^4 + x", "y^5 - x", "2*y^4 - x^2 + i",
                 "y^5/3 + (x + 1)/2"):
        P = parse_bivariate(text)
        yield P, P.derivative_y()
        yield P.derivative_y(), P
    for texts in (("y^4 - x", "y^2 - 1"), ("y^6 + x^2", "y^3 + 2*x"),
                  ("y^5 - x^2 + 1", "3*y^4/2 + x")):
        P, Q = map(parse_bivariate, texts)
        yield P, Q
        yield Q, P


def _inverse_pairs(count=60):
    """Seeded (a, m, kind) with a coprime to m: Gaussian-integer and
    Gaussian-rational coefficients, deg a below and at least deg m, and
    the pairs of Hermite reduction, a = -D* D-'/D- modulo the square-free
    part D-* of D- = gcd(D, D'), for D with repeated factors."""
    rng = random.Random(2203)

    def draw(degree, integral):
        def coefficient():
            if integral:
                return GaussianRational(rng.randint(-9, 9), rng.randint(-3, 3))
            return GaussianRational(Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 12)),
                                    Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 5)))
        return UnivariatePolynomial([coefficient() for _ in range(degree)]
                                    + [rng.choice([1, 2, 3, -1])])

    produced = 0
    while produced < count:
        kind = ("integral", "non-integral", "hermite")[produced % 3]
        if kind == "hermite":
            den = UnivariatePolynomial.constant(1)
            for _ in range(rng.randint(1, 2)):
                den = den * draw(rng.randint(1, 2), True) ** rng.randint(2, 3)
            den = (den * draw(rng.randint(0, 2), False)).monic()
            d_minus = den.gcd(den.derivative())
            m = d_minus.exact_div(d_minus.gcd(d_minus.derivative()))
            a = -(den.exact_div(d_minus) * d_minus.derivative()) \
                .exact_div(d_minus)
        else:
            m = draw(rng.randint(1, 6), kind == "integral")
            a = draw(rng.randint(0, 9), kind == "integral")
        if _sympy_poly(a).gcd(_sympy_poly(m)).degree() > 0:
            continue
        produced += 1
        yield a, m, kind


def _nonintegral_pairs(count=40):
    """Seeded pairs (P, Q) over Q(i) whose coefficients have denominators
    2, 3, 5 and 7 in both P and Q, with either of the two of higher
    y-degree or both of one degree."""
    rng = random.Random(2117)

    def coefficient():
        return GaussianRational(
            Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7])),
            rng.choice([0, Fraction(rng.randint(-4, 4),
                                    rng.choice([2, 3, 5, 7]))]))

    def curve(degree):
        rows = [UnivariatePolynomial([coefficient()
                                      for _ in range(rng.randint(1, 3))])
                for _ in range(degree)]
        lead = UnivariatePolynomial([Fraction(rng.randint(1, 6),
                                              rng.choice([2, 3, 5, 7])),
                                     coefficient()])
        return BivariatePolynomial(rows + [lead])

    for k in range(count):
        degrees = [rng.randint(2, 4), rng.randint(1, 3)]
        if k % 4 == 1:
            degrees.reverse()
        elif k % 4 == 2:
            degrees[1] = degrees[0]
        yield curve(degrees[0]), curve(degrees[1])


X, Y = sympy.symbols("x y")


def _rothstein_trager_pair(integrand):
    """(den, num - t den') with x as the y and t as the x, for a proper
    integrand num/den with monic den."""
    f = parse_rational(integrand)
    dden = f.den.derivative()
    return BivariatePolynomial(f.den.coeffs), BivariatePolynomial(
        [UnivariatePolynomial([f.num.coefficient(k), -dden.coefficient(k)])
         for k in range(f.den.degree())])


# sequences that skip x-degrees, the last three in their final step; the
# last one also reaches its second-to-last member by a skip (6 -> 2), where
# psi is not lc_x of that member
DEFECTIVE_PAIRS = {"1/(x^4 + 2)": [4, 3, 1, 0],
                   "(2*x^2 + 3)/(x^6 - 4)": [6, 5, 3, 2, 1, 0],
                   "x^2/(x^6+1)": [6, 5, 3, 2, 0],
                   "x^3/(x^8+3)": [8, 7, 4, 3, 0],
                   "(9*x^8+18*x^5+9*x^2)/(x^9+3*x^6+3*x^3+2)":
                       [9, 8, 6, 2, 0]}


def _integrands(count=12):
    """Seeded proper integrands with small integer coefficients; every
    other denominator is x^n + a x^j + b with j <= n - 3 over a numerator
    of degree at most n - 4, whose sequence then skips degrees."""
    rng = random.Random(2042)
    units = [-3, -2, -1, 1, 2, 3]
    for k in range(count):
        n = rng.randint(4, 6)
        if k % 2:
            den = [rng.randint(-4, 4) for _ in range(n)] + [1]
            num = [rng.choice(units)] + [rng.randint(-4, 4)
                                         for _ in range(rng.randint(0, n - 1))]
        else:
            den = [rng.choice(units)] + [0] * (n - 1) + [1]
            den[rng.randint(1, n - 3)] = rng.randint(-4, 4)
            num = [rng.choice(units)] + [rng.randint(-4, 4)
                                         for _ in range(rng.randint(0, n - 4))]
        yield (f"({UnivariatePolynomial(num).format()})/"
               f"({UnivariatePolynomial(den).format()})")


def _planted_polynomials(count=60):
    """Seeded triples (p, q, c): p and q share the planted factor c, and p
    carries a repeated factor; coefficients are small Gaussian rationals."""
    rng = random.Random(2031)

    def poly(degree):
        coeffs = [GaussianRational(Fraction(rng.randint(-5, 5),
                                            rng.randint(1, 3)),
                                   rng.choice([0, 0, rng.randint(-3, 3)]))
                  for _ in range(degree)]
        return UnivariatePolynomial(coeffs + [rng.randint(1, 3)])

    for _ in range(count):
        common = poly(rng.randint(1, 3))
        repeated = poly(rng.randint(1, 2))
        p = common * repeated ** rng.randint(2, 3) * poly(rng.randint(0, 2))
        q = common * poly(rng.randint(0, 3))
        yield p, q, common


def _coprimality_pairs(count=200):
    """Seeded pairs over Q(i): random ones, mostly coprime; ones with a
    planted common factor; and ones whose leading coefficient vanishes
    under i -> s mod the first prime p (p itself, s - i) or has no image
    there (1/p), some of them through a common factor whose image is a
    constant."""
    rng = random.Random(1971)
    p, s = modular.PRIMES[0]

    def draw(degree):
        return UnivariatePolynomial([rand_gauss(rng, 9) for _ in range(degree)]
                                    + [rand_gauss(rng, 9)])

    vanishing = [GaussianRational(p), GaussianRational(s, -1),
                 GaussianRational(Fraction(p, 7)),
                 GaussianRational(Fraction(1, p))]
    for k in range(count):
        a, b = draw(rng.randint(1, 5)), draw(rng.randint(1, 5))
        if k % 4 == 1:
            common = draw(rng.randint(1, 2))
            a, b = a * common, b * common
        elif k % 4 == 2:
            lead = UnivariatePolynomial.monomial(rng.choice(vanishing),
                                                 a.degree() + 1)
            if k % 8 == 2:  # a common factor that maps to a constant
                common = lead + 1
                a, b = a * common, b * common
            else:
                a = a + lead
        yield a, b, k % 4 == 2


def _principal_coefficient(P, Q, j):
    """The j-th principal subresultant coefficient of P and Q of y-degrees
    n >= m: the minor of the highest-first Sylvester matrix on its first
    m - j rows (of P) and n - j rows (of Q) and n + m - 2j columns."""
    n, m = P.degree_y(), Q.degree_y()
    minor = sylvester(to_sympy(P), to_sympy(Q), Y).extract(
        list(range(m - j)) + list(range(m, m + n - j)),
        list(range(n + m - 2 * j)))
    if not minor.rows:
        return sympy.Integer(1)
    matrix = DomainMatrix.from_Matrix(minor)
    return matrix.domain.to_sympy(matrix.det())


def _sympy_poly(p):
    return sympy.Poly(to_sympy(p), X, domain="QQ_I")


def to_sympy(P):
    rows = P.rows if isinstance(P, BivariatePolynomial) else [P]
    return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * X ** i * Y ** j
               for j, row in enumerate(rows) for i, c in enumerate(row.coeffs))


def _assert_sympy_roots_enclosed(p, tol):
    """Every root of p that sympy's nroots gives to 30 digits lies in an
    enclosure of ``complex_roots(p, tol)`` as often as its multiplicity
    says, and every radius is at most tol * max(1, |centre|); a radius of 0
    claims an exact root, checked by exact evaluation.  The distance to
    the centre may exceed the radius by the 1e-27 relative error that
    nroots keeps (a linear factor's radius is its root's exact distance)."""
    pairs = complex_roots(p, tol)
    assert sum(m for _, m in pairs) == p.degree()
    found = [0] * len(pairs)
    _, factors = sympy.Poly(to_sympy(p), X).sqf_list()
    for root, mult in [(root, mult) for factor, mult in factors
                       for root in factor.nroots(n=30)]:
        hits = []
        for k, (enc, _m) in enumerate(pairs):
            center = GaussianRational(Fraction(enc.center.real),
                                      Fraction(enc.center.imag))
            if enc.radius == 0:
                if p(center).is_zero() and abs(complex(root) - enc.center) \
                        <= 1e-20 * max(1.0, abs(enc.center)):
                    hits.append(k)
                continue
            gap = sympy.N(sympy.Abs(root - to_sympy(
                UnivariatePolynomial([center]))), 30)
            if gap <= enc.radius + 1e-27 * max(1.0, abs(enc.center)):
                hits.append(k)
        assert len(hits) == 1, (p.format(), root, pairs)
        found[hits[0]] += mult
    for (enc, mult), count in zip(pairs, found):
        assert count == mult
        assert enc.radius <= tol * max(1.0, abs(enc.center))
    return pairs


LINEAR_KINDS = ("square", "tall", "wide", "deficient", "zero-column",
                "no-unknowns", "60-bit")


def _linear_systems(count=140):
    """Seeded systems (A, b, kind) over Q(i), A a list of m rows of n
    GaussianRationals, a quarter of them 0: square, tall and wide ones,
    rank-deficient products of an m x r and an r x n matrix, ones with a
    zero column, ones with no unknowns, and ones whose numerators and
    denominators have 60 bits.  b is A x0 for every other pass over the
    kinds, and drawn at random otherwise."""
    rng = random.Random(3701)

    def entry(bits):
        if rng.randrange(4) == 0:
            return GaussianRational(0)
        big = 1 << bits
        return GaussianRational(
            Fraction(rng.randint(-big, big), rng.randint(1, big)),
            Fraction(rng.choice([0, rng.randint(-big, big)]),
                     rng.randint(1, big)))

    def matrix(m, n, bits=4):
        return [[entry(bits) for _ in range(n)] for _ in range(m)]

    def times(A, x):
        return [sum((a * c for a, c in zip(row, x)), GaussianRational(0))
                for row in A]

    for k in range(count):
        kind = LINEAR_KINDS[k % len(LINEAR_KINDS)]
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        if kind == "square":
            n = m
        elif kind == "tall":
            m = n + rng.randint(1, 3)
        elif kind == "wide":
            n = m + rng.randint(1, 3)
        elif kind == "no-unknowns":
            n = 0
        A = matrix(m, n, 60 if kind == "60-bit" else 4)
        if kind == "deficient":
            r = rng.randint(1, min(m, n) - 1)
            B, C = matrix(m, r), matrix(r, n)
            A = [times(list(zip(*C)), row) for row in B]
        elif kind == "zero-column":
            j = rng.randrange(n)
            A = [row[:j] + [GaussianRational(0)] + row[j + 1:] for row in A]
        if k // len(LINEAR_KINDS) % 2 == 0:
            b = times(A, [entry(4) for _ in range(n)])
        else:
            b = [entry(4) for _ in range(m)]
        yield A, b, kind


def _qq_i(g):
    return QQ_I(QQ(g.re.numerator, g.re.denominator),
                QQ(g.im.numerator, g.im.denominator))


class TestSympyOracle:
    """The exact layer against sympy, an independent implementation."""

    def test_solve_against_domain_matrix(self):
        seen, free = set(), 0
        for A, b, kind in _linear_systems():
            m, n = len(A), len(A[0])
            got = gaussvec.solve([gaussvec.clear(row + [c])[1:]
                                  for row, c in zip(A, b)])
            matrix = DomainMatrix([[_qq_i(a) for a in row] for row in A],
                                  (m, n), QQ_I)
            augmented = DomainMatrix([[_qq_i(a) for a in row + [c]]
                                      for row, c in zip(A, b)], (m, n + 1),
                                     QQ_I)
            _, pivots = matrix.rref()
            # None exactly when rank [A | b] > rank A
            assert (got is None) == (augmented.rank() > len(pivots)), kind
            seen.add((kind, got is None))
            if got is None:
                continue
            assert len(got) == n
            for row, c in zip(A, b):
                assert sum((a * v for a, v in zip(row, got)),
                           GaussianRational(0)) == c, kind
            assert all(v.is_zero() for j, v in enumerate(got)
                       if j not in pivots), kind
            free += len(pivots) < n
        assert {(kind, True) for kind in
                ("tall", "deficient", "no-unknowns")} <= seen
        assert {(kind, False) for kind in LINEAR_KINDS} <= seen
        assert free >= 20

    def test_resultant_against_sylvester_determinant(self):
        tails = set()
        for P, Q in [*_oracle_pairs(), *_tail_pairs()]:
            # highest-first Sylvester matrix of (Q, P): Res_y(P, Q) = Res(Q, P)
            matrix = DomainMatrix.from_Matrix(
                sylvester(to_sympy(Q), to_sympy(P), Y))
            oracle = matrix.domain.to_sympy(matrix.det())
            assert sympy.expand(to_sympy(resultant_y(P, Q)) - oracle) == 0, \
                (str(P), str(Q))
            seq, _ = subresultant_prs(P, Q)
            if seq[-1].degree_y() == 0 and len(seq) > 2:
                tails.add(seq[-2].degree_y())
        assert {1, 2, 3, 4} <= tails
        for p, q, _ in list(_coprimality_pairs())[:40]:
            # highest-first, p first
            matrix = DomainMatrix.from_Matrix(
                sylvester(to_sympy(p), to_sympy(q), X))
            oracle = matrix.domain.to_sympy(matrix.det())
            assert sympy.expand(to_sympy(UnivariatePolynomial.constant(
                p.resultant(q))) - oracle) == 0, (str(p), str(q))

    def test_inverse_mod_against_sympy(self):
        seen = set()
        for a, m, kind in _inverse_pairs():
            got = UnivariatePolynomial(gaussvec.inverse_mod(a.coeffs,
                                                            m.coeffs))
            oracle = _sympy_poly(a).invert(_sympy_poly(m))
            assert _sympy_poly(got) == oracle, (str(a), str(m))
            assert got.degree() < m.degree()
            seen.add(kind)
            seen.add("deg a >= deg m" if a.degree() >= m.degree() else "")
        assert {"integral", "non-integral", "hermite",
                "deg a >= deg m"} <= seen

    def test_discriminant_against_sympy(self):
        checked = 0
        for P in (P for pair in [*_oracle_pairs(), *_tail_pairs()]
                  for P in pair):
            if P.degree_y() < 2:
                continue
            oracle = sympy.discriminant(to_sympy(P), Y)
            assert sympy.expand(to_sympy(discriminant_y(P)) - oracle) == 0, \
                str(P)
            checked += 1
        assert checked >= 60

    def test_subresultant_prs_against_sympy(self):
        pairs = list(_oracle_pairs()) + list(_nonintegral_pairs()) + [
            _rothstein_trager_pair(f) for f in (*DEFECTIVE_PAIRS,
                                                *_integrands())]
        defective = skipped_into_tail = 0
        for P, Q in pairs:
            got, resultant = subresultant_prs(P, Q)
            oracle = sympy.subresultants(to_sympy(P), to_sympy(Q), Y)
            assert len(got) == len(oracle), (str(P), str(Q))
            for member, expected in zip(got, oracle):
                assert sympy.expand(to_sympy(member) - expected) == 0, \
                    (str(P), str(Q))
            degrees = [member.degree_y() for member in got]
            defective += any(a - b > 1 for a, b in zip(degrees[1:],
                                                        degrees[2:]))
            # the resultant from the tail, with its sign: the principal
            # subresultant coefficient of y-degree 0
            assert sympy.expand(to_sympy(resultant) - _principal_coefficient(
                *got[:2], 0)) == 0, (str(P), str(Q))
            if degrees[-1] == 0:
                e = degrees[-2]
                skipped_into_tail += len(degrees) > 2 and \
                    degrees[-3] - e > 1 and e > 1
        for integrand, degrees in DEFECTIVE_PAIRS.items():
            seq, _ = subresultant_prs(*_rothstein_trager_pair(integrand))
            assert [member.degree_y() for member in seq] == degrees
        assert defective >= 8 and skipped_into_tail >= 1

    def test_gcd_against_sympy(self):
        for p, q, common in _planted_polynomials():
            got = p.gcd(q)
            oracle = _sympy_poly(p).gcd(_sympy_poly(q)).monic()
            assert _sympy_poly(got) == oracle, (str(p), str(q))
            assert (got % common).is_zero()

    def test_coprimality_certificate_against_sympy(self):
        certified = 0
        for a, b, lead_vanishes in _coprimality_pairs():
            oracle = _sympy_poly(a).gcd(_sympy_poly(b)).monic()
            assert _sympy_poly(a.gcd(b)) == oracle, (str(a), str(b))
            if poly._coprime_mod_p(a, b):
                assert oracle.degree() == 0, (str(a), str(b))
                assert not lead_vanishes
                certified += 1
        assert certified >= 90

    def test_squarefree_against_sympy(self):
        for p, q, _ in _planted_polynomials():
            for f in (p, q * q * p):
                got = {k: _sympy_poly(g) for g, k in squarefree_factorization(f)}
                _, factors = _sympy_poly(f).sqf_list()
                oracle = {k: g.monic() for g, k in factors}
                assert got == oracle, str(f)


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

    def test_cluster_certified_by_exact_refinement(self):
        # three roots within 0.01 of -0.405: double evaluation gives radii
        # up to 7e-12, exact evaluation at the centres certifies them
        p = parse_univariate(
            "41505466019*x^7 + 207527330095*x^6 + 198495887199*x^5"
            " + 14236643445*x^4 - 72014109333*x^3 - 43903936204*x^2"
            " - 10759535932*x - 1001979929")
        assert len(complex_roots(p, 1e-12)) == 7
        _assert_sympy_roots_enclosed(p, 1e-12)

    def test_enclosures_contain_sympy_roots(self):
        rng = random.Random(16)
        for degree in list(range(1, 9)) * 3:
            coeffs = [rand_gauss(rng) for _ in range(degree)]
            if rng.random() < 0.3:  # a real polynomial
                coeffs = [GaussianRational(c.re) for c in coeffs]
            p = UnivariatePolynomial(coeffs + [rng.randint(1, 5)])
            _assert_sympy_roots_enclosed(p, 1e-12)
        # a repeated factor and a root at zero
        _assert_sympy_roots_enclosed(
            parse_univariate("x*(x^2 - 2*x + 5)^2*(3*x - 1)"), 1e-12)

    def test_close_real_residues(self):
        # all four roots of this residue modulus are real, two pairs about
        # 0.088 apart at 3.5e7: +-35355339.0593274 and +-35355338.9709390
        f = parse_rational("100000000/((x^2 - 2)*(100000000*x^2 - 200000001))")
        (block,) = integrate_rational(f).blocks
        pairs = _assert_sympy_roots_enclosed(block.modulus, 1e-12)
        centers = [enc.center for enc, _ in pairs]
        assert all(c.imag == 0 for c in centers)
        assert [round(c.real, 3) for c in centers] == [
            -35355339.059, -35355338.971, 35355338.971, 35355339.059]

    def test_conjugate_pairs_are_exact(self):
        p = parse_univariate("3*x^5 - x^2 + 7*x - 2")
        centers = {enc.center for enc, _ in complex_roots(p)}
        assert {c.conjugate() for c in centers} == centers
        assert sum(c.imag == 0 for c in centers) == 1

    def test_centres_do_not_depend_on_the_seeds(self):
        # exact Newton from perturbed starting points reaches the same
        # rounded root
        p = parse_univariate("x^3 - 2*x + i")
        ints = list(zip(*gaussvec.clear(p.coeffs)[1:]))
        for enc, _ in complex_roots(p):
            for nudge in (1e-9, -3e-10j, 2e-12 + 2e-12j):
                assert roots._finish(ints, enc.center + nudge)[0] \
                    == enc.center

    def test_wider_bound_accepted_after_exact_sweeps(self):
        # no double centre of sqrt(2) meets 1e-20; ``accept`` takes the
        # exact sweeps' enclosures up to its own bound instead of raising
        p = parse_univariate("x^2 - 2")
        with pytest.raises(IterationLimitExceeded):
            complex_roots(p, 1e-20)
        pairs = complex_roots(p, 1e-20, accept=1e-8)
        assert [round(e.center.real, 12) for e, _ in pairs] == [
            -1.414213562373, 1.414213562373]
        assert all(0 < e.radius <= 1e-8 * abs(e.center) for e, _ in pairs)

    @pytest.mark.parametrize("expr", ["x^2 - 10^700", "10^700*x^2 - 1"])
    def test_roots_beyond_double_range_raise(self, expr):
        # roots +-10^350 and +-10^-350: no root is dropped and no infinite
        # radius is built
        with pytest.raises(IterationLimitExceeded):
            complex_roots(parse_univariate(expr))

    @pytest.mark.parametrize("expr, root", [
        ("x^2 - 10^400", 1e200), ("10^400*x^2 - 1", 1e-200)],
        ids=["x^2 - 10^400", "10^400*x^2 - 1"])
    def test_coefficients_beyond_double_range(self, expr, root):
        # the coefficients span more than double range, the roots do not:
        # Aberth runs on p(2^s u), and the radii fall below sqrt(2^-1074)
        pairs = complex_roots(parse_univariate(expr))
        assert [(e.center, m) for e, m in pairs] == [(-root, 1), (root, 1)]
        assert all(0 < e.radius <= 1e-15 * root for e, _ in pairs)

    def test_gaussian_rational_roots_by_leading_coefficient(self):
        # 7 times the centre of 10000019/7 rounds to 10000019, which a
        # continued-fraction guess with denominators up to 1e12 misses
        p = parse_univariate(
            "(7*x - 10000019)^2*(x - 5)^2*(x^2 - 2)*(3*x - 1 - 2*i)")
        found, rest = roots.exact_gaussian_roots(squarefree_factorization(p))
        assert found == [(GaussianRational(Fraction(1, 3), Fraction(2, 3)), 1),
                         (GaussianRational(5), 2),
                         (GaussianRational(Fraction(10000019, 7)), 2)]
        assert [(round(e.center.real, 9), m) for e, m in rest] == \
            [(-1.414213562, 1), (1.414213562, 1)]

    def test_linear_factor_root_needs_no_double_range(self):
        # x - 10^400 scaled into double range underflows, but its root is
        # read as it stands, in order among the certified ones
        p = parse_univariate("(x - 10^400)^2*(x^2 - 2)*(x + 10^400)^3")
        found, rest = roots.exact_gaussian_roots(squarefree_factorization(p))
        assert found == [(GaussianRational(-10 ** 400), 3),
                         (GaussianRational(10 ** 400), 2)]
        assert [(round(e.center.real, 9), m) for e, m in rest] == \
            [(-1.414213562, 1), (1.414213562, 1)]

    def test_quadratic_factor_roots_beyond_double_range(self):
        # the roots (3 + 4i) 10^350 and -10^351/7 of one quadratic factor
        # leave double range, and Newton in Z[i] runs from its scaled
        # approximations scaled back exactly
        p = parse_univariate("(x - (3+4*i)*10^350)*(7*x + 10^351)*(x - 1)^2")
        found, rest = roots.exact_gaussian_roots(squarefree_factorization(p))
        assert found == [(GaussianRational(Fraction(-10 ** 351, 7)), 1),
                         (GaussianRational(1), 2),
                         (GaussianRational(3 * 10 ** 350, 4 * 10 ** 350), 1)]
        assert rest == []
        # a root that is not Gaussian rational has no enclosure there
        with pytest.raises(IterationLimitExceeded,
                           match="roots out of double range"):
            roots.exact_gaussian_roots(squarefree_factorization(
                parse_univariate("x^2 - 2*10^700")))

    def test_disjoint_enclosures(self):
        pairs = complex_roots(parse_univariate("x^5 - x"), 1e-12)
        encs = [e for e, _ in pairs]
        for i, a in enumerate(encs):
            for b in encs[:i]:
                assert not a.overlaps(b)


def _rational_pairs(count=200):
    """Seeded pairs (f, g) of Q(i)(x) elements with Gaussian coefficients.
    Their denominators share a planted factor, often to a power above one,
    besides a factor of their own; every fifth pair has equal denominators,
    half of them with numerators whose sum shares the planted factor;
    every fifth a second denominator that is most likely coprime to the
    first; every fifth a polynomial g (zero or constant in some); and
    every fifth a g built as h - f for an h over a power of the planted
    factor, so that the sum cancels.  In a third of the pairs each
    numerator carries the other denominator's own factor, so that a
    product cancels."""
    rng = random.Random(1956)

    def draw(degree):
        lead = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
        return UnivariatePolynomial([rand_gauss(rng, 5)
                                     for _ in range(degree)] + [lead])

    for k in range(count):
        shared, u, v = (draw(rng.randint(1, 2)), draw(rng.randint(0, 2)),
                        draw(rng.randint(1, 2)))
        b = shared ** rng.randint(1, 3) * u
        d = shared ** rng.randint(1, 2) * v
        a, c = draw(rng.randint(0, 4)), draw(rng.randint(0, 4))
        if k % 3 == 0:
            a, c = a * v, c * u
        if k % 5 == 1:
            d = b
            if k % 10 == 6:
                c = shared * draw(rng.randint(0, 2)) - a
        elif k % 5 == 2:
            d = v
        elif k % 5 == 3:
            d = UnivariatePolynomial.constant(1)
            if k % 15 == 3:
                c = UnivariatePolynomial()
            elif k % 15 == 8:
                c = UnivariatePolynomial.constant(rand_gauss(rng, 5))
        elif k % 5 == 4:
            h = RationalFunction(draw(rng.randint(0, 2)),
                                 shared ** rng.randint(1, 2))
            c, d = h.num * b - a * h.den, h.den * b
        yield RationalFunction(a, b), RationalFunction(c, d)


# Q(i)(x) in sympy: every field operation cancels by sympy's own gcd, as
# sympy.cancel does, at about a tenth of its cost on expressions
QI_FIELD, _ = sympy.field("x", sympy.QQ_I)


def _to_field(p):
    """A UnivariatePolynomial as an element of sympy's polynomial ring."""
    gaussian = [sympy.QQ_I(sympy.QQ(c.re.numerator, c.re.denominator),
                           sympy.QQ(c.im.numerator, c.im.denominator))
                for c in reversed(p.coeffs)]
    return QI_FIELD.ring.from_list(gaussian) if gaussian \
        else QI_FIELD.ring.zero


def _assert_cancelled(got, expected, context):
    """got equals sympy's cancelled quotient ``expected``, and is in normal
    form: a monic denominator coprime to the numerator by plain Euclid."""
    lead = expected.denom.LC
    assert _to_field(got.num) * lead == expected.numer, context
    assert _to_field(got.den) * lead == expected.denom, context
    assert got.den.leading().is_one(), context
    p, q = got.num, got.den
    while not q.is_zero():
        p, q = q, p % q
    assert p.degree() == 0, context


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

    def test_field_operations_against_sympy(self):
        counts = {"equal": 0, "coprime": 0, "sum cancels": 0,
                  "product cancels": 0}
        x = QI_FIELD.ring.gens[0]
        for k, (f, g) in enumerate(_rational_pairs()):
            a, b = _to_field(f.num), _to_field(f.den)
            F, G = QI_FIELD(a) / QI_FIELD(b), \
                QI_FIELD(_to_field(g.num)) / QI_FIELD(_to_field(g.den))
            context = (k, str(f), str(g))
            _assert_cancelled(f + g, F + G, context)
            _assert_cancelled(f - g, F - G, context)
            _assert_cancelled(f - f, F - F, context)
            _assert_cancelled(f * g, F * G, context)
            _assert_cancelled(f.derivative(), QI_FIELD(
                a.diff(x) * b - a * b.diff(x)) / QI_FIELD(b ** 2), context)
            n = k % 7 - 3
            _assert_cancelled(f ** n, F ** n, context)
            if g.is_zero():
                with pytest.raises(ZeroDivisionError):
                    f / g
                with pytest.raises(ZeroDivisionError):
                    g ** -1
            else:
                _assert_cancelled(f / g, F / G, context)
                _assert_cancelled(g ** n, G ** n, context)
            counts["equal"] += f.den == g.den and f.den.degree() > 0
            counts["coprime"] += f.den.gcd(g.den).degree() == 0
            lcm = f.den.degree() + g.den.degree() - \
                f.den.gcd(g.den).degree()
            counts["sum cancels"] += (f + g).den.degree() < lcm
            counts["product cancels"] += (f * g).den.degree() < \
                f.den.degree() + g.den.degree()
        assert min(counts.values()) >= 30, counts


def _gcd_calls(monkeypatch):
    """Every UnivariatePolynomial.gcd call from here on, as (p, q)."""
    calls = []
    original = UnivariatePolynomial.gcd

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(UnivariatePolynomial, "gcd", counted)
    return calls


class TestRationalGcds:
    """The gcds that the field operations run, pinned."""

    def test_polynomials_run_none(self, monkeypatch):
        p, q = parse_rational("x^3 + i*x - 2"), parse_rational("(2*x - i)/3")
        calls = _gcd_calls(monkeypatch)
        p + q, p - q, p * q, q * 5, p.derivative()
        assert calls == []

    def test_coprime_denominators_run_one(self, monkeypatch):
        f = parse_rational("(x + 1)/(x^2 + 1)")
        g = parse_rational("i*x/(x - 3)^2")
        expected = RationalFunction(f.num * g.den + g.num * f.den,
                                    f.den * g.den)
        calls = _gcd_calls(monkeypatch)
        assert f + g == expected
        assert calls == [(f.den, g.den)]

    def test_shared_factor_runs_two_small_ones(self, monkeypatch):
        f = parse_rational("1/((x - 1)^2*(x + 2))")
        g = parse_rational("1/((x - 1)*(x^2 + 5))")
        calls = _gcd_calls(monkeypatch)
        f - g
        shared = parse_univariate("x - 1")
        assert calls[0] == (f.den, g.den)
        assert len(calls) == 2 and calls[1][1] == shared

    def test_powers_run_none(self, monkeypatch):
        f = parse_rational("(x^2 - i)/(3*x^3 + x - 1)")
        calls = _gcd_calls(monkeypatch)
        f ** 3, f ** -2, f ** 0, 1 / f
        assert calls == []

    def test_derivative_runs_one(self, monkeypatch):
        f = parse_rational("(x + i)/((x - 1)^3*(x^2 + 2))")
        calls = _gcd_calls(monkeypatch)
        f.derivative()
        assert calls == [(f.den, f.den.derivative())]
