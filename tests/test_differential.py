"""D-sequence, generalized Riccati, witnesses, and Liouville integration."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.integrals.rationaltools import ratint_ratpart

from finitude.algebra import (GaussianRational, RationalFunction,
                              UnivariatePolynomial, parse_rational,
                              squarefree_factorization)
from finitude.differential import (DifferentialPolynomial, LinearODE,
                                   d_sequence, generalized_riccati,
                                   generalized_riccati_homogeneous,
                                   integrate_rational,
                                   rational_witness_search,
                                   verify_exp_integral_witness,
                                   xi_weighted_check)
from finitude.differential import liouville
from finitude.differential.jets import MAX_JET_ORDER
from finitude.errors import NotHomogeneous, OrderTooLarge


def brute_force_dn(n):
    """Oracle: expand y^(n)/y for y = exp(integral u) by direct product-rule
    differentiation of jet expressions, independently of the recursion."""
    # represent y^(k) = E_k(u, u', ...) * y with E_k as a jet polynomial:
    # E_0 = 1 and E_{k+1} = E_k' + E_k u  -- derived here from the product
    # rule (y' = u y), which is the defining property, not the recursion
    # being tested; expand fully each time rather than reusing D values.
    e = DifferentialPolynomial.constant(1)
    u = DifferentialPolynomial.jet(0)
    out = [e]
    for _ in range(n):
        e = out[-1].derivative() + out[-1] * u
        out.append(e)
    return out


class TestDSequence:
    def test_first_values(self):
        ds = d_sequence(3)
        u = DifferentialPolynomial.jet(0)
        du = DifferentialPolynomial.jet(1)
        ddu = DifferentialPolynomial.jet(2)
        assert ds[0] == DifferentialPolynomial.constant(1)
        assert ds[1] == u
        assert ds[2] == du + u * u
        assert ds[3] == ddu + 3 * (u * du) + u * u * u

    def test_against_exponential_oracle(self):
        ds = d_sequence(6)
        oracle = brute_force_dn(6)
        for k in range(7):
            assert ds[k] == oracle[k]

    def test_substitution_identity(self):
        # for y = exp(cx), y^(n) = c^n y, so D_n(c) = c^n
        ds = d_sequence(5)
        c = RationalFunction.coerce(GaussianRational(3))
        for n, d in enumerate(ds):
            assert d.substitute(c) == RationalFunction.coerce(3 ** n)

    def test_degree_law(self):
        for n, d in enumerate(d_sequence(6)):
            assert d.total_degree() == n
            top = d.homogeneous_part(n)
            expected = DifferentialPolynomial.constant(1)
            u = DifferentialPolynomial.jet(0)
            for _ in range(n):
                expected = expected * u
            assert top == expected

    def test_order_guard(self):
        with pytest.raises(OrderTooLarge):
            d_sequence(MAX_JET_ORDER + 1)


class TestRiccati:
    def test_order2_literal(self):
        # u' + a1 u + a2 + u^2 for symbolic-free concrete a1 = 2, a2 = 5
        ode = LinearODE([2, 5])
        expected = (DifferentialPolynomial.jet(1)
                    + 2 * DifferentialPolynomial.jet(0)
                    + DifferentialPolynomial.constant(5)
                    + DifferentialPolynomial.jet(0)
                    * DifferentialPolynomial.jet(0))
        assert generalized_riccati(ode) == expected

    def test_order1(self):
        ode = LinearODE([parse_rational("x")])
        expected = DifferentialPolynomial.jet(0) + \
            DifferentialPolynomial({(): parse_rational("x")})
        assert generalized_riccati(ode) == expected

    def test_order3_zero_coeffs(self):
        ode = LinearODE([0, 0, 0])
        assert generalized_riccati(ode) == d_sequence(3)[3]

    def test_homogeneous_substitution(self):
        # x0 x2 - x1^2 (i.e. y y'' - y'^2 = 0) reduces to u'
        got = generalized_riccati_homogeneous([(1, (1, 0, 1)), (-1, (0, 2))])
        assert got == DifferentialPolynomial.jet(1)

    def test_homogeneous_linear_case(self):
        # x2 + a1 x1 + a2 x0 reproduces the order-2 Riccati
        ode = LinearODE([3, 7])
        got = generalized_riccati_homogeneous(
            [(1, (0, 0, 1)), (3, (0, 1)), (7, (1,))])
        assert got == generalized_riccati(ode)

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            generalized_riccati_homogeneous([(1, (0, 0, 1)), (1, (0, 1, 1))])


class TestXiWeight:
    def test_monomial_weight(self):
        out = xi_weighted_check([(1, (1, 0, 1))])  # x0 x2
        assert out["weight"] == 2 and out["satisfied"]

    def test_cancellation(self):
        out = xi_weighted_check([(1, (0, 0, 1)), (-1, (0, 2))])  # x2 - x1^2
        assert out["weight"] == 2 and not out["satisfied"]

    def test_unique_top_term(self):
        out = xi_weighted_check([(5, (0, 0, 0, 2)), (1, (0, 4)), (2, (3,))])
        assert out["satisfied"]


class TestWitnessVerification:
    def test_spec_examples(self):
        assert verify_exp_integral_witness(LinearODE([0, -1]), 1)
        assert verify_exp_integral_witness(LinearODE([0, 1]),
                                           GaussianRational(0, 1))
        assert not verify_exp_integral_witness(
            LinearODE([0, parse_rational("-x")]), parse_rational("x"))

    def test_backward_constructed(self):
        # build order-2 ODEs from a known solution y with u = y'/y rational
        rng = random.Random(8)
        for _ in range(10):
            u = RationalFunction(
                UnivariatePolynomial([rng.randint(-3, 3), rng.randint(-3, 3)]),
                UnivariatePolynomial([rng.randint(1, 3), 1]))
            a1 = RationalFunction(
                UnivariatePolynomial([rng.randint(-3, 3)]))
            # choose a2 so that u' + a1 u + a2 + u^2 = 0
            a2 = -(u.derivative() + a1 * u + u * u)
            assert verify_exp_integral_witness(LinearODE([a1, a2]), u)


class TestWitnessSearch:
    def test_exponentials(self):
        ws, _ = rational_witness_search(LinearODE([0, -1]))
        assert sorted(w.format() for w in ws) == ["-1", "1"]
        for w in ws:
            assert verify_exp_integral_witness(LinearODE([0, -1]), w)

    def test_euler(self):
        ode = LinearODE([parse_rational("1/x"), parse_rational("-1/x^2")])
        ws, _ = rational_witness_search(ode)
        assert any(w == parse_rational("1/x") for w in ws)
        for w in ws:
            assert verify_exp_integral_witness(ode, w)

    def test_airy_none(self):
        assert rational_witness_search(
            LinearODE([0, parse_rational("-x")])) == ([], None)

    def test_regular_singular(self):
        # y'' - 2/x^2 y: solutions x^2 and 1/x
        ode = LinearODE([0, parse_rational("-2/x^2")])
        ws, _ = rational_witness_search(ode)
        formatted = sorted(w.format() for w in ws)
        assert formatted == ["(-1)/(x)", "(2)/(x)"]

    def test_order_guard(self):
        with pytest.raises(ValueError):
            rational_witness_search(LinearODE([0, 0, 1]))


# integrands whose subresultant sequences end in a skipped degree, x-degrees
# [6, 5, 3, 2, 0], [8, 7, 4, 3, 0] and [9, 8, 6, 2, 0], with their forms; the
# last is D'/D for the square-free D = (x^3+2)(x^6+x^3+1), whose member of
# degree 2 follows a skip, so R(t) divides by the psi of the sequence, not by
# lc_x of that member (which would give R = (t-1)^12 where (t-1)^9 is right)
SKIPPED_TAILS = {
    "x^2/(x^6+1)": "-1/6*i*ln(x^3 - i) + 1/6*i*ln(x^3 + i)",
    "x^3/(x^8+3)": "RootSum(t | t^2 + 1/192, t*ln(x^4 + (24*t)))",
    "(9*x^8+18*x^5+9*x^2)/(x^9+3*x^6+3*x^3+2)":
        "1*ln(x^9 + 3*x^6 + 3*x^3 + 2)",
}


class TestIntegration:
    def test_spec_examples(self):
        form = integrate_rational(parse_rational("1/x"))
        assert form.r0.is_zero()
        assert [(str(t.lam), t.argument.format()) for t in form.logs] == \
            [("1", "x")]
        form = integrate_rational(parse_rational("1/x^2"))
        assert form.r0 == parse_rational("-1/x")
        assert not form.logs and not form.blocks
        form = integrate_rational(parse_rational("1/(x^2+1)^2"))
        assert form.r0 == parse_rational("x/(2*x^2+2)")
        assert sorted(str(t.lam) for t in form.logs) == ["-1/4*i", "1/4*i"]
        form = integrate_rational(parse_rational("1/(x^2-1)"))
        lams = sorted(str(t.lam) for t in form.logs)
        assert lams == ["-1/2", "1/2"]

    def test_derivative_identity_random(self):
        rng = random.Random(21)
        checked = 0
        while checked < 25:
            num = UnivariatePolynomial(
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            den = UnivariatePolynomial(
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1])
            if num.is_zero() or den.degree() < 1:
                continue
            f = RationalFunction(num, den)
            form = integrate_rational(f)
            assert (form.derivative() - f).is_zero()
            checked += 1

    def test_algebraic_residues(self):
        f = parse_rational("1/(x^3 - 2)")
        form = integrate_rational(f)
        assert form.blocks and not form.logs
        assert (form.derivative() - f).is_zero()
        data = form.to_json()
        assert any("RootOf" in entry["lambda"] for entry in data["logs"])

    def test_two_multiplicity_classes(self):
        # R(t) = c (t^2 - 1/12)(t^2 - 1/8)^2: the residues of 1/(x^2-3) have
        # log arguments of x-degree 1 and those of 2x/(x^4-2) of x-degree 2,
        # so the subresultant sequence gives one block per class
        f = parse_rational("2*x/(x^4-2) + 1/(x^2-3)")
        form = integrate_rational(f)
        assert not form.logs
        assert form.format() == (
            "RootSum(t | t^2 - 1/12, t*ln(x + (-6*t))) + "
            "RootSum(t | t^2 - 1/8, t*ln(x^2 + (-4*t)))")
        assert (form.derivative() - f).is_zero()

    def test_invariants(self):
        # arguments square-free, monic, pairwise coprime; lambda nonzero
        f = parse_rational("(3*x^4 + 1)/(x^5 - x^3 + x - 1)")
        form = integrate_rational(f)
        args = [t.argument for t in form.logs]
        for a in args:
            assert a.leading().is_one()
            assert a.gcd(a.derivative()).degree() == 0
        for i, a in enumerate(args):
            for b in args[:i]:
                assert a.gcd(b).degree() == 0
        assert (form.derivative() - f).is_zero()

    def test_rational_part_against_ratint(self):
        # r0 is the antiderivative of the polynomial quotient, constant term
        # 0, plus the proper rational part that sympy's ratint_ratpart
        # gives for the proper remainder: unique, with no additive constant
        rng = random.Random(1515)
        multiplicities = set()
        for num, den in _repeated_factor_integrands(rng, 100):
            f = RationalFunction(num, den)
            form = integrate_rational(f)
            assert (form.derivative() - f).is_zero()
            quotient, rest = f.num.divmod(f.den)
            got = form.r0 - RationalFunction(quotient.antiderivative())
            expected, _ = ratint_ratpart(_to_sympy(rest), _to_sympy(f.den), X)
            num, den = (sympy.Poly(part, X, domain="QQ_I")
                        for part in sympy.fraction(expected))
            assert (_to_sympy(got.num) * den
                    - _to_sympy(got.den) * num).is_zero, str(f)
            multiplicities.update(k for _, k in
                                  squarefree_factorization(f.den))
        assert {2, 3, 4} <= multiplicities

    def test_blocks_divide_their_denominator(self):
        # every block's log argument divides, modulo m, the denominator the
        # block came from, and the contribution over that denominator is the
        # one over the exact Res_t(m, g); g does not divide Norm + 1
        rng = random.Random(1981)
        blocks = []
        while len(blocks) < 40:
            den = UnivariatePolynomial(
                [GaussianRational(rng.randint(-9, 9), rng.choice(
                    [0, 0, rng.randint(-3, 3)]))
                 for _ in range(rng.randint(2, 6))] + [1])
            num = UnivariatePolynomial(
                [rng.randint(-9, 9) for _ in range(den.degree())])
            if num.is_zero():
                continue
            f = RationalFunction(num, den)
            form = integrate_rational(f)
            assert (form.derivative() - f).is_zero()
            blocks += form.blocks
        for block in blocks:
            m, g = block.modulus, block.argument
            assert liouville._quotient_mod(block.multiple, g, m) is not None
            norm = liouville._resultant_norm(m, g)
            assert liouville._quotient_mod(norm, g, m) is not None
            over_norm = liouville.AlgebraicResidueBlock(
                m, g, block.enclosures, norm)
            assert block.derivative_contribution() \
                == over_norm.derivative_contribution()
            # g, monic of positive degree in x, does not divide Norm + 1
            assert liouville._quotient_mod(norm + 1, g, m) is None
        assert any(c.im != 0 for block in blocks
                   for c in block.modulus.coeffs)

    @pytest.mark.parametrize("integrand", SKIPPED_TAILS)
    def test_sequence_ending_in_a_skipped_degree(self, integrand):
        # R(t) is taken from the tail of the subresultant sequence, whose
        # last step here skips degrees (3 -> 0, 4 -> 0 and 2 -> 0); a wrong
        # exponent or divisor would give classes of the wrong degree
        f = parse_rational(integrand)
        form = integrate_rational(f)
        assert (form.derivative() - f).is_zero()
        assert form.format() == SKIPPED_TAILS[integrand]

X = sympy.Symbol("x")


def _to_sympy(p):
    return sympy.Poly([sympy.Rational(c.re.numerator, c.re.denominator)
                       + sympy.I * sympy.Rational(c.im.numerator,
                                                  c.im.denominator)
                       for c in reversed(p.coeffs)], X, domain="QQ_I")


def _repeated_factor_integrands(rng, count):
    """Seeded (num, den) with small Gaussian coefficients: den, of degree
    at most 7, carries a factor of multiplicity 2-4 and sometimes a second
    repeated one, and one numerator in three is improper."""
    def poly(degree):
        return UnivariatePolynomial(
            [GaussianRational(rng.randint(-4, 4),
                              rng.choice([0, 0, rng.randint(-2, 2)]))
             for _ in range(degree)] + [1])

    made = 0
    while made < count:
        den = poly(rng.randint(1, 2)) ** rng.randint(2, 4) \
            * poly(rng.randint(0, 2))
        if rng.random() < 0.3:
            den = den * poly(1) ** 2
        if den.degree() > 7:
            continue
        top = den.degree() + (2 if made % 3 == 0 else -1)
        num = UnivariatePolynomial(
            [GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2))
             for _ in range(rng.randint(1, top + 1))])
        if not num.is_zero():
            made += 1
            yield num, den
