"""Radical towers, Ritt decomposition, classification, and verdicts."""

import random
from fractions import Fraction

import pytest
import sympy

from finitude.algebra import (BivariatePolynomial, GaussianRational,
                              UnivariatePolynomial, parse_bivariate,
                              parse_univariate)
from finitude.errors import ReducibleInput, UnsupportedGroup
from finitude.monodromy import MonodromyAction, monodromy_group
from finitude.permgroups import PermGroup
from finitude.solvability import (classify_primitive, compose_chain,
                                  invertible_by_radicals, k_radicals_verdict,
                                  radical_tower, radicals_verdict,
                                  ritt_decompose, tower_mismatch)
from finitude.solvability.ritt import chebyshev
from finitude.solvability.verdicts import VerdictStatus, inverse_curve


def rand_poly(rng, deg, bound=3):
    return UnivariatePolynomial([rng.randint(-bound, bound)
                                 for _ in range(deg + 1)])


class TestTowers:
    def test_binomial_towers(self):
        for n in (2, 3, 7):
            P = parse_bivariate(f"y^{n} - x")
            act = monodromy_group(P)
            expr = radical_tower(P, act)
            assert expr.to_string() == f"root({n}, x)"
            assert expr.exact
            assert abs(expr(act.base_point) - act.roots[0]) < 1e-8

    def test_quadratic_formula(self):
        P = parse_bivariate("y^2 + x*y + x^2 - 1")
        act = monodromy_group(P)
        expr = radical_tower(P, act)
        assert tower_mismatch(P, expr, act, sample_count=25) < 1e-8

    def test_cardano_random(self):
        rng = random.Random(5)
        done = 0
        while done < 3:
            rows = [rand_poly(rng, 2) for _ in range(3)] + \
                [UnivariatePolynomial([1])]
            P = BivariatePolynomial(rows)
            if not P.squarefree_y():
                continue
            act = monodromy_group(P)
            expr = radical_tower(P, act)
            assert tower_mismatch(P, expr, act, sample_count=25) < 1e-8
            done += 1

    def test_ferrari_random(self):
        rng = random.Random(9)
        done = 0
        while done < 3:
            rows = [rand_poly(rng, 2) for _ in range(4)] + \
                [UnivariatePolynomial([1])]
            P = BivariatePolynomial(rows)
            if not P.squarefree_y():
                continue
            act = monodromy_group(P)
            expr = radical_tower(P, act)
            assert tower_mismatch(P, expr, act, sample_count=25) < 1e-8
            done += 1

    def test_biquadratic(self):
        P = parse_bivariate("y^4 - 2*x*y^2 + x^2 - x")
        act = monodromy_group(P)
        expr = radical_tower(P, act)
        assert tower_mismatch(P, expr, act, sample_count=25) < 1e-8

    def test_dihedral_chebyshev_curve(self):
        # inverse of T_5: dihedral monodromy of order 10 at degree 5
        curve = inverse_curve(chebyshev(5))
        act = monodromy_group(curve)
        assert act.group.order() == 10
        expr = radical_tower(curve, act)
        assert tower_mismatch(curve, expr, act, sample_count=20) < 1e-6

    def test_unsolvable_rejected(self):
        P = parse_bivariate("y^5 + y - x")
        with pytest.raises(UnsupportedGroup):
            radical_tower(P)


class TestRitt:
    def test_power_chain(self):
        chain = ritt_decompose(parse_univariate("x^6"))
        assert [f.format() for f in chain] == ["x^2", "x^3"]

    def test_chebyshev_chain(self):
        T6 = chebyshev(6)
        chain = ritt_decompose(T6)
        assert sorted(chain.degrees()) == [2, 3]
        assert compose_chain(chain) == T6

    def test_prime_degree_primitive(self):
        chain = ritt_decompose(parse_univariate("x^5 + x"))
        assert chain.degrees() == [5]

    def test_against_sympy_decompose(self):
        # seeded compositions of two or three factors of prime degree over
        # Q: that chain is complete, so by Ritt's first theorem every
        # complete decomposition has its degree multiset.  sympy 1.14's
        # decompose is a decomposition but not always a complete one (it
        # leaves (x^3 + 2x^2 + x)^2 + x^3 + 2x^2 + x whole), so it bounds
        # the length from below only
        rng = random.Random(13)
        x = sympy.Symbol("x")
        for _ in range(12):
            factors = [UnivariatePolynomial(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(d)] + [Fraction(rng.choice([-2, -1, 1, 3]))])
                for d in rng.choices([2, 3], k=rng.randint(2, 3))]
            f = compose_chain(factors)
            chain = ritt_decompose(f)
            assert compose_chain(chain) == f
            assert sorted(chain.degrees()) == sorted(
                g.degree() for g in factors), f.format()
            oracle = sympy.decompose(sum(
                sympy.Rational(c.re.numerator, c.re.denominator) * x ** k
                for k, c in enumerate(f.coeffs)))
            assert len(oracle) <= len(chain), f.format()

    def test_decomposition_reproduces_input(self):
        rng = random.Random(2)
        for _ in range(10):
            inner = rand_poly(rng, rng.randint(2, 3))
            outer = rand_poly(rng, rng.randint(2, 3))
            if inner.degree() < 2 or outer.degree() < 2:
                continue
            f = outer.compose(inner)
            chain = ritt_decompose(f)
            assert compose_chain(chain) == f
            assert all(d > 1 for d in chain.degrees())


class TestClassification:
    def test_chebyshev_identity_conjugation(self):
        c = classify_primitive(parse_univariate("4*x^3 - 3*x"))
        assert c.kind == "chebyshev" and c.n == 3
        assert c.outer == (GaussianRational(1), GaussianRational(0))
        assert c.inner == (GaussianRational(1), GaussianRational(0))

    def test_power_conjugate(self):
        c = classify_primitive(parse_univariate("2*(x-1)^5 + 7"))
        assert c.kind == "power" and c.n == 5
        assert c.outer == (GaussianRational(2), GaussianRational(7))
        assert c.inner == (GaussianRational(1), GaussianRational(-1))

    def test_other(self):
        assert classify_primitive(parse_univariate("x^5 + x")).kind == "other"

    def test_degree_at_most_4_short_circuit(self):
        c = classify_primitive(parse_univariate("x^4 + x^3 + x + 1"))
        assert c.kind in ("degree_at_most_4", "power", "chebyshev")

    def test_scaled_chebyshev_conjugates(self):
        rng = random.Random(4)
        for n in (5, 7):
            a = GaussianRational(Fraction(rng.randint(1, 5), 2))
            b = GaussianRational(rng.randint(-3, 3))
            c = GaussianRational(rng.randint(1, 4))
            d = GaussianRational(Fraction(rng.randint(-4, 4), 3))
            outer = UnivariatePolynomial([b, a])
            inner = UnivariatePolynomial([d, c])
            f = outer.compose(chebyshev(n)).compose(inner)
            got = classify_primitive(f)
            assert got.kind == "chebyshev" and got.n == n


class TestVerdicts:
    def test_quintic(self):
        v = radicals_verdict(parse_bivariate("y^5 + y - x"))
        assert v.status == VerdictStatus.NOT_REPRESENTABLE
        assert v.group.order() == 120

    def test_cbrt_certificate(self):
        v = radicals_verdict(parse_bivariate("y^3 - x"))
        assert v.representable
        assert v.certificate.to_string() == "root(3, x)"

    def test_sqrt_of_cubic(self):
        v = radicals_verdict(parse_bivariate("y^2 - (x^3 + 1)"))
        assert v.representable
        assert v.certificate.to_string() == "root(2, (1 + x^3))"

    def test_k_verdicts(self):
        P = parse_bivariate("y^5 + y - x")
        assert k_radicals_verdict(P, 5).representable
        assert not k_radicals_verdict(P, 4).representable
        assert k_radicals_verdict(parse_bivariate("y^2 - x"), 1).representable

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleInput):
            radicals_verdict(parse_bivariate("(y^2 - x)*(y - x^2)"))

    def test_invertible_examples(self):
        assert invertible_by_radicals(chebyshev(5)).representable
        assert invertible_by_radicals(
            parse_univariate("x^4 - 3*x^2 + 2")).representable
        v = invertible_by_radicals(parse_univariate("x^5 + x"))
        assert v.status == VerdictStatus.NOT_REPRESENTABLE
        assert "other" in v.extras["classification"]
        assert v.group.order() == 120

    def test_invertible_k(self):
        P = inverse_curve(parse_univariate("x^5 + x"))
        assert k_radicals_verdict(P, 5).representable
        assert not k_radicals_verdict(P, 4).representable
        assert k_radicals_verdict(inverse_curve(chebyshev(7)), 1).representable

    def test_agl32_is_undecided(self):
        # AGL(3,2) is perfect; its minimal normal subgroup, the translations
        # 2^3, has index 168, and the coset action is not attempted
        def affine(image):
            return tuple(image(v) for v in range(8))

        group = PermGroup(8, [affine(lambda v: v ^ 1),
                              affine(lambda v: (v << 1 | v >> 2) & 7),
                              affine(lambda v: v ^ (v >> 1 & 1))])
        assert group.order() == 1344
        action = MonodromyAction(None, None, 0, range(8), [],
                                 group.generators, group)
        verdict = k_radicals_verdict(None, 7, action=action)
        assert verdict.status == VerdictStatus.UNDECIDED
        assert verdict.reason == ("k-solvability undecided: coset action of "
                                  "index 168 exceeds degree cap")

    def test_certificate_soundness_sample(self):
        P = parse_bivariate("y^3 - (x^2 + 1)")
        act = monodromy_group(P)
        v = radicals_verdict(P)
        assert v.representable and v.certificate is not None
        assert tower_mismatch(P, v.certificate, act,
                              sample_count=30) < 1e-8

    def test_verdict_json(self):
        data = radicals_verdict(parse_bivariate("y^3 - x")).to_json()
        assert data["status"] == "Representable"
        assert data["group"]["order"] == 3
        assert data["certificate"] == "root(3, x)"


class TestRittClosure:
    def test_random_good_compositions(self):
        rng = random.Random(6)
        built = 0
        while built < 8:
            factors = []
            total = 1
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(["linear", "power", "chebyshev", "small"])
                if kind == "linear":
                    g = UnivariatePolynomial([rng.randint(-3, 3),
                                              rng.choice([1, 2, -1])])
                elif kind == "power":
                    g = UnivariatePolynomial.monomial(
                        GaussianRational(1), rng.choice([2, 3, 5]))
                elif kind == "chebyshev":
                    g = chebyshev(rng.choice([2, 3, 5]))
                else:
                    g = rand_poly(rng, rng.choice([2, 3, 4]))
                    if g.degree() < 2:
                        continue
                if total * max(g.degree(), 1) > 30:
                    break
                total *= max(g.degree(), 1)
                factors.append(g)
            if not factors or total < 2:
                continue
            f = factors[0]
            for g in factors[1:]:
                f = g.compose(f)
            if f.degree() < 2 or f.degree() > 30:
                continue
            assert invertible_by_radicals(f).representable, f.format()
            built += 1
