"""Newton polygons and Puiseux expansions."""

import random
from fractions import Fraction

import mpmath
import pytest

from finitude import puiseux
from finitude.algebra import parse_bivariate
from finitude.algebra.gaussian import GaussianRational
from finitude.algebra.poly import UnivariatePolynomial, singular_locator
from finitude.algebra.roots import REFINE_BITS, refine_root
from finitude.errors import NonExactCenter, OrderTooSmall
from finitude.monodromy import monodromy_group, singular_points
from finitude.permgroups import cycle_type
from finitude.puiseux import (INFINITY, PuiseuxSeries, newton_polygon,
                              puiseux_expand, ramification_multiset,
                              residual_error)

# two pairs of singular points ~0.02 apart near 1.52 +- 1.16i
CLOSE_PAIR = "y^5 + (2*x-2)*y^4 - y^3 + 3*y^2 + (2*x^2-3*x+2)*y - 2"


def close_pair_centers(P):
    centers = [complex(enc.center) for enc in singular_points(P)]
    return [c for c in centers
            if min(abs(c - d) for d in centers if d != c) < 0.1]


class TestPolygon:
    def test_sqrt(self):
        poly = newton_polygon(parse_bivariate("y^2 - x"), 0)
        assert poly.edges == [(Fraction(1, 2), 2)]

    def test_cusp(self):
        poly = newton_polygon(parse_bivariate("y^3 - x^2"), 0)
        assert poly.edges == [(Fraction(2, 3), 3)]

    def test_quintic_at_infinity(self):
        poly = newton_polygon(parse_bivariate("y^5 + y - x"), INFINITY)
        assert poly.edges == [(Fraction(1, 5), 5)]

    def test_length_conservation(self):
        poly = newton_polygon(parse_bivariate("y^4 - x*y - x^3"), 0)
        assert sum(length for _s, length in poly.edges) == 4

    def test_non_exact_center(self):
        with pytest.raises(NonExactCenter):
            puiseux_expand(parse_bivariate("y^2 - x"), 0.123456789j,
                           exact=True)


class TestExpansion:
    def test_sqrt_pair(self):
        series = puiseux_expand(parse_bivariate("y^2 - x"), 0, order=3)
        assert len(series) == 2
        leads = sorted(s.leading_coefficient.real for s in series)
        assert leads == pytest.approx([-1.0, 1.0])
        for s in series:
            assert s.leading_exponent == Fraction(1, 2)
            assert s.ramification == 2

    def test_binomial_series(self):
        series = puiseux_expand(parse_bivariate("y^2 - (1 + x)"), 0, order=2)
        plus = max(series, key=lambda s: s.leading_coefficient.real)
        got = {e: c for e, c in plus.terms}
        assert got[Fraction(0)] == pytest.approx(1.0)
        assert got[Fraction(1)] == pytest.approx(0.5)
        assert got[Fraction(2)] == pytest.approx(-0.125)

    def test_conjugate_cyclic(self):
        n = 5
        series = puiseux_expand(parse_bivariate(f"y^{n} - x"), 0, order=1)
        assert len(series) == n
        coeffs = sorted((s.leading_coefficient for s in series),
                        key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for c in coeffs:
            assert abs(abs(c) - 1) < 1e-9

    def test_pole_branches(self):
        series = puiseux_expand(parse_bivariate("x*y^2 - 1"), 0, order=2)
        assert len(series) == 2
        for s in series:
            assert s.leading_exponent == Fraction(-1, 2)

    def test_tangential_double_point(self):
        P = parse_bivariate("(y - x)^2 - x^3")
        series = puiseux_expand(P, 0, order=3)
        assert len(series) == 2
        for s in series:
            terms = dict(s.terms)
            assert terms[Fraction(1)] == pytest.approx(1.0)
            assert abs(terms[Fraction(3, 2)]) == pytest.approx(1.0)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            puiseux_expand(parse_bivariate("x*y^2 - 1"), 0, order=Fraction(-2))

    def test_residuals(self):
        for expr, pt in [("y^2 - x", 0), ("y^3 - x^2", 0),
                         ("y^2 - (1+x)", 0), ("y^5 + y - x", INFINITY)]:
            P = parse_bivariate(expr)
            for s in puiseux_expand(P, pt, order=5):
                assert residual_error(P, s) < 1e-10

    def test_json_shape(self):
        s = puiseux_expand(parse_bivariate("y^2 - x"), 0, order=2)[0]
        data = s.to_json()
        assert data["ramification"] == 2
        assert data["exponents"][0] == "1/2"
        assert len(data["coefficients"][0]) == 2


class TestMonodromyConsistency:
    def test_cycle_types_match_ramification(self):
        for expr in ["y^5 + y - x", "y^3 - x^2", "y^4 + x*y + x^3 + 1"]:
            P = parse_bivariate(expr)
            act = monodromy_group(P)
            sing = singular_points(P)
            for loop, gen in zip(act.loops, act.generators):
                center = sing[loop.singular_index].center
                ram = ramification_multiset(P, center)
                assert ram == cycle_type(gen), (expr, center)

    def test_degree_conservation(self):
        for expr in ["y^5 + y - x", "y^4 - 2*x^2*y + x*y + x^4 - 1"]:
            P = parse_bivariate(expr)
            sing = singular_points(P)
            for enc in sing:
                ram = ramification_multiset(P, enc.center)
                assert sum(ram) == P.degree_y()


class TestResidualRegressions:
    def test_zero_component_scored_against_full_model(self):
        # y * Q(x, y): the exact branch y = 0 must score as exact
        P = parse_bivariate("y^4 + (-x^2-3*x-2)*y^3 + (-x^2+2)*y^2"
                            " + (-3*x^2-2*x-2)*y")
        sing = singular_points(P)
        assert sing
        for enc in sing:
            series = puiseux_expand(P, enc.center, order=3, exact=False)
            assert any(all(c == 0 for _, c in s.terms) for s in series)
            for s in series:
                assert residual_error(P, s) <= 1e-10, (enc.center, s)

    def test_zero_series_on_curve_without_y_factor(self):
        P = parse_bivariate("y^2 - x")
        bogus = PuiseuxSeries(1, 1, [(Fraction(0), 0j)], 2)
        assert residual_error(P, bogus) > 1e-3

    def test_close_singular_pair_ramified_residuals(self):
        # the centers must be refined past double precision
        P = parse_bivariate(CLOSE_PAIR)
        close = close_pair_centers(P)
        assert len(close) == 4
        for c in close:
            ramified = [s for s in puiseux_expand(P, c, order=3, exact=False)
                        if s.ramification > 1]
            assert ramified
            for s in ramified:
                assert residual_error(P, s) <= 1e-10, (c, s)


class TestExactCenter:
    def test_refined_center_is_on_the_locator_grid(self):
        P = parse_bivariate(CLOSE_PAIR)
        locator = singular_locator(P)
        slope = locator.derivative()
        spacing = Fraction(1, 2 ** REFINE_BITS)
        for z in close_pair_centers(P):
            c = refine_root(locator, z)
            assert c is not None, z
            step = locator(c) / slope(c)
            assert step.re ** 2 + step.im ** 2 < spacing ** 2, z
        assert refine_root(locator, 0.3 + 0.2j) is None
        # seeded polynomials: within one spacing of mpmath's 60-digit roots
        rng = random.Random(169)
        for _ in range(20):
            coeffs = [GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
                      for _ in range(rng.randint(3, 8))]
            coeffs.append(GaussianRational(1))
            p = UnivariatePolynomial(coeffs)
            with mpmath.workdps(60):
                exact = mpmath.polyroots(
                    [mpmath.mpc(int(c.re), int(c.im)) for c in coeffs[::-1]],
                    maxsteps=200, extraprec=200)
                for r in exact:
                    c = refine_root(p, complex(r))
                    assert c is not None, (coeffs, r)
                    error = mpmath.mpc(*(mpmath.mpf(q.numerator)
                                         / q.denominator
                                         for q in (c.re, c.im))) - r
                    assert abs(error) <= mpmath.mpf(2) ** -REFINE_BITS, \
                        (coeffs, r)

    def test_one_locator_per_expansion(self, monkeypatch):
        # the expansion and every residual share one exact center
        P = parse_bivariate(CLOSE_PAIR)
        center = close_pair_centers(P)[0]
        locators = []

        def counted(P):
            locators.append(P)
            return singular_locator(P)

        monkeypatch.setattr(puiseux, "singular_locator", counted)
        series = puiseux_expand(P, center, order=3)
        assert len(series) == 5
        for s in series:
            assert isinstance(s.center, GaussianRational)
            assert residual_error(P, s) <= 1e-10
        assert len(locators) == 1
