"""Rational witnesses u = y'/y for second-order linear ODEs.

For y'' + a1 y' + a2 y = 0 the substitution u = v - a1/2 turns the Riccati
equation into v' + v^2 = r with r = a1^2/4 + a1'/2 - a2, and a rational v
must assemble from fixed local parts at each pole of r and at infinity plus
a logarithmic derivative N'/N of an unknown monic polynomial whose degree is
forced by the residue count.  Each pole and infinity gives its local parts
(a root part and an exponent alpha) by one rule: the exact Laurent series of
r there (of the shifted quotient at a pole, of the reversed one at
infinity) and its truncated square root, as in Kovacic (JSC 2, 1986).  N
solves one linear system, built by ``_polynomial_kernel`` and solved by
``gaussvec.solve``.  Everything stays inside Gaussian rational data: poles
at non-Gaussian points or irrational local square roots end the search (no
witness within this scope), which the caller must read as "none found",
never as a proof of unsolvability.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ..algebra import gaussvec
from ..algebra.gaussian import GaussianRational
from ..algebra.poly import (RationalFunction, UnivariatePolynomial,
                            series_inverse, series_mul, series_power,
                            squarefree_factorization)
from ..algebra.roots import exact_gaussian_roots, exact_nth_root
from ..errors import BoundExceeded
from .jets import LinearODE, verify_exp_integral_witness

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_HALF = GaussianRational(Fraction(1, 2))
_NO_PART = RationalFunction.coerce(0)


def _laurent(a: UnivariatePolynomial, b: UnivariatePolynomial, depth: int):
    """Series of s^v a/b, s^v the highest power of the variable s that
    divides b, to the requested depth, exact.  At a pole p, a and b are the
    numerator and denominator of r shifted by p, and this is the series of
    (x - p)^order r; at infinity they are reversed, and it is that of
    x^order r in s = 1/x."""
    v = 0
    while b.coefficient(v).is_zero():
        v += 1
    binv = series_inverse([b.coefficient(v + k) for k in range(depth + 1)],
                          depth, _ZERO)
    return series_mul([a.coefficient(k) for k in range(depth + 1)], binv,
                      depth, _ZERO)


def _order_two(c0):
    """Local parts at a point of order 2 with leading coefficient c0: no
    root part, alpha = (1 +- sqrt(1 + 4 c0))/2."""
    disc = exact_nth_root(_ONE + 4 * c0, 2)
    if disc is None:
        return []
    return [(_NO_PART, (_ONE + s) * _HALF) for s in (disc, -disc)]


def _root_variants(series, K, e, part):
    """Local parts at a point of even order: h, the first K terms of the
    series' square root, gives the root part part(h), and alpha =
    (b/h_0 + e)/2 with b = series_K - (h^2)_K; both signs of h."""
    h0 = exact_nth_root(series[0], 2)
    if h0 is None:
        return []
    h = series_power(series, _HALF, K - 1, h0)
    b = series[K] - series_mul(h, h, K, _ZERO)[K]
    root_part = part(h)
    return [(root_part, (b / h[0] + e) * _HALF),
            (-root_part, (b / -h[0] + e) * _HALF)]


def _pole_candidates(r: RationalFunction, pole: GaussianRational, order: int):
    """Local parts (root part, alpha) at a pole of r, or None at an odd
    order >= 3, where no rational witness exists.  At order 2k >= 4 the
    root part is sum_{i<k-1} h_i (x - pole)^(i-k)."""
    if order == 1:
        return [(_NO_PART, _ONE)]
    if order % 2 == 1:
        return None
    k = order // 2
    series = _laurent(r.num.shift(pole), r.den.shift(pole), k - 1)
    if k == 1:
        return _order_two(series[0])
    lin = UnivariatePolynomial([-pole, 1])
    return _root_variants(series, k - 1, k, lambda h: RationalFunction(
        UnivariatePolynomial(h).shift(-pole), lin ** k))


def _infinity_candidates(r: RationalFunction):
    """Local parts at infinity, where r has order nu = deg den - deg num,
    or None at an odd order.  At order -2d <= 0 the root part is the
    polynomial sum_{m<=d} h_m x^(d-m)."""
    nu = r.den.degree() - r.num.degree()
    if nu > 2:
        return [(_NO_PART, _ZERO), (_NO_PART, _ONE)]
    if nu % 2 == 1:
        return None
    d = -nu // 2
    series = _laurent(r.num.reversed_coeffs(), r.den.reversed_coeffs(),
                      d + 1)
    if nu == 2:
        return _order_two(series[0])
    return _root_variants(series, d + 1, -d, lambda h: RationalFunction(
        UnivariatePolynomial(h[::-1])))


def _polynomial_kernel(theta: RationalFunction, w: RationalFunction, d: int):
    """Monic N of degree d with N'' + 2 theta N' + w N = 0, or None.

    Times theta.den w.den the operator is L = P1 D^2 + P2 D + P3, with
    P1 = theta.den w.den, P2 = 2 theta.num w.den and P3 = w.num theta.den
    cleared once to integer lists.  Column k < d of the system holds
    L(x^k) = k (k - 1) P1 x^(k-2) + k P2 x^(k-1) + P3 x^k, and the
    right-hand side is -L(x^d).
    """
    _, P = gaussvec.clear_rows([theta.den * w.den, 2 * theta.num * w.den,
                                w.num * theta.den])
    size = d + max(len(re) for re, _im in P)
    rows = [([0] * (d + 1), [0] * (d + 1)) for _ in range(size)]
    for k in range(d + 1):
        for c, (pr, pi), shift in ((k * (k - 1), P[0], k - 2),
                                   (k, P[1], k - 1), (1, P[2], k)):
            c *= 1 if k < d else -1
            if c:
                for j, (x, y) in enumerate(zip(pr, pi), shift):
                    rows[j][0][k] += c * x
                    rows[j][1][k] += c * y
    sol = gaussvec.solve(rows)
    return None if sol is None else UnivariatePolynomial(sol + [_ONE])


def rational_witness_search(ode: LinearODE):
    """All rational logarithmic-derivative witnesses of an order-2 ODE.

    Returns (witnesses, skipped): a (possibly empty) list of
    RationalFunction u with verify_exp_integral_witness(ode, u) true, and
    why the first candidate beyond the degree bound was skipped, or None.
    An empty list means no rational witness exists within this scope --
    not a proof that the ODE is unsolvable by quadratures.  Poles of the
    invariant r outside the Gaussian rationals raise BoundExceeded
    (unsupported coefficient field), and so does a skipped candidate when
    no witness is found.
    """
    if ode.order != 2:
        raise ValueError("rational witness search is implemented for order 2")
    a1, a2 = ode.coefficients
    r = a1 * a1 * Fraction(1, 4) + a1.derivative() * Fraction(1, 2) - a2
    witnesses = []
    shift = a1 * Fraction(-1, 2)
    if r.is_zero():
        u = shift  # v = 0 solves v' + v^2 = 0
        if verify_exp_integral_witness(ode, u):
            witnesses.append(u)
        return witnesses, None
    # poles of r with exact locations, their orders the multiplicities of
    # the roots of r.den
    den_factors, rest = exact_gaussian_roots(
        squarefree_factorization(r.den))
    if rest:
        raise BoundExceeded(
            "pole locations of the Riccati invariant are not Gaussian "
            "rational; exact search unsupported")
    locals_ = []
    for pole, order in den_factors:
        variants = _pole_candidates(r, pole, order)
        if not variants:
            return [], None
        locals_.append(variants)
    inf_variants = _infinity_candidates(r)
    if not inf_variants:
        return [], None
    degree_bound = max(10, sum(o for _p, o in den_factors)
                       + abs(r.num.degree() - r.den.degree()) + 2)
    seen = set()
    skipped = None
    for choice in product(*locals_, inf_variants):
        pole_parts = choice[:-1]
        inf_part = choice[-1]
        d_val = inf_part[1]
        for part in pole_parts:
            d_val = d_val - part[1]
        if not d_val.is_integer() or d_val.re < 0:
            continue
        d = int(d_val.re)
        if d > degree_bound:
            skipped = skipped or (f"required polynomial degree {d} exceeds "
                                  f"bound {degree_bound}")
            continue
        theta = inf_part[0]
        for (pole, _order), (s_fn, alpha) in zip(den_factors, pole_parts):
            lin = UnivariatePolynomial([-pole, 1])
            theta = theta + s_fn + RationalFunction(
                UnivariatePolynomial.constant(alpha), lin)
        w = theta.derivative() + theta * theta - r
        n_poly = _polynomial_kernel(theta, w, d)
        if n_poly is None:
            continue
        u_z = theta + RationalFunction(n_poly.derivative(), n_poly)
        u = u_z + shift
        key = (u.num.coeffs, u.den.coeffs)
        if key in seen:
            continue
        seen.add(key)
        if verify_exp_integral_witness(ode, u):
            witnesses.append(u)
    if skipped and not witnesses:
        raise BoundExceeded(skipped)
    witnesses.sort(key=lambda f: (f.num.degree(), f.den.degree(),
                                  str(f.format())))
    return witnesses, skipped
