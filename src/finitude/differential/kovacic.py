"""Rational witnesses u = y'/y for second-order linear ODEs.

For y'' + a1 y' + a2 y = 0 the substitution u = v - a1/2 turns the Riccati
equation into v' + v^2 = r with r = a1^2/4 + a1'/2 - a2, and a rational v
must assemble from fixed local parts at each pole of r and at infinity plus
a logarithmic derivative N'/N of an unknown monic polynomial whose degree is
forced by the residue count.  Local parts come from exact Laurent series;
N is found by exact linear algebra.  Everything stays inside Gaussian
rational data: poles at non-Gaussian points or irrational local square roots
end the search (no witness within this scope), which the caller must read as
"none found", never as a proof of unsolvability.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ..algebra.gaussian import GaussianRational
from ..algebra.poly import (RationalFunction, UnivariatePolynomial,
                            series_inverse, series_mul,
                            squarefree_factorization)
from ..algebra.roots import exact_gaussian_roots, exact_nth_root
from ..errors import BoundExceeded
from .jets import LinearODE, verify_exp_integral_witness

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_HALF = GaussianRational(Fraction(1, 2))


def _series_sqrt(coeffs, order):
    """Exact sqrt of a series with square leading term, or None."""
    g0 = exact_nth_root(coeffs[0], 2)
    if g0 is None:
        return None
    out = [g0]
    inv2g0 = (g0 + g0).inverse()
    for m in range(1, order + 1):
        acc = coeffs[m] if m < len(coeffs) else _ZERO
        for j in range(1, m):
            acc = acc - out[j] * out[m - j]
        out.append(acc * inv2g0)
    return out


def _local_series(r: RationalFunction, pole: GaussianRational, order: int,
                  depth: int):
    """Series of (x - pole)^order * r, to the requested depth, exact."""
    a = r.num.shift(pole)
    b = r.den.shift(pole)
    v = 0
    while b.coefficient(v).is_zero():
        v += 1
    b_unit = UnivariatePolynomial(b.coeffs[v:])
    a_list = [a.coefficient(k) for k in range(depth + 1)]
    binv = series_inverse([b_unit.coefficient(k) for k in range(depth + 1)],
                          depth, _ZERO)
    return series_mul(a_list, binv, depth, _ZERO)


def _series_at_infinity(r: RationalFunction, depth: int):
    """(nu, series) with r = w^nu (s0 + s1 w + ...), w = 1/x, exact."""
    nu = r.den.degree() - r.num.degree()
    a = r.num.reversed_coeffs()
    b = r.den.reversed_coeffs()
    a_list = [a.coefficient(k) for k in range(depth + 1)]
    binv = series_inverse([b.coefficient(k) for k in range(depth + 1)],
                          depth, _ZERO)
    return nu, series_mul(a_list, binv, depth, _ZERO)


class _LocalData:
    """Candidate local parts at one pole: list of (sqrt_part, alpha)."""

    def __init__(self, pole, variants):
        self.pole = pole
        self.variants = variants  # (RationalFunction sqrt part, alpha)


def _pole_candidates(r: RationalFunction, pole: GaussianRational, order: int):
    variants = []
    if order == 1:
        variants.append((RationalFunction.coerce(0), _ONE))
        return _LocalData(pole, variants)
    if order == 2:
        series = _local_series(r, pole, order, 0)
        b2 = series[0]
        disc = exact_nth_root(_ONE + 4 * b2, 2)
        if disc is None:
            return _LocalData(pole, [])
        for s in (disc, -disc):
            variants.append((RationalFunction.coerce(0), (_ONE + s) * _HALF))
        return _LocalData(pole, variants)
    if order % 2 == 1:
        return None  # odd order >= 3: no rational witness exists
    k = order // 2
    series = _local_series(r, pole, order, k + 1)
    g = _series_sqrt(series, k - 1)
    if g is None:
        return _LocalData(pole, [])
    # sqrt part S = sum_{i=0}^{k-2} g_i (x-pole)^(i-k)
    lin = UnivariatePolynomial([-pole, 1])
    s_fn = RationalFunction.coerce(0)
    for i in range(0, k - 1):
        s_fn = s_fn + RationalFunction(
            UnivariatePolynomial.constant(g[i]), lin ** (k - i))
    gg = series_mul(g[:k - 1], g[:k - 1], k + 1, _ZERO)
    b = (series[k - 1] if k - 1 < len(series) else _ZERO) - gg[k - 1]
    variants = []
    for sign, s_signed in ((_ONE, s_fn), (-_ONE, -s_fn)):
        alpha = (b / (sign * g[0]) + k) * _HALF
        variants.append((s_signed, alpha))
    return _LocalData(pole, variants)


def _infinity_candidates(r: RationalFunction):
    nu = r.den.degree() - r.num.degree()
    if nu > 2:
        return [(RationalFunction.coerce(0), _ZERO),
                (RationalFunction.coerce(0), _ONE)]
    if nu == 2:
        _nu, series = _series_at_infinity(r, 0)
        disc = exact_nth_root(_ONE + 4 * series[0], 2)
        if disc is None:
            return []
        return [(RationalFunction.coerce(0), (_ONE + s) * _HALF)
                for s in (disc, -disc)]
    if nu % 2 == 1:
        return None  # odd order at infinity: no rational witness
    d = -nu // 2
    _nu, series = _series_at_infinity(r, d + 1)
    g = _series_sqrt(series, d)
    if g is None:
        return []
    # polynomial part sum_m g_m x^(d-m), coefficients low degree first
    p_fn = RationalFunction(UnivariatePolynomial(list(reversed(g[:d + 1]))))
    gg = series_mul(g[:d + 1], g[:d + 1], d + 1, _ZERO)
    b = series[d + 1] - gg[d + 1]
    out = []
    for sign, p_signed in ((_ONE, p_fn), (-_ONE, -p_fn)):
        alpha = (b / (sign * g[0]) - d) * _HALF
        out.append((p_signed, alpha))
    return out


def _solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs over Q(i), or None."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [val] for row, val in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for k in range(row, m):
            if not aug[k][col].is_zero():
                sel = k
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [v * inv for v in aug[row]]
        for k in range(m):
            if k != row and not aug[k][col].is_zero():
                factor = aug[k][col]
                aug[k] = [a - factor * b for a, b in zip(aug[k], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for k in range(row, m):
        if not aug[k][n].is_zero():
            return None
    solution = [_ZERO] * n
    for r_idx, col in enumerate(pivots):
        solution[col] = aug[r_idx][n]
    return solution


def _polynomial_kernel(theta: RationalFunction, w: RationalFunction, d: int):
    """Monic N of degree d with N'' + 2 theta N' + w N = 0, or None."""
    den = theta.den * w.den
    two_theta_den = 2 * theta * RationalFunction(den)
    w_den = w * RationalFunction(den)
    if not two_theta_den.is_polynomial() or not w_den.is_polynomial():
        raise AssertionError("denominator clearing failed")
    P1 = den
    P2 = two_theta_den.num
    P3 = w_den.num
    # E = P1 N'' + P2 N' + P3 N must vanish identically.
    def column(npoly):
        e = P1 * npoly.derivative().derivative() + P2 * npoly.derivative() \
            + P3 * npoly
        return e
    monic = UnivariatePolynomial.monomial(GaussianRational(1), d)
    base = column(monic)
    if d == 0:
        return monic if base.is_zero() else None
    cols = []
    for k in range(d):
        cols.append(column(UnivariatePolynomial.monomial(GaussianRational(1),
                                                         k)))
    deg_max = max([base.degree()] + [c.degree() for c in cols if not c.is_zero()]
                  + [0])
    rows = []
    rhs = []
    for power in range(deg_max + 1):
        rows.append([c.coefficient(power) for c in cols])
        rhs.append(-base.coefficient(power))
    sol = _solve_linear(rows, rhs)
    if sol is None:
        return None
    return UnivariatePolynomial(list(sol) + [GaussianRational(1)])


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
        data = _pole_candidates(r, pole, order)
        if data is None or not data.variants:
            return [], None
        locals_.append(data)
    inf_variants = _infinity_candidates(r)
    if not inf_variants:
        return [], None
    degree_bound = max(10, sum(o for _p, o in den_factors)
                       + abs(r.num.degree() - r.den.degree()) + 2)
    seen = set()
    skipped = None
    for choice in product(*([d.variants for d in locals_] + [inf_variants])):
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
