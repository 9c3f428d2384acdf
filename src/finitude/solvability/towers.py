"""Constructive radical towers for solvable monodromy.

Exact closed forms cover degree <= 4 (quadratic formula, Cardano with the
paired cube root written as C - p/(3C), Ferrari via the resolvent cubic,
whose roots come from the same Cardano trees) and binomial curves
A(x) y^n + B(x).  Regular cyclic and dihedral monodromy of higher degree
goes through Lagrange resolvents (Dummit, Math. Comp. 57, 1991): the
invariants q = r_1^n and t_j = r_j / r_1^j are single valued, hence rational
functions, fitted numerically to continuation samples.  Both towers build
the same candidates (-a_{n-1}/a_n + rho + sum_j t_j rho^j)/n from them; the
dihedral one first takes q and t_j from the invariants of the resolvents and
of their images under the reversing involution, over the square root s of a
fitted discriminant.  These towers keep the fit's floating coefficients and
are flagged inexact; a fitted invariant that is zero, or a fitted unit
denominator, leaves no term in the tree.

Every emitted tree evaluates, under the principal-branch convention, to some
root of P(x, .) at every non-singular x; a root-of-unity factor pins the
branch that matches the labeled root y_1 at the base point.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from ..algebra.poly import BivariatePolynomial, RationalFunction
from ..errors import UnsupportedGroup
from ..monodromy import MonodromyAction, monodromy_group, track_to_point
from ..permgroups import compose, cycles, full_cycles, inverse
from . import radexpr as rx

MATCH_TOL = 1e-8


def radical_tower(P: BivariatePolynomial, action: MonodromyAction = None):
    """Radical expression for the labeled root y_1 of a solvable curve.

    Raises UnsupportedGroup for solvable monodromy outside the constructive
    scope (degree <= 4, binomial, cyclic, dihedral).  The returned tree's
    ``exact`` flag is False for the cyclic and dihedral towers of degree
    >= 5, whose fitted invariants keep floating coefficients.
    """
    P = P.primitive_y()
    n = P.degree_y()
    if n < 1:
        raise UnsupportedGroup("no y dependence")
    if n == 1:
        value = RationalFunction(-P.coefficient_y(0), P.coefficient_y(1))
        return rx.from_rational(value)
    if action is None:
        action = monodromy_group(P)
    if not action.group.is_solvable():
        raise UnsupportedGroup("monodromy group is not solvable")
    binom = _binomial_tower(P, action)
    if binom is not None:
        return binom
    if n == 2:
        return _quadratic_tower(P, action)
    if n == 3:
        return _cubic_tower(P, action)
    if n == 4:
        return _quartic_tower(P, action)
    order = action.group.order()
    if order == n and action.transitive:
        return _cyclic_tower(P, action)
    if order == 2 * n and action.transitive:
        cycles = full_cycles(action.group)
        if cycles:
            return _dihedral_tower(P, action, cycles[0])
    raise UnsupportedGroup(
        f"solvable group of order {order} at degree {n} is outside the "
        "constructive tower scope")


# --- branch matching ---------------------------------------------------------


def _pick_matching(candidates, base, target):
    best = None
    for expr in candidates:
        try:
            val = expr(base)
        except (ZeroDivisionError, ValueError, OverflowError):
            continue
        err = abs(val - target) / max(1.0, abs(target))
        if best is None or err < best[0]:
            best = (err, expr)
    if best is None or best[0] > MATCH_TOL:
        got = best[0] if best else math.inf
        raise UnsupportedGroup(
            f"no candidate branch matches the labeled root ({got:.2e})")
    return best[1]


def _phase_candidates(n: int, rho):
    """rho multiplied by every exactly-representable n-th root of unity;
    falls back to inexact phases when the table has no closed form."""
    out = []
    for k in range(n):
        phase = rx.unity_root(n, k)
        if phase is None:
            phase = rx.Const(cmath.exp(2j * math.pi * k / n))
        out.append(rx.mul(phase, rho) if k else rho)
    return out


# --- exact low-degree towers ---------------------------------------------------


def _coeff(P: BivariatePolynomial, j: int) -> RationalFunction:
    return RationalFunction(P.coefficient_y(j))


def _binomial_tower(P: BivariatePolynomial, action):
    n = P.degree_y()
    if any(not P.coefficient_y(j).is_zero() for j in range(1, n)):
        return None
    radicand = RationalFunction(-P.coefficient_y(0), P.coefficient_y(n))
    rho = rx.Root(n, rx.from_rational(radicand))
    return _pick_matching(_phase_candidates(n, rho),
                          action.base_point, action.roots[0])


def _quadratic_tower(P: BivariatePolynomial, action):
    a, b, c = _coeff(P, 2), _coeff(P, 1), _coeff(P, 0)
    disc = b * b - 4 * a * c
    sq = rx.Root(2, rx.from_rational(disc))
    two_a = rx.from_rational(2 * a)
    plus = rx.div(rx.add(rx.neg(rx.from_rational(b)), sq), two_a)
    minus = rx.div(rx.add(rx.neg(rx.from_rational(b)), rx.neg(sq)), two_a)
    return _pick_matching([plus, minus], action.base_point, action.roots[0])


def _depressed_cubic(b: RationalFunction, c: RationalFunction,
                     d: RationalFunction):
    """Cardano trees for y^3 + b y^2 + c y + d = 0, all branch variants:
    y = z - b/3 with z^3 + p z + q = 0, and the paired cube root of z
    written as C - p/(3C)."""
    p = c - b * b * Fraction(1, 3)
    q = d - b * c * Fraction(1, 3) + b * b * b * Fraction(2, 27)
    if p.is_zero():
        roots = _phase_candidates(3, rx.Root(3, rx.from_rational(-q)))
    else:
        delta = q * q * Fraction(1, 4) + p * p * p * Fraction(1, 27)
        sq = rx.Root(2, rx.from_rational(delta))
        roots = []
        for s in (sq, rx.neg(sq)):
            c_root = rx.Root(3, rx.add(rx.from_rational(q * Fraction(-1, 2)),
                                       s))
            for cand in _phase_candidates(3, c_root):
                roots.append(rx.add(cand, rx.neg(rx.div(
                    rx.from_rational(p), rx.mul(rx.Const(3), cand)))))
    shift = rx.from_rational(b * Fraction(1, 3))
    return [rx.add(z, rx.neg(shift)) for z in roots]


def _cubic_tower(P: BivariatePolynomial, action):
    a3, a2, a1, a0 = (_coeff(P, j) for j in (3, 2, 1, 0))
    return _pick_matching(_depressed_cubic(a2 / a3, a1 / a3, a0 / a3),
                          action.base_point, action.roots[0])


def _quartic_tower(P: BivariatePolynomial, action):
    a4, a3, a2, a1, a0 = (_coeff(P, j) for j in (4, 3, 2, 1, 0))
    b, c, d, e = a3 / a4, a2 / a4, a1 / a4, a0 / a4
    shift = b * Fraction(1, 4)
    p = c - b * b * Fraction(3, 8)
    q = d - b * c * Fraction(1, 2) + b * b * b * Fraction(1, 8)
    r = e - b * d * Fraction(1, 4) + b * b * c * Fraction(1, 16) \
        - b * b * b * b * Fraction(3, 256)
    shift_expr = rx.from_rational(shift)
    candidates = []
    if q.is_zero():
        inner = rx.Root(2, rx.from_rational(p * p - 4 * r))
        for s1 in (1, -1):
            radicand = rx.div(rx.add(rx.neg(rx.from_rational(p)),
                                     inner if s1 > 0 else rx.neg(inner)),
                              rx.Const(2))
            outer = rx.Root(2, radicand)
            candidates.extend([outer, rx.neg(outer)])
    else:
        # resolvent cubic 8 m^3 + 8 p m^2 + (2 p^2 - 8 r) m - q^2 = 0,
        # monic: m^3 + p m^2 + ((p^2 - 4r)/4) m - q^2/8 = 0; one of its
        # roots suffices, its variants cover all roots
        m_expr = _depressed_cubic(p, (p * p - 4 * r) * Fraction(1, 4),
                                  -q * q * Fraction(1, 8))[0]
        w = rx.Root(2, rx.mul(rx.Const(2), m_expr))
        q_over_2w = rx.div(rx.from_rational(q), rx.mul(rx.Const(2), w))
        for eq_sign in (1, -1):
            lin = rx.add(rx.from_rational(p * Fraction(1, 2)), m_expr,
                         q_over_2w if eq_sign > 0 else rx.neg(q_over_2w))
            inner = rx.add(rx.Pow(w, 2), rx.mul(rx.Const(-4), lin))
            sq = rx.Root(2, inner)
            w_term = w if eq_sign > 0 else rx.neg(w)
            for s2 in (1, -1):
                num = rx.add(w_term, sq if s2 > 0 else rx.neg(sq))
                candidates.append(rx.div(num, rx.Const(2)))
    candidates = [rx.add(z, rx.neg(shift_expr)) for z in candidates]
    return _pick_matching(candidates, action.base_point, action.roots[0])


# --- resolvent towers (cyclic / dihedral) ---------------------------------------


def _perm_power(p, m):
    out = tuple(range(len(p)))
    for _ in range(m):
        out = compose(p, out)
    return out


def _resolvents(vals, orbit, zeta, relabel=None):
    """Lagrange resolvents r_j = sum_k zeta^(-jk) y_(orbit[k]), j < n, of
    one sample of roots; ``relabel`` first maps each orbit point."""
    n = len(orbit)
    if relabel is not None:
        orbit = [relabel[pt] for pt in orbit]
    return [sum(zeta ** (-j * k) * vals[orbit[k]] for k in range(n))
            for j in range(n)]


def _select_generator(sigma, n, sample_roots_list, zeta):
    """A power of sigma (coprime exponent) whose first resolvent is nonzero.

    The Lagrange resolvent r_1 can vanish identically for an unlucky orbit
    labeling (e.g. Chebyshev curves); relabeling by sigma^m fixes it.
    """
    vals = sample_roots_list[0]
    scale = max(abs(v) for v in vals)
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        cand = _perm_power(sigma, m)
        orbit = cycles(cand)[0]
        if abs(_resolvents(vals, orbit, zeta)[1]) > 1e-6 * max(1.0, scale):
            return cand, orbit
    raise UnsupportedGroup("all Lagrange resolvents vanish at the samples")


def _sample_points(action, count):
    base = action.base_point
    radius = 0.3 * abs(base)
    return [base + radius * cmath.exp(2j * math.pi * (k + 0.15) / count)
            for k in range(count)]


def _sample_roots(action, points):
    import numpy as np

    return [np.asarray(track_to_point(action, x)) for x in points]


def _fit_rational(xs, vals, max_degree=16, holdout=6):
    """Least-squares rational fit with numerator/denominator degree sweep.

    Returns (num complex coeffs low-first, den complex coeffs low-first) or
    None; the last ``holdout`` samples validate the fit.
    """
    import numpy as np

    xs = np.asarray(xs)
    vals = np.asarray(vals)
    fit_x, fit_v = xs[:-holdout], vals[:-holdout]
    chk_x, chk_v = xs[-holdout:], vals[-holdout:]
    scale = max(1.0, float(np.max(np.abs(vals))))
    for deg in range(0, max_degree + 1):
        cols = []
        for k in range(deg + 1):
            cols.append(fit_x ** k)
        for k in range(deg + 1):
            cols.append(-fit_v * fit_x ** k)
        M = np.column_stack(cols)
        _, _, vh = np.linalg.svd(M)
        sol = vh[-1].conj()
        num = sol[:deg + 1]
        den = sol[deg + 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            approx = np.polyval(num[::-1], chk_x) / np.polyval(den[::-1], chk_x)
        err = float(np.max(np.abs(approx - chk_v)))
        if math.isfinite(err) and err <= 1e-8 * scale:
            return list(num), list(den)
    return None


def _float_poly_expr(coeffs):
    return rx.monomial_sum((k, rx.Const(complex(c)))
                           for k, c in enumerate(coeffs)
                           if not abs(c) < 1e-14)


def _invariant_expr(xs, vals, tower):
    """Expression tree for a single-valued invariant given by samples;
    raises UnsupportedGroup, naming the tower, when no fit is found."""
    fit = _fit_rational(xs, vals)
    if fit is None:
        raise UnsupportedGroup(f"resolvent invariant fit failed ({tower})")
    num, den = fit
    lead = max(den, key=abs)
    return rx.div(_float_poly_expr([c / lead for c in num]),
                  _float_poly_expr([c / lead for c in den]))


def _lagrange_candidates(P: BivariatePolynomial, q_expr, t_exprs):
    """(-a_(n-1)/a_n + rho + sum_j t_j rho^j)/n, j = 2..n-1, for rho each
    n-th root of q: the roots of P from the resolvent invariants
    q = r_1^n and t_j = r_j/r_1^j."""
    n = P.degree_y()
    root_sum = rx.from_rational(
        RationalFunction(-P.coefficient_y(n - 1), P.coefficient_y(n)))
    candidates = []
    for rho_k in _phase_candidates(n, rx.Root(n, q_expr)):
        terms = [rx.mul(t, rx.Pow(rho_k, j))
                 for j, t in enumerate(t_exprs, start=2)]
        candidates.append(rx.div(rx.add(root_sum, rho_k, *terms),
                                 rx.Const(n)))
    return candidates


def _cyclic_tower(P: BivariatePolynomial, action):
    n = P.degree_y()
    full = full_cycles(action.group)
    if not full:
        raise UnsupportedGroup("cyclic-order group without a full cycle")
    zeta = cmath.exp(2j * math.pi / n)
    points = _sample_points(action, 44)
    samples = _sample_roots(action, points)
    sigma, orbit = _select_generator(full[0], n, samples, zeta)
    r_all = [_resolvents(v, orbit, zeta) for v in samples]
    q_expr = _invariant_expr(points, [r[1] ** n for r in r_all], "cyclic")
    t_exprs = [_invariant_expr(points, [r[j] / (r[1] ** j) for r in r_all],
                               "cyclic")
               for j in range(2, n)]
    return _pick_matching(_lagrange_candidates(P, q_expr, t_exprs),
                          action.base_point, action.roots[0])


def _dihedral_tower(P: BivariatePolynomial, action, sigma):
    import numpy as np

    n = P.degree_y()
    group = action.group
    zeta = cmath.exp(2j * math.pi / n)
    points = _sample_points(action, 52)
    samples = _sample_roots(action, points)
    sigma, orbit = _select_generator(sigma, n, samples, zeta)
    sigma_inv = inverse(sigma)
    tau = None
    for g in group.elements(10**5):
        if compose(g, compose(sigma, inverse(g))) == sigma_inv and \
                compose(g, g) == tuple(range(n)):
            tau = g
            break
    if tau is None:
        raise UnsupportedGroup("no reversing involution found")
    r_all = [_resolvents(v, orbit, zeta) for v in samples]
    rt_all = [_resolvents(v, orbit, zeta, relabel=tau) for v in samples]
    q_vals = np.array([r[1] ** n for r in r_all])
    qbar_vals = np.array([r[1] ** n for r in rt_all])
    E_expr = _invariant_expr(points, q_vals + qbar_vals, "dihedral")
    W_expr = _invariant_expr(points, (q_vals - qbar_vals) ** 2, "dihedral")
    s_expr = rx.Root(2, W_expr)
    u_exprs, v_exprs = [], []
    s_sample = q_vals - qbar_vals
    for j in range(2, n):
        t_vals = np.array([r[j] / (r[1] ** j) for r in r_all])
        tt_vals = np.array([rt[j] / (rt[1] ** j) for rt in rt_all])
        u_exprs.append(_invariant_expr(points, (t_vals + tt_vals) / 2,
                                       "dihedral"))
        with np.errstate(divide="ignore", invalid="ignore"):
            v_exprs.append(_invariant_expr(
                points, (t_vals - tt_vals) / (2 * s_sample), "dihedral"))
    for s_signed in (s_expr, rx.neg(s_expr)):
        q_expr = rx.div(rx.add(E_expr, s_signed), rx.Const(2))
        t_exprs = [rx.add(u, rx.mul(v, s_signed))
                   for u, v in zip(u_exprs, v_exprs)]
        try:
            return _pick_matching(_lagrange_candidates(P, q_expr, t_exprs),
                                  action.base_point, action.roots[0])
        except UnsupportedGroup:
            continue
    raise UnsupportedGroup("dihedral branch matching failed")


# --- certificate soundness -------------------------------------------------------


def tower_mismatch(P: BivariatePolynomial, expr, action,
                   sample_count: int = 100, seed: int = 7) -> float:
    """Max relative distance from tower values to the nearest branch value.

    The reference at each sample is the full root multiset of P(x, .) --
    exactly the values of the continuation-tracked branches there, computed
    directly for robustness near branch collisions.
    """
    import numpy as np

    rng = random.Random(seed)
    base = action.base_point
    worst = 0.0
    count = 0
    while count < sample_count:
        radius = abs(base) * (0.15 + 0.7 * rng.random())
        angle = 2 * math.pi * rng.random()
        x = base + radius * cmath.exp(1j * angle)
        spec = [complex(P.coefficient_y(j)(x))
                for j in range(P.degree_y() + 1)]
        if abs(spec[-1]) < 1e-8:
            continue  # too close to a leading-coefficient zero
        roots = np.roots(spec[::-1])
        val = expr(x)
        err = min(abs(val - r) for r in roots) / \
            max(1.0, max(abs(r) for r in roots))
        worst = max(worst, err)
        count += 1
    return worst
