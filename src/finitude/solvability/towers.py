"""Constructive radical towers for solvable monodromy.

Exact closed forms cover degree <= 4 (quadratic formula, Cardano with the
paired cube root written as C - p/(3C), Ferrari via the resolvent cubic) and
binomial curves A(x) y^n + B(x).  Regular cyclic and dihedral monodromy of
higher degree goes through Lagrange resolvents: the invariants q = r_1^n and
t_j = r_j / r_1^j are single valued, hence rational functions, fitted
numerically to continuation samples; those towers keep the fit's floating
coefficients and are flagged inexact.

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
from ..permgroups import compose, full_cycles, inverse
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
    rho = rx.root(n, rx.from_rational(radicand))
    return _pick_matching(_phase_candidates(n, rho),
                          action.base_point, action.roots[0])


def _quadratic_tower(P: BivariatePolynomial, action):
    a, b, c = _coeff(P, 2), _coeff(P, 1), _coeff(P, 0)
    disc = b * b - 4 * a * c
    sq = rx.root(2, rx.from_rational(disc))
    two_a = rx.from_rational(2 * a)
    plus = rx.div(rx.add(rx.neg(rx.from_rational(b)), sq), two_a)
    minus = rx.div(rx.add(rx.neg(rx.from_rational(b)), rx.neg(sq)), two_a)
    return _pick_matching([plus, minus], action.base_point, action.roots[0])


def _depressed_cubic_root_trees(p: RationalFunction, q: RationalFunction):
    """Cardano trees for z^3 + p z + q = 0, all branch variants."""
    if p.is_zero():
        rho = rx.root(3, rx.from_rational(-q))
        return _phase_candidates(3, rho)
    delta = q * q * Fraction(1, 4) + p * p * p * Fraction(1, 27)
    sq = rx.root(2, rx.from_rational(delta))
    out = []
    for sign in (1, -1):
        inner = rx.add(rx.from_rational(q * Fraction(-1, 2)),
                       sq if sign > 0 else rx.neg(sq))
        c_root = rx.root(3, inner)
        for cand in _phase_candidates(3, c_root):
            out.append(rx.add(cand,
                              rx.neg(rx.div(rx.from_rational(p),
                                            rx.mul(rx.const(3), cand)))))
    return out


def _cubic_tower(P: BivariatePolynomial, action):
    a3, a2, a1, a0 = (_coeff(P, j) for j in (3, 2, 1, 0))
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    shift = b * Fraction(1, 3)
    p = c - b * b * Fraction(1, 3)
    q = d - b * c * Fraction(1, 3) + b * b * b * Fraction(2, 27)
    shift_expr = rx.from_rational(shift)
    candidates = [rx.add(z, rx.neg(shift_expr))
                  for z in _depressed_cubic_root_trees(p, q)]
    return _pick_matching(candidates, action.base_point, action.roots[0])


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
        inner = rx.root(2, rx.from_rational(p * p - 4 * r))
        for s1 in (1, -1):
            radicand = rx.div(rx.add(rx.neg(rx.from_rational(p)),
                                     inner if s1 > 0 else rx.neg(inner)),
                              rx.const(2))
            outer = rx.root(2, radicand)
            candidates.extend([outer, rx.neg(outer)])
    else:
        # resolvent cubic 8 m^3 + 8 p m^2 + (2 p^2 - 8 r) m - q^2 = 0,
        # monic: m^3 + p m^2 + ((p^2 - 4r)/4) m - q^2/8 = 0
        rp = p
        rq = q
        A = rp
        B = (rp * rp - 4 * r) * Fraction(1, 4)
        C = -rq * rq * Fraction(1, 8)
        pp = B - A * A * Fraction(1, 3)
        qq = C - A * B * Fraction(1, 3) + A * A * A * Fraction(2, 27)
        m_shift = rx.from_rational(A * Fraction(1, 3))
        for z in _depressed_cubic_root_trees(pp, qq):
            m_expr = rx.add(z, rx.neg(m_shift))
            w = rx.root(2, rx.mul(rx.const(2), m_expr))
            q_over_2w = rx.div(rx.from_rational(rq),
                               rx.mul(rx.const(2), w))
            for eq_sign in (1, -1):
                lin = rx.add(rx.from_rational(rp * Fraction(1, 2)), m_expr,
                             q_over_2w if eq_sign > 0 else rx.neg(q_over_2w))
                inner = rx.add(rx.Pow(w, 2),
                               rx.mul(rx.const(-4), lin))
                sq = rx.root(2, inner)
                w_term = w if eq_sign > 0 else rx.neg(w)
                for s2 in (1, -1):
                    num = rx.add(w_term, sq if s2 > 0 else rx.neg(sq))
                    candidates.append(rx.div(num, rx.const(2)))
            break  # one resolvent root suffices; its variants cover all roots
    candidates = [rx.add(z, rx.neg(shift_expr)) for z in candidates]
    return _pick_matching(candidates, action.base_point, action.roots[0])


# --- resolvent towers (cyclic / dihedral) ---------------------------------------


def _perm_power(p, m):
    out = tuple(range(len(p)))
    for _ in range(m):
        out = compose(p, out)
    return out


def _orbit_of(sigma, n):
    orbit = [0]
    while len(orbit) < n:
        orbit.append(sigma[orbit[-1]])
    return orbit


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
        orbit = _orbit_of(cand, n)
        r1 = sum(zeta ** (-k) * vals[orbit[k]] for k in range(n))
        if abs(r1) > 1e-6 * max(1.0, scale):
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
    parts = []
    for k, c in enumerate(coeffs):
        if abs(c) < 1e-14:
            continue
        term = rx.Const(complex(c))
        if k == 1:
            term = rx.mul(term, rx.var())
        elif k > 1:
            term = rx.mul(term, rx.Pow(rx.var(), k))
        parts.append(term)
    return rx.add(*parts) if parts else rx.const(0)


def _invariant_expr(xs, vals):
    """Expression tree for a single-valued invariant given by samples."""
    fit = _fit_rational(xs, vals)
    if fit is None:
        return None
    num, den = fit
    lead = max(den, key=abs)
    return rx.div(_float_poly_expr([c / lead for c in num]),
                  _float_poly_expr([c / lead for c in den]))


def _trailing_sum_expr(P: BivariatePolynomial):
    """Exact expression for the root sum -a_{n-1}/a_n."""
    n = P.degree_y()
    return rx.from_rational(
        RationalFunction(-P.coefficient_y(n - 1), P.coefficient_y(n)))


def _cyclic_tower(P: BivariatePolynomial, action):
    n = P.degree_y()
    cycles = full_cycles(action.group)
    if not cycles:
        raise UnsupportedGroup("cyclic-order group without a full cycle")
    zeta = cmath.exp(2j * math.pi / n)
    points = _sample_points(action, 44)
    samples = _sample_roots(action, points)
    sigma, orbit = _select_generator(cycles[0], n, samples, zeta)

    def resolvents(vals):
        return [sum(zeta ** (-j * k) * vals[orbit[k]] for k in range(n))
                for j in range(n)]

    r_all = [resolvents(v) for v in samples]
    q_vals = [r[1] ** n for r in r_all]
    q_expr = _invariant_expr(points, q_vals)
    if q_expr is None:
        raise UnsupportedGroup("resolvent invariant fit failed (cyclic)")
    t_exprs = {}
    for j in range(2, n):
        t_vals = [r[j] / (r[1] ** j) for r in r_all]
        t_exprs[j] = _invariant_expr(points, t_vals)
        if t_exprs[j] is None:
            raise UnsupportedGroup("resolvent invariant fit failed (cyclic)")
    rho = rx.root(n, q_expr)
    candidates = []
    for rho_k in _phase_candidates(n, rho):
        terms = [_trailing_sum_expr(P), rho_k]
        for j in range(2, n):
            terms.append(rx.mul(t_exprs[j], rx.Pow(rho_k, j)))
        candidates.append(rx.div(rx.add(*terms), rx.const(n)))
    return _pick_matching(candidates, action.base_point, action.roots[0])


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

    def resolvents(vals, relabel=None):
        def img(k):
            pt = orbit[k]
            return relabel[pt] if relabel is not None else pt
        return [sum(zeta ** (-j * k) * vals[img(k)] for k in range(n))
                for j in range(n)]

    r_all = [resolvents(v) for v in samples]
    rt_all = [resolvents(v, relabel=tau) for v in samples]
    q_vals = np.array([r[1] ** n for r in r_all])
    qbar_vals = np.array([r[1] ** n for r in rt_all])
    E_vals = q_vals + qbar_vals
    W_vals = (q_vals - qbar_vals) ** 2
    E_expr = _invariant_expr(points, E_vals)
    W_expr = _invariant_expr(points, W_vals)
    if E_expr is None or W_expr is None:
        raise UnsupportedGroup("resolvent invariant fit failed (dihedral)")
    s_expr = rx.root(2, W_expr)
    u_exprs, v_exprs = {}, {}
    s_sample = q_vals - qbar_vals
    for j in range(2, n):
        t_vals = np.array([r[j] / (r[1] ** j) for r in r_all])
        tt_vals = np.array([rt[j] / (rt[1] ** j) for rt in rt_all])
        u_exprs[j] = _invariant_expr(points, (t_vals + tt_vals) / 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_exprs[j] = _invariant_expr(points,
                                         (t_vals - tt_vals) / (2 * s_sample))
        if u_exprs[j] is None or v_exprs[j] is None:
            raise UnsupportedGroup("resolvent invariant fit failed (dihedral)")
    for s_sign in (1, -1):
        s_signed = s_expr if s_sign > 0 else rx.neg(s_expr)
        q_expr = rx.div(rx.add(E_expr, s_signed), rx.const(2))
        rho = rx.root(n, q_expr)
        candidates = []
        for rho_k in _phase_candidates(n, rho):
            terms = [_trailing_sum_expr(P), rho_k]
            for j in range(2, n):
                t_expr = rx.add(u_exprs[j], rx.mul(v_exprs[j], s_signed))
                terms.append(rx.mul(t_expr, rx.Pow(rho_k, j)))
            candidates.append(rx.div(rx.add(*terms), rx.const(n)))
        try:
            return _pick_matching(candidates, action.base_point,
                                  action.roots[0])
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
