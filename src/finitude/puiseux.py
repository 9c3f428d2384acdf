"""Newton polygons and Puiseux expansions of algebraic functions.

Branches of P(x, y) = 0 near a point x0 (or at infinity, via x -> 1/t) are
computed classically: the Newton polygon of the local equation yields leading
exponents and edge polynomials; multiple edge roots recurse into a deeper
polygon (bounded depth); once branches separate, coefficients are lifted term
by term in the ramified parameter s, x - x0 = s^p.  Exponent arithmetic is
exact (fractions); coefficients are complex floats, certified a posteriori by
the residual check.

The local model has one source: the exact Taylor shift P(x0 + t, y) over
Q(i) (or the exact reversal at infinity), rounded once to complex.  x0 is
the point itself when it is rational.  A floating-point point is first
made exact: when it lies next to a root of the singular locator
lc_y * disc_y, ``refine_root`` carries it onto that root to far below
double precision (a center error e splits an m-fold root by about e^(1/m));
any other point is taken as the double it is.  Each series keeps that exact
center, and ``residual_error`` rebuilds the same model from it.  No
arithmetic runs beyond double precision apart from the exact one.

Conventions:

* at a finite point series run in ascending powers of (x - x0); at infinity
  in descending powers of x (local parameter t = 1/x), and polygon slopes at
  infinity are reported as x-exponents (so y^5 + y - x at infinity shows one
  edge of slope 1/5, length 5);
* a ramification-p cycle is emitted as p conjugate series (s -> zeta_p^k s);
* results are ordered by (leading exponent, leading coefficient (re, im)).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .algebra.gaussian import GaussianRational
from .algebra.poly import (BivariatePolynomial, series_inverse, series_mul,
                           singular_locator)
from .algebra.roots import refine_root
from .errors import (NonExactCenter, NumericBreakdown, OrderTooSmall,
                     SquareFreeRequired, ZeroPolynomial)

INFINITY = "infinity"

_MAX_DEPTH = 8
_EPS = 1e-13


class NewtonPolygon:
    """Lower-left hull of the support of a local equation.

    ``vertices`` are (i, j) lattice points, i the local-parameter power and
    j the y-power; each edge is (slope, lattice length) where the slope is
    the branch exponent it governs and the length counts its branches.
    """

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = [(Fraction(s), int(length)) for s, length in edges]

    def __repr__(self):
        return f"NewtonPolygon(vertices={self.vertices}, edges={self.edges})"


class PuiseuxSeries:
    """One branch y = sum coeff * tau^exponent in the local parameter tau.

    ``center`` is the exact point (Q(i) or INFINITY) the local model was
    built at; it defaults to ``point``.
    """

    def __init__(self, point, ramification, terms, order, center=None):
        self.point = point
        self.ramification = int(ramification)
        self.terms = [(Fraction(e), complex(c)) for e, c in terms]
        self.order = Fraction(order)
        self.center = point if center is None else center

    @property
    def leading_exponent(self) -> Fraction:
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> complex:
        return self.terms[0][1]

    def __call__(self, x) -> complex:
        """Evaluate the truncation with principal fractional powers."""
        if self.point == INFINITY:
            tau = 1.0 / complex(x)
            return sum(c * _principal_power(tau, -e) for e, c in self.terms)
        tau = complex(x) - complex(self.point)
        return sum(c * _principal_power(tau, e) for e, c in self.terms)

    def to_json(self):
        return {
            "ramification": self.ramification,
            "exponents": [f"{e.numerator}/{e.denominator}"
                          if e.denominator != 1 else str(e.numerator)
                          for e, _ in self.terms],
            "coefficients": [[c.real, c.imag] for _, c in self.terms],
        }

    def __repr__(self):
        head = ", ".join(f"{c:.4g}*t^{e}" for e, c in self.terms[:3])
        return (f"PuiseuxSeries(p={self.ramification}, {head}"
                f"{', ...' if len(self.terms) > 3 else ''})")


def _principal_power(z: complex, e: Fraction) -> complex:
    if z == 0:
        return 0j if e > 0 else complex(math.inf)
    if e == 0:
        return 1.0 + 0j
    return cmath.exp(complex(e) * cmath.log(z))


# --- local polynomial model ----------------------------------------------


class _LocalPoly:
    """Complex polynomial in (t, y) as a sparse dict {(i, j): coeff}."""

    __slots__ = ("terms", "scale")

    def __init__(self, terms):
        scale = max((abs(c) for c in terms.values()), default=1.0)
        self.terms = {k: c for k, c in terms.items() if abs(c) > _EPS * scale}
        self.scale = max(scale, 1e-300)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def support(self):
        return list(self.terms)

    def coeff(self, i, j) -> complex:
        return self.terms.get((i, j), 0j)

    def spec_at_zero(self):
        """Dense coefficients of P(0, y)."""
        n = self.degree_y()
        return [self.coeff(0, j) for j in range(n + 1)]

    def reverse_y(self) -> "_LocalPoly":
        n = self.degree_y()
        return _LocalPoly({(i, n - j): c for (i, j), c in self.terms.items()})

    def strip_y_power(self):
        v = min((j for _, j in self.terms), default=0)
        if v == 0:
            return self, 0
        return _LocalPoly({(i, j - v): c
                           for (i, j), c in self.terms.items()}), v

    def drop_terms(self, keys) -> "_LocalPoly":
        """Remove specific lattice terms (noise scrubbing at known zeros)."""
        dropped = set(keys)
        return _LocalPoly({k: c for k, c in self.terms.items()
                           if k not in dropped})

    def ramify_center(self, p: int, q: int, c: complex) -> "_LocalPoly":
        """s^-N * P(s^p, s^q (c + w)) with N the minimal s-valuation."""
        raw = {}
        for (i, j), a in self.terms.items():
            base = p * i + q * j
            b = a
            for l in range(j, -1, -1):
                raw[(base, l)] = raw.get((base, l), 0j) + b
                b = b * c * l / (j - l + 1) if l > 0 else b
        scale = max(abs(v) for v in raw.values())
        raw = {k: v for k, v in raw.items() if abs(v) > _EPS * scale}
        shift = min(i for i, _ in raw)
        return _LocalPoly({(i - shift, j): v for (i, j), v in raw.items()})

    def stretch_t(self, p: int) -> "_LocalPoly":
        return _LocalPoly({(i * p, j): c for (i, j), c in self.terms.items()})

    def eval_series(self, ys, order: int):
        """P(s, y(s)) and P_y(s, y(s)) truncated at s^order; ys dense (len
        order+1)."""
        powers = [[1 + 0j] + [0j] * order]
        for _ in range(self.degree_y()):
            powers.append(series_mul(powers[-1], ys, order, 0j))
        out = [0j] * (order + 1)
        dy = [0j] * (order + 1)
        for (i, j), a in self.terms.items():
            if i > order:
                continue
            pj = powers[j]
            for m in range(0, order + 1 - i):
                out[i + m] += a * pj[m]
            if j:
                pj = powers[j - 1]
                for m in range(0, order + 1 - i):
                    dy[i + m] += a * j * pj[m]
        return out, dy


# --- recentering ------------------------------------------------------------


def _center(P: BivariatePolynomial, point, exact: bool):
    """The exact point the local model is built at: INFINITY, a rational
    point itself, or a Q(i) value for a floating-point one (see the module
    docstring); ``exact`` refuses floating-point points."""
    if point == INFINITY:
        return INFINITY
    if isinstance(point, (GaussianRational, int, Fraction)):
        return GaussianRational.coerce(point)
    if exact:
        raise NonExactCenter(
            f"exact recentering requested at non-rational point {point!r}")
    z = complex(point)
    refined = _singular_center(P, z)
    return refined if refined is not None else GaussianRational.coerce(z)


def _singular_center(P: BivariatePolynomial, z: complex):
    """The root of squarefree_part(lc_y * disc_y) next to z, refined onto
    its Q(i) grid point, or None when z is not next to one (ordinary
    points stay untouched)."""
    if P.degree_y() < 2:
        return None
    try:
        locator = singular_locator(P)
    except SquareFreeRequired:
        return None
    if locator.degree() < 1:
        return None
    return refine_root(locator, z)


def _local_model(P: BivariatePolynomial, center) -> _LocalPoly:
    """P(center + t, y), or t^deg_x P(1/t, y) at INFINITY, computed exactly
    and rounded once to complex."""
    if center == INFINITY:
        dx = P.degree_x()
        rows = [row.reversed_coeffs(dx + 1) for row in P.rows]
    else:
        rows = P.shift_x(center).rows
    terms = {}
    for j, row in enumerate(rows):
        for i, c in enumerate(row.coeffs):
            if not c.is_zero():
                terms[(i, j)] = complex(c)
    return _LocalPoly(terms)


# --- polygon ------------------------------------------------------------------


def _lower_hull(support):
    best = {}
    for i, j in support:
        if j not in best or i < best[j]:
            best[j] = i
    pts = sorted((j, i) for j, i in best.items())
    hull = []
    for j, i in pts:
        while len(hull) >= 2:
            (j1, i1), (j2, i2) = hull[-2], hull[-1]
            if (i2 - i1) * (j - j1) >= (i - i1) * (j2 - j1):
                hull.pop()
            else:
                break
        hull.append((j, i))
    return [(i, j) for j, i in hull]


def _polygon_edges(support):
    """[(mu, length, lo, hi)] with mu the branch exponent of the edge."""
    hull = _lower_hull(support)
    edges = []
    for (i0, j0), (i1, j1) in zip(hull, hull[1:]):
        mu = Fraction(i0 - i1, j1 - j0)
        edges.append((mu, j1 - j0, (i0, j0), (i1, j1)))
    return hull, edges


def newton_polygon(P: BivariatePolynomial, point=0) -> NewtonPolygon:
    """Newton polygon of P at a finite point or INFINITY.

    The sum of edge lengths equals deg_y of the local model; at INFINITY
    slopes are reported as x-exponents (negated t-slopes).
    """
    P = P.primitive_y()
    model = _local_model(P, _center(P, point, False))
    hull, edges = _polygon_edges(model.support())
    sign = -1 if point == INFINITY else 1
    return NewtonPolygon(hull, [(sign * mu, L) for mu, L, _, _ in edges])


# --- seeds -------------------------------------------------------------------


def _cluster_roots(values, tol=3e-6):
    """Group numeric roots into (center, multiplicity) clusters.

    A root of multiplicity m over inexact data splits into m simple roots
    at distance ~ (data error)^(1/m), so clustering is two-stage: an
    absolute tolerance first, then a relative-gap pass that merges clusters
    far closer to each other than to everything else (ill-conditioned
    centers can push genuine multiple roots well past any fixed cutoff).
    """
    out = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for k, (c, m) in enumerate(out):
            if abs(v - c) <= tol * max(1.0, abs(c)):
                out[k] = ((c * m + v) / (m + 1), m + 1)
                break
        else:
            out.append((v, 1))
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                d_ij = abs(out[i][0] - out[j][0])
                external = min(abs(out[i][0] - out[k][0])
                               for k in range(len(out)) if k not in (i, j))
                if d_ij <= max(tol, 0.005 * external):
                    ci, mi = out[i]
                    cj, mj = out[j]
                    merged = ((ci * mi + cj * mj) / (mi + mj), mi + mj)
                    out = [merged] + [out[k] for k in range(len(out))
                                      if k not in (i, j)]
                    changed = True
                    break
            if changed:
                break
    return out


def _numpy_roots(dense):
    """All roots of the polynomial with coefficients ``dense``, lowest power
    first, by numpy's companion eigenvalues: a multiple root comes out as a
    symmetric cluster that ``_cluster_roots`` can merge."""
    import numpy as np  # only here: a puiseux request pays for numpy

    return list(np.roots(dense[::-1]))


def _edge_roots(model: _LocalPoly, mu: Fraction, lo, hi):
    """Nonzero roots of the edge polynomial, in u = c^p, with multiplicity."""
    p = mu.denominator
    i0, j0 = lo
    i1, j1 = hi
    coeffs = {}
    for (i, j), a in model.terms.items():
        if not (j0 <= j <= j1):
            continue
        if (i - i0) * (j1 - j0) == (i1 - i0) * (j - j0):
            k, rem = divmod(j - j0, p)
            if rem == 0:
                coeffs[k] = coeffs.get(k, 0j) + a
    deg = max(coeffs)
    dense = [coeffs.get(k, 0j) for k in range(deg + 1)]
    scale = max(abs(v) for v in dense)
    while dense and abs(dense[0]) <= _EPS * scale:
        dense.pop(0)  # u = 0 roots belong to steeper edges
    if len(dense) <= 1:
        return []
    return _cluster_roots(_numpy_roots(dense))


def _vanishing_seeds(model: _LocalPoly, depth: int):
    """Seeds for branches with y -> 0: list of (p_total, {exp: coeff}).

    Exponents are integers in the ramified parameter s (x-local = s^p_total)
    and the seed separates its branch cycle from all others.
    """
    if depth > _MAX_DEPTH:
        raise NumericBreakdown("edge-root recursion exceeded depth "
                               f"{_MAX_DEPTH}")
    out = []
    stripped, v = model.strip_y_power()
    if not any(j > 0 for _, j in stripped.terms):
        return out
    _, edges = _polygon_edges(stripped.support())
    for mu, _L, lo, hi in edges:
        if mu <= 0:
            continue
        p, q = mu.denominator, mu.numerator
        for u, m in _edge_roots(stripped, mu, lo, hi):
            c = _principal_power(u, Fraction(1, p))
            if m == 1:
                out.append((p, {q: c}))
            else:
                deeper = stripped.ramify_center(p, q, c)
                for p2, seed2 in _vanishing_seeds(deeper, depth + 1):
                    seed = {q * p2: c}
                    for e, w in seed2.items():
                        seed[q * p2 + e] = seed.get(q * p2 + e, 0j) + w
                    out.append((p * p2, seed))
    return out


# --- lifting ------------------------------------------------------------------


def _lift(model: _LocalPoly, p_total: int, seed: dict, target: int):
    """Newton-lift a separated seed on P(s^p_total, y) to s-order target.

    Returns the dense coefficient list of y(s) up to s^target.
    """
    F = model.stretch_t(p_total)
    order = target + max((e for e in seed), default=0) + 2
    ys = [0j] * (order + 1)
    for e, c in seed.items():
        if 0 <= e <= order:
            ys[e] = c
    touched = {}
    for _round in range(8 * order + 32):
        res, fy = F.eval_series(ys, order)
        dscale = max(max(abs(v) for v in fy), 1e-300)
        d = next((k for k, vv in enumerate(fy) if abs(vv) > 1e-9 * dscale),
                 None)
        if d is None:
            raise NumericBreakdown("dP/dy vanishes along the branch seed")
        rscale = max(max(abs(v) for v in res), 1e-300)
        floor = 2e-13 * max(F.scale, rscale)
        nu = next((k for k, vv in enumerate(res) if abs(vv) > floor), None)
        if nu is None or nu - d > target:
            return ys[:target + 1]
        e_new = nu - d
        if e_new < 0:
            raise NumericBreakdown(
                "negative lifting exponent; branch seed not separated",
                condition=abs(res[nu] / fy[d]))
        touched[e_new] = touched.get(e_new, 0) + 1
        if touched[e_new] > 4:
            # the residual is pinned at noise level (inexact center);
            # further corrections cannot improve the truncation
            return ys[:target + 1]
        ys[e_new] += -res[nu] / fy[d]
    raise NumericBreakdown("branch lifting failed to converge")


def _series_invert(ys, target: int):
    """1/y(s) for y of positive valuation; dict {exp: coeff}, exps >= -v."""
    v = next((k for k, c in enumerate(ys) if c != 0), None)
    if v is None:
        raise NumericBreakdown("cannot invert the zero series")
    inv = series_inverse(ys[v:], target + v, 0j)
    return {m - v: c for m, c in enumerate(inv) if c != 0}


# --- public expansion ----------------------------------------------------------


def puiseux_expand(P: BivariatePolynomial, point=0, order=None,
                   exact=False):
    """All branch expansions of P at the point (or INFINITY).

    Returns deg_y P PuiseuxSeries counted with ramification (a cycle of
    length p appears as p conjugate series).  ``order`` bounds the included
    exponents (in x - x0, or in 1/x at infinity); it defaults to
    leading-exponent + 4.  Residuals of the truncations vanish beyond the
    requested order, which ``residual_error`` quantifies.  With ``exact``
    a floating-point point raises NonExactCenter.
    """
    if P.is_zero():
        raise ZeroPolynomial("the zero polynomial has no branches")
    P = P.primitive_y()
    n = P.degree_y()
    center = _center(P, point, exact)
    model = _local_model(P, center)

    # entries: (p_total, seed dict, kind, lift model, offset added to y)
    branch_data = []
    stripped, y_power = model.strip_y_power()
    for _ in range(y_power):
        branch_data.append((1, {0: 0j}, "zero-component", None, 0j))

    spec = stripped.spec_at_zero()
    dense = list(spec)
    while dense and abs(dense[-1]) <= _EPS * stripped.scale:
        dense.pop()

    # finite branches: cluster all roots of P(0, y); an m-fold cluster
    # recurses through the polygon of the shifted model, with the known
    # zero coefficients (0, j < m) scrubbed of numeric noise (a split
    # cluster leaves residues there that would otherwise hide the edge
    # and stall the lift)
    if len(dense) > 1:
        for c, m in _cluster_roots(_numpy_roots(dense)):
            near_zero = abs(c) <= 3e-6 * max(1.0, stripped.scale)
            if m == 1 and not near_zero:
                branch_data.append((1, {0: c}, "finite", stripped, 0j))
                continue
            shifted = stripped if near_zero \
                else stripped.ramify_center(1, 0, c)
            shifted = shifted.drop_terms([(0, j) for j in range(m)])
            offset = 0j if near_zero else c
            for p_tot, seed in _vanishing_seeds(shifted, 0):
                branch_data.append((p_tot, seed, "finite", shifted, offset))

    # pole branches: leading y-coefficient vanishes at the point
    lead_row_min = min((i for (i, j) in stripped.terms
                        if j == stripped.degree_y()), default=0)
    if lead_row_min > 0:
        reversed_model = stripped.reverse_y()
        rstripped, _ = reversed_model.strip_y_power()
        for p_tot, seed in _vanishing_seeds(rstripped, 0):
            branch_data.append((p_tot, seed, "pole", rstripped, 0j))

    leading = []
    for p_tot, seed, kind, _model, offset in branch_data:
        if kind == "pole":
            e0 = -min(seed)
        elif offset != 0:
            e0 = 0
        else:
            e0 = min(seed)
        leading.append(Fraction(e0, p_tot))
    if order is None:
        order = (max(leading) if leading else Fraction(0)) + 4
    order = Fraction(order)
    if leading and order < min(leading):
        raise OrderTooSmall(
            f"order {order} is below the smallest leading exponent "
            f"{min(leading)}")

    out = []
    for p_tot, seed, kind, lift_model, offset in branch_data:
        if kind == "zero-component":
            out.append(PuiseuxSeries(point, 1, [(Fraction(0), 0j)], order,
                                     center))
            continue
        # resolve at least one term past the branch's own leading exponent,
        # even when the requested order sits below it
        lead_e = Fraction(min(seed), p_tot)
        branch_order = max(order, lead_e + 1)
        target = int(math.ceil(branch_order * p_tot)) + 1
        if kind == "pole":
            zs = _lift(lift_model, p_tot, seed, target + 2 * max(seed) + 2)
            terms_map = _series_invert(zs, target)
        else:
            ys = _lift(lift_model, p_tot, seed, target)
            terms_map = {e: c for e, c in enumerate(ys) if c != 0}
            if offset != 0:
                terms_map[0] = terms_map.get(0, 0j) + offset
        for k in range(p_tot):
            zeta = cmath.exp(2j * math.pi / p_tot) ** k
            terms = []
            for e in sorted(terms_map):
                exp = Fraction(e, p_tot)
                if exp > branch_order:
                    continue
                terms.append((exp, terms_map[e] * (zeta ** e)))
            if not terms:
                terms = [(Fraction(0), 0j)]
            if point == INFINITY:
                terms = [(-e, c) for e, c in terms]
            out.append(PuiseuxSeries(point, p_tot, terms, branch_order,
                                     center))
    if len(out) != n:
        raise NumericBreakdown(
            f"found {len(out)} branches, expected {n}")
    out.sort(key=lambda s: (s.leading_exponent,
                            s.leading_coefficient.real,
                            s.leading_coefficient.imag))
    return out


def ramification_multiset(P: BivariatePolynomial, point):
    """Multiset of branch-cycle lengths at the point (local cycle type)."""
    series = puiseux_expand(P, point)
    counts = {}
    for s in series:
        counts[s.ramification] = counts.get(s.ramification, 0) + 1
    out = []
    for p, total in sorted(counts.items()):
        out.extend([p] * (total // p))
    return tuple(sorted(out))


def residual_error(P: BivariatePolynomial, series: PuiseuxSeries) -> float:
    """Max relative residual coefficient of P(x, s(x)) at exponents <= order.

    Substituting the truncation into the local model must leave residual
    series coefficients that vanish for every exponent up to the truncation
    order; the return value is the largest such coefficient relative to the
    model's coefficient scale (1e-10 certifies ten digits).

    Nonzero branches are scored against the model with its y^v factor
    divided out.  The identically-zero series (the ``y = 0`` component that
    ``puiseux_expand`` emits once per factor of y) is scored against the
    model with y^v kept: its residual is P(x, 0), exactly zero when y
    divides P and a genuine nonzero residual when it does not.
    """
    P = P.primitive_y()
    model = _local_model(P, _center(P, series.center, False))
    p = series.ramification
    if all(c == 0 for _, c in series.terms):
        F = model.stretch_t(p)
        order_s = int(series.order * p)
        res, _ = F.eval_series([0j] * (order_s + 1), order_s)
        return max(abs(val) for val in res) / F.scale
    stripped, _v = model.strip_y_power()
    # dense s-coefficients of the branch, exponents e*p (negated at infinity)
    pairs = []
    for e, c in series.terms:
        exp = -e if series.point == INFINITY else e
        pairs.append((int(exp * p), c))
    v = min(e for e, _ in pairs)
    target = int(series.order * p)
    if v < 0:
        # pole branch: check the reciprocal series against the reversed model
        stripped = stripped.reverse_y().strip_y_power()[0]
        depth = max(e for e, _ in pairs) - 3 * v + target + 2
        unit = [0j] * (depth + 1)  # s^-v y, a power series
        for e, c in pairs:
            if e - v <= depth:
                unit[e - v] = c
        # z = 1/y = s^{-v} / (s^{-v} y): shift the inverted unit part
        ys = [0j] * (depth + 1)
        for m, c in _series_invert(unit, depth).items():
            if m - v <= depth:
                ys[m - v] = c
    else:
        ys = [0j] * (max(target, max(e for e, _ in pairs)) + 1)
        for e, c in pairs:
            ys[e] = c
    F = stripped.stretch_t(p)
    res, _ = F.eval_series(ys, target)
    return max((abs(val) for val in res[:target + 1]),
               default=0.0) / F.scale
