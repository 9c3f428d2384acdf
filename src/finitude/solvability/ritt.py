"""Functional decomposition of polynomials and primitive classification.

Right factors are found exactly over the Gaussian rationals: for each
divisor d of the degree, the unique monic candidate with zero constant term
comes from an approximate e-th root (triangular coefficient solve), and the
h-adic expansion of f certifies or refutes it.  A primitive factor is then
classified through its critical-value structure: one critical value of full
multiplicity is a conjugated power map, two critical values hit by a
Chebyshev pattern are a conjugated Chebyshev polynomial (recognized exactly,
including the linear intertwiners), degree <= 4 short-circuits, anything
else is Other.
"""

from __future__ import annotations

from ..algebra.gaussian import GaussianRational
from ..algebra.poly import (BivariatePolynomial, UnivariatePolynomial,
                            discriminant_y)
from ..algebra.roots import exact_gaussian_roots, exact_nth_root
from ..errors import DegreeTooLow

_GAUSSIAN_UNITS = [GaussianRational(1), GaussianRational(-1),
                   GaussianRational(0, 1), GaussianRational(0, -1)]


class CompositionChain:
    """Factors listed innermost first; composing them reproduces the input."""

    def __init__(self, factors, primitive_flags=None):
        self.factors = list(factors)
        self.primitive_flags = (list(primitive_flags)
                                if primitive_flags is not None
                                else [True] * len(self.factors))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def degrees(self):
        return [f.degree() for f in self.factors]

    def __repr__(self):
        return f"CompositionChain(degrees={self.degrees()})"


def compose_chain(chain) -> UnivariatePolynomial:
    factors = list(chain)
    acc = factors[0]
    for f in factors[1:]:
        acc = f.compose(acc)
    return acc


def _divisors(n: int):
    out = [d for d in range(2, n) if n % d == 0]
    return out


def _approximate_root(f: UnivariatePolynomial, d: int) -> UnivariatePolynomial:
    """Monic candidate right factor of degree d with zero constant term.

    Solves the triangular system matching the top d-1 coefficients of
    f = h^e + lower against h = x^d + c_{d-1} x^{d-1} + ... + c_1 x.
    """
    n = f.degree()
    e = n // d
    coeffs = [GaussianRational(0)] * (d + 1)
    coeffs[d] = GaussianRational(1)
    h = UnivariatePolynomial(coeffs)
    for j in range(1, d):
        power = h ** e
        target = f.coefficient(n - j)
        current = power.coefficient(n - j)
        # coefficient of x^{n-j} in h^e is e*c_{d-j} + (known terms)
        delta = (target - current) / e
        coeffs[d - j] = coeffs[d - j] + delta
        h = UnivariatePolynomial(coeffs)
    return h


def _adic_expansion(f: UnivariatePolynomial, h: UnivariatePolynomial):
    """Digits q_k with f = sum q_k h^k, deg q_k < deg h."""
    digits = []
    rest = f
    while not rest.is_zero():
        q, r = rest.divmod(h)
        digits.append(r)
        rest = q
    return digits


def _try_split(f: UnivariatePolynomial, d: int):
    """(g, h) with f = g(h), h monic of degree d with h(0) = 0, or None."""
    h = _approximate_root(f, d)
    digits = _adic_expansion(f, h)
    outer = []
    for q in digits:
        if q.degree() > 0:
            return None
        outer.append(q.constant_value())
    g = UnivariatePolynomial(outer)
    if g.degree() != f.degree() // d:
        return None
    return g, h


def ritt_decompose(f: UnivariatePolynomial) -> CompositionChain:
    """Full decomposition into primitive factors, innermost first.

    The input is reproduced exactly by compose_chain.  Right factors are
    canonicalized monic with zero constant term; the outermost factor
    carries the leftover linear data.  The search walks divisors of the
    degree in increasing order, so x^6 decomposes as [x^2, x^3].
    """
    if f.degree() < 1:
        raise DegreeTooLow("degree must be at least 1")
    lead = f.leading()
    monic = f.scale(lead.inverse())
    chain = _decompose_monic(monic)
    factors = chain.factors
    last = factors[-1].scale(lead)
    return CompositionChain(factors[:-1] + [last])


def _decompose_monic(f: UnivariatePolynomial) -> CompositionChain:
    n = f.degree()
    for d in _divisors(n):
        split = _try_split(f, d)
        if split is None:
            continue
        g, h = split
        inner = _decompose_monic(h) if h.degree() > 1 else \
            CompositionChain([h])
        outer = _decompose_monic(g.scale(g.leading().inverse()))
        outer_factors = outer.factors
        outer_factors[-1] = outer_factors[-1].scale(g.leading())
        return CompositionChain(inner.factors + outer_factors)
    return CompositionChain([f])


# --- primitive classification ----------------------------------------------


class Classification:
    """kind in {linear, power, chebyshev, degree_at_most_4, other};
    for power/chebyshev carries n and the intertwiners L1, L2 as (a, b)
    pairs meaning z -> a z + b, with f = L1 o core_n o L2."""

    def __init__(self, kind, n=None, outer=None, inner=None):
        self.kind = kind
        self.n = n
        self.outer = outer
        self.inner = inner

    def is_radical_friendly(self) -> bool:
        return self.kind in ("linear", "power", "chebyshev",
                             "degree_at_most_4")

    def __repr__(self):
        if self.kind in ("power", "chebyshev"):
            return f"Classification({self.kind}, n={self.n}, " \
                   f"outer={self.outer}, inner={self.inner})"
        return f"Classification({self.kind})"


def chebyshev(n: int) -> UnivariatePolynomial:
    """T_n by the recurrence T_{k+1} = 2 x T_k - T_{k-1}, exact."""
    if n == 0:
        return UnivariatePolynomial.constant(1)
    prev = UnivariatePolynomial.constant(1)
    cur = UnivariatePolynomial.variable()
    two_x = UnivariatePolynomial([0, 2])
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def _affine(a, b) -> UnivariatePolynomial:
    return UnivariatePolynomial([b, a])


def _power_detect(f: UnivariatePolynomial):
    """f = L1 o x^n o L2 with exact Gaussian data, or None."""
    n = f.degree()
    df = f.derivative()
    # critical point of multiplicity n-1: beta = -c_{n-2}/( (n-1) lc )
    if n < 2:
        return None
    lc = df.leading()
    if n == 2:
        beta = -df.coefficient(0) / lc
    else:
        beta = -df.coefficient(n - 2) / (lc * (n - 1))
    a_n = f.leading()
    shifted = UnivariatePolynomial([-beta, GaussianRational(1)])
    candidate = shifted ** n
    rest = f - candidate.scale(a_n)
    if rest.degree() > 0:
        return None
    gamma = rest.constant_value()
    return Classification("power", n, (a_n, gamma),
                          (GaussianRational(1), -beta))


def inverse_curve(f: UnivariatePolynomial) -> BivariatePolynomial:
    """The curve f(y) - x = 0 defining the inverse function of f."""
    rows = []
    for j, c in enumerate(f.coeffs):
        if j == 0:
            rows.append(UnivariatePolynomial([c, -1]))
        else:
            rows.append(UnivariatePolynomial([c]))
    return BivariatePolynomial(rows)


def _chebyshev_detect(f: UnivariatePolynomial):
    """f = L1 o T_n o L2 with exact Gaussian data, or None."""
    n = f.degree()
    if n < 3:
        return None
    disc_t = discriminant_y(inverse_curve(f))  # zero at critical values
    if disc_t.degree() < 1:
        return None
    squarefree = disc_t.squarefree_part()
    if squarefree.degree() != 2:
        return None
    roots, rest = exact_gaussian_roots([(squarefree, 1)])
    if rest:
        return None
    values = sorted((r for r, _ in roots),
                    key=lambda g: (g.re, g.im))
    for v1, v2 in (values, list(reversed(values))):
        half_span = (v2 - v1) / 2
        mid = (v1 + v2) / 2
        # L1 = half_span z + mid maps {-1, 1} to {v1, v2}
        t_hat = (f - UnivariatePolynomial.constant(mid)) \
            .scale(half_span.inverse())
        c_pow = t_hat.leading() / (GaussianRational(2) ** (n - 1))
        c0 = exact_nth_root(c_pow, n)
        if c0 is None:
            continue
        for unit in _GAUSSIAN_UNITS:
            c = c0 * unit
            if c ** n != c_pow:
                continue
            denom = GaussianRational(2) ** (n - 1) * n * c ** (n - 1)
            d = t_hat.coefficient(n - 1) / denom
            if chebyshev(n).compose(_affine(c, d)) == t_hat:
                return Classification("chebyshev", n, (half_span, mid),
                                      (c, d))
    return None


def classify_primitive(f: UnivariatePolynomial) -> Classification:
    """Classify a primitive polynomial by critical-value structure.

    Power and Chebyshev conjugates are detected before the degree <= 4
    short-circuit, so 4x^3 - 3x reports chebyshev rather than
    degree_at_most_4.  Conjugations by non-Gaussian linear maps fall
    through to Other (the monodromy cross-check catches those).
    """
    n = f.degree()
    if n == 1:
        return Classification("linear", 1)
    power = _power_detect(f)
    if power is not None:
        return power
    cheb = _chebyshev_detect(f)
    if cheb is not None:
        return cheb
    if n <= 4:
        return Classification("degree_at_most_4", n)
    return Classification("other", n)
