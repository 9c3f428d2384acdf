"""Certified numeric root finding, and exact roots by one Newton iteration.

Strategy: exact square-free decomposition first, so every root that the
iteration sees is simple.  A simultaneous Aberth-Ehrlich iteration in
doubles, seeded on Bini's circles, approximates all roots of a factor (of
p(2^s u), with 2^s balancing the end coefficients, where these span more
than double range).

Every exact answer about a root comes from one exact Newton iteration on
Gaussian-integer coefficients, each step rounded to the caller's grid.
``_finish`` certifies an Aberth approximation on the 53-bit grid of its
own magnitude (the spacing of doubles at its larger part), so a converged
centre is the root rounded to its grid, whatever the seed.  Its radius
n |p(c)/p'(c)|, computed from the exact values and rounded up, is a true
inclusion radius for square-free p (Rump, JCAM 2003).  Where doubles
cannot resolve a cluster, so that the enclosures overlap or stay too wide,
Aberth sweeps once more with p'/p taken from exact values.  The
Gaussian-rational roots of a factor (``exact_gaussian_roots``) and the
n-th roots of a Gaussian rational (``exact_nth_root``) come from the
iteration on Z[i], and ``refine_root`` carries one root past double
precision on the grid of spacing 2^-REFINE_BITS.

For a real factor, a centre whose disk reaches the real axis is moved onto
it and finished again, and the roots below the axis are the conjugates of
those above; pairwise disjoint disks then make each real centre enclose a
real root, and conjugate pairs come out as exact conjugates.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ..config import ROOT_TOL
from ..errors import IterationLimitExceeded, ZeroPolynomial
from . import gaussvec
from .gaussian import GaussianRational
from .poly import UnivariatePolynomial, squarefree_factorization

# refine_root rounds its iterates to multiples of 2^-REFINE_BITS; far below
# double precision, and small enough that the exact iteration stays cheap
REFINE_BITS = 128
_REFINE_STEPS = 12
# exact Newton steps after Aberth: from a double-precision approximation one
# step reaches the rounded root and the next evaluation confirms it
_EXACT_STEPS = 2
# a cap only: converging sweeps stop as soon as every point has settled,
# that is moved by at most _SETTLED relative to itself; exact Newton takes
# a settled point to the rounded root in one step
_ABERTH_SWEEPS = 100
_SETTLED = 2.0 ** -40
# Bini's rotation of the seed circles away from the real axis
_SEED_ANGLE = 0.7


class ComplexInterval:
    """A disk |z - center| <= radius certified to contain a root."""

    __slots__ = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        if not (radius >= 0 and math.isfinite(radius)):
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexInterval is immutable")

    def overlaps(self, other: "ComplexInterval") -> bool:
        return abs(self.center - other.center) <= self.radius + other.radius

    def __repr__(self):
        return f"ComplexInterval({self.center!r}, {self.radius:.3g})"


def value_and_slope(cs, z):
    """p(z) and p'(z) by Horner, for p with coefficients cs, highest power
    first."""
    p = d = 0j
    for c in cs:
        d = d * z + p
        p = p * z + c
    return p, d


def _bini_seeds(cs):
    """Starting points for Aberth, ``cs`` lowest power first (Bini, Numer.
    Algorithms 13, 1996): one circle per edge of the upper convex hull of
    (k, log|a_k|), its radius the geometric mean ratio along the edge and
    as many points on it as the edge is long; a root at zero is seeded at
    zero."""
    n = len(cs) - 1
    points = [(k, math.log(abs(c))) for k, c in enumerate(cs) if c != 0]
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (k0, v0), (k1, v1) = hull[-2], hull[-1]
            if (v1 - v0) * (pt[0] - k0) > (pt[1] - v0) * (k1 - k0):
                break
            hull.pop()
        hull.append(pt)
    seeds = [0j] * hull[0][0]
    for (k0, v0), (k1, v1) in zip(hull, hull[1:]):
        m = k1 - k0
        radius = math.exp((v0 - v1) / m)
        turn = 2 * math.pi * k0 / n + _SEED_ANGLE
        seeds += [radius * cmath.exp(1j * (2 * math.pi * j / m + turn))
                  for j in range(m)]
    return seeds


def _log_slope(desc, rev, z):
    """p'(z)/p(z) in doubles, or None at an exact zero of p.  ``desc``
    holds the coefficients highest power first and ``rev`` lowest first;
    outside the unit disk p is evaluated through its reversal at 1/z, so
    the values stay in range."""
    if abs(z) <= 1.0:
        p, d = value_and_slope(desc, z)
        return None if p == 0 else d / p
    w = 1.0 / z
    q, d = value_and_slope(rev, w)
    return None if q == 0 else (len(desc) - 1 - w * d / q) * w


def _exact_log_slope(ints, z):
    """p'(z)/p(z) from exact values, correctly rounded, or None at an exact
    zero of p."""
    xr, xi, t = _dyadic(z)
    pr, pi, dr, di = _horner(ints, xr, xi, t)
    size = pr * pr + pi * pi
    if size == 0:
        return None
    dr, di = dr * t, di * t  # p'/p = D T / P
    try:
        return complex((dr * pr + di * pi) / size, (di * pr - dr * pi) / size)
    except OverflowError:  # z is a root to far below double precision
        return None


def _aberth(log_slope, z):
    """Aberth-Ehrlich sweeps from the points ``z`` (Gauss-Seidel order)
    with the logarithmic derivative ``log_slope`` until every correction
    is below ``_SETTLED`` relative to its point."""
    z = list(z)
    done = [False] * len(z)
    for _ in range(_ABERTH_SWEEPS):
        for k, zk in enumerate(z):
            if done[k]:
                continue
            g = log_slope(zk)
            if g is not None:
                g -= sum(1.0 / (zk - zj) for zj in z if zj != zk)
            if g is None or g == 0 or not cmath.isfinite(g):
                done[k] = True
                continue
            step = 1.0 / g
            z[k] = zk - step
            done[k] = abs(step) <= _SETTLED * abs(zk)
        if all(done):
            break
    return z


def _dyadic(z: complex, s: int = 0):
    """Integers X, Y and a power of two T with z 2^s = (X + iY)/T."""
    a, da = z.real.as_integer_ratio()
    b, db = z.imag.as_integer_ratio()
    t = max(da, db)
    x, y = a * (t // da), b * (t // db)
    return (x << s, y << s, t) if s >= 0 else (x, y, t << -s)


def _round_div(n: int, d: int) -> int:
    """n/d rounded to the nearest integer, ties to even, for d > 0."""
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


def _grid53(a: int, b: int, den: int):
    """(a + bi)/den, den > 0, with both parts rounded to the spacing of
    doubles at the larger part, as (X, Y, T) for (X + iY)/T with T the
    least power of two: the larger part is correctly rounded, and the
    other one is kept only to the same absolute precision."""
    m = max(abs(a), abs(b))
    if m == 0:
        return 0, 0, 1
    e = m.bit_length() - den.bit_length()  # 2^e <= m/den < 2^(e+1) ...
    if (m << max(0, -e)) < (den << max(0, e)):
        e -= 1                             # ... after this correction
    shift = 52 - e
    if shift <= 0:
        den <<= -shift
        return _round_div(a, den) << -shift, _round_div(b, den) << -shift, 1
    x, y = _round_div(a << shift, den), _round_div(b << shift, den)
    if (x | y) & 1:
        return x, y, 1 << shift
    k = min(shift, ((x | y) & -(x | y)).bit_length() - 1)  # common twos
    return x >> k, y >> k, 1 << (shift - k)


def _gaussian_grid(a: int, b: int, den: int):
    """(a + bi)/den, den > 0, rounded to Z[i], as (X, Y, 1)."""
    return _round_div(a, den), _round_div(b, den), 1


def _horner(ints, xr: int, xi: int, t: int):
    """Horner on the Gaussian integers ``ints``, (re, im) pairs lowest
    power first, at (xr + i xi)/t, exactly: T^n p and T^(n-1) p' as the
    integers (pr, pi, dr, di)."""
    pr, pi = ints[-1]
    dr = di = 0
    tk = 1
    for a, b in ints[-2::-1]:
        dr, di = dr * xr - di * xi + pr, dr * xi + di * xr + pi
        tk *= t
        pr, pi = pr * xr - pi * xi + a * tk, pr * xi + pi * xr + b * tk
    return pr, pi, dr, di


def _newton(ints, point, steps: int, to_grid):
    """Exact Newton on the Gaussian integers ``ints`` from ``point`` =
    (X, Y, T) for (X + iY)/T, each iterate (A + iB)/den rounded by
    ``to_grid(A, B, den)``, until an exact zero, a zero slope, a fixed
    point or ``steps`` steps: the last point, T^n p there as (pr, pi), and
    |T^(n-1) p'|^2 there."""
    for step in range(steps + 1):
        xr, xi, t = point
        pr, pi, dr, di = _horner(ints, xr, xi, t)
        slope = dr * dr + di * di
        if (pr == 0 and pi == 0) or slope == 0 or step == steps:
            break
        # x - p/p' = (X D - P) / (D T)
        nr, ni = xr * dr - xi * di - pr, xr * di + xi * dr - pi
        nxt = to_grid(nr * dr + ni * di, ni * dr - nr * di, slope * t)
        if nxt == point:
            break
        point = nxt
    return point, pr, pi, slope


def _upper_sqrt(num: int, den: int) -> float:
    """A float no smaller than sqrt(num/den) for num, den >= 0, inf where
    den = 0 < num.  A ratio far from 1 is scaled by 4^e first, so that it
    neither under- nor overflows."""
    if num == 0 or den == 0:
        return 0.0 if num == 0 else math.inf
    e = (num.bit_length() - den.bit_length()) // 2  # 1/2 < num/den/4^e < 4
    if abs(e) < 500:  # num/den is in range as it stands
        e = 0
    elif e > 1022:
        return math.inf
    q = num / (den << 2 * e) if e >= 0 else (num << -2 * e) / den
    root = math.nextafter(math.sqrt(math.nextafter(q, math.inf)), math.inf)
    # exact down to the normal range, whose floor bounds what is below it
    return max(math.ldexp(root, e), 2.0 ** -1022)


def _finish(ints, z: complex):
    """The grid point that exact Newton reaches from z, and the radius
    n |p/p'| there rounded up (inf where p' vanishes)."""
    (x, y, t), pr, pi, slope = _newton(ints, _grid53(*_dyadic(z)),
                                       _EXACT_STEPS, _grid53)
    n = len(ints) - 1
    return complex(x / t, y / t), _upper_sqrt(n * n * (pr * pr + pi * pi),
                                              slope * t * t)


def _enclose(ints, approx, tol: float):
    """Certified enclosures from the approximations ``approx`` of all roots
    of the square-free factor with Gaussian-integer coefficients ``ints``;
    IterationLimitExceeded when they do not meet ``tol`` or overlap."""
    real = all(b == 0 for _, b in ints)
    if real:  # upper half first: the lower half are their conjugates
        approx = sorted(approx, key=lambda z: -z.imag)
    enclosures = []
    for z in approx:
        if real and z.imag < 0 and len(enclosures) == len(approx):
            break
        c, r = _finish(ints, z)
        if real and c.imag != 0 and abs(c.imag) <= r:
            c, r = _finish(ints, complex(c.real, 0.0))
        if real and c.imag < 0:
            continue
        if r == math.inf:  # p' vanishes at c, or the radius overflows
            raise IterationLimitExceeded(
                f"could not certify root near {c:.6g}")
        enclosures.append(ComplexInterval(c, r))
        if real and c.imag > 0:
            enclosures.append(ComplexInterval(c.conjugate(), r))
    if len(enclosures) != len(approx):
        raise IterationLimitExceeded(
            "root enclosures of a real factor are not closed under "
            "conjugation")
    for k, enc in enumerate(enclosures):
        if enc.radius > tol * max(1.0, abs(enc.center)):
            raise IterationLimitExceeded(
                f"could not certify root near {enc.center:.6g} to tol={tol}")
        for other in enclosures[:k]:
            if enc.overlaps(other):
                raise IterationLimitExceeded(
                    "root enclosures overlap; tolerance too coarse")
    return enclosures


def _approximations(ints):
    """Aberth approximations in doubles of all roots of one square-free
    factor, given by its Gaussian-integer coefficients ``ints``, and s: the
    roots of p(2^s u), 2^s balancing the end coefficients where these span
    more than double range, else s = 0 and the roots of p."""
    n = len(ints) - 1
    sizes = [max(abs(a), abs(b)).bit_length() for a, b in ints]
    scaled, s = ints, 0
    if max(sizes) - min(filter(None, sizes)) > 1022:  # past normal range
        low = next(k for k, size in enumerate(sizes) if size)
        s = round((sizes[low] - sizes[n]) / (n - low))
        lift = -min(s, 0) * n  # 2^lift p(2^s u) has integer coefficients
        scaled = [(a << s * k + lift, b << s * k + lift)
                  for k, (a, b) in enumerate(ints)]
    shift = max(max(abs(a), abs(b)) for a, b in scaled).bit_length() - 1
    cs = [complex(a / (1 << shift), b / (1 << shift)) for a, b in scaled]
    desc = cs[::-1]
    approx = _aberth(lambda z: _log_slope(desc, cs, z), _bini_seeds(cs))
    if len(approx) != n:  # a coefficient underflowed to 0
        raise IterationLimitExceeded("roots out of double range")
    return approx, s


def _out_of_range(approx, s) -> bool:
    """Whether some root z 2^s leaves doubles' normal range."""
    return bool(s) and not all(-1021 <= math.frexp(abs(z))[1] + s <= 1024
                               for z in approx if z)


def _factor_roots(ints, approx, s, tol: float, accept: float):
    """Certified enclosures of the roots of one square-free factor, given
    by its Gaussian-integer coefficients ``ints``, from ``_approximations``.
    Where double evaluation cannot resolve a cluster to ``tol``, Aberth
    sweeps again with exact evaluation, and those enclosures need only
    meet ``accept``."""
    if _out_of_range(approx, s):
        raise IterationLimitExceeded("roots out of double range")
    approx = [complex(math.ldexp(z.real, s), math.ldexp(z.imag, s))
              for z in approx]
    try:
        return _enclose(ints, approx, tol)
    except IterationLimitExceeded:
        approx = _aberth(lambda z: _exact_log_slope(ints, z), approx)
        return _enclose(ints, approx, accept)


def complex_roots(p: UnivariatePolynomial, tol: float = ROOT_TOL,
                  accept: float | None = None):
    """All complex roots of ``p`` with multiplicity, as certified disks.

    Returns a list of (ComplexInterval, multiplicity) pairs sorted by the
    centres' (real, imaginary) parts.  Distinct roots of each square-free
    factor come in pairwise disjoint disks of radius at most
    tol * max(1, |centre|), each centred on its root rounded to the double
    grid of its larger part; failure to reach that, or to approximate all
    deg p roots in doubles, raises IterationLimitExceeded.  A caller that
    can use wider disks where a cluster defeats ``tol`` passes that bound as
    ``accept`` (at least ``tol``): it applies to the roots of a factor that
    needed the exact sweeps.
    """
    if p.is_zero():
        raise ZeroPolynomial("root finding on the zero polynomial")
    accept = tol if accept is None else accept
    out = []
    for factor, mult in squarefree_factorization(p):
        ints = list(zip(*gaussvec.clear(factor.coeffs)[1:]))
        out += [(enc, mult) for enc
                in _factor_roots(ints, *_approximations(ints), tol, accept)]
    return sorted(out, key=lambda item: (item[0].center.real,
                                         item[0].center.imag))


def refine_root(p: UnivariatePolynomial, z: complex):
    """A Q(i) point on the grid of spacing 2^-REFINE_BITS next to the root
    of ``p`` that ``z`` approximates, or None when ``z`` is not one.

    Exact Newton, each iterate rounded to the grid, runs until it stops
    moving; for a simple root the result is within one spacing of it.  When
    the first step exceeds 1e-6 * max(1, |z|), ``z`` is taken to be no root
    of ``p`` and None is returned.
    """
    ints = list(zip(*gaussvec.clear(p.coeffs)[1:]))
    scale = 1 << REFINE_BITS

    def to_grid(a, b, den):
        return (_round_div(a << REFINE_BITS, den),
                _round_div(b << REFINE_BITS, den), scale)

    start = to_grid(*_dyadic(z))
    pr, pi, dr, di = _horner(ints, *start)  # the first step is P / (T D)
    slope = dr * dr + di * di
    if slope == 0 or Fraction(pr * pr + pi * pi, slope * scale * scale) \
            > (Fraction(1e-6) * max(1, Fraction(abs(z)))) ** 2:
        return None
    (xr, xi, _t), _pr, _pi, slope = _newton(ints, start, _REFINE_STEPS,
                                            to_grid)
    if slope == 0:
        return None
    return GaussianRational(Fraction(xr, scale), Fraction(xi, scale))


def _gaussian_root(ints, point):
    """The Gaussian-rational root of p, with Gaussian-integer coefficients
    ``ints``, that ``point`` = (X, Y, T), the dyadic z = (X + iY)/T,
    approximates, or None.  With L = lc(p), L r is a Gaussian integer for
    each root r (Z[i] is integrally closed): a root of the monic
    q(u) = L^(n-1) p(u/L) in Z[i].  L z rounded to Z[i] is that root while
    |L r| < 2^52; past that, Newton steps on q, each rounded to Z[i], run
    from there."""
    lr, li = ints[-1]
    xr, xi, t = point
    wr, wi, _t = _gaussian_grid(lr * xr - li * xi, lr * xi + li * xr, t)
    q, kr, ki = [(1, 0)], 1, 0  # L^(n-1-k) at the coefficient of u^k
    for a, b in reversed(ints[:-1]):
        q.append((a * kr - b * ki, a * ki + b * kr))
        kr, ki = kr * lr - ki * li, kr * li + ki * lr
    bits = max(abs(wr), abs(wi)).bit_length()
    steps = bits.bit_length() + 2 if bits > 52 else 0  # correct bits double
    (wr, wi, _t), pr, pi, _slope = _newton(q[::-1], (wr, wi, 1), steps,
                                           _gaussian_grid)
    if pr or pi:
        return None
    return GaussianRational(wr, wi) / GaussianRational(lr, li)


def exact_nth_root(z: GaussianRational, n: int) -> GaussianRational | None:
    """Some exact n-th root of ``z`` in Q(i), or None if none exists.

    With z = (a + bi)/d, a root is v/d for a Gaussian integer v with
    v^n = w = (a + bi) d^(n-1) (Z[i] is integrally closed).  A square root,
    the principal one, is exact: |v|^2 = |w|, and ``math.isqrt`` gives the
    parts of v.  For n >= 3 each n-th root of w is guessed in doubles
    from w scaled by a power of two into range, and exact Newton on
    u^n - w, each iterate rounded to Z[i], runs from there.
    """
    if z.is_zero() or n == 1:
        return z
    d = z._d
    wr, wi = z._a * d ** (n - 1), z._b * d ** (n - 1)
    if n == 2:
        m = math.isqrt(wr * wr + wi * wi)
        u, v = math.isqrt((m + wr) // 2), math.isqrt((m - wr) // 2)
        if m * m != wr * wr + wi * wi or 2 * u * u != m + wr \
                or 2 * v * v != m - wr:
            return None
        return GaussianRational(u, v if wi >= 0 else -v) / d
    bits = max(abs(wr), abs(wi)).bit_length()
    s = max(0, (bits - 900) // n + 1)
    guess = complex(wr / (1 << n * s), wi / (1 << n * s)) ** (1.0 / n)
    ints = [(-wr, -wi)] + [(0, 0)] * (n - 1) + [(1, 0)]
    for k in range(n):
        c = guess * complex(math.cos(2 * math.pi * k / n),
                            math.sin(2 * math.pi * k / n))
        start = (round(c.real) << s, round(c.imag) << s, 1)
        (vr, vi, _t), pr, pi, _slope = _newton(  # the correct bits double
            ints, start, bits.bit_length() + 1, _gaussian_grid)
        if pr == 0 and pi == 0:
            return GaussianRational(vr, vi) / d
    return None


def exact_gaussian_roots(factors, tol: float = ROOT_TOL):
    """The roots of ``factors``, pairwise coprime (square-free factor,
    multiplicity) pairs as ``squarefree_factorization`` returns them, each
    certified once at ``tol``: (roots, rest), the (GaussianRational,
    multiplicity) pairs and the (ComplexInterval, multiplicity) pairs of
    the other roots, each in the order of ``complex_roots``.  A linear
    factor's root -a_0/a_1 is read as it stands, with no root finding, so
    it need not lie in double range.  Nor need the roots of a factor whose
    approximations, scaled back, leave double range: Newton in Z[i] runs
    from each of them scaled back exactly, and the factor is accepted when
    every one reaches a distinct exact root."""
    found = []
    for factor, mult in factors:
        if factor.degree() == 1:
            a0, a1 = factor.coeffs
            root = -a0 / a1
            found.append(((root.re, root.im), root, mult))
            continue
        ints = list(zip(*gaussvec.clear(factor.coeffs)[1:]))
        approx, s = _approximations(ints)
        if _out_of_range(approx, s):
            exact = {_gaussian_root(ints, _dyadic(z, s)) for z in approx}
            if None in exact or len(exact) < len(approx):
                raise IterationLimitExceeded("roots out of double range")
            found += [((root.re, root.im), root, mult) for root in exact]
            continue
        for enc in _factor_roots(ints, approx, s, tol, tol):
            root = _gaussian_root(ints, _dyadic(enc.center))
            found.append(((enc.center.real, enc.center.imag),
                          enc if root is None else root, mult))
    roots, rest = [], []
    for _key, root, mult in sorted(found, key=lambda item: item[0]):
        (rest if isinstance(root, ComplexInterval) else roots).append(
            (root, mult))
    return roots, rest
