"""Gaussian rationals modulo word-size primes.

For a prime p = 1 (mod 4), -1 has a square root s mod p, and i -> s maps
Z[i] onto F_p: F_p is the residue field of Z[i] at the prime (p, i - s).
A Gaussian rational (a + b i)/d has an image there when p does not divide
d.  Polynomials over F_p are lists of ints, lowest degree first, with no
zero leading coefficient.

The exact layer uses these images in two ways only, so no result rests on
chance: as a proof of coprimality (see ``UnivariatePolynomial.gcd``), and
as a candidate that is then checked exactly (the Norm of
``AlgebraicResidueBlock.derivative_contribution``).  Candidates over Q(i)
come from the images under both i -> s and i -> -s, by the Chinese
remainder theorem over the primes below and Wang's rational reconstruction
(Brown, JACM 18, 1971; Wang, SYMSAC 1981).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gaussian import GaussianRational

# (p, s) with p = 1 (mod 4) prime, just below 2**62, and s*s = -1 (mod p)
PRIMES = ((4611686018427387817, 120863620846201794),
          (4611686018427387761, 1130501565556633554),
          (4611686018427387737, 445087375101645770),
          (4611686018427387733, 678134394580861710))


def image(coeffs, p: int, s: int):
    """The image of each GaussianRational in ``coeffs`` under i -> s, or
    None when p divides a denominator; zero leading terms are kept."""
    out = []
    for c in coeffs:
        r = c.mod_p(p, s)
        if r is None:
            return None
        out.append(r)
    return out


def trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def rem(f, g, p: int):
    """f mod g over F_p, for g nonzero."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for top in range(len(f) - 1, dg - 1, -1):
        c = f.pop() * inv % p
        if c:
            base = top - dg
            for j in range(dg):
                f[base + j] = (f[base + j] - c * g[j]) % p
    return trim(f)


def coprime(f, g, p: int) -> bool:
    """True when the nonzero f and g have no common factor over F_p."""
    while g:
        f, g = g, rem(f, g, p)
    return len(f) == 1


def resultant(f, g, p: int) -> int:
    """Res(f, g) over F_p, highest-first convention: lc(f)^deg g times the
    product of g over the roots of f, by the Euclidean recursion."""
    if not f or not g:
        return 0
    res = 1
    while len(g) > 1:
        r = rem(f, g, p)
        if not r:
            return 0
        df, dg = len(f) - 1, len(g) - 1
        res = res * pow(g[-1], df - len(r) + 1, p) % p
        if df * dg % 2:
            res = -res
        f, g = g, r
    return res * pow(g[0], len(f) - 1, p) % p


def interpolate(vals, p: int):
    """The polynomial of degree below len(vals) through (k, vals[k]) over
    F_p, by Newton's divided differences on the nodes 0, 1, 2, ..."""
    n = len(vals)
    table = list(vals)
    for level in range(1, n):
        inv = pow(level, -1, p)
        for k in range(n - 1, level - 1, -1):
            table[k] = (table[k] - table[k - 1]) * inv % p
    poly = []
    for k in range(n - 1, -1, -1):  # poly <- poly * (x - k) + table[k]
        poly = [0] + poly
        for j in range(len(poly) - 1):
            poly[j] = (poly[j] - k * poly[j + 1]) % p
        poly[0] = (poly[0] + table[k]) % p
    return trim(poly)


def _reconstruct(u: int, modulus: int):
    """a/b = u (mod modulus) with |a|, b <= sqrt(modulus/2), or None
    (Wang): there is at most one such fraction."""
    bound = math.isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def gaussian_candidate(images):
    """Coefficients over Q(i), lowest first, whose images are
    ``images(p, s)``: a callable that gives the coefficient list under
    i -> s mod p, all of one length for a given p, or None to skip p.

    Both embeddings give the real and the imaginary part mod p; the parts
    are combined over the primes of the table until every one
    reconstructs.  None when the table runs out first.  The caller checks
    the candidate exactly.
    """
    modulus, parts = 1, []
    for p, s in PRIMES:
        plus, minus = images(p, s), images(p, p - s)
        if plus is None or minus is None:
            continue
        half, inv = (p + 1) // 2, pow(2 * s, -1, p)
        residues = [(u + v) * half % p for u, v in zip(plus, minus)] \
            + [(u - v) * inv % p for u, v in zip(plus, minus)]
        if parts:  # Chinese remainders: x = part (mod modulus), r (mod p)
            lift = pow(modulus, -1, p)
            residues = [x + modulus * ((r - x) * lift % p)
                        for x, r in zip(parts, residues)]
        parts, modulus = residues, modulus * p
        fractions = [_reconstruct(u, modulus) for u in parts]
        if None not in fractions:
            n = len(fractions) // 2
            return [GaussianRational(re, im)
                    for re, im in zip(fractions[:n], fractions[n:])]
    return None
