"""Gaussian rationals modulo a word-size prime.

For a prime p = 1 (mod 4), -1 has a square root s mod p, and i -> s maps
Z[i] onto F_p: F_p is the residue field of Z[i] at the prime (p, i - s).
A Gaussian rational (a + b i)/d has an image there when p does not divide
d.  Polynomials over F_p are lists of ints, lowest degree first, with no
zero leading coefficient.

The exact layer uses these images in one way only, so no result rests on
chance: as a proof of coprimality (see ``UnivariatePolynomial.gcd``).
"""

from __future__ import annotations

# (p, s) with p = 1 (mod 4) prime, just below 2**62, and s*s = -1 (mod p)
PRIMES = ((4611686018427387817, 120863620846201794),)


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
