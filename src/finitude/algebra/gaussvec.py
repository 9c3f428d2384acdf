"""Q(i)[x] products and Z[i][x] arithmetic on Gaussian-integer vectors.

A list of Gaussian rationals (a_k + b_k i)/d_k is cleared once to
(D, re, im): D is the lcm of the d_k, re[k] = a_k D/d_k and
im[k] = b_k D/d_k.  A product of two cleared lists is a product of integer
lists, and each output coefficient is normalised once, by ``_triple``, so
no gcd runs per coefficient pair.

Integer lists are convolved by schoolbook.  Packing both lists into one
big integer (Kronecker substitution) pays only when both have about 16 or
more coefficients, and in seeded ``integrate``, ``ode``, ``decompose``,
``puiseux`` and ``algebraic`` requests the shorter operand of a product
has at most 15.  A Gaussian product is three real ones in Karatsuba's
form, (A + Bi)(C + Di) = AC - BD + ((A + B)(C + D) - AC - BD) i, and one
or two when an operand is real.

A polynomial over Z[i] is a pair (re, im) of integer lists of one length,
lowest degree first, whose top coefficient is not 0 + 0i; zero is ([], []).
These are the members of ``poly.subresultant_prs``, whose divisions are
exact: ``divide`` is long division over Z[i] and checks that nothing is
left.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from math import lcm

from .gaussian import _triple


def clear(coeffs):
    """(D, re, im) for the GaussianRational list ``coeffs``."""
    D = lcm(*[c._d for c in coeffs])
    if D == 1:
        return 1, [c._a for c in coeffs], [c._b for c in coeffs]
    scales = [D // c._d for c in coeffs]
    return (D, [c._a * s for c, s in zip(coeffs, scales)],
            [c._b * s for c, s in zip(coeffs, scales)])


def convolve(a, b):
    """The product of the integer lists a and b, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def multiply(ar, ai, br, bi):
    """(re, im) of (ar + ai i)(br + bi i) for nonempty integer lists."""
    if not any(ai):
        if not any(bi):
            return convolve(ar, br), [0] * (len(ar) + len(br) - 1)
        return convolve(ar, br), convolve(ar, bi)
    if not any(bi):
        return convolve(ar, br), convolve(ai, br)
    t, u = convolve(ar, br), convolve(ai, bi)
    v = convolve([x + y for x, y in zip(ar, ai)],
                 [x + y for x, y in zip(br, bi)])
    return [x - y for x, y in zip(t, u)], \
        [z - x - y for x, y, z in zip(t, u, v)]


def product(p, q):
    """The coefficients of p q for nonempty GaussianRational lists."""
    D, ar, ai = clear(p)
    E, br, bi = (D, ar, ai) if p is q else clear(q)
    re, im = multiply(ar, ai, br, bi)
    D *= E
    return [_triple(x, y, D) for x, y in zip(re, im)]


# --- Z[i][x] ----------

def _trim(re, im):
    while re and not re[-1] and not im[-1]:
        re.pop()
        im.pop()
    return re, im


def clear_rows(rows):
    """(D, [(re, im), ...]) for a list of UnivariatePolynomial rows over one
    common denominator D."""
    cleared = [clear(r.coeffs) for r in rows]
    D = lcm(*[c[0] for c in cleared])
    return D, [(re, im) if E == D else
               ([x * (D // E) for x in re], [y * (D // E) for y in im])
               for E, re, im in cleared]


def negative(u):
    return [-x for x in u[0]], [-y for y in u[1]]


def times(u, v):
    """u v over Z[i]."""
    if not u[0] or not v[0]:
        return [], []
    return multiply(u[0], u[1], v[0], v[1])


def minus(u, v):
    """u - v over Z[i]."""
    return _trim([x - y for x, y in zip_longest(u[0], v[0], fillvalue=0)],
                 [x - y for x, y in zip_longest(u[1], v[1], fillvalue=0)])


def divide(u, v):
    """u/v over Z[i] for nonzero v dividing u; ArithmeticError otherwise."""
    ur, ui = list(u[0]), list(u[1])
    vr, vi = v
    dv = len(vr) - 1
    p, q = vr[-1], vi[-1]
    norm = p * p + q * q
    qr, qi = [0] * (len(ur) - dv), [0] * (len(ur) - dv)
    for k in range(len(ur) - dv - 1, -1, -1):
        # (t + s i)/(p + q i) = (t + s i)(p - q i)/norm
        t, s = ur[k + dv], ui[k + dv]
        cr, rest = divmod(t * p + s * q, norm)
        ci, rest_i = divmod(s * p - t * q, norm)
        if rest or rest_i:
            raise ArithmeticError("inexact division over Z[i]")
        qr[k], qi[k] = cr, ci
        if cr or ci:
            for j in range(dv):
                x, y = vr[j], vi[j]
                ur[k + j] -= cr * x - ci * y
                ui[k + j] -= cr * y + ci * x
    if any(ur[:dv]) or any(ui[:dv]):
        raise ArithmeticError("inexact division over Z[i]")
    return qr, qi


def subresultants(F, G):
    """([R_1, R_2, ...], psi): the members after F and G, lists of Z[i][x]
    rows in y with deg F >= deg G, and the last psi, for
    ``poly.subresultant_prs``.

    R_{k+1} = prem(R_{k-1}, R_k) / beta_k, where prem multiplies by
    lc_y(R_k)^(deg R_{k-1} - deg R_k + 1), beta_k = -lc_y(R_{k-1}) psi_k^d
    and psi_{k+1} = (-lc_y(R_k))^d / psi_k^(d-1) for d the degree step,
    with lc_y(R_{-1}) = 1 and psi_0 = -1; every division is exact.
    """
    members, lc, psi = [], ([1], [0]), ([-1], [0])
    while True:
        dg, lc_g = len(G) - 1, G[-1]
        d = len(F) - 1 - dg
        rows = list(F)
        while len(rows) > dg:  # rows = lc_g rows - c y^(top - dg) G
            c = rows.pop()
            rows = [times(r, lc_g) for r in rows]
            for k, g in enumerate(G[:-1], len(rows) - dg):
                rows[k] = minus(rows[k], times(c, g))
        while rows and not rows[-1][0]:
            rows.pop()
        if not rows:
            return members, psi
        beta = negative(reduce(times, [psi] * d, lc))  # d is 1 but after a defective step
        F, G = G, [divide(r, beta) for r in rows]
        members.append(G)
        lc = lc_g
        if d:
            psi = divide(reduce(times, [negative(lc)] * d),
                         reduce(times, [psi] * (d - 1), ([1], [0])))


def rationals(u, D: int):
    """The GaussianRational coefficients of u/D for an integer D > 0."""
    return [_triple(x, y, D) for x, y in zip(*u)]
