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
These are the members of the subresultant recurrence, whose divisions
are exact: ``divide`` is long division over Z[i] and checks that nothing
is left.

The Euclid-shaped kernels share Brown's recurrence (``subresultants``):
the sequence itself, every resultant as one more psi step at its tail
(``resultant``), and the inverse modulo m(t) (``inverse_mod``), which
carries a cofactor.  An element of Q(i)[t]/(m), m monic, is a cleared
pair (D, u), reduced by pseudo-division by the cleared m, whose leading
coefficient is an integer, and one content gcd (``reduce_mod``).
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from math import gcd, lcm

from .gaussian import ZERO, _triple


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


def next_psi(lc, psi, d):
    """(-lc)^d / psi^(d-1) over Z[i]: the psi of Brown's recurrence after
    a step of d degrees whose lower member has leading coefficient lc."""
    return divide(reduce(times, [negative(lc)] * d),
                  reduce(times, [psi] * (d - 1), ([1], [0])))


def resultant(F, G, members, psi):
    """Res(F, G) over Z[i], highest-first, from the members and psi that
    ``subresultants(F, G)`` returns.

    It is 0 when the last member has positive degree, and G^n when no
    member follows a G of degree 0 (n = deg F).  Otherwise it is
    -(-last)^e / psi^(e-1), e the degree of the member before last: the
    psi of the step of the recurrence that would follow last, negated.
    Brown's psi, started at psi_0 = -1, is minus the principal
    subresultant coefficient of its degree, and that of degree 0 is the
    resultant (structure theorem; Brown-Traub, JACM 1971).
    """
    last = members[-1] if members else G
    if len(last) > 1:
        return [], []
    if not members:
        return reduce(times, [G[0]] * (len(F) - 1), ([1], [0]))
    e = len(members[-2] if len(members) > 1 else G) - 1
    return negative(next_psi(last[0], psi, e))


def subresultants(F, G, cofactors=None):
    """([R_1, R_2, ...], psi, U): the members after F and G, lists of
    Z[i][x] rows in y with deg F >= deg G, the last psi, for
    ``resultant``, and U, the cofactor of the last member.

    R_{k+1} = prem(R_{k-1}, R_k) / beta_k, where prem multiplies by
    lc_y(R_k)^(deg R_{k-1} - deg R_k + 1), beta_k = -lc_y(R_{k-1}) psi_k^d
    and psi_{k+1} = (-lc_y(R_k))^d / psi_k^(d-1) for d the degree step,
    with lc_y(R_{-1}) = 1 and psi_0 = -1; every division is exact.

    ``cofactors``, a pair (U_F, U_G) of polynomials in y, makes every row
    operation and every division by beta apply to them too, so the member
    R = U_R a + V_R b whenever F = U_F a + V_F b and G = U_G a + V_G b;
    U is then U_R of the last member (U_G when no member follows), and
    None without ``cofactors``.  The divisions stay exact: the cofactors
    of a subresultant are determinants as well (von zur Gathen-Gerhard,
    Modern Computer Algebra, 6.10-6.11).
    """
    members, lc, psi = [], ([1], [0]), ([-1], [0])
    carry, cofactor = cofactors if cofactors else ([], None)
    while True:
        dg, lc_g = len(G) - 1, G[-1]
        d = len(F) - 1 - dg
        rows = list(F)
        while len(rows) > dg:  # rows = lc_g rows - c y^(top - dg) G
            c = rows.pop()
            shift = len(rows) - dg
            rows = [times(r, lc_g) for r in rows]
            for k, g in enumerate(G[:-1], shift):
                rows[k] = minus(rows[k], times(c, g))
            if cofactor is not None:
                carry = [times(u, lc_g) for u in carry] \
                    + [([], [])] * (shift + len(cofactor) - len(carry))
                for k, u in enumerate(cofactor, shift):
                    carry[k] = minus(carry[k], times(c, u))
        while rows and not rows[-1][0]:
            rows.pop()
        if not rows:
            return members, psi, cofactor
        beta = negative(reduce(times, [psi] * d, lc))  # d is 1 but after a defective step
        F, G = G, [divide(r, beta) for r in rows]
        members.append(G)
        if cofactor is not None:
            carry, cofactor = cofactor, [divide(u, beta) for u in carry]
        lc = lc_g
        if d:
            psi = next_psi(lc, psi, d)


def inverse_mod(a, m):
    """The coefficients of the inverse of a modulo m, of degree below
    deg m, for GaussianRational lists a and m, deg m >= 1, with a coprime
    to m; ArithmeticError when they are not coprime.

    The recurrence of ``subresultants`` runs on the cleared pair D_a a and
    D_m m with one-element rows (constants of Z[i][x]), the higher degree
    first, and carries the cofactor of D_a a.  Its last member is a
    constant r = U D_a a + V D_m m, so the inverse is D_a U / r, and U
    already has degree below deg m.
    """
    Da, ar, ai = clear(a)
    _, mr, mi = clear(m)
    A, M = ([_trim([x], [y]) for x, y in zip(re, im)]
            for re, im in ((ar, ai), (mr, mi)))
    one = [([1], [0])]
    F, G, cofactors = (A, M, (one, [])) if len(A) >= len(M) \
        else (M, A, ([], one))
    members, _, U = subresultants(F, G, cofactors)
    last = members[-1] if members else G
    if len(last) != 1:
        raise ArithmeticError("no inverse modulo a common factor")
    (rr,), (ri,) = last[0]
    norm = rr * rr + ri * ri
    return [_triple(Da * (x[0] * rr + y[0] * ri),
                    Da * (y[0] * rr - x[0] * ri), norm) if x else ZERO
            for x, y in U]


# --- Q(i)[t]/(m) ----------

def reduce_mod(D, u, m):
    """(E, w) with w/E = u/D modulo m and gcd(E, w) = 1, for u over Z[i],
    an integer D > 0 and m = (re, im) over Z[i] whose leading coefficient
    is a positive integer (a monic polynomial, cleared).  Pseudo-division:
    each step multiplies u and D by that integer; then one content gcd."""
    ur, ui = list(u[0]), list(u[1])
    mr, mi = m
    n, lead = len(mr) - 1, mr[-1]
    for k in range(len(ur) - 1, n - 1, -1):
        p, q = ur.pop(), ui.pop()
        if p or q:  # u = lead u - (p + q i) t^(k - n) m
            ur = [lead * x for x in ur]
            ui = [lead * y for y in ui]
            D *= lead
            for j in range(n):
                x, y = mr[j], mi[j]
                ur[k - n + j] -= p * x - q * y
                ui[k - n + j] -= p * y + q * x
    g = gcd(D, *ur, *ui)
    if g != 1:
        D, ur, ui = D // g, [x // g for x in ur], [y // g for y in ui]
    return D, _trim(ur, ui)


def multiply_mod(rows, c, m):
    """[row c mod m for row in rows], for GaussianRational lists rows, c
    and a monic m; c and m are cleared once."""
    E, cr, ci = clear(c)
    _, mr, mi = clear(m)
    out = []
    for row in rows:
        D, rr, ri = clear(row)
        D, u = reduce_mod(D * E, multiply(rr, ri, cr, ci), (mr, mi)) \
            if row else (1, ([], []))
        out.append(rationals(u, D))
    return out


def quotient_mod(num, g, m):
    """The rows of num / g modulo m, each reduced mod m, or None when g
    does not divide num modulo m: num is a GaussianRational list (a
    polynomial in x), g the list of its x-rows, UnivariatePolynomials in t
    with g monic in x, and m a monic GaussianRational list in t.

    Long division in x over Q(i)[t]/(m): every coefficient is a cleared
    element (D, u) of its own, reduced by ``reduce_mod`` when it becomes
    the top; g is cleared once to E g.
    """
    _, mr, mi = clear(m)
    E, G = clear_rows(g)
    dg = len(G) - 1
    rest = [(c._d, _trim([c._a], [c._b])) for c in num]
    quot = []
    for pos in range(len(rest) - dg - 1, -1, -1):
        D, u = reduce_mod(*rest[pos + dg], (mr, mi))
        quot.append(rationals(u, D))
        if u[0]:
            DE = D * E
            for k in range(dg):
                rest[pos + k] = _difference(rest[pos + k],
                                            (DE, times(u, G[k])))
    if any(reduce_mod(*r, (mr, mi))[1][0] for r in rest[:dg]):
        return None
    return quot[::-1]


def _difference(p, q):
    """(D, u) - (E, w) for cleared elements, over lcm(D, E)."""
    (D, u), (E, w) = p, q
    L = D // gcd(D, E) * E
    s, t = L // D, L // E
    return L, minus(([x * s for x in u[0]], [y * s for y in u[1]]),
                    ([x * t for x in w[0]], [y * t for y in w[1]]))


def rationals(u, D: int):
    """The GaussianRational coefficients of u/D for an integer D > 0."""
    return [_triple(x, y, D) for x, y in zip(*u)]
