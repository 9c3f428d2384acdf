"""Differential polynomials in the jet variables u, u', u'', ...

A DifferentialPolynomial is a sparse sum of terms, each a rational-function
coefficient times a monomial in finitely many derivatives of u.  This is the
home of the D_n sequence (D_0 = 1, D_{k+1} = D_k' + u D_k, which satisfies
y^(n) = D_n(u) y for y = exp integral u) and of the generalized Riccati
equation D_n + a_1 D_{n-1} + ... + a_n D_0 = 0 of an order-n linear ODE.

Term order (graded lexicographic on derivative order, then exponent) is
fixed so printed polynomials are canonical; derivatives print as
u, u', u'', u''', u^(4), ...
"""

from __future__ import annotations

from ..algebra.poly import RationalFunction, signed_sum
from ..errors import NotHomogeneous, OrderTooLarge

MAX_JET_ORDER = 12


def _trim(key):
    key = tuple(key)
    while key and key[-1] == 0:
        key = key[:-1]
    return key


class DifferentialPolynomial:
    """Sparse polynomial in u^(0), u^(1), ... over rational functions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        for key, coeff in (terms or {}).items():
            coeff = RationalFunction.coerce(coeff)
            if coeff.is_zero():
                continue
            key = _trim(key)
            if key in data:
                coeff = data[key] + coeff
            if coeff.is_zero():
                data.pop(key, None)
            else:
                data[key] = coeff
        self.terms = data

    # --- constructors ----------

    @staticmethod
    def constant(c) -> "DifferentialPolynomial":
        return DifferentialPolynomial({(): c})

    @staticmethod
    def jet(order: int, power: int = 1) -> "DifferentialPolynomial":
        key = tuple([0] * order + [power])
        return DifferentialPolynomial({key: 1})

    @staticmethod
    def coerce(value) -> "DifferentialPolynomial":
        if isinstance(value, DifferentialPolynomial):
            return value
        return DifferentialPolynomial.constant(value)

    # --- structure ----------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def homogeneous_part(self, degree: int) -> "DifferentialPolynomial":
        return DifferentialPolynomial(
            {k: c for k, c in self.terms.items() if sum(k) == degree})

    # --- arithmetic ----------

    def __add__(self, other):
        other = DifferentialPolynomial.coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, RationalFunction.coerce(0)) + c
        return DifferentialPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return DifferentialPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-DifferentialPolynomial.coerce(other))

    def __rsub__(self, other):
        return DifferentialPolynomial.coerce(other) + (-self)

    def __mul__(self, other):
        other = DifferentialPolynomial.coerce(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                n = max(len(k1), len(k2))
                key = _trim(tuple((k1[i] if i < len(k1) else 0)
                                  + (k2[i] if i < len(k2) else 0)
                                  for i in range(n)))
                c = c1 * c2
                if key in out:
                    out[key] = out[key] + c
                else:
                    out[key] = c
        return DifferentialPolynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "DifferentialPolynomial":
        c = RationalFunction.coerce(c)
        return DifferentialPolynomial(
            {k: v * c for k, v in self.terms.items()})

    def derivative(self) -> "DifferentialPolynomial":
        """Total derivative d/dx: coefficients differentiate, u^(i)
        differentiates to u^(i+1)."""
        out = DifferentialPolynomial()
        for key, coeff in self.terms.items():
            dcoeff = coeff.derivative()
            if not dcoeff.is_zero():
                out = out + DifferentialPolynomial({key: dcoeff})
            for i, p in enumerate(key):
                if p == 0:
                    continue
                new = list(key) + [0] * (i + 2 - len(key))
                new[i] -= 1
                new[i + 1] = new[i + 1] + 1 if i + 1 < len(new) else 1
                while len(new) <= i + 1:
                    new.append(0)
                out = out + DifferentialPolynomial(
                    {_trim(tuple(new)): coeff * p})
        return out

    def substitute(self, u: RationalFunction) -> RationalFunction:
        """Evaluate with u^(i) := the i-th derivative of the given u."""
        u = RationalFunction.coerce(u)
        derivs = [u]
        total = RationalFunction.coerce(0)
        for key, coeff in self.terms.items():
            while len(derivs) < len(key):
                derivs.append(derivs[-1].derivative())
            value = coeff
            for i, p in enumerate(key):
                for _ in range(p):
                    value = value * derivs[i]
            total = total + value
        return total

    # --- comparison / printing ----------

    def __eq__(self, other):
        if not isinstance(other, DifferentialPolynomial):
            try:
                other = DifferentialPolynomial.coerce(other)
            except TypeError:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _jet_name(i: int) -> str:
        if i <= 3:
            return "u" + "'" * i
        return f"u^({i})"

    def format(self) -> str:
        def key_rank(k):
            return (sum(i * p for i, p in enumerate(k)), sum(k), k)
        parts = []
        for key in sorted(self.terms, key=key_rank, reverse=True):
            coeff = self.terms[key]
            factors = []
            for i, p in enumerate(key):
                if p == 0:
                    continue
                name = self._jet_name(i)
                factors.append(name if p == 1 else f"{name}^{p}")
            mono = "*".join(factors)
            if not mono:
                parts.append(coeff.format())
            elif coeff == RationalFunction.coerce(1):
                parts.append(mono)
            elif coeff == RationalFunction.coerce(-1):
                parts.append(f"-{mono}")
            elif coeff.is_constant() and coeff.den.is_constant():
                parts.append(f"{coeff.format()}*{mono}")
            else:
                parts.append(f"({coeff.format()})*{mono}")
        return signed_sum(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"DifferentialPolynomial({self.format()})"


class LinearODE:
    """y^(n) + a_1 y^(n-1) + ... + a_n y = 0 with rational coefficients."""

    def __init__(self, coefficients):
        self.coefficients = [RationalFunction.coerce(c)
                             for c in coefficients]
        if not self.coefficients:
            raise ValueError("order must be at least 1")

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def __repr__(self):
        return f"LinearODE(order={self.order})"


def d_sequence(n: int):
    """D_0 ... D_n with D_0 = 1 and D_{k+1} = dD_k/dx + u D_k.

    deg D_k = k with top homogeneous part u^k; guarded at n <= 12 since the
    term count grows like the partition numbers.
    """
    if n > MAX_JET_ORDER:
        raise OrderTooLarge(f"D-sequence guarded at n <= {MAX_JET_ORDER}")
    u = DifferentialPolynomial.jet(0)
    seq = [DifferentialPolynomial.constant(1)]
    for _ in range(n):
        seq.append(seq[-1].derivative() + u * seq[-1])
    return seq


def generalized_riccati(ode: LinearODE) -> DifferentialPolynomial:
    """D_n + a_1 D_{n-1} + ... + a_n D_0 for the given linear ODE."""
    n = ode.order
    ds = d_sequence(n)
    out = ds[n]
    for k, a in enumerate(ode.coefficients, start=1):
        out = out + ds[n - k].scale(a)
    return out


def generalized_riccati_homogeneous(monomials) -> DifferentialPolynomial:
    """Substitute D_0..D_n into a homogeneous polynomial Q(x_0, ..., x_n).

    ``monomials`` is an iterable of (coefficient, exponent tuple); the total
    degree must be constant across monomials (homogeneity is verified).
    """
    items = [(RationalFunction.coerce(c), tuple(int(e) for e in exps))
             for c, exps in monomials]
    items = [(c, e) for c, e in items if not c.is_zero()]
    if not items:
        return DifferentialPolynomial()
    degrees = {sum(e) for _, e in items}
    if len(degrees) != 1:
        raise NotHomogeneous(f"mixed total degrees {sorted(degrees)}")
    n = max(len(e) for _, e in items) - 1
    ds = d_sequence(n)
    out = DifferentialPolynomial()
    for coeff, exps in items:
        term = DifferentialPolynomial.constant(coeff)
        for i, p in enumerate(exps):
            for _ in range(p):
                term = term * ds[i]
        out = out + term
    return out


def xi_weighted_check(monomials):
    """The top xi-weight of Q and whether the top coefficient sum is nonzero.

    The xi-weight of x^p is sum_i i * p_i; the condition holds when the sum
    of the coefficients of all monomials of maximal weight is nonzero.
    """
    items = [(RationalFunction.coerce(c), tuple(int(e) for e in exps))
             for c, exps in monomials]
    items = [(c, e) for c, e in items if not c.is_zero()]
    if not items:
        raise ValueError("empty polynomial")
    weights = [sum(i * p for i, p in enumerate(e)) for _, e in items]
    top = max(weights)
    total = RationalFunction.coerce(0)
    for (c, _e), w in zip(items, weights):
        if w == top:
            total = total + c
    return {"satisfied": not total.is_zero(), "weight": top,
            "top_sum": total}


def verify_exp_integral_witness(ode: LinearODE, u) -> bool:
    """True iff u solves the generalized Riccati equation of the ODE,
    i.e. y = exp(integral u) solves the ODE (checked exactly in C(x))."""
    riccati = generalized_riccati(ode)
    return riccati.substitute(RationalFunction.coerce(u)).is_zero()
