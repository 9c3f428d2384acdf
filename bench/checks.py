"""Checks of the program's reports against computations made apart from it.

sympy and mpmath are used here and nowhere in the serving process; this
module is imported only after a run's metrics are taken.  Each
``check_<kind>(meta, report)`` returns None when the report passes
and a one-line reason when it does not.
"""

from __future__ import annotations

import ast
import cmath
import itertools
import json
import re

import mpmath
import numpy as np
import sympy
from sympy.combinatorics import Permutation, PermutationGroup
from sympy.parsing.sympy_parser import parse_expr

X, Y, T = sympy.symbols("x y t")
_LOCALS = {"x": X, "y": Y, "t": T, "i": sympy.I}
# sample points for identities in x: away from the real axis and from 0
SAMPLE_X = [complex(0.31, 0.47), complex(-0.83, 0.29), complex(1.37, -0.61)]
REPRESENTABLE = "Representable"
NOT_REPRESENTABLE = "NotRepresentable"


def parse(text):
    """The program's grammar (^, i) -> sympy."""
    return parse_expr(text.replace("^", "**"), local_dict=dict(_LOCALS))


# --- curves ------------------------------------------------------------------


def permutation(cycles: str, degree: int) -> Permutation:
    """'(1 2)(3 4)' with 1-based points -> sympy Permutation."""
    perm = Permutation(degree - 1)
    for cycle in re.findall(r"\(([^()]*)\)", cycles):
        points = [int(p) - 1 for p in cycle.split()]
        if len(points) > 1:
            perm = perm * Permutation([points], size=degree)
    return perm


class _RadicalEvaluator(ast.NodeVisitor):
    """Evaluates a certificate at x with mpmath, principal branches:
    root(m, z) = exp(log(z)/m), arguments in (-pi/m, pi/m]."""

    def __init__(self, x):
        self.x = x

    def visit_Expression(self, node):
        return self.visit(node.body)

    def visit_Constant(self, node):
        if isinstance(node.value, int):
            return mpmath.mpf(node.value)
        if isinstance(node.value, float):
            return mpmath.mpf(repr(node.value))
        raise ValueError(f"constant {node.value!r}")

    def visit_Name(self, node):
        if node.id == "x":
            return self.x
        if node.id == "i":
            return mpmath.mpc(0, 1)
        raise ValueError(f"name {node.id!r}")

    def visit_UnaryOp(self, node):
        value = self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            return -value
        if isinstance(node.op, ast.UAdd):
            return value
        raise ValueError("unary operator")

    def visit_BinOp(self, node):
        a, b = self.visit(node.left), self.visit(node.right)
        ops = {ast.Add: lambda: a + b, ast.Sub: lambda: a - b,
               ast.Mult: lambda: a * b, ast.Div: lambda: a / b,
               ast.Pow: lambda: a ** int(b)}
        for kind, fn in ops.items():
            if isinstance(node.op, kind):
                return fn()
        raise ValueError("binary operator")

    def visit_Call(self, node):
        if not (isinstance(node.func, ast.Name) and node.func.id == "root"
                and len(node.args) == 2):
            raise ValueError("only root(m, expr) calls")
        m = int(self.visit(node.args[0]))
        z = mpmath.mpc(self.visit(node.args[1]))
        if z == 0:
            return z
        return mpmath.exp(mpmath.log(z) / m)

    def generic_visit(self, node):
        raise ValueError(f"unexpected {type(node).__name__}")


def certificate_residual(P, certificate: str, x: complex) -> float:
    """|P(x, y(x))| relative to the size of its terms, at 60 digits."""
    with mpmath.workdps(60):
        xm = mpmath.mpc(x.real, x.imag)
        tree = ast.parse(certificate.replace("^", "**"), mode="eval")
        y = _RadicalEvaluator(xm).visit(tree)
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        for (i, j), c in sympy.Poly(P, X, Y).terms():
            term = mpmath.mpf(int(c)) * xm**i * y**j
            total += term
            scale += abs(term)
        return float(abs(total) / scale)


def _disc_orders(P):
    """[(root, order of vanishing)] of disc_y(P), roots to 30 digits."""
    disc = sympy.Poly(sympy.discriminant(P, Y), X)
    out = []
    for factor, mult in sympy.sqf_list(disc)[1]:
        if factor.degree() > 0:
            out += [(complex(r), mult) for r in factor.nroots(n=30)]
    return out


def check_algebraic(meta, report):
    P = parse(meta["expr"])
    degree = sympy.degree(P, Y)
    mono = report["monodromy"]
    perms = [permutation(g, degree) for g in mono["generators"]]
    group = PermutationGroup(perms)
    if group.order() != mono["group_order"]:
        return (f"group_order {mono['group_order']} but the generators "
                f"generate {group.order()}")
    expected = REPRESENTABLE if group.is_solvable else NOT_REPRESENTABLE
    if report["radicals"]["status"] != expected:
        return f"radicals verdict {report['radicals']['status']}"
    if "--k" in meta["flags"] and report["k_radicals"]["status"] != expected:
        return f"4-radicals verdict {report['k_radicals']['status']}"
    roots = _disc_orders(P)
    odd_points = 0
    for re_, im in mono["singular_points"]:
        a = complex(re_, im)
        dist, order = min((abs(a - r), m) for r, m in roots)
        if dist > 1e-6 * max(1.0, abs(a)):
            return f"singular point {a:.6g} is no root of disc_y"
        odd_points += order % 2
    odd_generators = sum(1 for p in perms if p.is_odd)
    if odd_generators != odd_points:
        return (f"{odd_generators} odd generators, disc_y vanishes to odd "
                f"order at {odd_points} singular points")
    certificate = report["radicals"].get("certificate")
    if "--tower" in meta["flags"] and certificate is not None:
        exact = report["radicals"]["certificate_exact"]
        bound = 1e-40 if exact else 1e-8
        worst = max(certificate_residual(P, certificate, x)
                    for x in SAMPLE_X)
        if worst > bound:
            return (f"certificate (exact={exact}) leaves P(x, y(x)) = "
                    f"{worst:.2e} at 60 digits")
    return None


# --- rational ----------------------------------------------------------------


def _mp(value):
    """Exact Gaussian rational (sympy) -> mpmath at the working precision."""
    re_, im = (sympy.Rational(v) for v in value.as_real_imag())
    return mpmath.mpc(mpmath.mpf(re_.p) / re_.q, mpmath.mpf(im.p) / im.q)


def _log_derivative_terms(log, x):
    """Sum of lambda * d/dx arg / arg over the residues of one log term."""
    arg = parse(log["arg"])
    darg = sympy.diff(arg, X)
    lam = log["lambda"]
    match = re.fullmatch(r"RootOf\((.*)\)", lam)
    if match:
        m = sympy.Poly(parse(match.group(1)), T)
        coeffs = [_mp(c) for c in m.all_coeffs()]
        residues = mpmath.polyroots(coeffs, maxsteps=200, extraprec=60)
    else:
        residues = [_mp(parse(lam))]
    f_arg = sympy.lambdify((X, T), arg, "mpmath")
    f_darg = sympy.lambdify((X, T), darg, "mpmath")
    return sum(r * f_darg(x, r) / f_arg(x, r) for r in residues)


def check_integrate(meta, report):
    if report.get("derivative_verified") is not True:
        return "derivative_verified is not true"
    form = report["liouville_form"]
    f = sympy.lambdify(X, parse(meta["expr"]), "mpmath")
    dr0 = sympy.lambdify(X, sympy.diff(parse(form["r0"]), X), "mpmath")
    with mpmath.workdps(30):
        for point in SAMPLE_X:
            x = mpmath.mpc(point.real, point.imag)
            want = f(x)
            got = dr0(x) + sum(_log_derivative_terms(log, x)
                               for log in form["logs"])
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                return (f"d/dx of the form is {complex(got):.6g}, the input "
                        f"is {complex(want):.6g} at x = {point}")
    return None


# --- fuchsian ----------------------------------------------------------------


def _matrices(rows):
    return np.array([[complex(re_, im) for re_, im in row] for row in rows])


def _best_match(errors):
    """Assignment of rows to columns minimising the worst error."""
    size = len(errors)
    best = None
    for perm in itertools.permutations(range(size)):
        worst = max(errors[i][perm[i]] for i in range(size))
        if best is None or worst < best[0]:
            best = (worst, perm)
    return best


# Monodromy entries carry the integrator's error (tol 1e-10) amplified by
# the matrix condition; the checks allow FUCHSIAN_REL times the reported
# condition estimate.
FUCHSIAN_REL = 1e-6


def check_fuchsian(meta, report):
    system = meta["system"]
    residues = [_matrices(m) for m in system["matrices"]]
    status = report["verdict"]["status"]
    if meta["triangular"] and status == NOT_REPRESENTABLE:
        return "triangularizable system judged NotRepresentable"
    if not meta["triangular"] and status == REPRESENTABLE:
        return "generic system judged Representable"
    mono = report["monodromy"]
    mats = [_matrices(m) for m in mono["matrices"]]
    conds = mono["condition_estimates"]
    if len(mats) != len(residues):
        return f"{len(mats)} loops for {len(residues)} poles"
    dets = [np.exp(2j * np.pi * np.trace(A)) for A in residues]
    det_err = [[abs(np.linalg.det(M) - d) / (FUCHSIAN_REL * max(1.0, c))
                for d in dets] for M, c in zip(mats, conds)]
    worst, loop_pole = _best_match(det_err)
    if worst > 1.0:
        return f"det M differs from exp(2 pi i tr A) by {worst:.2g} bounds"
    for j, (M, c) in enumerate(zip(mats, conds)):
        A = residues[loop_pole[j]]
        want = np.exp(2j * np.pi * np.linalg.eigvals(A))
        got = np.linalg.eigvals(M)
        errors = [[abs(g - w) / (FUCHSIAN_REL * max(1.0, c)) for w in want]
                  for g in got]
        worst, _perm = _best_match(errors)
        if worst > 1.0:
            return (f"loop {j}: spectrum of M differs from exp(2 pi i "
                    f"spec A) by {worst:.2g} bounds")
    return None


# --- short -------------------------------------------------------------------


# rational functions of x over Q(i), for fast exact identities
_FIELD, _ = sympy.field("x", sympy.QQ_I)


def _rational(expr):
    num, den = sympy.fraction(sympy.together(expr))
    return (_FIELD.from_expr(sympy.expand(num))
            / _FIELD.from_expr(sympy.expand(den)))


def _derivative(w):
    p, q = w.numer, w.denom
    gen = _FIELD.ring.gens[0]
    return (_FIELD(p.diff(gen) * q - p * q.diff(gen))
            / _FIELD(q * q))


def check_ode(meta, report):
    a1, a2 = _rational(parse(meta["a1"])), _rational(parse(meta["a2"]))
    target = _rational(parse(meta["witness"]))
    reported = report.get("witnesses", [])
    if target not in [_rational(parse(w)) for w in reported]:
        return f"witness {meta['witness']} not among {reported}"
    for text in reported:
        w = _rational(parse(text))
        if _derivative(w) + w * w + a1 * w + a2 != 0:
            return f"witness {text} does not solve the Riccati equation"
    return None


def _right_component(f: sympy.Poly, s: int):
    """g with f = g(h) for the monic h of degree s with h(0) = 0, or None.

    Kozen-Landau: h is the polynomial part of f^(1/r), r = deg f / s, whose
    top coefficients come from the series of F(z)^(1/r), F(z) = z^n f(1/z),
    by J.C.P. Miller's recurrence."""
    n = f.degree()
    r = n // s
    lead = f.LC()
    F = [c / lead for c in f.all_coeffs()]  # F_k = coefficient of x^(n-k)
    G = [sympy.Rational(1)]
    alpha = sympy.Rational(1, r)
    for m in range(1, s):
        acc = sum((alpha * k - (m - k)) * F[k] * G[m - k]
                  for k in range(1, m + 1) if k < len(F))
        G.append(acc / m)
    h = sympy.Poly([*G, 0], X, domain="QQ")
    digits, rest = [], f
    while not rest.is_zero:
        rest, digit = rest.div(h)
        if digit.degree() > 0:
            return None
        digits.append(digit.as_expr())
    return sympy.Poly(list(reversed(digits)), X, domain="QQ")


def composition_degrees(f: sympy.Poly):
    """Degrees of a complete decomposition of f, smallest right factor
    first; by Ritt's first theorem every complete decomposition has the
    same multiset."""
    n = f.degree()
    for s in range(2, n):
        if n % s == 0:
            g = _right_component(f, s)
            if g is not None:
                return [s] + composition_degrees(g)
    return [n]


def check_decompose(meta, report):
    f = sympy.expand(parse(meta["expr"]))
    chain = [parse(g) for g in report["chain"]]
    composed = X
    for g in chain:  # innermost first
        composed = g.subs(X, composed)
    if sympy.expand(composed - f) != 0:
        return "the chain does not compose back to the input"
    degrees = sorted(d for d in (sympy.degree(g, X) for g in chain) if d > 1)
    oracle = sorted(composition_degrees(sympy.Poly(f, X, domain="QQ")))
    if degrees != oracle:
        return f"chain degrees {degrees}, a complete decomposition {oracle}"
    status = report["invertible_by_radicals"]["status"]
    if status != REPRESENTABLE:
        return f"a composition of radical-friendly factors judged {status}"
    return None


# Puiseux truncations are checked at |x| = PUISEUX_RADIUS.
PUISEUX_RADIUS = 1e-4
PUISEUX_REL = 1e-6


def check_puiseux(meta, report):
    P = sympy.Poly(parse(meta["expr"]), X, Y)
    degree = P.degree(Y)
    series = report["series"]
    counts = {}
    for s in series:
        counts[s["ramification"]] = counts.get(s["ramification"], 0) + 1
    if any(total % e for e, total in counts.items()) \
            or sum(counts.values()) != degree:
        return f"ramification counts {counts} for deg_y {degree}"
    x = PUISEUX_RADIUS * cmath.exp(0.7j)
    terms = [(float(c), i, j) for (i, j), c in P.terms()]
    for s in series:
        y = sum(complex(re_, im) * _principal_power(x, e)
                for e, (re_, im) in zip(s["exponents"], s["coefficients"]))
        values = [c * x**i * y**j for c, i, j in terms]
        residual = abs(sum(values)) / max(sum(abs(v) for v in values), 1e-300)
        if residual > PUISEUX_REL:
            return (f"series leaves residual {residual:.2e} at "
                    f"|x| = {PUISEUX_RADIUS}")
    return None


def _principal_power(x: complex, exponent: str) -> complex:
    num, _, den = exponent.partition("/")
    return cmath.exp(complex(int(num) / int(den or 1)) * cmath.log(x))


CHECKS = {"algebraic": check_algebraic, "integrate": check_integrate,
          "fuchsian": check_fuchsian, "ode": check_ode,
          "decompose": check_decompose, "puiseux": check_puiseux}


def check_report(request, text, code, error):
    """None when the request's report passes, else the reason."""
    if error is not None or code not in (0, 1, 2):
        return f"exit {code}: {(error or '').strip().splitlines()[-1:]}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "no JSON report"
    try:
        return CHECKS[request["kind"]](request["meta"], report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def check_served(rounds, served):
    """{(round, position, output index): None or reason} for every
    distinct report a run produced."""
    verdicts = {}
    for round_, position, _s, code, output, error, _speed \
            in served["records"]:
        key = (round_, position, output)
        if key not in verdicts:
            text = served["outputs"][f"{round_}:{position}"][output]
            verdicts[key] = check_report(rounds[round_][position], text,
                                         code, error)
    return verdicts
