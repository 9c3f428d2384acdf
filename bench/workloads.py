"""Seeded request lists for the four benchmark workloads.

Run as a script, this writes ``requests.json`` (and the Fuchsian system
files) into an output directory:

    python3 bench/workloads.py --workload curves --seed 7 --out DIR

Every workload is a list of rounds.  A round always holds the same kinds
of request in the same order, so a run that serves whole rounds attempts
every kind in the same proportion whatever the seed.  Seeded rounds are
drawn from ``random.Random(f"{workload}:{seed}:{round}")``; the planted
requests that show known program faults do not depend on the seed.

Each request is ``{"argv": [...], "kind": ..., "meta": {...}}``: ``argv``
is what the client passes to ``finitude.cli.main`` after ``--json``, and
``meta`` is what the checks need.  Only ``argv`` and the files it names
reach the program.  Curves, Puiseux curves and compositions come from
the checked pools in panel.json (make_panel.py draws them with the
functions here).  sympy is used here (exact expansions, irreducibility)
and so runs in its own process, before any timing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re

import numpy as np
import sympy

X, Y = sympy.symbols("x y")

# Rounds drawn per run.  A run cycles through them when it serves more
# rounds than this, so a faster program repeats inputs instead of
# drawing new ones.
ROUNDS = {"curves": 4, "rational": 12, "fuchsian": 8, "short": 40}

# Fixed inputs, the same in every run.
CHEBYSHEV_5 = "16*y^5-20*y^3+5*y-x"
CHEBYSHEV_6 = "32*y^6-48*y^4+18*y^2-1-x"
# A deg-(5, 2) curve whose branch tracking rejects many steps (about
# 1.4 s per monodromy computation at the time the benchmark was written).
STIFF_CURVE = "3*x^2*y^4 + x*y^4 + x*y^3 + x*y^2 + y^5 - y^3 + 2*y^2 + 2*y + 2"
# The dimension-4 triangularizable system drawn by
# planted_triangular_system(); simultaneous_triangularizable misjudges it.
PLANTED_SYSTEM_SEED = 2


def program_text(expr) -> str:
    """sympy expression -> the program's input grammar (^, i)."""
    text = str(expr).replace("**", "^")
    return re.sub(r"\bI\b", "i", text)


def rand_poly(rng, deg, bound):
    return sum(rng.randint(-bound, bound) * X**k for k in range(deg + 1))


def irreducible(P) -> bool:
    _, factors = sympy.factor_list(P)
    return len(factors) == 1 and factors[0][1] == 1 \
        and sympy.degree(factors[0][0], Y) == sympy.degree(P, Y)


# (panel class, extra flags) for the seeded curves of one round.  Curves of
# y-degree 3 to 5 are drawn with deg_x = 1: with deg_x = 2 about one in
# forty of y-degree 4 and 5 tracks for 15 s to several minutes, which no
# run can hold, and of 24 checked deg-(3, 2) curves two took 2.4 s and
# 9.9 s (3.5 s and 14.8 s with --k 4) against a median of 0.5 s, so that
# a run's throughput and tail turned on whether its seed drew one.
# STIFF_CURVE stands for them instead.
# Costs rise with deg_y; five slots of y-degree 4 put the median request
# of a round among them, where costs are dense, not in the gap between two
# degrees, so latency_p50_s does not jump with the draw.
CURVE_SLOTS = [
    ("2,2", []), ("2,1", ["--tower"]), ("2,2", ["--k", "4"]),
    ("3,1", []), ("3,1", ["--k", "4"]), ("3,1", ["--tower"]),
    ("4,1", []), ("4,1", ["--k", "4"]), ("4,1", ["--tower"]), ("4,1", []),
    ("4,1", []),
    ("5,1", []), ("5,1", ["--k", "4"]), ("5,1", ["--tower"]),
    ("binomial", ["--tower"]), ("binomial", ["--k", "4"]),
    ("quartic", ["--tower"]),
]
PANEL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "panel.json")


def _curve_request(text, flags, planted=None):
    return {"argv": ["algebraic", *flags, "--", text], "kind": "algebraic",
            "meta": {"expr": text, "flags": flags, "planted": planted}}


def curves_round(rng, panel):
    """Seeded curves sampled from the panel (bench/make_panel.py) without
    repetition inside the round, then the fixed curves."""
    picks = {cls: rng.sample(curves, sum(1 for c, _f in CURVE_SLOTS
                                         if c == cls))
             for cls, curves in panel.items()}
    out = [_curve_request(picks[cls].pop(), flags)
           for cls, flags in CURVE_SLOTS]
    out.append(_curve_request(STIFF_CURVE, []))
    # dihedral towers: certificate marked exact, coefficients approximate
    out.append(_curve_request(CHEBYSHEV_5, ["--tower"], "dihedral-tower"))
    out.append(_curve_request(CHEBYSHEV_6, ["--tower"], "dihedral-tower"))
    return out


# Denominator degrees of a round.  Cost about doubles per degree; the
# second degree-5 integrand puts the median request of a round among the
# degree-5 ones, not in the gap between degrees 4 and 5, and the second
# degree-7 one puts the 80th percentile among the degree-7 ones, not in the
# gap between degrees 7 and 8.
RATIONAL_DEGREES = [1, 2, 3, 4, 5, 5, 6, 7, 7, 8]


def rational_round(rng):
    """Integrands drawn as criterion 7 draws them (coefficients in
    [-9, 9]) but proper: the numerator degree is below the denominator's.
    Improper ones with irrational poles can have residues too large for
    the report's root certification (exit 64, bench/README.md), which would
    make failures depend on the seed."""
    out = []
    for deg in RATIONAL_DEGREES:
        while True:
            num = rand_poly(rng, rng.randint(0, deg - 1), 9)
            den = X**deg + rand_poly(rng, deg - 1, 9)
            if num != 0:
                break
        text = f"({program_text(num)})/({program_text(den)})"
        out.append({"argv": ["integrate", "--", text], "kind": "integrate",
                    "meta": {"expr": text}})
    return out


def _residues(rng, n, count, scale=0.15):
    return [scale * (rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))
            for _ in range(count)]


def _poles(rng, count):
    """Standard complex Gaussian poles, redrawn until 0.3 apart."""
    while True:
        poles = [complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(count)]
        if all(abs(a - b) >= 0.3 for i, a in enumerate(poles)
               for b in poles[:i]):
            return poles


def _triangularizable(rng, n, count):
    """A_k = S U_k S^-1 with upper-triangular U_k and one random S."""
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S_inv = np.linalg.inv(S)
    return [S @ np.triu(U) @ S_inv for U in _residues(rng, n, count)]


def planted_triangular_system():
    rng = np.random.default_rng(PLANTED_SYSTEM_SEED)
    return _poles(rng, 2), _triangularizable(rng, 4, 2)


def _system_request(path, poles, mats, triangular, planted=None):
    data = {"poles": [[p.real, p.imag] for p in poles],
            "matrices": [[[[complex(v).real, complex(v).imag] for v in row]
                          for row in m] for m in mats]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return {"argv": ["fuchsian", path], "kind": "fuchsian",
            "meta": {"system": data, "triangular": triangular,
                     "planted": planted}}


def fuchsian_round(rng, out_dir, tag):
    """Generic systems for every (poles, dimension) in {2,3,4}^2, and
    triangularizable ones of dimension 2 for 2, 3 and 4 poles."""
    nrng = np.random.default_rng(rng.getrandbits(64))
    out = []
    for count in (2, 3, 4):
        for n in (2, 3, 4):
            path = os.path.join(out_dir, f"{tag}-g{count}{n}.json")
            out.append(_system_request(path, _poles(nrng, count),
                                       _residues(nrng, n, count), False))
        path = os.path.join(out_dir, f"{tag}-t{count}2.json")
        out.append(_system_request(path, _poles(nrng, count),
                                   _triangularizable(nrng, 2, count), True))
    poles, mats = planted_triangular_system()
    out.append(_system_request(os.path.join(out_dir, "planted.json"), poles,
                               mats, True, "misjudged-triangular"))
    return out


def _gaussian_integer(rng):
    return rng.randint(-3, 3) + rng.randint(-3, 3) * sympy.I


# Q(i)(x), in which the ODE coefficients are computed: sympy.cancel on the
# same expressions took 0.12 s per request, field arithmetic 0.02 s
QI_FIELD, XF = sympy.field("x", sympy.QQ_I)


def ode_request(rng, count, a1_degree):
    """y'' + a1 y' + a2 y = 0 built around u = c + sum m_j/(x - p_j) with
    ``count`` Gaussian-integer poles p_j: a2 = -(u' + u^2 + a1 u)."""
    poles = []
    while len(poles) < count:
        p = _gaussian_integer(rng)
        if p not in poles:
            poles.append(p)
    c = rng.randint(-2, 2)
    residues = [rng.choice([-2, -1, 1, 2]) for _ in poles]
    if a1_degree:  # of exactly this degree
        a1 = (rand_poly(rng, a1_degree - 1, 2)
              + rng.choice([-2, -1, 1, 2]) * X**a1_degree)
    else:
        a1 = rand_poly(rng, 0, 2)
    if a1 == -2 * c:
        # then a second solution can be exp(int u) times a rational
        # function, giving infinitely many witnesses that no search lists
        a1 += 1
    shifts = [XF - QI_FIELD.from_expr(p) for p in poles]
    u = c + sum(m / s for m, s in zip(residues, shifts))
    du = -sum(m / s**2 for m, s in zip(residues, shifts))
    a2 = -(du + u**2 + QI_FIELD.from_expr(a1) * u)
    coeffs = [program_text(a1), program_text(a2.as_expr())]
    return {"argv": ["ode", "2", "--", *coeffs], "kind": "ode",
            "meta": {"a1": coeffs[0], "a2": coeffs[1],
                     "witness": program_text(u.as_expr())}}


def composition(rng, draws):
    """A composition drawn as criterion 5 draws them (degree 2..30), from
    ``draws`` factor draws."""
    while True:
        factors, total = [], 1
        for _ in range(draws):
            kind = rng.choice(["linear", "power", "chebyshev", "small"])
            if kind == "linear":
                g = rng.randint(-3, 3) + rng.choice([1, 2, -1, 3]) * X
            elif kind == "power":
                g = X**rng.choice([2, 3, 5])
            elif kind == "chebyshev":
                g = sympy.chebyshevt(rng.choice([2, 3, 5]), X)
            else:
                g = rand_poly(rng, rng.choice([2, 3, 4]), 3)
                if sympy.degree(g, X) < 2:
                    continue
            deg = max(sympy.degree(g, X), 1)
            if total * deg > 30:
                break
            total *= deg
            factors.append(g)
        if not factors:
            continue
        f = factors[0]
        for g in factors[1:]:
            f = sympy.expand(g.subs(X, f))
        if 2 <= sympy.degree(f, X) <= 30:
            return program_text(sympy.expand(f))


def decompose_request(text):
    return {"argv": ["decompose", "--", text], "kind": "decompose",
            "meta": {"expr": text}}


def puiseux_curve(rng):
    """A small irreducible curve with y = 0 a multiple root of P(0, y),
    so that x = 0 is a branch point."""
    while True:
        deg_y = rng.randint(2, 3)
        mult = rng.randint(2, deg_y)
        rows = []
        for j in range(deg_y):
            row = rand_poly(rng, rng.randint(0, 2), 3)
            if j < mult:
                row = sympy.expand(X * rand_poly(rng, rng.randint(0, 1), 3))
            rows.append(row)
        P = sympy.expand(Y**deg_y + sum(r * Y**j for j, r in enumerate(rows)))
        if rows[0] != 0 and irreducible(P):
            return program_text(P)


def puiseux_request(text):
    return {"argv": ["puiseux", "--point", "0", "--order", "3", "--", text],
            "kind": "puiseux", "meta": {"expr": text}}


# (witness poles, degree of a1) of the ODEs of a round; a nonconstant a1
# has exactly that degree.  Two-pole witnesses get a linear a1: with a
# constant a1 their search takes 0.1 to 1.1 s, not the milliseconds this
# workload is about, and one in five draws with a possibly zero
# x-coefficient was such a one, which moved throughput by 10% from seed to
# seed.
ODE_SLOTS = [(1, 0), (2, 1)]
# factor draws of the compositions of a round
DECOMPOSE_SLOTS = [1, 2, 3]
# Puiseux requests are the majority of a round, so that the median request
# is one of them and latency_p50_s reads the fixed per-request costs
PUISEUX_PER_ROUND = 7


def short_round(rng, panel, index):
    """Puiseux curves are sampled from the panel (bench/make_panel.py)
    without repetition inside the round.  Compositions are the panel's
    index-th of each kind, the same for every seed: a few of them take
    seconds, not milliseconds, and whether a run drew one moved its
    throughput by half."""
    return ([ode_request(rng, count, a1_degree)
             for count, a1_degree in ODE_SLOTS]
            + [decompose_request(panel["decompose"][str(d)][index])
               for d in DECOMPOSE_SLOTS]
            + [puiseux_request(text)
               for text in rng.sample(panel["puiseux"], PUISEUX_PER_ROUND)])


def build(workload: str, seed: int, out_dir: str):
    rounds = []
    with open(PANEL, encoding="utf-8") as handle:
        panel = json.load(handle)
    for k in range(ROUNDS[workload]):
        rng = random.Random(f"{workload}:{seed}:{k}")
        if workload == "curves":
            rounds.append(curves_round(rng, panel["curves"]))
        elif workload == "rational":
            rounds.append(rational_round(rng))
        elif workload == "fuchsian":
            rounds.append(fuchsian_round(rng, out_dir, f"r{k}"))
        else:
            rounds.append(short_round(rng, panel, k))
    return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    rounds = build(args.workload, args.seed, os.path.abspath(args.out))
    with open(os.path.join(args.out, "requests.json"), "w",
              encoding="utf-8") as handle:
        json.dump(rounds, handle)


if __name__ == "__main__":
    main()
