"""Regenerate bench/panel.json, the curves the workloads sample.

    PYTHONPATH=src python3 bench/make_panel.py

Draws candidate curves per class from fixed seeds: for `curves` as
criteria 3 and 9 draw them, plus binomials and even quartics, each served
once as ``algebraic --k 4 --tower``; for `short`, small curves with a
branch point at 0, served as ``puiseux``, and compositions drawn as
criterion 5 draws them, served as ``decompose``.  A candidate is kept when
its report passes bench/checks.py.  The program gets a few of these wrong
(a monodromy group that is not transitive or has generators of the wrong
parity, a Puiseux expansion that stops with exit 64, a composition of
radical-friendly factors judged Undecided); such faults would fail on
some seeds only, so those inputs are left out of the panel and listed
under "excluded" with the reason.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import sympy

import checks
import workloads
from workloads import X, Y, irreducible, rand_poly
from finitude.cli import main as cli_main

# class -> candidates drawn
CANDIDATES = {"2,1": 16, "2,2": 24, "3,1": 24, "4,1": 40,
              "5,1": 32, "binomial": 16, "quartic": 16}
FLAGS = ["--k", "4", "--tower"]
PUISEUX_CANDIDATES = 240
DECOMPOSE_CANDIDATES = 80


def random_monic_curve(rng, deg_y, deg_x, bound=3):
    """Monic in y, irreducible over Q, as criteria 3 and 9 draw curves:
    each lower y-coefficient has x-degree randint(0, deg_x)."""
    while True:
        rows = [rand_poly(rng, rng.randint(0, deg_x), bound)
                for _ in range(deg_y)]
        P = sympy.expand(Y**deg_y
                         + sum(r * Y**j for j, r in enumerate(rows)))
        if sympy.degree(P, X) >= 1 and irreducible(P):
            return P


def random_binomial(rng):
    n = rng.choice([2, 3, 4, 5])
    while True:
        r = rand_poly(rng, rng.randint(1, 2), 3)
        P = sympy.expand(Y**n - r)
        if sympy.degree(P, X) >= 1 and irreducible(P):
            return P


def random_even_quartic(rng):
    while True:
        p = rand_poly(rng, rng.randint(0, 2), 3)
        q = rand_poly(rng, rng.randint(1, 2), 3)
        P = sympy.expand(Y**4 + p * Y**2 + q)
        if sympy.degree(P, X) >= 1 and irreducible(P):
            return P


def draw(rng, cls):
    if cls == "binomial":
        return random_binomial(rng)
    if cls == "quartic":
        return random_even_quartic(rng)
    deg_y, deg_x = map(int, cls.split(","))
    return random_monic_curve(rng, deg_y, deg_x)


def screen(request):
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_main(["--json", *request["argv"]])
    except SystemExit as exc:
        code = exc.code
    return checks.check_report(request, out.getvalue(), code, None)


def screened(cls, count, draw_text, make_request, excluded):
    """The first ``count`` distinct candidates whose report passes."""
    rng = random.Random(f"panel:{cls}")
    kept, seen = [], set()
    while len(seen) < count:
        text = draw_text(rng)
        if text in seen:
            continue
        seen.add(text)
        why = screen(make_request(text))
        if why is None:
            kept.append(text)
        else:
            excluded.append({"class": cls, "expr": text, "why": why})
            print(f"excluded {text}: {why}", flush=True)
    print(cls, len(kept), "of", count, flush=True)
    return kept


def main():
    excluded = []
    curves = {cls: screened(cls, count,
                            lambda rng, c=cls: workloads.program_text(
                                draw(rng, c)),
                            lambda text: workloads._curve_request(text, FLAGS),
                            excluded)
              for cls, count in CANDIDATES.items()}
    puiseux = screened("puiseux", PUISEUX_CANDIDATES, workloads.puiseux_curve,
                       workloads.puiseux_request, excluded)
    decompose = {str(draws): screened(
        f"decompose{draws}", DECOMPOSE_CANDIDATES,
        lambda rng, d=draws: workloads.composition(rng, d),
        workloads.decompose_request, excluded)
        for draws in workloads.DECOMPOSE_SLOTS}
    with open(workloads.PANEL, "w", encoding="utf-8") as handle:
        json.dump({"curves": curves, "puiseux": puiseux,
                   "decompose": decompose, "excluded": excluded},
                  handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
