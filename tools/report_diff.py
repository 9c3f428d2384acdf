"""Compare the ``--json`` reports of two finitude source trees.

    python3 tools/report_diff.py BASE_SRC [--src SRC]

Run from the root of a source checkout.  The comparison set is

* the cases under ``corpus/``;
* every curve of ``bench/panel.json``, plain, with ``--k 4`` and with
  ``--tower``;
* the distinct requests of seed 301 of the ``rational``, ``fuchsian`` and
  ``short`` workloads (``bench/workloads.py``, which needs sympy);
* ``puiseux`` at two floating-point singular points of one curve, the only
  requests that expand at an irrational center;
* ``integrate`` requests whose residues fall in two multiplicity classes,
  come in conjugate Gaussian pairs, or whose subresultant sequences are
  defective (a degree is skipped), integrands with repeated
  denominator factors, which exercise Hermite reduction, an integrand
  whose log argument has a leading coefficient of higher degree than the
  modulus it is inverted by, integrands whose Norm has a large constant
  term, one whose residue class has a reducible modulus, and a sum of
  coprime powers;
* front-end requests: nested quotients, negative powers of subexpressions
  and constant divisors in every subcommand that parses, an integrand with
  rational coefficients in numerator and denominator, two ``ode 2``
  requests whose witnesses have two poles, two outside the witness search
  and four whose local parts come from poles of order 4 and 6 or from
  infinity, with and without a Gaussian-rational square root, a curve
  whose subresultant sequence skips four degrees at its end, radical
  towers of two dihedral curves and a cyclic one, an ``ode 3`` request
  (the order-n path), a curve with x-content, two curves whose monodromy
  was once misread (plain and with ``--k 4``), rational residues in two
  classes, inputs with huge exact roots (a fifth root
  among them), coefficients beyond double range or roots beyond it, an
  ``integrate`` and an ``ode 2`` request whose huge root, past the double
  grid, is that of a linear factor, an ``integrate`` request whose
  Gaussian-rational residues, past the double grid, are the roots of a
  quadratic factor, three whose residues are roots of a quadratic factor
  beyond double range (rational, Gaussian and irrational), and malformed
  inputs that exit 64.

Of the 95 ``ode`` requests, 89 reach the linear system for the monic N of
a witness (``gaussvec.solve``), in 217 systems: 94 with unknowns, 32 of
them inconsistent, and 123 without, 28 of them inconsistent.  Three are
rank-deficient, so the set covers both the rule that an unknown without a
pivot is 0 and the rule that an inconsistent system has no N: those of
``-98/(7*x-10000019)^2`` and ``-2/(x-100000000000000000001)^2`` have 3
unknowns and rank 2 and are consistent, and that of ``3/x^4 - 1/x^6``
has 1 unknown and rank 0 and is inconsistent.

Each tree serves the whole set in one process of its own, calling
``finitude.cli.main(["--json", ...])`` in-process, one request after
another; the two processes run side by side.  Every request whose exit
code, stderr or report differs is printed with the paths of the differing
report fields; ``elapsed_seconds`` is ignored.  A last summary gives one
line per field path, list indices collapsed, whose differences are all
between finite numbers: their count and the largest relative change
|b - a| / max(|a|, |b|).  The exit code is 1 when any request differs.
Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 301
WORKLOADS = ("rational", "fuchsian", "short")
PANEL_FLAGS = ([], ["--k", "4"], ["--tower"])
# two of its singular points lie about 0.02 from another one
CLOSE_PAIR = "y^5 + (2*x-2)*y^4 - y^3 + 3*y^2 + (2*x^2-3*x+2)*y - 2"
CLOSE_PAIR_POINTS = ("1.52150944558511+1.170391142416538j",
                     "1.5276516382839795+1.1513179616704148j")
# the residues t^2 = 1/12 and t^2 = 1/8 have log arguments of x-degree 1 and
# 2: two multiplicity classes of R(t)
SPLIT_INTEGRAND = "2*x/(x^4-2) + 1/(x^2-3)"
# conjugate Gaussian residues, ordered as complex_roots returns them
GAUSSIAN_INTEGRANDS = ("(3*x+1)/(x^2+1)", "x/(x^2+1) + 2/(x^2+9)")
# subresultant sequences of x-degrees [4, 3, 1, 0], [6, 5, 3, 2, 1, 0],
# [6, 5, 3, 2, 0], [8, 7, 4, 3, 0] and [9, 8, 6, 2, 0]: the last three end
# in a skipped degree, and the last one also reaches degree 2 by a skip
DEFECTIVE_INTEGRANDS = ("1/(x^4 + 2)", "(2*x^2 + 3)/(x^6 - 4)",
                        "x^2/(x^6+1)", "x^3/(x^8+3)",
                        "(9*x^8+18*x^5+9*x^2)/(x^9+3*x^6+3*x^3+2)")
# repeated denominator factors of multiplicity 2-4, integer and Gaussian,
# with and without a polynomial part; the first is the derivative of
# -1/(x^2-1), so nothing is left after Hermite reduction
HERMITE_INTEGRANDS = (
    "2*x/(x^2-1)^2", "(3*x+1)/((x^2+x+1)^2*x^3)", "(x^3-1)/(x^2+1)^3",
    "1/(x^2+2)^4", "x^5/(x-1)^3", "(x^4+i)/((x-i)^2*(x+1)^3)",
    "i*x^2/(x^2-2*i)^2", "(x^6+(2-i)*x)/((x+i)^4*(x-2))",
    "1/(x^3 - 2)^2")
# the leading coefficient in x of its log argument has a higher t-degree
# than the residues' minimal polynomial m, whose inverse it needs
HIGH_LEAD_INTEGRAND = \
    "(2*x + 3)/(x^7 - 8*x^6 - 6*x^5 + 8*x^4 + 5*x^3 - 5*x^2 + 5*x)"
# conjugate blocks whose Norm, a factor of the denominator, has a 32-bit
# and a 41-bit constant term; the second sits beside rational residues
NORM_INTEGRANDS = ("1/(x^2 - 3000000019)",
                   "1/((x^2+1)*(x^3 - 5*x + 1234567891011))")
# one residue class, m = (t^2 - 1/8)(t^2 - 1/12): the derivative check
# divides modulo a reducible m, over a product of two fields
REDUCIBLE_MODULUS = "1/((x^2-2)*(x^2-3))"
# every gcd that normalises the sum is coprime, and certified mod p
COPRIME_POWERS = "1/(x+1)^40 + 1/(x+2)^40"
FRONT_END = [
    ["integrate", "--", "1/(x+1) - 2/(x-1)^2 + (x+1)^-3"],
    ["integrate", "--", "(3/4)^-1*x + i/(x^2+1)"],
    ["integrate", "--", "-(x^2+1)^-1/(2 - i)"],
    # rational coefficients on both sides: the subresultant sequence runs
    # on the cleared pair and divides its members back
    ["integrate", "--", "(x/3 + 1/2)/(x^3 - x/5 + 1/7)"],
    ["ode", "2", "--", "1/x", "-(x+1)^-2"],
    # a witness with two Gaussian poles, a1 constant (the slow case of the
    # witness search) and a1 linear
    ["ode", "2", "--", "3",
     "(2*x^4 + x^3*(16 - 8*i) + x^2*(8 - 60*i) + x*(-98 - 80*i) - 126"
     " + 12*i)/(x^4 + x^3*(6 - 4*i) + x^2*(5 - 24*i) + x*(-24 - 36*i)"
     " - 36)"],
    ["ode", "2", "--", "x + 2",
     "(x^5 + x^4*(-5 + 6*i) + x^3*(-9 - 21*i) + x^2*(36 - 12*i)"
     " + x*(22 + 48*i) - 42 + 12*i)/(x^4 + x^3*(-8 + 6*i)"
     " + x^2*(11 - 36*i) + x*(20 + 60*i) - 32 - 24*i)"],
    ["algebraic", "--", "y^3/2 - x/3"],
    # a subresultant sequence ending in a step from y-degree 4 to 0
    ["algebraic", "--", "y^5 - x"],
    # outside the rational witness search (exit 2): poles that are not
    # Gaussian rational, and a degree above the automatic bound
    ["ode", "2", "--", "0", "-2/(x^2-2)"],
    ["ode", "2", "--", "-2*x", "24"],
    # even-order local parts: poles of order 4 and 6 and order 4 at
    # infinity, and local square roots that are not Gaussian rational at a
    # pole and at infinity (exit 2)
    ["ode", "2", "--", "0", "-1/x^4"],
    ["ode", "2", "--", "0", "3/x^4 - 1/x^6"],
    ["ode", "2", "--", "0", "-2/x^4"],
    ["ode", "2", "--", "0", "-2*x^2"],
    # radical towers: two planted dihedral curves and a cyclic one
    # (y = rho + rho^2, rho^5 = x); the order-n path of ode
    ["algebraic", "--tower", "--", "16*y^5-20*y^3+5*y-x"],
    ["algebraic", "--tower", "--", "32*y^6-48*y^4+18*y^2-1-x"],
    ["algebraic", "--tower", "--", "y^5 - 5*x*y^2 - 5*x*y - x^2 - x"],
    ["ode", "3", "--", "0", "1/x", "x^2"],
    # a curve with x-content, whose report lists a singular point that its
    # loops do not use; rational residues in two classes (the order of
    # the log terms)
    ["algebraic", "--", "(x-1)*(y^2-x)"],
    # two curves whose monodromy was once misread: S_5, and a group of
    # order 8 with one odd generator
    ["algebraic", "--", "x + y^5 - y^3 - 3*y^2 + y - 2"],
    ["algebraic", "--k", "4", "--", "x + y^5 - y^3 - 3*y^2 + y - 2"],
    ["algebraic", "--", "x^2*y^2 + 3*x + y^4 + 3*y^2 + 1"],
    ["algebraic", "--k", "4", "--", "x^2*y^2 + 3*x + y^4 + 3*y^2 + 1"],
    ["integrate", "--", "1/(x-1) + 1/(x-2) + 2/(x-3)"],
    # a Gaussian-rational pole of large numerator, a witness search with a
    # candidate beyond the degree bound, huge exact square and cube roots,
    # and roots beyond double range
    ["ode", "2", "--", "0", "-98/(7*x-10000019)^2"],
    ["ode", "2", "--", "0", "-(12*11)/x^2"],
    ["ode", "2", "--", "0", "-(10^400-10^200)/x^2"],
    ["decompose", "--", "4*10^600*x^3 - 3*10^200*x"],
    ["integrate", "--", "1/(x^2 - 10^400)"],
    # residues +-1/(2 10^350), +-i/(2 10^350) and +-1/(2 sqrt(2) 10^350):
    # beyond double range only the Gaussian-rational ones are found
    ["integrate", "--", "1/(x^2 - 10^700)"],
    ["integrate", "--", "1/(x^2 + 10^700)"],
    ["integrate", "--", "1/(x^2 - 2*10^700)"],
    # T_5(10^130 x): the exact fifth root of a w of more than 900 bits
    # starts from a guess at w scaled into double range
    ["decompose", "--", "16*10^650*x^5 - 20*10^390*x^3 + 5*10^130*x"],
    ["decompose", "--", "(x^2+1)^3/8"],
    ["decompose", "--", "(x^2-1)/(x-1)"],
    ["puiseux", "--", "(y^2 - x)/(2*i)"],
    # the root 10^20 + 1 of a linear factor, read exactly
    ["integrate", "--", "(10^20+1)/(x-1)"],
    ["ode", "2", "--", "0", "-2/(x-100000000000000000001)^2"],
    # residues +-1/(2 (10^20 + 1)) of a quadratic factor, past the double
    # grid, found by Newton in Z[i]
    ["integrate", "--", "1/(x^2-(10^20+1)^2)"],
    # rejected: exit 64
    ["algebraic", "--", "y/x"],
    ["algebraic", "--", "z + 1"],
    ["integrate", "--", "x^"],
    ["integrate", "--", "(x+1"],
]


def corpus_requests(src):
    """The command line of each corpus case, read by the case parser of the
    finitude under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from finitude.cli import _parse_case
    corpus = os.path.join(ROOT, "corpus")
    commands = [_parse_case(os.path.join(corpus, name))[0]
                for name in sorted(os.listdir(corpus))
                if name.endswith(".case")]
    return [command.split() for command in commands if command is not None]


def bench_requests(out_dir):
    """Panel curves with each flag set, the seeded workloads, the
    close-pair Puiseux requests, the integrands above, then the front-end
    requests."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    with open(workloads.PANEL, encoding="utf-8") as handle:
        panel = json.load(handle)
    requests = [["algebraic", *flags, "--", curve]
                for curves in panel["curves"].values() for curve in curves
                for flags in PANEL_FLAGS]
    for workload in WORKLOADS:
        for rounds in workloads.build(workload, SEED, out_dir):
            requests += [request["argv"] for request in rounds]
    return requests + [["puiseux", "--point", point, "--", CLOSE_PAIR]
                       for point in CLOSE_PAIR_POINTS] \
        + [["integrate", "--", integrand] for integrand in
           (SPLIT_INTEGRAND, *GAUSSIAN_INTEGRANDS, *DEFECTIVE_INTEGRANDS,
            *HERMITE_INTEGRANDS, HIGH_LEAD_INTEGRAND, *NORM_INTEGRANDS,
            REDUCIBLE_MODULUS, COPRIME_POWERS)] \
        + FRONT_END


def serve(src, requests_path, out_path):
    """Serve every request with the finitude under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from finitude.cli import main
    with open(requests_path, encoding="utf-8") as handle:
        requests = json.load(handle)
    results = []
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(["--json", *argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        try:
            report = json.loads(out.getvalue())
            report.pop("elapsed_seconds", None)
        except ValueError:
            report = out.getvalue()
        results.append({"exit": code, "stderr": err.getvalue(),
                        "report": report})
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)


def differences(a, b, path=""):
    """(path, a value, b value) wherever two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(set(a) | set(b))
                for d in differences(a.get(key), b.get(key),
                                     f"{path}.{key}" if path else key)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for k, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{path}[{k}]")]
    return [] if a == b else [(path or ".", a, b)]


def _relative_change(a, b):
    """|b - a| / max(|a|, |b|) for two different finite numbers, else None."""
    numbers = [v for v in (a, b) if isinstance(v, (int, float))
               and not isinstance(v, bool) and math.isfinite(v)]
    if len(numbers) < 2:
        return None
    return abs(b - a) / max(abs(a), abs(b))


def _short(value, limit=160):
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?",
                        help="the src/ directory to compare against")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory under test (default: this "
                             "checkout's)")
    parser.add_argument("--serve", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:  # SRC REQUESTS OUT, in a child process
        serve(*args.serve)
        return 0
    if args.base is None:
        parser.error("the base src/ directory is required")
    with tempfile.TemporaryDirectory() as tmp:
        requests = corpus_requests(args.src) + bench_requests(tmp)
        requests = list({json.dumps(r): r for r in requests}.values())
        requests_path = os.path.join(tmp, "requests.json")
        with open(requests_path, "w", encoding="utf-8") as handle:
            json.dump(requests, handle)
        outs = [os.path.join(tmp, f"{side}.json") for side in ("base", "src")]
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                   "--serve", src, requests_path, out],
                                  cwd=ROOT, env=env)
                 for src, out in zip((args.base, args.src), outs)]
        if [proc.wait() for proc in procs] != [0, 0]:
            print("a serving process failed", file=sys.stderr)
            return 2
        results = []
        for out in outs:
            with open(out, encoding="utf-8") as handle:
                results.append(json.load(handle))
    differing = 0
    changes = {}  # collapsed path -> relative changes (None: not numeric)
    for argv, x, y in zip(requests, *results):
        found = differences(x, y)
        if found:
            differing += 1
            print(" ".join(argv))
            for path, a, b in found:
                print(f"  {path}: {_short(a)} -> {_short(b)}")
                changes.setdefault(re.sub(r"\[\d+\]", "[]", path), []).append(
                    _relative_change(a, b))
    for path, rel in sorted(changes.items()):
        if None not in rel:
            print(f"{path}: {len(rel)} numeric differences, largest "
                  f"relative change {max(rel):.2g}")
    print(f"{differing} of {len(requests)} reports differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
