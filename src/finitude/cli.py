"""Command-line front end.

Subcommands: algebraic, ode, integrate, decompose, fuchsian, puiseux,
corpus.  Exit codes: 0 = Representable, 1 = NotRepresentable,
2 = Undecided (also when a numeric step fails on valid input), 64 = usage
or input error.  --json emits the machine report; the corpus driver replays
plain-text cases.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

from . import __version__
from .config import Settings, load_settings
from .errors import (BoundExceeded, ExprSyntaxError, FinitudeError,
                     NumericFailure)

# Each subcommand imports its own modules when main dispatches to it, so a
# launch loads only what its request needs.

EXIT_REPRESENTABLE = 0
EXIT_NOT_REPRESENTABLE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64


def _status_exit(status) -> int:
    from .solvability.verdicts import VerdictStatus

    return {VerdictStatus.REPRESENTABLE: EXIT_REPRESENTABLE,
            VerdictStatus.NOT_REPRESENTABLE: EXIT_NOT_REPRESENTABLE,
            VerdictStatus.UNDECIDED: EXIT_UNDECIDED}[status]


class Report:
    """Input echo, module outputs, timing, version, effective tolerances."""

    def __init__(self, command, arguments, settings: Settings):
        self.data = {
            "tool": "finitude",
            "version": __version__,
            "command": command,
            "input": arguments,
            "settings": settings.to_json(),
        }
        self._start = time.perf_counter()

    def add(self, key, value):
        self.data[key] = value

    def finish(self):
        self.data["elapsed_seconds"] = round(
            time.perf_counter() - self._start, 6)
        return self.data


def _emit(report: Report, as_json: bool, lines):
    data = report.finish()
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_algebraic(args, settings) -> int:
    from .algebra import parse_expression
    from .monodromy import monodromy_group, singular_points
    from .solvability import k_radicals_verdict, radicals_verdict
    from .solvability.verdicts import monodromy_failed

    report = Report("algebraic", {"expr": args.expr, "k": args.k,
                                  "tower": args.tower}, settings)
    P = parse_expression(args.expr, ["x", "y"])
    lines = [f"curve: {P.format()}"]
    # one monodromy action serves the report and every verdict; it belongs
    # to the primitive part of P, so x-content gets its own singular set
    action = failure = None
    try:
        action = monodromy_group(P, tol=settings.continuation_tol,
                                 root_tol=settings.root_tol)
        singular = (action.singular if action.polynomial == P
                    else singular_points(P, settings.root_tol))
    except NumericFailure as err:
        failure = monodromy_failed(err)
    else:
        report.add("monodromy", action.report(singular))
        lines += [f"singular points: "
                  f"{[_fmt_complex(p.center) for p in singular]}",
                  f"group order: {action.group.order()}  "
                  f"transitive: {action.transitive}"]
    verdict = failure or radicals_verdict(
        P, want_certificate=args.tower, action=action)
    report.add("radicals", verdict.to_json())
    lines.append(f"representable by radicals: {verdict.status} "
                 f"({verdict.reason})")
    if verdict.certificate is not None:
        lines.append(f"certificate: {verdict.certificate.to_string()}")
    exit_code = _status_exit(verdict.status)
    if args.k is not None:
        kv = failure or k_radicals_verdict(P, args.k, action=action)
        report.add("k_radicals", kv.to_json())
        lines.append(f"representable by {args.k}-radicals: {kv.status}")
        exit_code = _status_exit(kv.status)
    _emit(report, args.json, lines)
    return exit_code


def cmd_ode(args, settings) -> int:
    from .algebra import RationalFunction, parse_expression
    from .differential import (LinearODE, generalized_riccati,
                               rational_witness_search)

    report = Report("ode", {"order": args.order,
                            "coefficients": args.coefficients}, settings)
    if len(args.coefficients) != args.order:
        raise ExprSyntaxError("expected one coefficient per order", 0)
    coeffs = [parse_expression(c, ["x"]) for c in args.coefficients]
    ode = LinearODE([RationalFunction.coerce(c) for c in coeffs])
    if ode.order == 2:
        try:
            witnesses, skipped = rational_witness_search(ode)
        except BoundExceeded as err:  # a valid equation out of its scope
            report.add("undecided", str(err))
            _emit(report, args.json, [f"undecided: {err}"])
            return EXIT_UNDECIDED
        report.add("witnesses", [w.format() for w in witnesses])
        if witnesses:
            lines = ["rational logarithmic-derivative witnesses:"]
            lines += [f"  u = {w.format()}" for w in witnesses]
            lines.append("a solution y = exp(integral u) exists; the "
                         "equation is solvable by generalized quadratures")
            if skipped:  # the first candidate beyond the degree bound
                report.add("skipped", skipped)
                lines.append(f"candidates beyond the bound skipped: {skipped}")
            _emit(report, args.json, lines)
            return EXIT_REPRESENTABLE
        lines = ["no rational witness found (NOT a proof of "
                 "unsolvability by generalized quadratures)"]
        _emit(report, args.json, lines)
        return EXIT_UNDECIDED
    riccati = generalized_riccati(ode)
    report.add("generalized_riccati", riccati.format())
    _emit(report, args.json,
          [f"generalized Riccati equation: {riccati.format()} = 0",
           "witness search is implemented for order 2 only"])
    return EXIT_UNDECIDED


def cmd_integrate(args, settings) -> int:
    from .algebra import RationalFunction, parse_expression
    from .differential import integrate_rational

    report = Report("integrate", {"expr": args.expr}, settings)
    f = parse_expression(args.expr, ["x"])
    form = integrate_rational(RationalFunction.coerce(f), settings.root_tol)
    report.add("liouville_form", form.to_json())
    check = (form.derivative() - RationalFunction.coerce(f)).is_zero()
    report.add("derivative_verified", check)
    _emit(report, args.json,
          [f"integral = {form.format()}",
           f"derivative check (exact): {'ok' if check else 'FAILED'}"])
    return EXIT_REPRESENTABLE if check else EXIT_UNDECIDED


def cmd_decompose(args, settings) -> int:
    from .algebra import parse_univariate
    from .solvability import invertible_by_radicals

    report = Report("decompose", {"expr": args.expr}, settings)
    verdict = invertible_by_radicals(parse_univariate(args.expr))
    chain = verdict.extras["factors"]
    report.add("chain", chain)
    report.add("invertible_by_radicals", verdict.to_json())
    lines = ["composition chain (innermost first):"]
    lines += [f"  {g}" for g in chain]
    lines.append(f"inverse representable by radicals: {verdict.status}")
    _emit(report, args.json, lines)
    return _status_exit(verdict.status)


def cmd_fuchsian(args, settings) -> int:
    from .fuchsian import FuchsianSystem, small_norm_verdict, system_monodromy

    with open(args.file, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    report = Report("fuchsian", {"file": args.file}, settings)
    system = FuchsianSystem.from_json(data)
    mono = system_monodromy(system, tol=settings.fuchsian_tol)
    report.add("monodromy", mono.report())
    verdict = small_norm_verdict(system)
    report.add("verdict", verdict.to_json())
    lines = [f"system: {system!r}",
             f"loop condition estimates: "
             f"{[f'{c:.3g}' for c in mono.condition_estimates]}"]
    if mono.ill_conditioned:
        lines.append(f"ill-conditioned loops {mono.ill_conditioned}: "
                     f"cond(M) >= 2^53, beyond double precision")
    lines += [f"verdict: {verdict.status}", f"  {verdict.reason}"]
    _emit(report, args.json, lines)
    return _status_exit(verdict.status)


def cmd_puiseux(args, settings) -> int:
    from fractions import Fraction

    from .algebra import parse_expression
    from .puiseux import INFINITY, puiseux_expand

    report = Report("puiseux", {"expr": args.expr, "point": args.point,
                                "order": args.order}, settings)
    P = parse_expression(args.expr, ["x", "y"])
    if args.point == "inf":
        point = INFINITY
    else:
        try:
            point = Fraction(args.point)
        except ValueError:
            point = complex(args.point)
        except ZeroDivisionError:
            raise ExprSyntaxError("division by zero in --point",
                                  args.point.index("/")) from None
    series = puiseux_expand(P, point, order=args.order)
    report.add("series", [s.to_json() for s in series])
    lines = [f"{len(series)} branches at {args.point}:"]
    for s in series:
        head = " + ".join(f"({c:.6g})*t^{e}" for e, c in s.terms[:3])
        lines.append(f"  ramification {s.ramification}: {head} ...")
    _emit(report, args.json, lines)
    return EXIT_REPRESENTABLE


def cmd_corpus(args, _settings) -> int:
    cases = []
    for name in sorted(os.listdir(args.directory)):
        if name.endswith(".case"):
            cases.append(os.path.join(args.directory, name))
    if not cases:
        print(f"no .case files under {args.directory}", file=sys.stderr)
        return EXIT_USAGE
    results = [_run_case(c) for c in cases]
    failed = [name for name, ok, _detail in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {os.path.basename(name)}"
              + ("" if ok else f"  ({detail})"))
    print(f"{len(results) - len(failed)}/{len(results)} corpus cases pass")
    return EXIT_REPRESENTABLE if not failed else EXIT_NOT_REPRESENTABLE


def _parse_case(path):
    command = None
    expects = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("cmd:"):
                command = line[4:].strip()
            elif line.startswith("expect:"):
                expects.append(line[7:].strip())
    return command, expects


def _run_case(path):
    """A case file holds one command line and expected JSON fragments."""
    command, expects = _parse_case(path)
    if command is None:
        return path, False, "no cmd line"
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            main(["--json"] + command.split())
    except SystemExit:
        pass
    output = buffer.getvalue()
    canonical = json.dumps(json.loads(output), sort_keys=True) \
        if output.strip().startswith("{") else output
    for fragment in expects:
        if fragment not in canonical:
            return path, False, f"missing fragment {fragment!r}"
    return path, True, ""


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}i"


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a single ``-`` as a positional
    (an expression such as ``-x/(x^2+1)``): every option here is long,
    except ``-h``."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-") and not arg_string.startswith("--") \
                and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, and building it costs about a millisecond."""
    parser = _Parser(
        prog="finitude",
        description="solvability of equations in finite terms")
    parser.add_argument("--config", help="key = value settings file")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebraic",
                       help="monodromy and radical verdicts for P(x,y) = 0")
    p.add_argument("expr")
    p.add_argument("--k", type=int, default=None,
                   help="also decide representability by k-radicals")
    p.add_argument("--tower", action="store_true",
                   help="attempt an explicit radical tower certificate")
    p.set_defaults(func=cmd_algebraic)

    p = sub.add_parser("ode", help="rational witness search for a linear ODE")
    p.add_argument("order", type=int)
    p.add_argument("coefficients", nargs="+",
                   help="a_1 ... a_n as expressions in x")
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("integrate",
                       help="Liouville form of a rational integral")
    p.add_argument("expr")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("decompose",
                       help="Ritt decomposition and invertibility by radicals")
    p.add_argument("expr")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fuchsian",
                       help="monodromy and triangularization of a system")
    p.add_argument("file", help="JSON: {poles: [[re,im]], matrices: [...]}")
    p.set_defaults(func=cmd_fuchsian)

    p = sub.add_parser("puiseux", help="branch expansions at a point")
    p.add_argument("expr")
    p.add_argument("--point", default="0", help="rational, complex, or inf")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_puiseux)

    p = sub.add_parser("corpus", help="replay the regression corpus")
    p.add_argument("directory")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the contract
        if exc.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    try:
        settings = load_settings(args.config)
        code = args.func(args, settings)
    except ExprSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as err:
        print(f"undecided: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, FinitudeError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
