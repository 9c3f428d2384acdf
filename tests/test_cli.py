"""CLI contract: exit codes, JSON reports, corpus driver."""

import ast
import io
import json
import operator
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr

import mpmath
import pytest
import sympy

from finitude import errors, fuchsian, monodromy
from finitude.algebra import (GaussianRational, UnivariatePolynomial,
                              gaussvec, parse_rational, parse_univariate,
                              poly, roots)
from finitude.cli import build_parser, main
from finitude.config import Settings
from finitude.differential import liouville
from finitude.permgroups import PermGroup
from finitude.solvability import ritt_decompose

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a2 of y'' + 3 y' + a2 y = 0 around a rational witness with two poles
ODE_CONSTANT_A1 = ("(2*x^4 + x^3*(16 - 8*i) + x^2*(8 - 60*i)"
                   " + x*(-98 - 80*i) - 126 + 12*i)/(x^4 + x^3*(6 - 4*i)"
                   " + x^2*(5 - 24*i) + x*(-24 - 36*i) - 36)")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# sample points for identities in x: away from the real axis and from 0
SAMPLE_X = (complex(0.31, 0.47), complex(-0.83, 0.29), complex(1.37, -0.61))
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}


def _evaluate(node, x):
    """A certificate's syntax tree at x in mpmath, with principal roots:
    root(m, z) = exp(log(z)/m)."""
    if isinstance(node, ast.Constant):
        return mpmath.mpf(repr(node.value))
    if isinstance(node, ast.Name):
        return {"x": x, "i": mpmath.mpc(0, 1)}[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand, x)
    if isinstance(node, ast.Call) and node.func.id == "root":
        m, z = node.args[0].value, _evaluate(node.args[1], x)
        return mpmath.exp(mpmath.log(z) / m) if z else z
    if isinstance(node.op, ast.Pow):
        return _evaluate(node.left, x) ** node.right.value
    return _ARITHMETIC[type(node.op)](_evaluate(node.left, x),
                                      _evaluate(node.right, x))


def certificate_residual(curve, certificate, x):
    """|P(x, y(x))| relative to the sum of its terms' sizes, at 50 digits."""
    X, Y = sympy.symbols("x y")
    P = sympy.Poly(sympy.sympify(curve.replace("^", "**")), X, Y)
    tree = ast.parse(certificate.replace("^", "**"), mode="eval").body
    with mpmath.workdps(50):
        xm = mpmath.mpc(x)
        y = _evaluate(tree, xm)
        terms = [int(c) * xm ** i * y ** j for (i, j), c in P.terms()]
        return float(abs(sum(terms)) / sum(abs(t) for t in terms))


class TestExitCodes:
    def test_not_representable_is_1(self):
        code, out, _ = run(["algebraic", "y^5+y-x"])
        assert code == 1
        assert "120" in out

    def test_representable_is_0(self):
        code, out, _ = run(["algebraic", "y^3-x", "--tower"])
        assert code == 0
        assert "root(3, x)" in out

    def test_syntax_error_is_64(self):
        code, _out, err = run(["algebraic", "y^"])
        assert code == 64
        assert "position 2" in err

    @pytest.mark.parametrize("argv, error", [
        (["puiseux", "--point", "0", "--order", "3", "--",
          "2*x^2*y^2 + 2*x^2*y + 3*x^2 + 3*x*y^2 - x*y + y^3"],
         "NumericBreakdown"),
        # irrational residues beyond double range: a valid input, not a
        # usage error
        (["integrate", "--", "1/(x^2 - 2*10^700)"],
         "IterationLimitExceeded: roots out of double range"),
    ], ids=["puiseux", "integrate-out-of-range"])
    def test_numeric_failure_is_2(self, argv, error):
        code, _out, err = run(argv)
        assert code == 2
        assert f"undecided: {error}" in err

    @pytest.mark.parametrize("coefficients, reason", [
        # y = x^2 - 2 solves it, but the poles of r are +-sqrt(2)
        (["0", "-2/(x^2-2)"], "not Gaussian rational"),
        # Hermite's equation y'' - 2x y' + 24 y = 0: its witness H_12'/H_12
        # needs polynomial degree 12, above the automatic bound
        (["-2*x", "24"], "required polynomial degree 12 exceeds bound 10"),
    ], ids=["irrational-poles", "degree-bound"])
    def test_ode_outside_the_search_is_2(self, coefficients, reason):
        code, out, _ = run(["--json", "ode", "2", "--", *coefficients])
        assert code == 2
        data = json.loads(out)
        assert reason in data["undecided"] and "witnesses" not in data

    @pytest.mark.parametrize("coefficients, witness, skipped", [
        # the linear factor 7x - 10000019 gives its pole 10000019/7 exactly
        (["0", "-98/(7*x-10000019)^2"], "(2)/(x - 10000019/7)", None),
        # in a quadratic factor the pole 10000019/7 is read as 7 times the
        # centre rounded
        (["0", "-14/((7*x-10000019)*(x-1))"],
         "(2*x - 10000026/7)/(x^2 - 10000026/7*x + 10000019/7)", None),
        # the candidate of degree 23 is skipped, not an abort of the search
        (["0", "-(12*11)/x^2"], "(12)/(x)",
         "required polynomial degree 23 exceeds bound 10"),
        # 1 + 4 b2 = (2*10^200 - 1)^2 has its square root taken exactly
        (["0", "-(10^400-10^200)/x^2"], f"({10 ** 200})/(x)",
         f"required polynomial degree {2 * 10 ** 200 - 1} exceeds"),
        # poles beyond the double grid, and beyond double range: a linear
        # factor's root is read with no root finding
        (["0", "-2/(x-100000000000000000001)^2"],
         "(2)/(x - 100000000000000000001)", None),
        (["0", "-2/(x-10^400)^2"], f"(2)/(x - {10 ** 400})", None),
        # the poles +-10^350 of a quadratic factor, beyond double range
        (["0", "-2/(x^2-10^700)"], f"(2*x)/(x^2 - {10 ** 700})", None),
    ], ids=["gaussian-pole", "gaussian-pole-pair", "skipped-candidate",
            "huge-square-root", "huge-linear-pole", "linear-pole-out-of-range",
            "quadratic-poles-out-of-range"])
    def test_ode_witness_found(self, coefficients, witness, skipped):
        code, out, _ = run(["--json", "ode", "2", "--", *coefficients])
        assert code == 0
        data = json.loads(out)
        assert witness in data["witnesses"]
        if skipped is None:
            assert "skipped" not in data
        else:
            assert skipped in data["skipped"]

    def test_huge_chebyshev_conjugate_decomposes(self):
        # T_3(10^200 x): the n-th root of 10^600 is never taken in floats
        code, out, _ = run(["--json", "decompose", "--",
                            "4*10^600*x^3 - 3*10^200*x"])
        assert code == 0
        verdict = json.loads(out)["invertible_by_radicals"]
        assert verdict["classification"] == ["chebyshev"]

    @pytest.mark.parametrize("expr, enclosures, lambdas", [
        ("(110052 - 233085*x)/(x^2 + 8*x - 4)", 2, None),
        ("(6*x^6 + 3*x^5 + 6*x^3 + 8*x^2 - 5*x + 4)/(x^2 + 8*x - 4)", 2,
         None),
        # the residue 10^20 + 1 is beyond the double grid, but the root of
        # a linear factor is exact as it stands: a log term, no enclosure
        ("(10^20+1)/(x-1)", 0, ["100000000000000000001"]),
        # residues of t^2 - L^-1, L = 4 (10^20 + 1)^2: L r = +-2 (10^20 + 1)
        # is past the double grid, and Newton in Z[i] reaches it
        ("1/(x^2-(10^20+1)^2)", 0,
         ["-1/200000000000000000002", "1/200000000000000000002"]),
        # residues of 4 10^400 t^2 - 1, whose coefficients span more than
        # double range: +-5e-201, with radii far below 2^-537
        ("1/(x^2 - 10^400)", 0, [f"-1/{2 * 10 ** 200}", f"1/{2 * 10 ** 200}"]),
        # residues +-1/(2 10^350) and +-i/(2 10^350), beyond double range:
        # Newton in Z[i] runs from the scaled approximations scaled back
        ("1/(x^2 - 10^700)", 0, [f"-1/{2 * 10 ** 350}", f"1/{2 * 10 ** 350}"]),
        ("1/(x^2 + 10^700)", 0,
         [f"-1/{2 * 10 ** 350}*i", f"1/{2 * 10 ** 350}*i"]),
    ], ids=["integrate-proper", "integrate-improper", "integrate-linear",
            "integrate-quadratic", "integrate-wide-span",
            "integrate-out-of-range", "integrate-gaussian-out-of-range"])
    def test_large_residues_are_certified(self, expr, enclosures, lambdas):
        # residues near -1.2e5 and 1.0e5: a double cannot hold them to an
        # absolute 1e-12, but their radii are relative to their size
        code, out, _ = run(["--json", "integrate", "--", expr])
        assert code == 0
        data = json.loads(out)
        assert data["derivative_verified"] is True
        logs = data["liouville_form"]["logs"]
        blocks = [log["lambda_enclosures"] for log in logs
                  if "lambda_enclosures" in log]
        assert [len(b) for b in blocks] == ([enclosures] if enclosures else [])
        if lambdas is not None:
            assert [log["lambda"] for log in logs] == lambdas

    @pytest.mark.parametrize("expr, degree", [
        ("(8 - 3*x)/(x^9 + 4*x^8 - x^7 + 2*x^6 + 9*x^5 - 4*x^4 + 7*x^3"
         " - 5*x^2 + 8*x - 3)", 9),
        ("(-5*x^6 - 7*x^5 - 4*x^4 - 4*x^3 - 4*x^2 - 5*x + 2)/(x^7 + 6*x^6"
         " - x^5 + 4*x^4 + 7*x^3 + 6*x^2 + 6*x + 1)", 7),
    ], ids=["close-pair", "cluster-of-three"])
    def test_clustered_residues_are_certified(self, expr, degree):
        # double evaluation cannot certify these residues to 1e-12; exact
        # evaluation at a refined root can
        code, out, _ = run(["--json", "integrate", "--", expr])
        assert code == 0
        data = json.loads(out)
        assert data["derivative_verified"] is True
        (block,) = [log for log in data["liouville_form"]["logs"]
                    if "lambda_enclosures" in log]
        assert len(block["lambda_enclosures"]) == degree

    @pytest.mark.parametrize("argv, lines", [
        (["integrate", "-x/(x^2+1)"], ["integral = -1/2*ln(x^2 + 1)"]),
        (["ode", "2", "1/x", "-1/x^2"], ["  u = (-1)/(x)", "  u = (1)/(x)"]),
    ], ids=["integrate", "ode"])
    def test_expression_may_start_with_minus(self, argv, lines):
        code, out, _ = run(argv)
        assert code == 0
        assert all(line in out.splitlines() for line in lines)

    def test_far_singular_point(self):
        # the clearance circle has radius 4500.5, so its angle-parametrised
        # end misses its start by more than 1e-12 in floating point
        code, out, _ = run(["--json", "algebraic", "--", "y^2 - x + 9000"])
        assert code == 0
        assert json.loads(out)["monodromy"]["generators"] == ["(1 2)"]

    def test_k_flag(self):
        code, _, _ = run(["algebraic", "y^5+y-x", "--k", "5"])
        assert code == 0
        code, _, _ = run(["algebraic", "y^5+y-x", "--k", "4"])
        assert code == 1


class TestReports:
    def test_json_schema(self):
        code, out, _ = run(["--json", "algebraic", "y^3-x", "--tower"])
        assert code == 0
        data = json.loads(out)
        assert data["tool"] == "finitude"
        assert data["monodromy"]["group_order"] == 3
        assert data["radicals"]["status"] == "Representable"
        assert data["settings"]["continuation_tol"] == 1e-10
        assert "elapsed_seconds" in data

    @pytest.mark.parametrize("curve, exact", [
        ("y^3 - x", True),
        # the first Cardano and Ferrari curves of TestTowers
        ("y^3 + (2*x^2 + 2*x + 3)*y^2 + (2*x^2 + 3*x - 1)*y + 2*x^2 - x + 1",
         True),
        ("y^4 + (x - 1)*y^3 + (-3*x^2 + 2*x + 3)*y^2"
         " + (-2*x^2 - 2*x - 1)*y - x^2 + x", True),
        # fitted resolvent invariants: the dihedral T_5 and T_6 and the
        # cyclic y = rho + rho^2, rho^5 = x
        ("16*y^5-20*y^3+5*y-x", False),
        ("32*y^6-48*y^4+18*y^2-1-x", False),
        ("y^5 - 5*x*y^2 - 5*x*y - x^2 - x", False),
    ], ids=["binomial", "cardano", "ferrari", "chebyshev-5", "chebyshev-6",
            "cyclic-5"])
    def test_tower_certificate_is_a_root(self, curve, exact):
        # an exact certificate is a root to the working precision; a fitted
        # one says it is not exact and is a root to the fit's accuracy
        code, out, _ = run(["--json", "algebraic", "--tower", "--", curve])
        assert code == 0
        radicals = json.loads(out)["radicals"]
        assert radicals["certificate_exact"] is exact
        worst = max(certificate_residual(curve, radicals["certificate"], x)
                    for x in SAMPLE_X)
        assert worst < (1e-40 if exact else 1e-8)

    def test_idempotent_modulo_timing(self):
        _, out1, _ = run(["--json", "algebraic", "y^4-x"])
        _, out2, _ = run(["--json", "algebraic", "y^4-x"])
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
        assert d1 == d2

    def test_x_content_keeps_its_singular_points(self):
        # the monodromy is that of y^2 - x; the report lists x = 1 as well
        code, out, _ = run(["--json", "algebraic", "--", "(x-1)*(y^2-x)"])
        assert code == 0
        data = json.loads(out)
        assert data["monodromy"]["group_order"] == 2
        got = sorted(round(re, 9) for re, _im in
                     data["monodromy"]["singular_points"])
        assert got == [0.0, 1.0]

    def test_integrate(self):
        code, out, _ = run(["--json", "integrate", "1/(x^2-1)"])
        assert code == 0
        data = json.loads(out)
        lams = sorted(entry["lambda"]
                      for entry in data["liouville_form"]["logs"])
        assert lams == ["-1/2", "1/2"]
        assert data["derivative_verified"] is True

    def test_ode(self):
        code, out, _ = run(["--json", "ode", "2", "0", "-1"])
        assert code == 0
        assert json.loads(out)["witnesses"] == ["-1", "1"]

    def test_ode_constant_a1_two_pole_witness(self):
        # a1 constant and a witness with two Gaussian poles: the slow case
        # of the witness search, most of it Q(i)(x) arithmetic
        code, out, _ = run(["--json", "ode", "2", "--", "3", ODE_CONSTANT_A1])
        assert code == 0
        assert json.loads(out)["witnesses"] == [
            "(-x^2 + (-7+2*i)*x + (-6+10*i))/(x^2 + (3-2*i)*x - 6*i)",
            "(-2*x^10 + (-42+20*i)*x^9 + (-350+408*i)*x^8"
            " + (-1436+3784*i)*x^7 + (-2642+22016*i)*x^6"
            " + (906+95516*i)*x^5 + (20594+340112*i)*x^4"
            " + (105548+981928*i)*x^3 + (426168+2071416*i)*x^2"
            " + (1063704+2690544*i)*x + (1178832+1510512*i))/(x^10"
            " + (23-10*i)*x^9 + (214-222*i)*x^8 + (998-2228*i)*x^7"
            " + (1985-13676*i)*x^6 + (-3345-59242*i)*x^5"
            " + (-39856-196238*i)*x^4 + (-177660-499416*i)*x^3"
            " + (-542592-892680*i)*x^2 + (-1048344-919056*i)*x"
            " + (-917856-350928*i))"]

    def test_decompose(self):
        code, out, _ = run(["--json", "decompose", "x^6"])
        assert code == 0
        data = json.loads(out)
        assert data["chain"] == ["x^2", "x^3"]
        assert data["invertible_by_radicals"]["status"] == "Representable"

    def test_puiseux(self):
        code, out, _ = run(["--json", "puiseux", "y^2-x",
                            "--point", "0", "--order", "3"])
        assert code == 0
        data = json.loads(out)
        assert len(data["series"]) == 2
        assert data["series"][0]["exponents"][0] == "1/2"

    def test_fuchsian(self):
        path = os.path.join(REPO, "corpus", "fixtures",
                            "triangular_system.json")
        code, out, _ = run(["--json", "fuchsian", path])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["status"] == "Representable"

    def test_fuchsian_flags_ill_conditioned_matrices(self, tmp_path):
        # cond(M_k) about 1.6e16 on both loops, past 2^53: the report says
        # so, and the verdict, from the residues, keeps its value
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "poles": [[0, 0], [2, 0]],
            "matrices": [[[[0, 3], [1, 0]], [[0, 0], [0, -3]]],
                         [[[0, -3], [0, 0]], [[1, 0], [0, 3]]]]}))
        code, out, _ = run(["--json", "fuchsian", str(path)])
        assert code == 1
        data = json.loads(out)
        assert data["monodromy"]["ill_conditioned"] == [0, 1]
        assert data["verdict"]["status"] == "NotRepresentable"
        code, out, _ = run(["fuchsian", str(path)])
        assert code == 1
        assert "ill-conditioned loops [0, 1]" in out
        code, out, _ = run(["--json", "fuchsian", FIXTURE])
        assert "ill_conditioned" not in json.loads(out)["monodromy"]

    @pytest.mark.parametrize("system, fault", [
        ({"poles": [[0, 0]]}, "missing key 'matrices'"),
        ([1, 2], "JSON object"),
        ({"poles": [[0]], "matrices": [[[[1, 0]]]]}, "pair"),
        ({"poles": [[0, 0]], "matrices": [[[["a", 0]]]]}, "pair"),
        ({"poles": [[0, 0]], "matrices": [[[[10 ** 400, 0]]]]}, "pair"),
        ({"poles": [[0, True]], "matrices": [[[[1, 0]]]]}, "pair"),
        ({"poles": 0, "matrices": []}, "poles must be a list"),
    ], ids=["missing-key", "not-an-object", "short-pole", "string-entry",
            "huge-entry", "boolean-part", "poles-not-a-list"])
    def test_malformed_fuchsian_file_is_64(self, tmp_path, system, fault):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, err = run(["--json", "fuchsian", str(path)])
        assert (code, out) == (64, "")
        assert err.startswith("error: ValueError: ") and fault in err

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("continuation_tol = 1e-9\n# comment\n")
        code, out, _ = run(["--json", "--config", str(cfg),
                            "algebraic", "y^2-x"])
        assert code == 0
        assert json.loads(out)["settings"]["continuation_tol"] == 1e-9
        # a key with no consumer is refused, not echoed
        cfg.write_text("matching_margin = 0.3\n")
        code, _, err = run(["--json", "--config", str(cfg),
                            "algebraic", "y^2-x"])
        assert code == 64
        assert "unknown key 'matching_margin'" in err
        # the triangularization test has no setting any more, and the
        # witness search takes its degree bound from the equation
        for key, value in [("eig_cluster_tol", "1e-8"),
                           ("witness_degree_bound", "3")]:
            cfg.write_text(f"{key} = {value}\n")
            code, _, err = run(["--json", "--config", str(cfg),
                                "algebraic", "y^2-x"])
            assert code == 64
            assert f"unknown key '{key}'" in err


def _replace(monkeypatch, name, original, replacement, owner=None):
    """Put ``replacement`` in place of ``original`` in every finitude
    module that binds it as ``name``, and in ``owner`` (a class, for a
    method)."""
    holders = [module for module in list(sys.modules.values())
               if getattr(module, "__name__", "").startswith("finitude")
               and getattr(module, name, None) is original]
    for holder in holders + ([owner] if owner is not None else []):
        monkeypatch.setattr(holder, name, replacement)


def count_calls(monkeypatch, name, original, owner=None):
    """Record every call of ``original`` through any finitude module that
    binds it as ``name``, and through ``owner`` (a class, for a method);
    returns the list of (args, kwargs)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    _replace(monkeypatch, name, original, counted, owner)
    return calls


def count_inside(monkeypatch, name, original, calls, owner=None):
    """Wrap ``original`` as count_calls does; returns the list, one entry
    per call of it, of how many entries the list ``calls`` gained during
    that call."""
    gained = []

    def watched(*args, **kwargs):
        before = len(calls)
        try:
            return original(*args, **kwargs)
        finally:
            gained.append(len(calls) - before)

    _replace(monkeypatch, name, original, watched, owner)
    return gained


class TestWorkPerRequest:
    ARGV = ["algebraic", "--k", "4", "--tower", "--", "y^3-x"]

    def test_one_monodromy_and_one_resultant(self, monkeypatch):
        groups = count_calls(monkeypatch, "monodromy_group",
                             monodromy.monodromy_group)
        resultants = count_calls(monkeypatch, "resultant_y", poly.resultant_y)
        code, out, _ = run(["--json"] + self.ARGV)
        assert code == 0
        data = json.loads(out)
        assert data["radicals"]["certificate"] == "root(3, x)"
        assert data["k_radicals"]["status"] == "Representable"
        assert len(groups) == 1
        assert len(resultants) == 1

    def test_continuation_tol_reaches_the_single_computation(
            self, monkeypatch, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("continuation_tol = 1e-9\n")
        groups = count_calls(monkeypatch, "monodromy_group",
                             monodromy.monodromy_group)
        code, _, _ = run(["--json", "--config", str(cfg)] + self.ARGV)
        assert code == 0
        assert [kwargs.get("tol") for _args, kwargs in groups] == [1e-9]

    @pytest.mark.parametrize("error", [
        errors.PathCollision, errors.SingularOnPath,
        errors.BasePointTooClose, errors.IterationLimitExceeded])
    def test_numeric_monodromy_failure_is_undecided(self, monkeypatch, error):
        def fail(*_args, **_kwargs):
            raise error("tracking broke down near x=0.5")

        monkeypatch.setattr(monodromy, "continue_roots", fail)
        code, out, _ = run(["--json", "algebraic", "--k", "4", "--tower",
                            "--", "y^5+y-x"])
        assert code == 2
        data = json.loads(out)
        assert data["radicals"] == {
            "status": "Undecided",
            "reason": "monodromy computation failed: "
                      "tracking broke down near x=0.5"}
        assert data["k_radicals"] == data["radicals"]
        assert "monodromy" not in data

    def test_singular_set_is_certified_once(self, monkeypatch):
        # the loops and the report share the certification at root_tol
        certified = count_calls(monkeypatch, "complex_roots",
                                roots.complex_roots)
        code, out, _ = run(["--json", "algebraic", "--", "y^5 + y - x"])
        assert code == 1
        assert len(json.loads(out)["monodromy"]["singular_points"]) == 4
        assert [args[1] for args, _kwargs in certified] == \
            [Settings().root_tol]

    def test_one_tracker_per_monodromy(self, monkeypatch, tmp_path):
        # the tower samples reuse the monodromy's tracker, and so track at
        # continuation_tol
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("continuation_tol = 1e-9\n")
        trackers = count_calls(monkeypatch, "__init__",
                               monodromy._Tracker.__init__, monodromy._Tracker)
        samples = count_calls(monkeypatch, "track_to_point",
                              monodromy.track_to_point)
        code, out, _ = run(["--json", "--config", str(cfg), "algebraic",
                            "--tower", "--",
                            "y^5 - 5*x*y^2 - 5*x*y - x^2 - x"])
        assert code == 0 and json.loads(out)["radicals"]["certificate"]
        assert samples and len(trackers) == 1
        assert trackers[0][0][2] == 1e-9

    def test_residues_are_certified_once(self, monkeypatch):
        # each square-free class of R(t) is certified once, at root_tol;
        # a rational residue is recognised by one exact evaluation
        certified = count_calls(monkeypatch, "complex_roots",
                                roots.complex_roots)
        divisions = count_calls(monkeypatch, "divmod",
                                UnivariatePolynomial.divmod,
                                UnivariatePolynomial)
        recognitions = count_inside(monkeypatch, "exact_gaussian_roots",
                                    roots.exact_gaussian_roots, divisions)
        f = parse_rational("2*x/(x^4-2) + 1/(x^2-3)")
        form = liouville.integrate_rational(f)
        assert [b.modulus.format("t") for b in form.blocks] == \
            ["t^2 - 1/12", "t^2 - 1/8"]
        moduli = [b.modulus for b in form.blocks]
        assert not [args for args, _kwargs in certified if args[0] in moduli]
        assert recognitions == [0]
        assert form.derivative() == f

    def test_one_chain_per_normal_closure(self, monkeypatch):
        # the closure's stabilizer chain grows by add_gen; no group is
        # rebuilt for each generator it accepts
        groups = count_calls(monkeypatch, "__init__", PermGroup.__init__,
                             PermGroup)
        closures = count_inside(monkeypatch, "normal_closure",
                                PermGroup.normal_closure, groups, PermGroup)
        code, _, _ = run(["--json", "algebraic", "--k", "4", "--",
                          "y^5 + y - x"])
        assert code == 1
        assert closures and set(closures) == {1}

    def test_one_transport_per_fuchsian_request(self, monkeypatch):
        # every piece of the loop tree goes through one series recurrence
        transports = count_calls(monkeypatch, "integrate_along",
                                 fuchsian.integrate_along)
        code, out, _ = run(["--json", "fuchsian", FIXTURE])
        assert code == 0
        assert len(json.loads(out)["monodromy"]["matrices"]) == 2
        assert len(transports) == 1

    def test_one_ritt_decomposition(self, monkeypatch):
        chains = count_calls(monkeypatch, "ritt_decompose", ritt_decompose)
        code, out, _ = run(["--json", "decompose", "--", "x^6"])
        assert code == 0
        assert json.loads(out)["chain"] == ["x^2", "x^3"]
        assert len(chains) == 1

    def test_one_subresultant_sequence_per_integrand(self, monkeypatch):
        # R(t) comes from the tail of the sequence that gives the log
        # arguments; the derivative check divides the integrand's own
        # denominator by the block's log argument and needs no Norm
        sequences = count_calls(monkeypatch, "subresultant_prs",
                                poly.subresultant_prs)
        resultants = count_calls(monkeypatch, "resultant_y", poly.resultant_y)
        f = parse_rational("1/(x^3 - 2)")
        form = liouville.integrate_rational(f)
        assert len(form.blocks) == 1
        assert (len(sequences), len(resultants)) == (1, 0)
        assert form.derivative() == f
        assert len(resultants) == 0

    def test_resultant_divides_back_once(self, monkeypatch):
        # Res_y comes from the integer tail of the recurrence with one
        # division by a^m b^n; no member of the sequence is divided back
        conversions = count_calls(monkeypatch, "rationals", gaussvec.rationals)
        sequences = count_calls(monkeypatch, "subresultant_prs",
                                poly.subresultant_prs)
        resultants = count_inside(monkeypatch, "resultant_y",
                                  poly.resultant_y, conversions)
        code, _, _ = run(["--json", "algebraic", "--", "y^5 + y - x"])
        assert code == 1
        assert resultants and set(resultants) == {1}
        assert sequences == []

    def test_exact_kernels_run_on_integer_vectors(self, monkeypatch):
        # the subresultant sequence divides over Z[i][t], not by scalar
        # long division, and a product of two non-constant polynomials
        # multiplies integer vectors, not Gaussian rationals
        divisions = count_calls(monkeypatch, "divmod",
                                UnivariatePolynomial.divmod,
                                UnivariatePolynomial)
        sequences = count_calls(monkeypatch, "subresultant_prs",
                                poly.subresultant_prs)
        code, out, _ = run(["--json", "integrate", "--", "1/(x^3 - 2)"])
        assert code == 0 and json.loads(out)["derivative_verified"] is True
        assert len(sequences) == 1 and divisions
        divisions.clear()
        poly.subresultant_prs(*sequences[0][0])
        assert divisions == []
        products = count_calls(monkeypatch, "__mul__",
                               GaussianRational.__mul__, GaussianRational)
        p = parse_univariate("(2/3 + i)*x^3 - x/5 + 7")
        q = parse_univariate("x^2/7 - (1 - 3*i/2)")
        products.clear()
        pq = p * q
        assert products == []
        assert pq == parse_univariate(
            "(2/21 + i/7)*x^5 - (2/3 + i)*(1 - 3*i/2)*x^3 - x^3/35"
            " + (1 - 3*i/2)*x/5 + x^2 - 7*(1 - 3*i/2)")
        assert p * 3 == 3 * p and products  # a constant scales

    def test_modular_kernels_multiply_no_gaussian_rationals(
            self, monkeypatch):
        # the inverse of lc_x(S) modulo m and the division of the
        # denominator modulo m run on cleared integer vectors
        products = count_calls(monkeypatch, "__mul__",
                               GaussianRational.__mul__, GaussianRational)
        inverses = count_inside(monkeypatch, "inverse_mod",
                                gaussvec.inverse_mod, products)
        quotients = count_inside(monkeypatch, "_quotient_mod",
                                 liouville._quotient_mod, products)
        code, out, _ = run(["--json", "integrate", "--", "1/(x^3 - 2)"])
        assert code == 0 and json.loads(out)["derivative_verified"] is True
        assert (inverses, quotients) == ([0], [0])
        assert products  # elsewhere, Gaussian rationals still multiply

    def test_resultant_runs_no_scalar_division(self, monkeypatch):
        # Res_y comes from the subresultant recurrence over Z[i][x], here
        # through a tail from y-degree 2 to 0
        divisions = count_calls(monkeypatch, "divmod",
                                UnivariatePolynomial.divmod,
                                UnivariatePolynomial)
        resultants = count_inside(monkeypatch, "resultant_y",
                                  poly.resultant_y, divisions)
        code, _, _ = run(["--json", "algebraic", "--", "y^3 - x"])
        assert code == 0
        assert resultants == [0] and divisions

    @pytest.mark.parametrize("integrand", [
        # the block's Norm is the whole denominator, a 32-bit constant
        "1/(x^2 - 3000000019)",
        # x^2 + 1 gives Gaussian-rational residues; the block's Norm is the
        # cubic factor, a 41-bit constant
        "1/((x^2+1)*(x^3 - 5*x + 1234567891011))",
        # the block's Norm is the whole denominator, a 127-bit constant
        "1/(x^2 - 170141183460469231731687303715884105727)",
    ], ids=["32-bit", "41-bit", "127-bit"])
    def test_no_exact_norm_for_the_integrands_denominator(
            self, monkeypatch, integrand):
        # each log argument divides the denominator it came from, so the
        # derivative check takes no resultant, however large the Norm
        f = parse_rational(integrand)
        form = liouville.integrate_rational(f)
        assert form.blocks
        resultants = count_calls(monkeypatch, "resultant_y", poly.resultant_y)
        assert form.derivative() == f
        assert len(resultants) == 0
        code, out, _ = run(["--json", "integrate", "--", integrand])
        assert code == 0 and json.loads(out)["derivative_verified"] is True

    def test_block_without_a_multiple_takes_the_norm(self, monkeypatch):
        # g does not divide the constant 1, so the block falls back on the
        # exact Norm and still differentiates to its true derivative
        f = parse_rational("1/(x^3 - 2)")
        (block,) = liouville.integrate_rational(f).blocks
        stray = liouville.AlgebraicResidueBlock(
            block.modulus, block.argument, block.enclosures,
            UnivariatePolynomial([1]))
        resultants = count_calls(monkeypatch, "resultant_y", poly.resultant_y)
        assert stray.derivative_contribution() == f
        assert len(resultants) == 1

    @pytest.mark.parametrize("argv, message", [
        (["algebraic", "(y-x)^2"], "SquareFreeRequired"),
        (["algebraic", "(y^2-x)*(y-x^2)"], "ReducibleInput"),
        (["integrate", "1/0"], "division by zero"),
        (["integrate", "(x-x)^-1"], "division by zero"),
        (["algebraic", "y^2 - x/(1-1)"], "division by zero"),
        (["decompose", "x/0"], "division by zero"),
        (["ode", "2", "1/0", "x"], "division by zero"),
        (["puiseux", "--point", "1/0", "--", "y^2-x"], "division by zero"),
        (["puiseux", "--", "0"], "ZeroPolynomial"),
        (["decompose", "--", "0"], "DegreeTooLow"),
        (["decompose", "--", "1"], "DegreeTooLow"),
        (["integrate", "--", "2^100000"], "exponent too large"),
        (["integrate", "--", "2^5000*2^5000*2^5000"], "expression too large"),
        (["integrate", "--", "(x+1)^1000*(x+2)^1000"], "expression too large"),
    ], ids=["square-free", "reducible", "integrate-quotient",
            "integrate-power", "algebraic", "decompose", "ode",
            "puiseux-point", "puiseux-zero", "decompose-zero",
            "decompose-constant", "integrate-constant-power",
            "integrate-constant-product", "integrate-product"])
    def test_input_errors_stay_64(self, argv, message):
        code, _, err = run(argv)
        assert code == 64 and message in err


    def test_huge_exponent_is_refused_at_once(self):
        # expanding (x+1)^100000 densely would take hours
        start = time.perf_counter()
        code, _, err = run(["integrate", "--", "(x+1)^100000"])
        assert code == 64 and "exponent too large" in err
        assert time.perf_counter() - start < 1.0


class TestParserReuse:
    def test_request_after_usage_error_is_unchanged(self):
        # one process serves many requests through one cached parser
        argv = ["--json", "puiseux", "--point", "0", "--order", "3", "--",
                "y^3 - x^2*y + x"]
        code1, out1, err1 = run(argv)
        with pytest.raises(SystemExit) as usage:
            run(["--json", "puiseux", "--order", "three", "--", "y^2 - x"])
        assert usage.value.code == 64
        code2, out2, err2 = run(argv)
        assert code1 == code2 == 0 and err1 == err2 == ""
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
        assert d1 == d2
        assert build_parser() is build_parser()


class TestCorpus:
    def test_corpus_green(self):
        code, out, _ = run(["corpus", os.path.join(REPO, "corpus")])
        assert code == 0
        assert "9/9" in out


FIXTURE = os.path.join(REPO, "corpus", "fixtures", "triangular_system.json")

# key -> (non-default value, [(argv, owner and name of a consuming call)]);
# a Settings key without an entry here fails the test below
CONSUMERS = {
    "continuation_tol": (1e-9, [(["algebraic", "--", "y^3-x"],
                                 monodromy, "monodromy_group")]),
    "root_tol": (1e-11, [(["algebraic", "--", "y^3-x"],
                          monodromy, "monodromy_group"),
                         (["integrate", "--", "1/(x^3-2)"],
                          liouville, "integrate_rational")]),
    "fuchsian_tol": (1e-9, [(["fuchsian", FIXTURE],
                             fuchsian, "system_monodromy")]),
}


@pytest.mark.parametrize("key", list(Settings().to_json()))
def test_every_setting_reaches_its_consumer(monkeypatch, tmp_path, key):
    value, consumers = CONSUMERS[key]
    assert value != getattr(Settings(), key)
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for argv, owner, name in consumers:
        with monkeypatch.context() as patch:
            calls = count_calls(patch, name, getattr(owner, name), owner)
            code, out, _ = run(["--json", "--config", str(cfg)] + argv)
        assert code in (0, 1, 2)
        assert json.loads(out)["settings"][key] == value
        passed = [v for args, kwargs in calls
                  for v in (*args, *kwargs.values()) if type(v) is type(value)]
        assert value in passed, (argv, name)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-10"])
@pytest.mark.parametrize("key", ["continuation_tol", "root_tol",
                                 "fuchsian_tol"])
def test_invalid_tolerance_is_refused(tmp_path, key, value):
    # a NaN root_tol compares with no bound, so enclosures went unchecked and
    # the report printed NaN, which is not JSON; a NaN continuation_tol made
    # the tracker give up with exit 2
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for argv, _owner, _name in CONSUMERS[key][1]:
        code, out, err = run(["--json", "--config", str(cfg)] + argv)
        assert (code, out) == (64, ""), argv
        assert "must be a finite positive number" in err


def test_exact_subcommands_load_no_numpy():
    # numpy takes most of a launch; only fuchsian, --tower, base roots and
    # puiseux need it, so a fresh interpreter serving integrate, ode and
    # decompose never imports it.  Each subcommand imports its modules when
    # it is dispatched to, so the import itself loads none of them.
    script = "\n".join([
        "import contextlib, io, sys",
        "import finitude.cli",
        "assert 'numpy' not in sys.modules, 'import'",
        "assert 'dataclasses' not in sys.modules, 'dataclasses'",
        "assert 'inspect' not in sys.modules, 'inspect'",
        "loaded = sorted(m for m in sys.modules if m.startswith('finitude'))",
        "assert loaded == ['finitude', 'finitude.cli', 'finitude.config',",
        "                  'finitude.errors'], loaded",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [finitude.cli.main(argv) for argv in (",
        "        ['integrate', '--', '(3*x+1)/(x^3-2)'],",
        "        ['ode', '2', '--', '1/x', '-1/x^2'],",
        "        ['decompose', '--', 'x^4 + 2*x^2 + 1'])]",
        "assert codes == [0, 0, 0], codes",
        "assert 'numpy' not in sys.modules, 'requests'",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
