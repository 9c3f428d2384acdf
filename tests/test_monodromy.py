"""Singular points, loops, continuation, and monodromy groups."""

import cmath
import io
import json
import math
import os
import random
import re
from contextlib import redirect_stdout

import numpy as np
import pytest
import sympy
from scipy.optimize import linear_sum_assignment

from finitude import monodromy
from finitude.algebra import (BivariatePolynomial, UnivariatePolynomial,
                              parse_bivariate)
from finitude.algebra.roots import ComplexInterval
from finitude.cli import main
from finitude.errors import PathCollision, SquareFreeRequired
from finitude.monodromy import (Segment, auto_base_point, continue_roots,
                                generate_loops, loop_at_infinity_permutation,
                                match_end_roots, monodromy_group,
                                ordered_product, singular_points)
from finitude.permgroups import cycle_type, cycles_string, inverse

PANEL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "panel.json")


def panel_curves():
    """Every curve of the benchmark's panel, in file order."""
    with open(PANEL, encoding="utf-8") as handle:
        return [expr for curves in json.load(handle)["curves"].values()
                for expr in curves]


class TestSingularPoints:
    def test_sqrt(self):
        s = singular_points(parse_bivariate("y^2 - x"))
        assert len(s) == 1 and abs(s[0].center) < 1e-9

    def test_two_points(self):
        s = singular_points(parse_bivariate("y^2 - (x^2 - 1)"))
        got = sorted(p.center.real for p in s)
        assert got == pytest.approx([-1.0, 1.0])

    def test_quintic_four_points(self):
        s = singular_points(parse_bivariate("y^5 + y - x"))
        assert len(s) == 4
        for p in s:
            # roots of 3125 x^4 + 256
            assert abs(3125 * p.center ** 4 + 256) < 1e-6

    def test_squarefree_required(self):
        with pytest.raises(SquareFreeRequired):
            singular_points(parse_bivariate("(y - x)^2"))

    @pytest.mark.parametrize("root_tol", [1e-12, 1e-11])
    def test_action_certifies_at_root_tol(self, monkeypatch, root_tol):
        # the loops and the report share one certification, at root_tol
        P = parse_bivariate("y^4 + x*y + x^3 + 1")
        calls = []
        monkeypatch.setattr(monodromy, "singular_points",
                            lambda *args: calls.append(args)
                            or singular_points(*args))
        act = monodromy_group(P, root_tol=root_tol)
        fresh = singular_points(P, root_tol)
        assert [args[1] for args in calls] == [root_tol]
        assert [(p.center, p.radius) for p in act.singular] == \
            [(p.center, p.radius) for p in fresh]

    def test_action_keeps_its_singular_set(self):
        act = monodromy_group(parse_bivariate("y^5 + y - x"))
        assert len(act.singular) == len(act.loops) == 4


class TestLoops:
    def test_single_point_radius(self):
        s = singular_points(parse_bivariate("y^2 - (x - 0)"))
        loops = generate_loops([p.center for p in s], 2.0)
        assert len(loops) == 1
        # circular part has radius 1 (half the distance to the base)
        circle = loops[0].circle
        assert circle.center == 0 and abs(circle.radius - 1.0) < 1e-9
        assert abs(abs(circle.a1 - circle.a0) - 2 * math.pi) < 1e-12

    def test_empty_singular_set(self):
        s = singular_points(parse_bivariate("y^2 - (x^2 + 1) - x^4"))
        if len(s) == 0:
            assert generate_loops([], auto_base_point([])) == []

    def test_ordering_convention(self):
        s = singular_points(parse_bivariate("y^2 - (x^2 - 1)"))
        loops = generate_loops([p.center for p in s], 3.0)
        ordered_centers = [s[l.singular_index].center for l in loops]
        # documented convention: the sweep angle lives in (0, 2 pi], so the
        # point on the base direction (+1) closes the sweep and is listed
        # after -1 (and traveled first in the ordered product)
        assert ordered_centers[0].real < 0 < ordered_centers[1].real


class TestLoopTree:
    """The edges of the loop tree join up: each leg starts where the one
    before ends (the first at the base), each spoke at its leg's end and
    each circle at its spoke's end, so bridging adds no chord at a joint
    and walking the legs, spokes and circles in order walks the tree."""

    @staticmethod
    def assert_joined(centers, base):
        loops = generate_loops(centers, base)
        assert sorted(loop.singular_index for loop in loops) == \
            list(range(len(centers)))
        angle = cmath.phase(complex(base))
        for loop in loops:
            assert loop.leg.a0 == angle
            assert abs(loop.spoke[0].start - loop.leg.end) <= 1e-12
            assert abs(loop.circle.start - loop.spoke[-1].end) <= 1e-12
            angle = loop.leg.a1

    def test_seeded_centre_sets(self):
        rng = random.Random(33)
        for k in range(300):
            centers = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                       for _ in range(rng.randint(1, 9))]
            if k % 3 == 0:  # collinear points on a ray, blocking spokes
                ray = cmath.exp(1j * rng.choice([0.0, math.pi / 2, 1.0]))
                centers += [t * ray for t in (0.5, 1.5, 2.5)]
            base = auto_base_point(centers)
            if k % 2:  # a base off the real axis
                base *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            self.assert_joined(centers, base)

    def test_singular_sets_of_panel_curves(self):
        with open(PANEL, encoding="utf-8") as handle:
            panel = json.load(handle)["curves"]
        for curves in panel.values():
            for expr in curves[:2]:
                centers = [p.center
                           for p in singular_points(parse_bivariate(expr))]
                self.assert_joined(centers, auto_base_point(centers))


class TestContinuation:
    def test_sqrt_transposition(self):
        P = parse_bivariate("y^2 - x")
        act = monodromy_group(P)
        assert [cycles_string(g) for g in act.generators] == ["(1 2)"]

    def test_cyclic_cover(self):
        for n in (3, 5, 8):
            act = monodromy_group(parse_bivariate(f"y^{n} - x"))
            assert act.group.order() == n
            assert cycle_type(act.generators[0]) == (n,)

    def test_contractible_loop_identity(self):
        act = monodromy_group(parse_bivariate("y^2 - x"))
        base = act.base_point
        square = [base, base + 0.5, base + 0.5 + 0.5j, base + 0.5j, base]
        sides = [Segment(a, b) for a, b in zip(square, square[1:])]
        sigma = continue_roots(act.tracker, sides, act.roots)
        assert sigma == tuple(range(2))


class TestEndMatching:
    """Nearest-start-root matching against the optimal assignment."""

    @staticmethod
    def _optimal(end, start, margin):
        cost = np.abs(end[:, None] - start[None, :])
        rows, cols = linear_sum_assignment(cost)
        if any(cost[i, j] >= margin for i, j in zip(rows, cols)):
            return None
        return tuple(int(j) for _i, j in sorted(zip(rows, cols)))

    def test_agrees_with_linear_sum_assignment(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(600):
            n = int(rng.integers(2, 8))
            start = rng.normal(size=n) + 1j * rng.normal(size=n)
            gaps = np.abs(start[:, None] - start[None, :])
            np.fill_diagonal(gaps, np.inf)
            margin = float(np.min(gaps)) / 3.0
            # end roots scattered from a permuted start, from well inside
            # the margin to well beyond it
            spread = margin * rng.choice([0.1, 0.5, 0.9, 1.2, 2.0, 4.0])
            end = start[rng.permutation(n)] + spread * (
                rng.normal(size=n) + 1j * rng.normal(size=n)) / 2.0
            expected = self._optimal(end, start, margin)
            outcomes.add(expected is None)
            if expected is None:
                with pytest.raises(PathCollision):
                    match_end_roots(end, start, margin)
            else:
                assert match_end_roots(end, start, margin) == expected
        assert outcomes == {True, False}

    def test_two_ends_at_one_start_root_fail(self):
        start = np.array([1.0, -1.0, 3j])
        end = np.array([1.01, 0.99, 3j])
        with pytest.raises(PathCollision):
            match_end_roots(end, start, 2.0 / 3.0)

    def test_nan_end_value_fails(self):
        start = np.array([1.0, -1.0, 3j])
        end = np.array([1.0, complex("nan"), 3j])
        with pytest.raises(PathCollision):
            match_end_roots(end, start, 2.0 / 3.0)


class TestGroups:
    def test_quintic_s5(self):
        act = monodromy_group(parse_bivariate("y^5 + y - x"))
        assert act.group.order() == 120
        assert act.transitive

    def test_determinism(self):
        a = monodromy_group(parse_bivariate("y^5 + y - x"))
        b = monodromy_group(parse_bivariate("y^5 + y - x"))
        assert a.generators == b.generators
        assert a.base_point == b.base_point
        assert a.roots == b.roots

    def test_reducible_orbits(self):
        # (y^2 - x)(y - x^2) splits into a degree-2 and a degree-1 factor
        P = parse_bivariate("(y^2 - x)*(y - x^2)")
        act = monodromy_group(P)
        assert not act.transitive
        sizes = sorted(len(o) for o in act.orbits())
        assert sizes == [1, 2]
        # the two roots of y^2 - x swap; the root x^2 stays
        assert act.group.order() == 2

    def test_generic_curves_sn(self):
        # dense random curves of degree n have full symmetric monodromy
        rng = random.Random(3)
        import math
        for n in (3, 4, 5, 6, 7):
            while True:
                rows = [UnivariatePolynomial([rng.randint(-5, 5),
                                              rng.randint(-5, 5)])
                        for _ in range(n)]
                rows.append(UnivariatePolynomial([1]))
                P = BivariatePolynomial(rows)
                if P.squarefree_y():
                    act = monodromy_group(P)
                    if act.group.order() == math.factorial(n):
                        break
            assert act.group.order() == math.factorial(n)

    @pytest.mark.parametrize("curve, order, code", [
        # once read as intransitive (exit 64), and once with three odd
        # generators where disc_y has one zero of odd order
        ("x + y^5 - y^3 - 3*y^2 + y - 2", 120, 1),
        ("x^2*y^2 + 3*x + y^4 + 3*y^2 + 1", 8, 0),
    ], ids=["quintic", "quartic"])
    def test_odd_generators_match_discriminant_parity(self, curve, order,
                                                      code):
        # sqrt(disc_y) = lc^(n-1) prod_(i<j) (y_i - y_j) changes sign along
        # a loop by the sign of its permutation, so a generator is odd
        # exactly when disc_y vanishes to odd order at its point
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["--json", "algebraic", "--", curve]) == code
        mono = json.loads(out.getvalue())["monodromy"]
        assert mono["group_order"] == order and mono["transitive"]
        odd = sum(sum(len(c.split()) - 1
                      for c in re.findall(r"\(([^()]*)\)", g)) % 2
                  for g in mono["generators"])
        X, Y = sympy.symbols("x y")
        disc = sympy.discriminant(sympy.sympify(curve.replace("^", "**")), Y)
        assert odd == sum(sympy.degree(f, X)
                          for f, m in sympy.sqf_list(disc, X)[1] if m % 2)


class TestProductRelation:
    CURVES = ["y^2 - x", "y^5 + y - x", "y^7 - x", "y^2 - (x^2 - 1)",
              "y^3 - x^2 - x - 1", "y^4 + x*y + x^3 + 1",
              "y^3 - 3*x*y - 2*x", "y^3 - 3*x*y - 2*x + x^3"]

    # the panel's curves too: a branch sent down the wrong path by a long
    # tracker step would break the relation
    @pytest.mark.parametrize("expr", CURVES + panel_curves())
    def test_composite_equals_inverse_of_clockwise_circle(self, expr):
        P = parse_bivariate(expr)
        act = monodromy_group(P)
        if not act.generators:
            return
        big_cw = loop_at_infinity_permutation(act, clockwise=True)
        assert ordered_product(act.generators) == inverse(big_cw)

    def test_point_just_above_the_base_ray(self, monkeypatch):
        # x = 2 moved to 2 + 1e-30 i: its sweep angle snaps to 2 pi, so its
        # loop is listed last and must start with the full highway circle
        P = parse_bivariate("y^3 - 3*y - x")
        exact = singular_points(P)
        moved = [ComplexInterval(p.center + (1e-30j if p.center.real > 0
                                             else 0), p.radius)
                 for p in exact]
        assert sorted(p.center.imag for p in moved) == [0.0, 1e-30]
        monkeypatch.setattr(monodromy, "singular_points",
                            lambda *_args, **_kwargs: moved)
        act = monodromy_group(P)
        assert act.singular is moved
        big_cw = loop_at_infinity_permutation(act, clockwise=True)
        assert ordered_product(act.generators) == inverse(big_cw)


class TestTrackerWork:
    """Branches are tracked along the loop tree with arcs stepped by angle
    (at most pi/3 a step), and each branch's correction is judged against
    the distance to its own nearest neighbour, so a deg-(5, 1) curve takes
    about eighty accepted steps (about a hundred when every branch was
    judged against the closest pair, about a thousand when every loop
    retraced a polyline of 64-gons)."""

    # deg-(5, 1) curves of bench/panel.json with no singular point on the
    # base ray, and their generators as the polyline tracker found them
    CURVES = {
        "-3*x*y^2 - x + y^5 - 2*y^4 - 3*y^3 - 2*y^2 - y - 2":
            ["(2 5)", "(1 5)", "(2 3)", "(1 2)", "(3 4)", "(1 3)"],
        "-3*x*y^3 - 3*x*y + y^5 + 2*y^4 + 2*y^3 - 3*y - 1":
            ["(1 2)", "(3 5)", "(2 4)", "(2 3)", "(3 4)", "(1 2)", "(3 5)"],
        "3*x*y^4 - x*y^2 + x*y + y^5 - y^2 - 3*y - 1":
            ["(2 3)", "(3 5)", "(3 4)", "(2 5)", "(1 5)", "(3 4)", "(3 5)",
             "(1 3)"],
        "x*y^4 + 3*x*y + x + y^5 + 3*y^4 + y^3 - 3*y^2 - 1":
            ["(2 3)", "(2 5)", "(1 4)", "(3 4)", "(2 4)", "(1 5)", "(1 3)",
             "(4 5)"],
        "-3*x + y^5 - y^4 - 2*y^3 + 2*y - 2":
            ["(2 4)", "(1 3)", "(1 4)", "(4 5)"],
        "3*x*y^2 + y^5 + 2*y^3 - 3*y^2 + y - 3":
            ["(2 4)", "(1 3)", "(1 4)", "(3 5)", "(2 3)"],
    }

    def test_steps_and_generators(self):
        accepted = []
        for expr, generators in self.CURVES.items():
            act = monodromy_group(parse_bivariate(expr))
            assert [cycles_string(g) for g in act.generators] == generators
            assert act.steps.rejected < act.steps.accepted
            accepted.append(act.steps.accepted)
        assert sum(accepted) / len(accepted) <= 90

    def test_fast_branch_beside_a_close_pair(self):
        # a branch near |y| = 4.5e4 on the highway grows like x^2 while two
        # small branches are 0.05 apart: judged against that pair, it took
        # 32,222 accepted steps
        act = monodromy_group(parse_bivariate(
            "y^4 + (x^2 - 2*x + 2)*y^3 + (3*x + 3)*y^2 + (x + 2)*y - 3"))
        assert [cycles_string(g) for g in act.generators] == \
            ["(3 4)", "(1 3)", "(2 4)", "(1 2)", "(2 4)", "(1 3)", "(3 4)",
             "(2 3)", "(2 4)"]
        assert act.group.order() == 24
        assert act.steps.accepted <= 1000


class TestReport:
    def test_report_shape(self):
        P = parse_bivariate("y^3 - x")
        act = monodromy_group(P)
        s = singular_points(P)
        report = act.report(s)
        assert report["group_order"] == 3
        assert report["transitive"] is True
        assert isinstance(report["generators"][0], str)
        assert len(report["singular_points"]) == 1
