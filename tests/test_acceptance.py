"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from finitude.algebra import (BivariatePolynomial, GaussianRational,
                              RationalFunction, UnivariatePolynomial,
                              parse_bivariate, parse_rational,
                              parse_univariate)
from finitude.differential import (DifferentialPolynomial, LinearODE,
                                   d_sequence, generalized_riccati,
                                   integrate_rational,
                                   rational_witness_search,
                                   verify_exp_integral_witness)
from finitude.fuchsian import (FuchsianSystem, simultaneous_triangularizable,
                               system_monodromy)
from finitude.monodromy import monodromy_group, singular_points, track_to_point
from finitude.permgroups import (PermGroup, classify_primitive_solvable_with_cycle,
                                 cycle_type, is_k_solvable)
from finitude.puiseux import puiseux_expand, ramification_multiset, residual_error
from finitude.solvability import (classify_primitive, invertible_by_radicals,
                                  k_radicals_verdict, radical_tower,
                                  radicals_verdict, tower_mismatch)
from finitude.solvability.ritt import chebyshev
from finitude.solvability.verdicts import VerdictStatus, inverse_curve


def report(name, detail=""):
    print(f"\nACCEPTANCE PASS {name} {detail}")


def rand_univ(rng, deg, bound=3):
    return UnivariatePolynomial([rng.randint(-bound, bound)
                                 for _ in range(deg + 1)])


def rand_monic_curve(rng, deg_y, deg_x=2, bound=3):
    rows = [rand_univ(rng, rng.randint(0, deg_x), bound)
            for _ in range(deg_y)]
    rows.append(UnivariatePolynomial([1]))
    return BivariatePolynomial(rows)


def test_criterion_1_monodromy_fixed_point():
    """y^5 + y - x: order 120 = S5; radical verdicts; <= 10 s."""
    start = time.perf_counter()
    P = parse_bivariate("y^5 + y - x")
    action = monodromy_group(P)
    assert action.group.order() == 120
    assert action.group.degree == 5 and action.transitive
    assert not action.group.is_solvable()  # S5, the full symmetric group
    v = radicals_verdict(P)
    assert v.status == VerdictStatus.NOT_REPRESENTABLE
    assert k_radicals_verdict(P, 4).status == VerdictStatus.NOT_REPRESENTABLE
    assert k_radicals_verdict(P, 5).status == VerdictStatus.REPRESENTABLE
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    report("1 monodromy fixed point", f"({elapsed:.2f} s)")


def test_criterion_2_cyclic_covers():
    """y^n - x for n = 2..12: cyclic monodromy, root(n, x) matches the
    tracked branch to 1e-8 at 100 random points."""
    rng = random.Random(17)
    for n in range(2, 13):
        P = parse_bivariate(f"y^{n} - x")
        action = monodromy_group(P)
        assert action.group.order() == n
        assert cycle_type(action.generators[0]) == (n,)
        expr = radical_tower(P, action)
        assert expr.to_string() == f"root({n}, x)"
        base = action.base_point
        for _ in range(100):
            radius = abs(base) * (0.2 + 1.3 * rng.random())
            angle = 2 * math.pi * rng.random()
            x = base + radius * complex(math.cos(angle), math.sin(angle))
            tracked = track_to_point(action, x)[0]
            got = expr(x)
            assert abs(got - tracked) <= 1e-8 * max(1.0, abs(tracked))
    report("2 cyclic covers", "(n = 2..12, 100 points each)")


def test_criterion_3_transitivity_irreducibility():
    """20 random irreducible curves transitive; 10 products split into
    orbits matching factor degrees."""
    rng = random.Random(23)
    found = 0
    while found < 20:
        P = rand_monic_curve(rng, rng.randint(2, 5))
        if not P.squarefree_y():
            continue
        action = monodromy_group(P)
        if not action.transitive:
            continue  # the random curve happened to factor; resample
        found += 1
    assert found == 20
    checked = 0
    while checked < 10:
        f1 = rand_monic_curve(rng, rng.randint(1, 2), deg_x=1)
        f2 = rand_monic_curve(rng, rng.randint(2, 3), deg_x=1)
        P = f1 * f2
        if not P.squarefree_y():
            continue
        action = monodromy_group(P)
        sizes = sorted(len(o) for o in action.orbits())
        expected_split = sorted([f1.degree_y(), f2.degree_y()])
        if action.transitive:
            continue
        # orbit sizes refine the factor degrees; for coprime irreducible
        # factors they match exactly
        if sizes == expected_split:
            checked += 1
    assert checked == 10
    report("3 transitivity iff irreducibility", "(20 + 10 curves)")


def test_criterion_4_radical_towers():
    """25 random cubics + 25 random quartics: tower matches a tracked root
    to 1e-8 relative at 100 sample points each."""
    rng = random.Random(31)
    for deg in (3, 4):
        done = 0
        while done < 25:
            P = rand_monic_curve(rng, deg, deg_x=2, bound=3)
            if not P.squarefree_y():
                continue
            action = monodromy_group(P)
            expr = radical_tower(P, action)
            mismatch = tower_mismatch(P, expr, action, sample_count=100,
                                      seed=done)
            assert mismatch <= 1e-8, (P.format(), mismatch)
            done += 1
    report("4 radical towers", "(25 cubics + 25 quartics, 100 points each)")


def test_criterion_5_ritt_classification():
    """50 random good compositions Representable; x^5 + x NotRepresentable
    by both routes."""
    rng = random.Random(41)
    built = 0
    while built < 50:
        factors = []
        total = 1
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["linear", "power", "chebyshev", "small"])
            if kind == "linear":
                g = UnivariatePolynomial([rng.randint(-3, 3),
                                          rng.choice([1, 2, -1, 3])])
            elif kind == "power":
                g = UnivariatePolynomial.monomial(GaussianRational(1),
                                                  rng.choice([2, 3, 5]))
            elif kind == "chebyshev":
                g = chebyshev(rng.choice([2, 3, 5]))
            else:
                g = rand_univ(rng, rng.choice([2, 3, 4]))
                if g.degree() < 2:
                    continue
            if total * max(g.degree(), 1) > 30:
                break
            total *= max(g.degree(), 1)
            factors.append(g)
        if not factors or total < 2:
            continue
        f = factors[0]
        for g in factors[1:]:
            f = g.compose(f)
        if f.degree() < 2 or f.degree() > 30:
            continue
        assert invertible_by_radicals(f).representable, f.format()
        built += 1
    f = parse_univariate("x^5 + x")
    assert classify_primitive(f).kind == "other"
    curve = inverse_curve(f)
    action = monodromy_group(curve)
    assert action.group.order() == 120  # S5 by the independent route
    v = invertible_by_radicals(f)
    assert v.status == VerdictStatus.NOT_REPRESENTABLE
    report("5 Ritt classification", "(50 compositions + dual route)")


def test_criterion_6_d_sequence_oracle():
    """D_n equals the brute-force expansion of y^(n)/y for n <= 6; n = 2
    reproduces the Riccati equation literally."""
    u = DifferentialPolynomial.jet(0)
    # oracle: differentiate E_k * y with y' = u y directly (product rule),
    # collecting the cofactor of y at each order
    cofactor = DifferentialPolynomial.constant(1)
    oracle = [cofactor]
    for _ in range(6):
        cofactor = cofactor.derivative() + cofactor * u
        oracle.append(cofactor)
    ds = d_sequence(6)
    for n in range(7):
        assert ds[n] == oracle[n], n
    # Eq for order 2 with concrete coefficients: u' + a1 u + a2 + u^2
    a1 = parse_rational("x")
    a2 = parse_rational("1/(x+2)")
    got = generalized_riccati(LinearODE([a1, a2]))
    expected = (DifferentialPolynomial.jet(1)
                + DifferentialPolynomial({(1,): a1})
                + DifferentialPolynomial.constant(a2)
                + u * u)
    assert got == expected
    report("6 D-sequence oracle", "(n <= 6 term-for-term)")


def test_criterion_7_integration_soundness():
    """200 random rational functions (deg <= 8 / deg <= 8): d/dx of the
    Liouville form minus the input is exactly zero."""
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        num = rand_univ(rng, rng.randint(0, 8), bound=9)
        den_body = rand_univ(rng, rng.randint(0, 7), bound=9)
        den = UnivariatePolynomial(list(den_body.coeffs) + [1]) \
            if den_body.degree() < 8 else den_body
        if num.is_zero() or den.degree() < 1:
            continue
        f = RationalFunction(num, den)
        form = integrate_rational(f)
        assert (form.derivative() - f).is_zero()
        checked += 1
    report("7 integration soundness", "(200 random rational functions)")


def test_criterion_8_witness_search():
    """Exponentials, Euler, Airy; all witnesses verify; <= 30 s."""
    start = time.perf_counter()
    ws, _ = rational_witness_search(LinearODE([0, -1]))
    assert sorted(w.format() for w in ws) == ["-1", "1"]
    euler = LinearODE([parse_rational("1/x"), parse_rational("-1/x^2")])
    ws_euler, _ = rational_witness_search(euler)
    assert any(w == parse_rational("1/x") for w in ws_euler)
    airy = LinearODE([0, parse_rational("-x")])
    assert rational_witness_search(airy) == ([], None)
    for ode, ws_list in ((LinearODE([0, -1]), ws), (euler, ws_euler)):
        for w in ws_list:
            assert verify_exp_integral_witness(ode, w)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    report("8 witness search", f"({elapsed:.2f} s)")


def test_criterion_9_puiseux_monodromy_consistency():
    """20 random curves of deg_y <= 5: ramification multisets match loop
    cycle types; residuals <= 1e-10 relative."""
    rng = random.Random(57)
    checked = 0
    while checked < 20:
        P = rand_monic_curve(rng, rng.randint(2, 5), deg_x=2)
        if not P.squarefree_y() or P.degree_y() < 2:
            continue
        try:
            action = monodromy_group(P)
        except Exception:
            continue
        sing = singular_points(P)
        for loop, gen in zip(action.loops, action.generators):
            center = sing[loop.singular_index].center
            ram = ramification_multiset(P, center)
            assert ram == cycle_type(gen), (P.format(), center)
        for enc in sing:
            for s in puiseux_expand(P, enc.center, order=3, exact=False):
                assert residual_error(P, s) <= 1e-10
        checked += 1
    report("9 puiseux/monodromy consistency", "(20 curves)")


def test_criterion_10_fuchsian_numerics():
    """Single-pole exponentials to 1e-6; det-trace to 1e-6; sl2 pair not
    triangularizable; commuting tuples triangularizable."""
    rng = np.random.default_rng(5)
    for k in range(20):
        n = int(rng.integers(2, 5))
        A = 0.35 * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))
        system = FuchsianSystem([0.0], [A])
        mono = system_monodromy(system, tol=1e-11)
        err = np.linalg.norm(mono.matrices[0] - expm(2j * np.pi * A), 2)
        assert err <= 1e-6, (k, err)
    for k in range(20):
        count = int(rng.integers(2, 4))
        poles = [complex(rng.standard_normal(), rng.standard_normal())
                 for _ in range(count)]
        if min(abs(a - b) for i, a in enumerate(poles)
               for b in poles[:i]) if count > 1 else 1 < 0.3:
            poles = [p + 2.0 * i for i, p in enumerate(poles)]
        mats = [0.15 * (rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
                for _ in range(count)]
        system = FuchsianSystem(poles, mats)
        mono = system_monodromy(system, tol=1e-12)
        for loop, M in zip(mono.loops, mono.matrices):
            A = mats[loop.singular_index]
            expected = np.exp(2j * np.pi * np.trace(A))
            assert abs(np.linalg.det(M) - expected) <= 1e-6
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    assert not simultaneous_triangularizable([e, f])["triangularizable"]
    for _ in range(5):
        S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Sinv = np.linalg.inv(S)
        mats = [S @ np.diag(rng.standard_normal(3)) @ Sinv for _ in range(3)]
        assert simultaneous_triangularizable(mats)["triangularizable"]
    report("10 fuchsian numerics", "(20 + 20 systems)")


def test_criterion_11_group_suite():
    """Named group facts, including the affine(5) classification."""
    S4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
    assert S4.is_solvable()
    S5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")
    assert not S5.is_solvable()
    assert is_k_solvable(S5, 5)[0]
    assert not is_k_solvable(S5, 4)[0]
    D5 = PermGroup.from_cycles(5, "(1 2 3 4 5)", "(2 5)(3 4)")
    assert D5.order() == 10
    result = classify_primitive_solvable_with_cycle(D5)
    assert result["case"] == "affine" and result["p"] == 5
    label = result["relabeling"]
    for g, (a, b) in zip(D5.generators, result["affine_maps"]):
        for point in range(5):
            assert label[g[point]] == (a * label[point] + b) % 5
    report("11 group suite", "(S4, S5, D5 affine relabeling verified)")
