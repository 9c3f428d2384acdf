"""Permutation-group machinery: order, solvability, k-solvability, primitivity."""

import random
from itertools import permutations

import pytest
from sympy.combinatorics import Permutation
from sympy.combinatorics import PermutationGroup as SympyGroup
from sympy.combinatorics.named_groups import AlternatingGroup

from finitude.errors import NotApplicable, NotTransitive
from finitude.permgroups import (PermGroup,
                                 classify_primitive_solvable_with_cycle,
                                 composition_factors, cycles_string,
                                 full_cycles, identity, is_k_solvable,
                                 is_primitive, parse_cycles)


def brute_force_order(degree, gens):
    """Independent oracle: closure of the generator set under composition."""
    if not gens:
        return 1
    seen = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


S4 = PermGroup.from_cycles(4, "(1 2)", "(1 2 3 4)")
S5 = PermGroup.from_cycles(5, "(1 2)", "(1 2 3 4 5)")


class TestOrder:
    def test_spec_examples(self):
        assert S5.order() == 120
        assert PermGroup.from_cycles(5, "(1 2 3)").order() == 3
        assert PermGroup.trivial(5).order() == 1

    def test_against_brute_force(self):
        rng = random.Random(2)
        pool = list(permutations(range(5)))
        for _ in range(15):
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            G = PermGroup(5, gens)
            assert G.order() == brute_force_order(5, [tuple(g) for g in gens])
        for _ in range(10):
            pool8 = [tuple(rng.sample(range(8), 8)) for _ in range(2)]
            G = PermGroup(8, pool8)
            assert G.order() == brute_force_order(8, pool8)

    def test_membership(self):
        assert S5.contains("(1 3)(2 4)")
        A5 = S5.derived_subgroup()
        assert A5.order() == 60
        assert not A5.contains("(1 2)")
        assert A5.contains("(1 2 3)")


class TestDerivedSeries:
    def test_s4_reaches_trivial_via_a4_and_klein(self):
        orders = [g.order() for g in S4.derived_series()]
        assert orders == [24, 12, 4, 1]
        assert S4.is_solvable()

    def test_s5_stabilizes_at_a5(self):
        series = S5.derived_series()
        assert [g.order() for g in series] == [120, 60]
        assert not S5.is_solvable()

    def test_trivial_solvable(self):
        assert PermGroup.trivial(3).is_solvable()


class TestKSolvable:
    def test_s5(self):
        ok5, witness = is_k_solvable(S5, 5)
        assert ok5 and witness
        ok4, reason = is_k_solvable(S5, 4)
        assert not ok4 and reason

    def test_abelian_k1(self):
        assert is_k_solvable(PermGroup.cyclic(6), 1)[0]

    def test_s4_k1(self):
        assert is_k_solvable(S4, 1)[0]

    def test_solvable_implies_k_solvable_everywhere(self):
        corpus = [S4, PermGroup.cyclic(5),
                  PermGroup.from_cycles(5, "(1 2 3 4 5)", "(2 5)(3 4)"),
                  PermGroup.from_cycles(6, "(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)")]
        for G in corpus:
            assert G.is_solvable()
            for k in range(1, 7):
                assert is_k_solvable(G, k)[0]

    def test_monotone_in_k(self):
        corpus = [S5, S4, PermGroup.symmetric(6),
                  PermGroup.from_cycles(5, "(1 2 3)", "(3 4 5)")]
        for G in corpus:
            prev = False
            for k in range(1, 8):
                now = is_k_solvable(G, k)[0]
                assert now or not prev
                prev = now

    def test_composition_factors_s7(self):
        factors = composition_factors(PermGroup.symmetric(7))
        assert ("simple", "A7", 2520, 7) in factors
        assert ("cyclic", 2) in factors

    def test_wreath_product_against_sympy(self):
        # A5 wr C2 on two blocks of 5: its perfect core A5 x A5 has two
        # orbits, so the factors come from restrictions to orbits
        G = PermGroup.from_cycles(10, "(1 2 3 4 5)", "(1 2 3)",
                                  "(1 6)(2 7)(3 8)(4 9)(5 10)")
        assert G.order() == 7200
        factors = composition_factors(G)
        assert sorted(factors) == [("cyclic", 2), ("simple", "A5", 60, 5),
                                   ("simple", "A5", 60, 5)]
        # sympy's composition_series takes solvable groups only; the oracle
        # is the series G > G' > N > 1, N the kernel of G' on the first
        # block, with factors C2 and A5 (simple, and the one subgroup of
        # order 60 of S5) found by sympy
        oracle = SympyGroup(*[Permutation(list(g)) for g in G.generators])
        core = oracle.derived_subgroup()
        kernel = core.pointwise_stabilizer(list(range(5)))
        assert kernel.is_normal(core)
        assert [oracle.order() // core.order(), core.order() // kernel.order(),
                kernel.order()] == [2, 60, 60]
        image = SympyGroup(*[Permutation(p.array_form[:5])
                             for p in core.generators])
        moved = SympyGroup(*[Permutation([i - 5 for i in p.array_form[5:]])
                             for p in kernel.generators])
        for block in (image, moved):
            assert block.order() == 60
            assert block.is_subgroup(AlternatingGroup(5))
        assert is_k_solvable(G, 5)[0]
        assert not is_k_solvable(G, 4)[0]


class TestPrimitivity:
    def test_z4_imprimitive(self):
        assert not is_primitive(PermGroup.cyclic(4))

    def test_s5_primitive_with_cycle(self):
        assert is_primitive(S5)
        assert full_cycles(S5)

    def test_prime_cyclic_primitive(self):
        for p in (3, 5, 7, 11):
            assert is_primitive(PermGroup.cyclic(p))

    def test_not_transitive_raises(self):
        G = PermGroup.from_cycles(4, "(1 2)")
        with pytest.raises(NotTransitive):
            is_primitive(G)


class TestClassification:
    def test_dihedral_order10(self):
        D5 = PermGroup.from_cycles(5, "(1 2 3 4 5)", "(2 5)(3 4)")
        result = classify_primitive_solvable_with_cycle(D5)
        assert result["case"] == "affine" and result["p"] == 5
        maps = set(result["affine_maps"])
        assert (1, 1) in maps          # x -> x + 1
        assert any(a == 4 for a, _ in maps)  # x -> -x (+ shift)

    def test_s4_size4(self):
        assert classify_primitive_solvable_with_cycle(S4) == {"case": "size4"}

    def test_z7_shifts_only(self):
        result = classify_primitive_solvable_with_cycle(PermGroup.cyclic(7))
        assert result["case"] == "affine" and result["p"] == 7
        assert result["affine_maps"] == [(1, 1)]

    def test_affine_maps_verified_pointwise(self):
        D7 = PermGroup.from_cycles(7, "(1 2 3 4 5 6 7)", "(2 7)(3 6)(4 5)")
        result = classify_primitive_solvable_with_cycle(D7)
        label = result["relabeling"]
        p = result["p"]
        for g, (a, b) in zip(D7.generators, result["affine_maps"]):
            for point in range(7):
                assert label[g[point]] == (a * label[point] + b) % p

    def test_unsolvable_rejected(self):
        with pytest.raises(NotApplicable):
            classify_primitive_solvable_with_cycle(S5)


class TestSerialization:
    def test_cycles_string(self):
        assert cycles_string((1, 0, 3, 4, 2)) == "(1 2)(3 4 5)"
        assert cycles_string((0, 1, 2)) == "()"

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(50):
            p = tuple(rng.sample(range(9), 9))
            assert parse_cycles(cycles_string(p), 9) == p
