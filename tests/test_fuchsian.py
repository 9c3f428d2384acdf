"""Fuchsian system monodromy and simultaneous triangularization."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from finitude import fuchsian
from finitude.errors import (IterationLimitExceeded, NumericFailure,
                             SingularOnPath)
from finitude.fuchsian import (MAX_ORDER, FuchsianSystem, integrate_along,
                               monodromy_at_infinity,
                               simultaneous_triangularizable,
                               small_norm_verdict, system_monodromy)
from finitude.monodromy import Arc, Segment, auto_base_point, generate_loops
from finitude.solvability.verdicts import VerdictStatus

E = np.array([[0, 1], [0, 0]], dtype=complex)
F = np.array([[0, 0], [1, 0]], dtype=complex)


def random_matrix(rng, n, scale=0.3):
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


def scalar_majorant(norms, ratios, tol):
    """The order and tail bound of one piece's series, by the scalar
    recurrence that fuchsian._majorant_orders runs for many pieces at once;
    None past MAX_ORDER."""
    r = (1.0 + max(ratios)) / 2.0
    g = sum(a * e / (r - e) for a, e in zip(norms, ratios))
    t, w = 1.0, [0.0] * len(norms)
    for m in range(MAX_ORDER):
        if m + 1 > g:
            bound = t * max(1.0, m / (m + 1 - g)) / (1.0 - r)
            if bound <= tol:
                return m, bound
        w = [e * (t + wk) for e, wk in zip(ratios, w)]
        t = sum(a * wk for a, wk in zip(norms, w)) / (m + 1)
    return None


class TestSystemMonodromy:
    def test_single_pole_matches_exponential(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(3):
                A = random_matrix(rng, n, 0.4)
                system = FuchsianSystem([0.0], [A])
                mono = system_monodromy(system, tol=1e-11)
                target = expm(2j * np.pi * A)
                err = np.linalg.norm(mono.matrices[0] - target, 2)
                assert err < 1e-6

    def test_zero_matrices_identity(self):
        system = FuchsianSystem([0.0, 1.0],
                                [np.zeros((2, 2)), np.zeros((2, 2))])
        mono = system_monodromy(system)
        for M in mono.matrices:
            assert np.allclose(M, np.eye(2))

    def test_commuting_diagonal(self):
        D1 = np.diag([0.3, -0.2]).astype(complex)
        D2 = np.diag([0.1, 0.4]).astype(complex)
        system = FuchsianSystem([0.0, 1.0], [D1, D2])
        mono = system_monodromy(system, tol=1e-11)
        by_pole = {loop.singular_index: M
                   for loop, M in zip(mono.loops, mono.matrices)}
        assert np.allclose(by_pole[0], expm(2j * np.pi * D1), atol=1e-7)
        assert np.allclose(by_pole[1], expm(2j * np.pi * D2), atol=1e-7)

    def test_det_trace_relation(self):
        rng = np.random.default_rng(7)
        poles = [0.0, 1.5, -1.0 + 0.8j]
        for _ in range(3):
            mats = [random_matrix(rng, 3, 0.15) for _ in poles]
            system = FuchsianSystem(poles, mats)
            mono = system_monodromy(system, tol=1e-12)
            for loop, M in zip(mono.loops, mono.matrices):
                A = mats[loop.singular_index]
                expected = np.exp(2j * np.pi * np.trace(A))
                assert abs(np.linalg.det(M) - expected) < 1e-6

    def test_product_relation(self):
        rng = np.random.default_rng(9)
        poles = [1.0, -0.5 + 1.0j, -0.5 - 1.0j]
        mats = [random_matrix(rng, 2, 0.2) for _ in poles]
        system = FuchsianSystem(poles, mats)
        mono = system_monodromy(system, tol=1e-12)
        big = monodromy_at_infinity(system, tol=1e-12)
        product = np.eye(2, dtype=complex)
        for M in mono.matrices:
            product = product @ M
        rel = np.linalg.norm(product - big, 2) / np.linalg.norm(big, 2)
        assert rel < 1e-6

    def test_condition_estimates_reported(self):
        system = FuchsianSystem([0.0], [0.3 * E])
        mono = system_monodromy(system)
        assert len(mono.condition_estimates) == 1
        assert mono.condition_estimates[0] >= 1.0


class TestTaylorTransport:
    """The series transport at the default fuchsian_tol."""

    POLES = [0.0, 1.5, -1.0 + 0.8j]

    def three_pole_systems(self, scale):
        """Six systems on POLES, dimensions 2, 3, 4, 2, 3, 4."""
        rng = np.random.default_rng(7)
        for k in range(6):
            mats = [random_matrix(rng, 2 + k % 3, scale) for _ in self.POLES]
            yield FuchsianSystem(self.POLES, mats)

    def test_single_pole_matches_exponential(self):
        """Residues of scale 0.3 keep cond(M) below 1e5; at 0.4 it reaches
        1e6, where the round-off of expm itself is near 1e-10."""
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for _ in range(3):
                A = random_matrix(rng, n, 0.3)
                M = system_monodromy(FuchsianSystem([0.0], [A])).matrices[0]
                target = expm(2j * np.pi * A)
                assert (np.linalg.norm(M - target, 2)
                        <= 1e-10 * np.linalg.norm(target, 2))

    def test_det_identity_relative_to_condition(self):
        """Liouville: det M_k = exp(2 pi i tr A_k) on 18 loops."""
        checked = 0
        for system in self.three_pole_systems(0.3):
            mono = system_monodromy(system)
            for loop, M, cond in zip(mono.loops, mono.matrices,
                                     mono.condition_estimates):
                A = system.matrices[loop.singular_index]
                want = np.exp(2j * np.pi * np.trace(A))
                assert (abs(np.linalg.det(M) - want)
                        <= 1e-11 * max(1.0, cond) * abs(want))
                checked += 1
        assert checked == 18

    def test_truncation_bound_on_every_loop(self):
        for system in self.three_pole_systems(0.02):
            mono = system_monodromy(system)
            report = mono.report()
            assert len(report["truncation_bound"]) == len(mono.loops) == 3
            assert all(0.0 < b <= 1e-8 for b in report["truncation_bound"])

    def test_truncation_bound_holds(self):
        """The bound covers the distance to a transport 1e4 times finer."""
        for system in self.three_pole_systems(0.3):
            mono = system_monodromy(system)
            fine = system_monodromy(system, tol=1e-14)
            for M, M_fine, bound in zip(mono.matrices, fine.matrices,
                                        mono.truncation_bounds):
                assert np.linalg.norm(M - M_fine, 2) <= bound

    def test_product_is_the_loop_at_infinity(self):
        rng = np.random.default_rng(9)
        poles = [1.0, -0.5 + 1.0j, -0.5 - 1.0j]
        system = FuchsianSystem(poles, [random_matrix(rng, 2, 0.2)
                                        for _ in poles])
        product = np.linalg.multi_dot(system_monodromy(system).matrices)
        big = monodromy_at_infinity(system)
        assert (np.linalg.norm(product - big, 2)
                <= 1e-10 * np.linalg.norm(big, 2))

    def test_segment_through_a_pole_fails(self):
        system = FuchsianSystem([0.0], [0.3 * E])
        with pytest.raises(SingularOnPath):
            integrate_along(system, [Segment(-1.0, 1.0)])
        assert issubclass(SingularOnPath, NumericFailure)

    def test_spectrum_is_the_exponential_of_the_residue_spectrum(self):
        """Non-resonant residues: spec M_k = exp(2 pi i spec A_k), to a
        bound scaled by the loop's condition estimate, on 27 loops of
        systems with 2, 3 and 4 poles."""
        rng = np.random.default_rng(13)
        poles = self.POLES + [0.4 - 1.1j]
        checked = 0
        for k in range(9):
            n, count = 2 + k % 3, 2 + k // 3
            mats = [random_matrix(rng, n, 0.15) for _ in range(count)]
            mono = system_monodromy(FuchsianSystem(poles[:count], mats))
            for loop, M, cond in zip(mono.loops, mono.matrices,
                                     mono.condition_estimates):
                lam = np.linalg.eigvals(mats[loop.singular_index])
                gaps = (lam[:, None] - lam[None, :]).ravel()
                nearest = np.round(gaps.real)
                # non-resonant: no two eigenvalues differ by a nonzero integer
                assert np.all(np.abs(gaps - nearest)[nearest != 0] > 1e-2)
                want = np.exp(2j * np.pi * lam)
                got = np.linalg.eigvals(M)
                error = min(np.max(np.abs(got[list(order)] - want))
                            for order in itertools.permutations(range(n)))
                assert error <= 1e-10 * max(1.0, cond)
                checked += 1
        assert checked == 27

    def test_one_call_matches_one_call_per_piece(self):
        """Every piece of the loop tree in one batch, against a batch of
        one: systems of 2 to 4 poles and dimension 2 to 4."""
        rng = np.random.default_rng(17)
        poles = self.POLES + [0.4 - 1.1j]
        checked = 0
        for k in range(9):
            n, count = 2 + k % 3, 2 + k // 3
            system = FuchsianSystem(
                poles[:count], [random_matrix(rng, n) for _ in range(count)])
            loops = generate_loops(system.poles,
                                   auto_base_point(system.poles))
            pieces = [piece for loop in loops
                      for piece in (loop.leg, *loop.spoke, loop.circle)]
            for piece, (F, bound) in zip(pieces,
                                         integrate_along(system, pieces)):
                ((G, alone),) = integrate_along(system, [piece])
                assert (np.linalg.norm(F - G, 2) <= 1e-13 * np.linalg.cond(G)
                        * np.linalg.norm(G, 2))
                assert bound == pytest.approx(alone, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 9 * 4

    def test_majorant_matches_the_scalar_recurrence(self):
        rng = np.random.default_rng(5)
        for count in (1, 2, 3, 4):
            norms = rng.uniform(0.0, 2.0, count).tolist()
            ratios = rng.uniform(0.01, 0.5, (20, count))
            tols = 10.0 ** -rng.uniform(8.0, 14.0, 20)
            orders, bounds = fuchsian._majorant_orders(norms, ratios, tols)
            assert [(int(m), float(b)) for m, b in zip(orders, bounds)] == \
                [scalar_majorant(norms, row, tol)
                 for row, tol in zip(ratios.tolist(), tols.tolist())]

    def test_first_failure_in_walk_order_is_raised(self):
        # the arc's series needs more than MAX_ORDER terms; the segment
        # runs through the pole
        system = FuchsianSystem([0.0], [1e6 * np.eye(2)])
        arc, segment = Arc(0.0, 1.0, 0.0, 2 * np.pi), Segment(-1.0, 1.0)
        with pytest.raises(IterationLimitExceeded):
            integrate_along(system, [arc, segment])
        with pytest.raises(SingularOnPath):
            integrate_along(system, [segment, arc])

    def test_huge_residue_fails(self):
        system = FuchsianSystem([0.0], [1e6 * np.eye(2)])
        with pytest.raises(IterationLimitExceeded):
            integrate_along(system, [Arc(0.0, 1.0, 0.0, 2 * np.pi)])
        assert issubclass(IterationLimitExceeded, NumericFailure)


def triangularizable_residues(rng, n, count, scale=0.15):
    """A_k = S U_k S^-1 with upper-triangular U_k and one random S."""
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S_inv = np.linalg.inv(S)
    return [S @ np.triu(random_matrix(rng, n, scale)) @ S_inv
            for _ in range(count)]


class TestTriangularization:
    def test_single_matrix_always(self):
        rng = np.random.default_rng(3)
        result = simultaneous_triangularizable([random_matrix(rng, 4)])
        assert result["triangularizable"]
        assert result["margin"] == 0.0

    def test_upper_pair(self):
        H = np.array([[1, 0], [0, -1]], dtype=complex)
        result = simultaneous_triangularizable([E, H])
        assert result["triangularizable"]
        assert result["margin"] <= 1e-15

    def test_sl2_pair_obstruction(self):
        result = simultaneous_triangularizable([E, F])
        assert not result["triangularizable"]
        assert result["witness"] == (0, 1)
        assert result["margin"] == pytest.approx(1.0)

    def test_witness_skips_a_zero_residue(self):
        result = simultaneous_triangularizable([E, np.zeros((2, 2)), F])
        assert result["witness"] == (0, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_conjugated_nilpotent_residues(self, seed):
        """Words such as N^2 vanish exactly but compute as rounding error;
        they must not enter the algebra as unit-norm noise."""
        rng = np.random.default_rng(seed)
        for pair in ([E, np.diag([1.0, -1.0])],
                     [np.eye(3, k=1), np.diag([1.0, 0.0], k=1)]):
            n = pair[0].shape[0]
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S_inv = np.linalg.inv(S)
            result = simultaneous_triangularizable(
                [S @ m @ S_inv for m in pair])
            assert result["triangularizable"]
            assert result["margin"] <= 1e-14

    def test_commuting_families(self):
        rng = np.random.default_rng(11)
        for n in (3, 4):
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Sinv = np.linalg.inv(S)
            mats = [S @ np.diag(rng.standard_normal(n)) @ Sinv
                    for _ in range(3)]
            result = simultaneous_triangularizable(mats)
            assert result["triangularizable"]
            assert result["margin"] <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_seeded_draws_are_all_judged_right(self, n):
        """120 conjugated triangular systems and 120 generic ones, of 2 to
        4 residues of scale 0.15: the margins lie on either side of a gap
        of many orders of magnitude."""
        rng = np.random.default_rng(100 + n)
        for _ in range(120):
            count = int(rng.integers(2, 5))
            result = simultaneous_triangularizable(
                triangularizable_residues(rng, n, count))
            assert result["triangularizable"]
            assert result["margin"] <= 1e-14
            result = simultaneous_triangularizable(
                [random_matrix(rng, n, 0.15) for _ in range(count)])
            assert not result["triangularizable"]
            assert result["margin"] >= 1e-3

    def test_planted_system_is_representable(self):
        """The dimension-4 system drawn from default_rng(2) as the bench
        workloads draw it: two poles, then two conjugated triangular
        residues."""
        rng = np.random.default_rng(2)
        while True:
            poles = [complex(rng.standard_normal(), rng.standard_normal())
                     for _ in range(2)]
            if abs(poles[0] - poles[1]) >= 0.3:
                break
        system = FuchsianSystem(poles, triangularizable_residues(rng, 4, 2))
        verdict = small_norm_verdict(system)
        assert verdict.status == VerdictStatus.REPRESENTABLE
        assert verdict.extras["margin"] <= 1e-14


class TestSmallNormVerdict:
    def test_triangular_representable(self):
        system = FuchsianSystem(
            [0.0], [np.array([[0.5, 1.0], [0.0, -0.25]], dtype=complex)])
        verdict = small_norm_verdict(system)
        assert verdict.status == VerdictStatus.REPRESENTABLE
        assert len(verdict.extras["schedule"]) == 2

    def test_sl2_conditional_not_representable(self):
        system = FuchsianSystem([0.0, 1.0], [1e-3 * E, 1e-3 * F])
        verdict = small_norm_verdict(system)
        assert verdict.status == VerdictStatus.NOT_REPRESENTABLE
        assert verdict.extras["conditional"] is True
        assert verdict.extras["max_residue_norm"] == pytest.approx(1e-3)
        assert verdict.extras["witness_pair"] == [0, 1]

    def test_zero_system(self):
        system = FuchsianSystem([0.0], [np.zeros((3, 3))])
        verdict = small_norm_verdict(system)
        assert verdict.status == VerdictStatus.REPRESENTABLE

    def test_json_io(self):
        data = {"poles": [[0.0, 0.0]],
                "matrices": [[[[0.1, 0.0], [0.0, 0.2]],
                              [[0.0, 0.0], [0.3, -0.1]]]]}
        system = FuchsianSystem.from_json(data)
        assert system.dimension == 2
        assert system.poles == [0j]
