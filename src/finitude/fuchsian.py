"""Numeric monodromy of Fuchsian systems and simultaneous triangularization.

A Fuchsian system y' = (sum_i A_i/(x - a_i)) y is integrated along the same
generator loops the scalar monodromy module uses, with an adaptive embedded
Dormand-Prince step on the fundamental matrix (identity at the base point).
The simultaneous-triangularizability test runs the Lie-Kolchin recipe: build
the Lie closure of the residue matrices, find a common eigenvector, deflate,
recurse; failure returns a two-generator obstruction witness.  The
small-coefficient criterion is reported conditionally, since the smallness
threshold is an existence statement with no formula to evaluate.
"""

from __future__ import annotations

import numpy as np

from .config import EIG_CLUSTER_TOL, FUCHSIAN_TOL
from .errors import StepSizeUnderflow
from .monodromy import Loop, SingularSet, auto_base_point, big_circle_loop, generate_loops
from .algebra.roots import ComplexInterval
from .solvability.verdicts import Verdict, VerdictStatus


class FuchsianSystem:
    """Simple poles a_i with constant residue matrices A_i."""

    def __init__(self, poles, matrices):
        self.poles = [complex(p) for p in poles]
        self.matrices = [np.asarray(m, dtype=complex) for m in matrices]
        if len(self.poles) != len(self.matrices):
            raise ValueError("one residue matrix per pole required")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("pole locations must be pairwise distinct")
        dims = {m.shape for m in self.matrices}
        if len(dims) > 1 or any(m.shape[0] != m.shape[1]
                                for m in self.matrices):
            raise ValueError("residue matrices must be square, same size")
        self.dimension = self.matrices[0].shape[0] if self.matrices else 0

    def coefficient(self, x: complex) -> np.ndarray:
        total = np.zeros((self.dimension, self.dimension), dtype=complex)
        for pole, mat in zip(self.poles, self.matrices):
            total += mat / (x - pole)
        return total

    def singular_set(self) -> SingularSet:
        encl = [ComplexInterval(p, 1e-14) for p in self.poles]
        return SingularSet(encl, None)

    @staticmethod
    def from_json(data) -> "FuchsianSystem":
        poles = [complex(re, im) for re, im in data["poles"]]
        matrices = []
        for rows in data["matrices"]:
            matrices.append([[complex(re, im) for re, im in row]
                             for row in rows])
        return FuchsianSystem(poles, matrices)

    def __repr__(self):
        return (f"FuchsianSystem(N={self.dimension}, "
                f"poles={[f'{p:.3g}' for p in self.poles]})")


class MonodromyMatrices:
    """One invertible matrix per generator loop, identity-normalized."""

    def __init__(self, base_point, loops, matrices):
        self.base_point = complex(base_point)
        self.loops = list(loops)
        self.matrices = [np.asarray(m) for m in matrices]
        self.condition_estimates = [float(np.linalg.cond(m))
                                    for m in self.matrices]

    def __iter__(self):
        return iter(self.matrices)

    def report(self):
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "matrices": [[[[v.real, v.imag] for v in row] for row in m]
                         for m in self.matrices],
            "condition_estimates": self.condition_estimates,
        }


# --- adaptive integration ------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40]


def _integrate_segment(system: FuchsianSystem, z0, z1, Y, tol, loop_index):
    """Advance Y along the straight segment z0 -> z1."""
    direction = z1 - z0
    if direction == 0:
        return Y
    t = 0.0
    h = 1.0
    min_h = 1e-13

    def rhs(t_val, M):
        x = z0 + t_val * direction
        return direction * (system.coefficient(x) @ M)

    while t < 1.0 - 1e-14:
        h = min(h, 1.0 - t)
        ks = []
        for stage in range(7):
            acc = Y
            for j, coeff in enumerate(_DP_A[stage]):
                if coeff:
                    acc = acc + (h * coeff) * ks[j]
            ks.append(rhs(t + h * sum(_DP_A[stage]), acc))
        y5 = Y
        y4 = Y
        for k, (b5, b4) in enumerate(zip(_DP_B5, _DP_B4)):
            if b5:
                y5 = y5 + (h * b5) * ks[k]
            if b4:
                y4 = y4 + (h * b4) * ks[k]
        scale = max(1.0, float(np.max(np.abs(y5))))
        err = float(np.max(np.abs(y5 - y4))) / scale
        if err <= tol:
            Y = y5
            t += h
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (tol / err) ** 0.2)
            h = min(1.0, h * max(0.2, factor))
        else:
            h *= max(0.2, 0.9 * (tol / err) ** 0.25)
            if h < min_h:
                raise StepSizeUnderflow(
                    f"step underflow near x = {z0 + t * direction:.6g}",
                    loop_index=loop_index)
    return Y


def integrate_along(system: FuchsianSystem, waypoints, tol=FUCHSIAN_TOL,
                    loop_index=None) -> np.ndarray:
    Y = np.eye(system.dimension, dtype=complex)
    for a, b in zip(waypoints, waypoints[1:]):
        Y = _integrate_segment(system, a, b, Y, tol, loop_index)
    return Y


def system_monodromy(system: FuchsianSystem, tol: float = FUCHSIAN_TOL,
                     base=None) -> MonodromyMatrices:
    """Monodromy matrices along the standard generator loops.

    Loop geometry and ordering are shared with the scalar monodromy module
    (highway construction, counterclockwise, ascending spoke angle).  With
    matrices[k] the monodromy of loops[k], the left-to-right product
    matrices[0] @ matrices[1] @ ... equals the matrix of one big
    counterclockwise circle around all poles (same travel convention as the
    scalar ordered product: rightmost factor is traveled first).
    """
    singular = system.singular_set()
    if base is None:
        base = auto_base_point(singular)
    loops = generate_loops(singular, base)
    mats = [integrate_along(system, loop.waypoints, tol, loop.singular_index)
            for loop in loops]
    return MonodromyMatrices(base, loops, mats)


def monodromy_at_infinity(system: FuchsianSystem, tol: float = FUCHSIAN_TOL,
                          base=None, clockwise=False) -> np.ndarray:
    singular = system.singular_set()
    loop = big_circle_loop(singular, base)
    waypoints = list(reversed(loop.waypoints)) if clockwise \
        else loop.waypoints
    return integrate_along(system, waypoints, tol)


# --- simultaneous triangularization -----------------------------------------


def _lie_closure(matrices, max_dim=None, tol=1e-12):
    """Basis of the Lie algebra generated by the matrices (as a list)."""
    if not matrices:
        return []
    n = matrices[0].shape[0]
    max_dim = max_dim or n * n
    basis = []
    vecs = []

    def try_add(m):
        v = m.reshape(-1)
        scale = float(np.max(np.abs(v)))
        if scale < tol:
            return False
        v = v / scale
        for u in vecs:
            v = v - (u.conj() @ v) * u
        norm = float(np.linalg.norm(v))
        if norm < tol:
            return False
        vecs.append(v / norm)
        basis.append(m / scale)
        return True

    queue = [np.asarray(m, dtype=complex) for m in matrices]
    while queue:
        m = queue.pop()
        if not try_add(m):
            continue
        if len(basis) >= max_dim:
            break
        for b in list(basis[:-1]):
            queue.append(basis[-1] @ b - b @ basis[-1])
    return basis


def _common_eigenvector(matrices, tol):
    """A unit vector that is an eigenvector of every matrix, or None.

    Walks the eigenspaces of the first matrix and intersects with invariant
    conditions of the rest; eigenvalue clusters within the relative
    tolerance are merged and flagged through the second return value.
    """
    n = matrices[0].shape[0]
    ambiguous = False
    spaces = [np.eye(n, dtype=complex)]
    for mat in matrices:
        new_spaces = []
        for Q in spaces:
            if Q.shape[1] == 0:
                continue
            sub = np.linalg.pinv(Q) @ (mat @ Q)
            vals = np.linalg.eigvals(sub)
            clusters = []
            for v in vals:
                for c in clusters:
                    if abs(v - c[0]) <= tol * max(1.0, abs(c[0])):
                        c[1] += 1
                        break
                else:
                    clusters.append([v, 1])
            if len(clusters) < len(vals):
                ambiguous = True
            for lam, _count in clusters:
                shifted = (mat @ Q) - lam * Q
                _u, s, vh = np.linalg.svd(shifted, full_matrices=True)
                rank = int(np.sum(s > tol * max(1.0, float(s[0]))
                                  if len(s) else 0))
                null_dim = Q.shape[1] - rank
                if null_dim <= 0:
                    continue
                kernel = vh.conj().T[:, rank:]
                new_spaces.append(Q @ kernel)
        spaces = new_spaces
        if not spaces:
            return None, ambiguous
    for Q in spaces:
        if Q.shape[1] >= 1:
            v = Q[:, 0]
            return v / np.linalg.norm(v), ambiguous
    return None, ambiguous


def simultaneous_triangularizable(matrices, tol: float = EIG_CLUSTER_TOL):
    """Common triangularization via Lie closure + eigenvector deflation.

    Returns a dict: {"triangularizable": True, "basis": U, "ambiguous": b}
    with U unitary and every U^-1 M U upper triangular to tolerance, or
    {"triangularizable": False, "witness": (i, j, subspace)} naming two
    closure generators with no common eigenvector on the current subspace.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    total_u = np.eye(n, dtype=complex)
    ambiguous_any = False
    level = 0
    current = mats
    while level < n - 1:
        size = n - level
        closure = _lie_closure(current)
        if not closure:
            break  # everything commutes with everything: diagonalizable
        vec, ambiguous = _common_eigenvector(closure, tol)
        ambiguous_any = ambiguous_any or ambiguous
        if vec is None:
            witness = _obstruction_witness(closure, tol)
            return {"triangularizable": False,
                    "witness": witness,
                    "level": level,
                    "basis_so_far": total_u,
                    "ambiguous": ambiguous_any}
        # unitary completing vec as first column
        Q = _complete_basis(vec)
        current = [ (Q.conj().T @ m @ Q)[1:, 1:] for m in current ]
        embed = np.eye(n, dtype=complex)
        embed[level:, level:] = Q
        total_u = total_u @ embed
        level += 1
    return {"triangularizable": True, "basis": total_u,
            "ambiguous": ambiguous_any}


def _complete_basis(vec):
    """Unitary matrix whose first column is the given unit vector."""
    n = len(vec)
    cols = [np.asarray(vec, dtype=complex)]
    for k in range(n):
        if len(cols) == n:
            break
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        for u in cols:
            v = v - (u.conj() @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-10:
            cols.append(v / norm)
    return np.column_stack(cols)


def _obstruction_witness(closure, tol):
    """Two closure members with no common eigenvector, as an explicit pair."""
    for i in range(len(closure)):
        for j in range(i + 1, len(closure)):
            vec, _amb = _common_eigenvector([closure[i], closure[j]], tol)
            if vec is None:
                return (i, j, closure[i], closure[j])
    return (0, len(closure) - 1, closure[0], closure[-1])


def triangularization_defect(matrices, basis) -> float:
    """Max below-diagonal magnitude of the conjugated matrices, relative."""
    worst = 0.0
    inv = np.linalg.inv(basis)
    for m in matrices:
        t = inv @ np.asarray(m, dtype=complex) @ basis
        scale = max(1.0, float(np.max(np.abs(t))))
        below = np.tril(t, -1)
        worst = max(worst, float(np.max(np.abs(below))) / scale)
    return worst


def small_norm_verdict(system: FuchsianSystem,
                       tol: float = EIG_CLUSTER_TOL) -> Verdict:
    """Solvability-by-quadratures verdict through the triangularization test.

    Triangularizable residue matrices give Representable with an explicit
    iterated-integration schedule.  Otherwise the verdict is
    NotRepresentable CONDITIONAL on the small-norm hypothesis: the smallness
    threshold is not computable from its existence statement, so the
    computed norms are reported and the condition is stated explicitly.
    """
    if not system.matrices or all(float(np.max(np.abs(m))) == 0.0
                                  for m in system.matrices):
        return Verdict(VerdictStatus.REPRESENTABLE,
                       "all residue matrices vanish; solutions are constant",
                       extras={"schedule": ["y = constant vector"]})
    result = simultaneous_triangularizable(system.matrices, tol)
    norms = [float(np.linalg.norm(m, 2)) for m in system.matrices]
    if result["triangularizable"]:
        n = system.dimension
        schedule = []
        for row in range(n - 1, -1, -1):
            if row == n - 1:
                schedule.append(
                    f"solve row {row + 1}: scalar equation, "
                    f"y_{row + 1} = exp of a quadrature")
            else:
                schedule.append(
                    f"solve row {row + 1}: integrating factor exp-quadrature "
                    f"plus one quadrature of the known rows "
                    f"{row + 2}..{n}")
        return Verdict(
            VerdictStatus.REPRESENTABLE,
            "residue matrices are simultaneously triangularizable; the "
            "triangular system integrates by iterated quadratures",
            extras={"schedule": schedule,
                    "max_residue_norm": max(norms),
                    "ambiguous": result["ambiguous"]})
    return Verdict(
        VerdictStatus.NOT_REPRESENTABLE,
        "residue matrices are not simultaneously triangularizable; "
        "CONDITIONAL on the small-norm hypothesis (no explicit threshold "
        "is available), almost every solution is strongly non-representable "
        "by generalized quadratures",
        extras={"max_residue_norm": max(norms),
                "conditional": True,
                "witness_pair": [int(result["witness"][0]),
                                 int(result["witness"][1])],
                "ambiguous": result["ambiguous"]})
