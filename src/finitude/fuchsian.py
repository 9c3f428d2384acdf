"""Numeric monodromy of Fuchsian systems and simultaneous triangularization.

A Fuchsian system Y' = (sum_k A_k/(x - p_k)) Y is transported along the
loop tree of the scalar monodromy module by Taylor series in steps of half
the distance to the nearest pole.  A scalar Cauchy majorant bounds each
truncated tail, the steps of a piece sharing ``fuchsian_tol``; each loop's
``truncation_bound`` propagates these bounds to the 2-norm of the error of
its matrix, to first order (round-off is not in it).
The simultaneous-triangularizability test runs the Lie-Kolchin recipe: build
the Lie closure of the residue matrices, find a common eigenvector, deflate,
recurse; failure returns a two-generator obstruction witness.  The
small-coefficient criterion is reported conditionally, since the smallness
threshold is an existence statement with no formula to evaluate.
"""

from __future__ import annotations

import math

import numpy as np

from .config import EIG_CLUSTER_TOL, FUCHSIAN_TOL
from .errors import IterationLimitExceeded, SingularOnPath
from .monodromy import (SingularSet, auto_base_point, big_circle_loop,
                        bridged, generate_loops, highway_legs)
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
        # what the transport reads: [A_1 ... A_r] and the ||A_k||_2
        self.stacked = np.hstack(self.matrices) if self.matrices else None
        self.norms = [float(np.linalg.norm(m, 2)) for m in self.matrices]

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

    def __init__(self, base_point, loops, matrices, truncation_bounds):
        self.base_point = complex(base_point)
        self.loops = list(loops)
        self.matrices = [np.asarray(m) for m in matrices]
        self.condition_estimates = [float(np.linalg.cond(m))
                                    for m in self.matrices]
        self.truncation_bounds = list(truncation_bounds)

    def report(self):
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "matrices": [[[[v.real, v.imag] for v in row] for row in m]
                         for m in self.matrices],
            "condition_estimates": self.condition_estimates,
            "truncation_bound": self.truncation_bounds,
        }


# --- Taylor transport ----------------------------------------------------

# A step goes at most this fraction of the distance to the nearest pole, so
# every series is summed at no more than half its radius.
STEP_FRACTION = 0.5
# A pole nearer to the path than this, relative to |c| plus the piece's
# length, leaves the differences c - p_k with too few correct digits.
POLE_FLOOR = 1e-9
MAX_STEPS = 10_000  # per piece
MAX_ORDER = 400


def _step_points(system: FuchsianSystem, piece):
    """Points along the piece, each at most STEP_FRACTION of the distance
    to the nearest pole from the one before."""
    points, u = [piece.start], 0.0
    while u < 1.0:
        c = points[-1]
        rho = min((abs(c - p) for p in system.poles), default=math.inf)
        if rho <= POLE_FLOOR * (abs(c) + piece.length):
            raise SingularOnPath(f"pole within {rho:.3g} of the path at "
                                 f"x = {c:.6g}")
        if len(points) > MAX_STEPS:
            raise IterationLimitExceeded(
                f"more than {MAX_STEPS} transport steps near x = {c:.6g}")
        u = min(1.0, u + STEP_FRACTION * rho / piece.length)
        points.append(piece.at(u))
    return points


def _majorant_order(norms, ratios, tol):
    """Order N and tail bound B <= tol of a truncated step series.

    The matrix recurrence run on the norms a_k = ||A_k|| and the ratios
    e_k >= |h/(c - p_k)| gives t_m >= ||T_m h^m||.  Once m + 1 > g =
    sum a_k e_k/(r - e_k), for any r in (max e_k, 1), induction gives
    t_j <= tau r^(j-m) for all j >= m, tau = max(t_m, sum a_k w_k/(m + 1 - g)),
    so the terms from order N on sum to at most B = tau/(1 - r).
    """
    r = (1.0 + max(ratios)) / 2.0
    g = sum(a * e / (r - e) for a, e in zip(norms, ratios))
    t, w = 1.0, [0.0] * len(norms)
    for m in range(MAX_ORDER):
        if m + 1 > g:
            bound = t * max(1.0, m / (m + 1 - g)) / (1.0 - r)  # sum a w = m t
            if bound <= tol:
                return m, bound
        w = [e * (t + wk) for e, wk in zip(ratios, w)]
        t = sum(a * wk for a, wk in zip(norms, w)) / (m + 1)
    raise IterationLimitExceeded(
        f"transport series needs more than {MAX_ORDER} terms")


def integrate_along(system: FuchsianSystem, piece, tol: float = FUCHSIAN_TOL):
    """Transfer matrix of Y' = A(x) Y along one path piece, and a bound on
    the 2-norm of its truncation error.

    A step from c to c + h sums Y(c + t) = sum T_m t^m, T_0 = I.  With
    d_k = c - p_k, W_k <- (T_m - W_k)/d_k and T_{m+1} = sum A_k W_k/(m + 1)
    give the next coefficient.  The recurrence runs on T_m h^m for all
    steps of the piece at once, until each step's tail is within
    tol/steps; those bounds are propagated through the steps' product.
    """
    n = system.dimension
    if piece.length == 0 or not system.poles:
        return np.eye(n, dtype=complex), 0.0
    points = np.array(_step_points(system, piece))
    centers = points[:-1, None]
    ratios = (points[1:, None] - centers) / (centers - np.array(system.poles))
    steps, count = len(centers), len(system.poles)
    order, step_bound = _majorant_order(
        system.norms, np.abs(ratios).max(axis=0).tolist(), tol / steps)
    # T_m h^m of step s is T[:, s n:(s + 1) n] and its W_k is
    # W[k n:(k + 1) n, s n:(s + 1) n]: one matmul by [A_1 ... A_r]/(m + 1)
    # gives the next term of every step
    stacked = system.stacked / np.arange(1, order)[:, None, None]
    T = np.tile(np.eye(n, dtype=complex), steps)
    total = T.copy()
    W = np.zeros((count * n, steps * n), dtype=complex)
    blocks = W.reshape(count, n, steps, n)
    ratios = ratios.T[:, None, :, None]
    for m in range(order - 1):
        np.subtract(T.reshape(n, steps, n), blocks, out=blocks)
        blocks *= ratios
        np.matmul(stacked[m], W, out=T)
        total += T
    total = total.reshape(n, steps, n).transpose(1, 0, 2)
    transfer = total[0]
    for step in total[1:]:
        transfer = step @ transfer
    # prod(||F_j|| + b) - prod(||F_j||) bounds the error of the product
    norms = np.linalg.svd(total, compute_uv=False)[:, 0]
    bound = float(np.prod(norms)
                  * np.expm1(np.sum(np.log1p(step_bound / norms))))
    return transfer, bound


def transport(system: FuchsianSystem, pieces, tol: float = FUCHSIAN_TOL,
              start=None):
    """Transfer matrix and its error bound along the bridged pieces, after
    ``start`` (the identity by default), as the branch tracker walks them."""
    M, bound = start or (np.eye(system.dimension, dtype=complex), 0.0)
    for piece in bridged(pieces):
        F, e_F = integrate_along(system, piece, tol)
        bound = (np.linalg.norm(F, 2) * bound
                 + e_F * (np.linalg.norm(M, 2) + bound))
        M = F @ M
    return M, bound


def system_monodromy(system: FuchsianSystem, tol: float = FUCHSIAN_TOL,
                     base=None) -> MonodromyMatrices:
    """Monodromy matrices along the standard generator loops.

    Loop geometry and ordering are shared with the scalar monodromy module
    (highway construction, counterclockwise, ascending spoke angle).  With
    matrices[k] the monodromy of loops[k], the left-to-right product
    matrices[0] @ matrices[1] @ ... equals the matrix of one big
    counterclockwise circle around all poles (same travel convention as the
    scalar ordered product: rightmost factor is traveled first).

    The loop tree is walked as monodromy_group walks it, so
    M_k = E_k^-1 C_k E_k with E_k from the base to the circle entry and C_k
    once around the circle, and its truncation bound is, to first order,
    ||E^-1|| (e_E (||M|| + ||C||) + e_C ||E||).
    """
    singular = system.singular_set()
    if base is None:
        base = auto_base_point(singular)
    loops = generate_loops(singular, base)
    mats, bounds = [], []
    highway = None
    for loop, leg in highway_legs(loops, base):
        highway = transport(system, [leg], tol, highway)
        E, e_E = transport(system, loop.spoke, tol, highway)
        C, e_C = integrate_along(system, loop.circle, tol)
        M = np.linalg.solve(E, C @ E)
        sigma = np.linalg.svd(E, compute_uv=False)
        mats.append(M)
        bounds.append(float((e_E * (np.linalg.norm(M, 2) + np.linalg.norm(C, 2))
                             + e_C * sigma[0]) / sigma[-1]))
    return MonodromyMatrices(base, loops, mats, bounds)


def monodromy_at_infinity(system: FuchsianSystem, tol: float = FUCHSIAN_TOL,
                          base=None) -> np.ndarray:
    """The matrix of one big counterclockwise circle around all poles."""
    loop = big_circle_loop(system.singular_set(), base)
    return transport(system, loop.pieces, tol)[0]


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
