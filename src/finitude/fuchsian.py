"""Numeric monodromy of Fuchsian systems and simultaneous triangularization.

A Fuchsian system Y' = (sum_k A_k/(x - p_k)) Y is transported along the
loop tree of the scalar monodromy module by Taylor series in steps of half
the distance to the nearest pole.  A scalar Cauchy majorant bounds each
truncated tail, the steps of a piece sharing ``fuchsian_tol``; each loop's
``truncation_bound`` propagates these bounds to the 2-norm of the error of
its matrix, to first order (round-off is not in it).
The residue matrices are tested for simultaneous triangularizability by
McCoy's criterion in trace form: the traces of every word of the algebra
they generate against every commutator of two of them vanish, to one
relative tolerance; failure names the residue pair with the largest trace.
No eigenvalues are computed.  The small-coefficient criterion is reported
conditionally, since the smallness threshold is an existence statement with
no formula to evaluate.
"""

from __future__ import annotations

import math

import numpy as np

from .config import FUCHSIAN_TOL
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
        return SingularSet(encl)

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

# The verdict's one threshold: on seeded draws the relative trace below is at
# most 2e-16 for triangularizable residues and at least 2e-2 for generic ones.
TRACE_TOL = 1e-8


def _algebra_basis(matrices):
    """Unit-norm words spanning the unital algebra the matrices generate.

    The span closure of I under left multiplication by each matrix: a word
    whose component outside the span so far is below TRACE_TOL of its norm
    adds nothing, and neither do its children.  A child A w of norm at most
    TRACE_TOL (both factors have unit norm) is taken as zero: a word that
    vanishes exactly, such as N^2 for a nilpotent N = S E12 S^-1, computes
    as rounding error, which scaled to unit norm would be an O(1) matrix
    outside the algebra.  At most n^2 words.
    """
    n = matrices[0].shape[0]
    words, frame = [], np.zeros((0, n * n), dtype=complex)
    queue = [np.eye(n, dtype=complex) / math.sqrt(n)]
    while queue and len(words) < n * n:
        w = queue.pop(0)
        v = w.reshape(-1)
        for _ in range(2):  # Gram-Schmidt twice keeps the frame orthonormal
            v = v - (frame.conj() @ v) @ frame
        norm = float(np.linalg.norm(v))
        if norm <= TRACE_TOL:
            continue
        frame = np.vstack([frame, v / norm])
        words.append(w)
        for A in matrices:
            child = A @ w
            size = float(np.linalg.norm(child))
            if size > TRACE_TOL:  # below it, rounding error of a zero word
                queue.append(child / size)
    return words


def simultaneous_triangularizable(matrices):
    """McCoy's criterion, in trace form.

    A_1..A_m are simultaneously triangularizable iff tr(w [A_i, A_j]) = 0
    for all i < j and every w in the unital algebra they generate (McCoy,
    Bull. AMS 42, 1936): the trace then vanishes on the ideal that the
    commutators generate, so its elements are nilpotent.  The margin is the
    largest |tr(w [A_i, A_j])| / (||w|| ||A_i|| ||A_j||) over a basis of
    words, Frobenius norms throughout; at most TRACE_TOL is triangularizable.

    Returns {"triangularizable": b, "margin": t}, and when b is false
    "witness": (i, j), the residue pair with the largest trace.  The word
    behind that trace may involve other residues, so with three or more
    the witness pair need not fail the test on its own.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    units = {k: m / np.linalg.norm(m) for k, m in enumerate(mats)
             if np.any(m)}  # a zero residue commutes with everything
    pairs = [(i, j) for i in units for j in units if i < j]
    if not pairs:
        return {"triangularizable": True, "margin": 0.0}
    words = np.array(_algebra_basis(list(units.values())))
    commutators = np.array([units[i] @ units[j] - units[j] @ units[i]
                            for i, j in pairs])
    traces = np.abs(np.einsum("wab,pba->wp", words, commutators)).max(axis=0)
    worst = int(np.argmax(traces))
    margin = float(traces[worst])
    if margin <= TRACE_TOL:
        return {"triangularizable": True, "margin": margin}
    return {"triangularizable": False, "margin": margin,
            "witness": pairs[worst]}


def small_norm_verdict(system: FuchsianSystem) -> Verdict:
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
    result = simultaneous_triangularizable(system.matrices)
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
                    "max_residue_norm": max(system.norms),
                    "margin": result["margin"]})
    return Verdict(
        VerdictStatus.NOT_REPRESENTABLE,
        "residue matrices are not simultaneously triangularizable; "
        "CONDITIONAL on the small-norm hypothesis (no explicit threshold "
        "is available), almost every solution is strongly non-representable "
        "by generalized quadratures",
        extras={"max_residue_norm": max(system.norms),
                "conditional": True,
                "witness_pair": list(result["witness"]),
                "margin": result["margin"]})
