"""Numeric monodromy of Fuchsian systems and simultaneous triangularization.

A Fuchsian system Y' = (sum_k A_k/(x - p_k)) Y is transported by Taylor
series, in steps of half the distance to the nearest pole, along the loop
tree that the scalar monodromy module builds around the poles: its edges,
one loop per pole, are a highway leg, a spoke and a circle each.  Every
step of every piece of the tree runs through one coefficient recurrence,
each step summing to its own piece's order.  A scalar Cauchy majorant
bounds each truncated tail, the steps of a piece sharing ``fuchsian_tol``;
each loop's ``truncation_bound`` propagates these bounds to the 2-norm of
the error of its matrix, to first order (round-off is not in it), and a
matrix whose condition number reaches 2^53 is flagged as beyond double
precision.
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
import sys

import numpy as np

from .config import FUCHSIAN_TOL
from .errors import IterationLimitExceeded, SingularOnPath
from .monodromy import (auto_base_point, big_circle_loop, bridged,
                        generate_loops)
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
        if len(dims) > 1 or any(m.ndim != 2 or m.shape[0] != m.shape[1]
                                for m in self.matrices):
            raise ValueError("residue matrices must be square, same size")
        self.dimension = self.matrices[0].shape[0] if self.matrices else 0
        # what the transport reads: [A_1 ... A_r] and the ||A_k||_2
        self.stacked = np.hstack(self.matrices) if self.matrices else None
        self.norms = (np.linalg.svd(np.array(self.matrices), compute_uv=False)
                      [:, 0].tolist() if self.matrices else [])

    @staticmethod
    def from_json(data) -> "FuchsianSystem":
        """The system of {"poles": [p, ...], "matrices": [[[a, ...], ...],
        ...]}, every pole and entry a [re, im] pair of finite numbers;
        ValueError names the first fault of any other input."""
        if not isinstance(data, dict):
            raise ValueError("a Fuchsian system is a JSON object")
        for key in ("poles", "matrices"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        poles = [_number(p) for p in _items(data["poles"], "poles")]
        matrices = [[[_number(v) for v in _items(row, "a matrix row")]
                     for row in _items(rows, "a matrix")]
                    for rows in _items(data["matrices"], "matrices")]
        return FuchsianSystem(poles, matrices)

    def __repr__(self):
        return (f"FuchsianSystem(N={self.dimension}, "
                f"poles={[f'{p:.3g}' for p in self.poles]})")


def _items(value, what):
    """``value``, the JSON list ``what``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {value!r:.60}")
    return value


def _number(pair):
    """re + i im of a [re, im] pair of finite JSON numbers."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in pair)):
        raise ValueError(f"expected a [re, im] pair of finite numbers, "
                         f"not {pair!r:.60}")
    return complex(*pair)


# cond(M) times the unit round-off 2^-53 at 1 or more: the computed M_k may
# have no correct digit
COND_LIMIT = 2.0 ** 53


class MonodromyMatrices:
    """One invertible matrix per generator loop, identity-normalized, with
    its 2-norm condition number and truncation bound; ``ill_conditioned``
    lists the loops whose matrix double precision cannot hold."""

    def __init__(self, base_point, loops, matrices, truncation_bounds,
                 condition_estimates):
        self.base_point = complex(base_point)
        self.loops = list(loops)
        self.matrices = [np.asarray(m) for m in matrices]
        self.truncation_bounds = list(truncation_bounds)
        self.condition_estimates = list(condition_estimates)
        self.ill_conditioned = [k for k, c in enumerate(condition_estimates)
                                if c >= COND_LIMIT]

    def report(self):
        report = {
            "base_point": [self.base_point.real, self.base_point.imag],
            "matrices": [[[[v.real, v.imag] for v in row] for row in m]
                         for m in self.matrices],
            "condition_estimates": self.condition_estimates,
            "truncation_bound": self.truncation_bounds,
        }
        if self.ill_conditioned:
            report["ill_conditioned"] = self.ill_conditioned
        return report


# --- Taylor transport ----------------------------------------------------

# A step goes at most this fraction of the distance to the nearest pole, so
# every series is summed at no more than half its radius.
STEP_FRACTION = 0.5
# A pole nearer to the path than this, relative to |c| plus the piece's
# length, leaves the differences c - p_k with too few correct digits.
POLE_FLOOR = 1e-9
MAX_STEPS = 10_000  # per piece
MAX_ORDER = 400
_ORDER_BLOCK = 8  # orders between two tests of the series tails


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


def _majorant_orders(norms, ratios, tols):
    """Order N and tail bound B <= tol of each piece's truncated step series,
    ``ratios`` holding the e_k of each piece as a row (one column per pole)
    and ``tols`` the tol of each piece.

    The matrix recurrence run on the norms a_k = ||A_k|| and the ratios
    e_k >= |h/(c - p_k)| gives t_m >= ||T_m h^m||.  Once m + 1 > g =
    sum a_k e_k/(r - e_k), for any r in (max e_k, 1), induction gives
    t_j <= tau r^(j-m) for all j >= m, tau = max(t_m, sum a_k w_k/(m + 1 - g)),
    so the terms from order N on sum to at most B = tau/(1 - r).  The scalar
    recurrence runs for all pieces at once, its sums over the poles taken
    in pole order; the test is made every _ORDER_BLOCK orders, on the t_m
    kept since the last one.
    """
    e = ratios.T  # poles x pieces
    a = np.array(norms)[:, None]
    r = (1.0 + e.max(axis=0)) / 2.0
    orders = np.full(len(tols), -1)
    bounds = np.zeros(len(tols))
    history = np.empty((_ORDER_BLOCK, len(tols)))
    t, w = np.ones(len(tols)), np.zeros_like(e)
    # huge residues overflow t on the way to IterationLimitExceeded
    with np.errstate(all="ignore"):
        g = np.add.reduce(a * e / (r - e), axis=0)
        for m in range(MAX_ORDER):
            history[m % _ORDER_BLOCK] = t
            if m % _ORDER_BLOCK == _ORDER_BLOCK - 1 or m == MAX_ORDER - 1:
                low = m - m % _ORDER_BLOCK
                ms = np.arange(low, m + 1)[:, None]
                tail = (history[:m + 1 - low]
                        * np.maximum(1.0, ms / (ms + 1 - g))  # sum a w = m t
                        / (1.0 - r))
                done = (ms + 1 > g) & (tail <= tols) & (orders < 0)
                found = done.any(axis=0)
                first = done.argmax(axis=0)[found]
                orders[found] = low + first
                bounds[found] = tail[first, found]
                if orders.min() >= 0:
                    return orders, bounds
            w = e * (t + w)
            t = np.add.reduce(a * w, axis=0) / (m + 1)
    raise IterationLimitExceeded(
        f"transport series needs more than {MAX_ORDER} terms")


def integrate_along(system: FuchsianSystem, pieces, tol: float = FUCHSIAN_TOL):
    """Transfer matrix of Y' = A(x) Y along each path piece, and a bound on
    the 2-norm of its truncation error: one (transfer, bound) per piece.

    A step from c to c + h sums Y(c + t) = sum T_m t^m, T_0 = I.  With
    d_k = c - p_k, W_k <- (T_m - W_k)/d_k and T_{m+1} = sum A_k W_k/(m + 1)
    give the next coefficient.  The recurrence runs on T_m h^m for all
    steps of all pieces at once, and each step sums its own piece's orders,
    until each step's tail is within tol/steps of its piece; those bounds
    are propagated through the steps' product.  A failure is raised for the
    first piece, in the given order, that fails.
    """
    n = system.dimension
    results = [None] * len(pieces)
    moving, points, failure = [], [], None
    for j, piece in enumerate(pieces):
        if piece.length == 0 or not system.poles:
            results[j] = (np.eye(n, dtype=complex), 0.0)
            continue
        try:
            points.append(_step_points(system, piece))
        except (SingularOnPath, IterationLimitExceeded) as exc:
            failure = exc  # raised once the pieces before it pass
            break
        moving.append(j)
    if not moving:
        if failure is not None:
            raise failure
        return results
    steps = np.array([len(p) - 1 for p in points])
    first = np.concatenate([[0], np.cumsum(steps)[:-1]])
    centers = np.array([c for p in points for c in p[:-1]])
    ends = np.array([c for p in points for c in p[1:]])
    ratios = ((ends - centers)[:, None]
              / (centers[:, None] - np.array(system.poles)))
    orders, step_bounds = _majorant_orders(
        system.norms, np.maximum.reduceat(np.abs(ratios), first, axis=0),
        tol / steps)
    if failure is not None:
        raise failure
    # the steps as columns, by descending order of their piece: at order m
    # the steps still summing are a prefix.  T_m h^m of column s is
    # T[:, s n:(s + 1) n] and its W_k is W[k n:(k + 1) n, s n:(s + 1) n]:
    # one matmul by [A_1 ... A_r]/(m + 1) gives the next term of every column
    owner = np.repeat(np.arange(len(points)), steps)
    columns = np.argsort(-orders[owner], kind="stable")
    active = np.searchsorted(-orders[owner][columns],
                             -np.arange(1, orders.max())).tolist()
    count, width = len(system.poles), len(columns)
    stacked = system.stacked / np.arange(1, orders.max())[:, None, None]
    T = np.tile(np.eye(n, dtype=complex), width)
    total = T.copy()
    W = np.zeros((count * n, width * n), dtype=complex)
    blocks = W.reshape(count, n, width, n)
    terms = T.reshape(n, width, n)
    ratios = ratios[columns].T[:, None, :, None]
    for m, live in enumerate(active):
        block, cut = blocks[:, :, :live], live * n
        np.subtract(terms[:, :live], block, out=block)
        block *= ratios[:, :, :live]
        np.matmul(stacked[m], W[:, :cut], out=T[:, :cut])
        total[:, :cut] += T[:, :cut]
    sums = np.empty((width, n, n), dtype=complex)  # back in step order
    sums[columns] = total.reshape(n, width, n).transpose(1, 0, 2)
    # prod(||F_j|| + b) - prod(||F_j||) bounds the error of the product
    norms = np.linalg.svd(sums, compute_uv=False)[:, 0]
    logs = np.log1p(step_bounds[owner] / norms)
    bounds = (np.multiply.reduceat(norms, first)
              * np.expm1(np.add.reduceat(logs, first))).tolist()
    for j, start, size, bound in zip(moving, first.tolist(), steps.tolist(),
                                     bounds):
        transfer = sums[start]
        for step in sums[start + 1:start + size]:
            transfer = step @ transfer
        results[j] = (transfer, bound)
    return results


def _multiply(M, transfers, measured):
    """F_j ... F_1 M for the transfers (F_j, e_j) in order, and one link
    (e_j, i, i + 1) per transfer: F_j is measured[i] and the matrix it
    multiplies measured[i + 1]."""
    links = []
    for F, e in transfers:
        links.append((e, len(measured), len(measured) + 1))
        measured += [F, M]
        M = F @ M
    return M, links


def _chain_bound(links, norms):
    """The first-order error bound of a product from the identity along its
    links: b <- ||F|| b + e (||M|| + b), the norms read from ``norms``."""
    bound = 0.0
    for e, f, m in links:
        bound = norms[f] * bound + e * (norms[m] + bound)
    return bound


def system_monodromy(system: FuchsianSystem,
                     tol: float = FUCHSIAN_TOL) -> MonodromyMatrices:
    """Monodromy matrices along the standard generator loops.

    Loop geometry and ordering are shared with the scalar monodromy module
    (highway construction, counterclockwise, ascending spoke angle).  With
    matrices[k] the monodromy of loops[k], the left-to-right product
    matrices[0] @ matrices[1] @ ... equals the matrix of one big
    counterclockwise circle around all poles (same travel convention as the
    scalar ordered product: rightmost factor is traveled first).

    The edges of the loop tree are walked as monodromy_group walks them,
    so M_k = E_k^-1 C_k E_k, with E_k along the legs so far and the k-th
    spoke, from the base to the circle entry, and C_k once around the
    circle.  Its truncation bound is, to first order,
    ||E^-1|| (e_E (||M|| + ||C||) + e_C ||E||).  Every piece of the tree is
    transported by one integrate_along call; the products follow in walk
    order, and every norm comes from one SVD call after them.
    """
    n = system.dimension
    base = auto_base_point(system.poles)
    loops = generate_loops(system.poles, base)
    transfers = iter(integrate_along(
        system, [piece for loop in loops
                 for piece in (loop.leg, *loop.spoke, loop.circle)], tol))
    # measured: every matrix a bound reads the norm of; a loop's E, C and
    # M_k follow its links there
    measured, highway, walked = [], [], []
    M = np.eye(n, dtype=complex)
    for loop in loops:
        M, links = _multiply(M, [next(transfers)], measured)
        highway += links
        E, links = _multiply(M, [next(transfers) for _ in loop.spoke],
                             measured)
        C, e_C = next(transfers)
        walked.append((highway + links, e_C, len(measured)))
        measured += [E, C, np.linalg.solve(E, C @ E)]
    if not walked:  # no poles
        return MonodromyMatrices(base, loops, [], [], [])
    sigma = np.linalg.svd(np.array(measured), compute_uv=False)
    norms = sigma[:, 0].tolist()
    bounds = []
    for links, e_C, at in walked:
        s_E, s_C, s_M = sigma[at:at + 3]
        bounds.append(float((_chain_bound(links, norms) * (s_M[0] + s_C[0])
                             + e_C * s_E[0]) / s_E[-1]))
    s_M = sigma[[at + 2 for _links, _e, at in walked]]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s_M[:, 0] / s_M[:, -1]  # np.linalg.cond, from the same SVD
    cond[np.isnan(cond)] = np.inf
    return MonodromyMatrices(base, loops,
                             [measured[at + 2] for _links, _e, at in walked],
                             bounds, cond.tolist())


def monodromy_at_infinity(system: FuchsianSystem,
                          tol: float = FUCHSIAN_TOL) -> np.ndarray:
    """The matrix of one big counterclockwise circle around all poles."""
    base = auto_base_point(system.poles)
    pieces = list(bridged(big_circle_loop(system.poles, base)))
    return _multiply(np.eye(system.dimension, dtype=complex),
                     integrate_along(system, pieces, tol), [])[0]


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
