"""Monodromy of algebraic functions by numerical analytic continuation.

Pipeline: certified singular points (roots of lc_y * disc_y, certified once
at ``root_tol``), deterministic petal loops from a real base point,
predictor-corrector tracking of all n branches along the tree of those
loops, end matching to the nearest start root within the separation margin,
and group closure through the permutation-group layer.  One tracker, the
float image of the curve, serves every path of a computation, and the
returned action keeps it for later continuations (the tower samples).
Every tracker step is checked (Newton contraction, each branch's
correction small against the distance to its nearest neighbour) but not
certified.

Conventions (fixed so reruns are bit-identical):

* base point auto rule: real, 1 + 2*max|singular point|;
* root labels at the base point sorted by (-Re, Im), so label 1 is the
  right-most root;
* loops ordered by ascending spoke angle swept counterclockwise from the
  base direction, with the angle taken in (0, 2 pi] (a singular point lying
  on the base direction closes the sweep, and its highway is the full
  circle), ties broken by descending modulus; circles are traversed
  counterclockwise;
* detours around blocking disks always go counterclockwise;
* the loops are the edges of one tree (``generate_loops``), each a
  highway leg from the previous spoke, a spoke down to its clearance
  circle, and the circle.  Branches are tracked along the legs in loop
  order, down each spoke once and around each circle from its entry; the
  way back is never walked, since the entry values carry the base labels.
  The pieces are segments and arcs; arcs and circles are stepped by
  angle, with the step size left to the step controller.  The Fuchsian
  transport walks the same edges;
* the ordered product of the generators (rightmost factor applied first,
  as in function composition) equals the permutation of one big
  counterclockwise circle around all singular points -- equivalently, the
  inverse of the clockwise traverse.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .algebra.poly import BivariatePolynomial, singular_locator
from .algebra.roots import complex_roots, value_and_slope
from .config import CONTINUATION_TOL, ROOT_TOL
from .errors import (BasePointTooClose, PathCollision, SingularOnPath,
                     SquareFreeRequired)
from .permgroups import PermGroup, compose, cycles_string

# Largest tracker step on an arc, in radians.  Around an n-cycle, a step of
# angle t errs in its Euler prediction by |1 + (e^{it} - 1)/n - e^{it/n}|
# / (2 sin(pi/n)) of the nearest separation: at pi/3, 0.067 for n = 2 and
# at most 0.082 for n <= 32 (0.038, 0.047 at pi/4); the check allows 0.25.
MAX_ARC_STEP = math.pi / 3
# Widest relative radius accepted for a singular point that root finding
# cannot separate to the requested tolerance.
LOCATOR_TOL = 1e-8


# --- paths ---------------------------------------------------------------------


class Segment:
    """Straight piece of a path: ``at(u) = start + u (end - start)``."""

    max_step = 1.0  # largest tracker step, in u

    def __init__(self, start: complex, end: complex):
        self.start = complex(start)
        self.end = complex(end)
        self.length = abs(self.end - self.start)

    def at(self, u: float) -> complex:
        return self.start + u * (self.end - self.start)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


class Arc:
    """Circular piece ``center + radius e^{i a}``, the angle a running from
    a0 to a1 (clockwise when a1 < a0): ``at(u)`` has a = a0 + (a1 - a0) u,
    so the tracker steps it by angle, at most MAX_ARC_STEP at a time."""

    def __init__(self, center: complex, radius: float, a0: float, a1: float):
        self.center = complex(center)
        self.radius = radius
        self.a0, self.a1 = a0, a1
        self.start = self.at(0.0)
        self.end = self.at(1.0)
        span = abs(a1 - a0)
        self.length = radius * span
        self.max_step = min(1.0, MAX_ARC_STEP / span) if span else 1.0

    def at(self, u: float) -> complex:
        return self.center + self.radius * cmath.exp(
            1j * (self.a0 + (self.a1 - self.a0) * u))

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.a1, self.a0)


def _arc(center, radius, a0, a1, ccw=True) -> Arc:
    """The arc from angle a0 to a1 in the given sense (a1 moved by whole
    turns as needed)."""
    if ccw:
        while a1 <= a0:
            a1 += 2 * math.pi
    else:
        while a1 >= a0:
            a1 -= 2 * math.pi
    return Arc(center, radius, a0, a1)


class TreeEdge(NamedTuple):
    """One edge of the loop tree, the loop around one singular point: the
    highway ``leg`` from the previous edge's spoke (from the base, for the
    first edge), the ``spoke`` pieces down to the clearance ``circle``, and
    the circle, counterclockwise from its entry."""

    singular_index: int
    leg: Arc
    spoke: list
    circle: Arc


class StepCounts(NamedTuple):
    """Tracker steps accepted and rejected, summed over the paths tracked."""

    accepted: int
    rejected: int


class MonodromyAction:
    """Base point, labeled roots, generator permutations, and the group,
    with the tracker (the float image of the curve) that later
    continuations of the labeled roots reuse."""

    def __init__(self, polynomial, singular, base_point, roots,
                 loops, generators, group: PermGroup, tracker=None,
                 steps: StepCounts | None = None):
        self.polynomial = polynomial
        self.singular = singular  # the enclosures the loops were built around
        self.base_point = complex(base_point)
        self.roots = [complex(r) for r in roots]
        self.loops = list(loops)
        self.generators = [tuple(g) for g in generators]
        self.group = group
        self.transitive = group.is_transitive() if roots else True
        self.tracker = tracker
        # the monodromy's own tracker steps, not part of the report
        self.steps = steps

    def orbits(self):
        return self.group.orbits()

    def report(self, singular=None):
        data = {
            "base_point": [self.base_point.real, self.base_point.imag],
            "generators": [cycles_string(g) for g in self.generators],
            "group_order": self.group.order(),
            "transitive": self.transitive,
        }
        if singular is not None:
            data["singular_points"] = [[p.center.real, p.center.imag]
                                       for p in singular]
        return data

    def __repr__(self):
        return (f"MonodromyAction(order={self.group.order()}, "
                f"transitive={self.transitive})")


# --- singular points ---------------------------------------------------------


def singular_points(P: BivariatePolynomial, tol: float = ROOT_TOL):
    """Certified enclosures (ComplexInterval) of all roots of
    lc_y(P) * disc_y(P), in the order of ``complex_roots``.

    Ill-conditioned locator roots (nearly coincident singular points) whose
    enclosures stay wider than ``tol`` after the exact sweeps are accepted
    up to ``LOCATOR_TOL`` relative rather than failing; the returned radii
    are always genuine certificates.
    """
    if P.degree_y() < 2:
        raise SquareFreeRequired("need degree >= 2 in y")
    locator = singular_locator(P)
    pairs = [] if locator.degree() < 1 \
        else complex_roots(locator, tol, accept=max(tol, LOCATOR_TOL))
    return [enc for enc, _ in pairs]


# --- loop construction --------------------------------------------------------


def auto_base_point(centers) -> complex:
    radius = max((abs(c) for c in centers), default=0.0)
    return complex(1.0 + 2.0 * radius, 0.0)


def _clearance(centers, k, base):
    others = [abs(centers[k] - c) for i, c in enumerate(centers) if i != k]
    r = abs(centers[k] - base) / 2.0
    if others:
        r = min(r, min(others) / 3.0)
    return r


def _segment_with_detours(z0, z1, obstacles, depth=0, short_arcs=False):
    """Pieces from z0 to z1 avoiding obstacle disks (center, radius).

    Blocking disks are skirted on a counterclockwise arc by default (the
    homotopy-pinned choice for loop spokes); with ``short_arcs`` the detour
    takes whichever side is shorter, appropriate for sampling paths whose
    homotopy class is irrelevant.
    """
    if depth > 8:
        return [Segment(z0, z1)]
    direction = z1 - z0
    length = abs(direction)
    if length == 0:
        return [Segment(z0, z0)]
    unit = direction / length
    blocking = None
    for center, radius in obstacles:
        # distance of center from the segment
        s = ((center - z0) / unit).real
        if s <= 1e-12 or s >= length - 1e-12:
            continue
        dist = abs(z0 + s * unit - center)
        if dist < radius * 0.999:
            if blocking is None or s < blocking[0]:
                blocking = (s, center, radius)
    if blocking is None:
        return [Segment(z0, z1)]
    s, center, radius = blocking
    # chord intersections of the segment with the safety circle; when an
    # endpoint lies inside the disk the chord clips, the arc's ends sit off
    # the segment, and the path bridges them with chords
    half = math.sqrt(max(radius * radius
                         - abs(z0 + s * unit - center) ** 2, 0.0))
    t_in = max(s - half, 0.0)
    t_out = min(s + half, length)
    a = z0 + t_in * unit
    b = z0 + t_out * unit
    a0, a1 = cmath.phase(a - center), cmath.phase(b - center)
    ccw = True
    if short_arcs:
        span_ccw = (a1 - a0) % (2 * math.pi)
        ccw = span_ccw <= math.pi
    return (_segment_with_detours(z0, a, obstacles, depth + 1, short_arcs)
            + [_arc(center, radius, a0, a1, ccw=ccw)]
            + _segment_with_detours(b, z1, obstacles, depth + 1, short_arcs))


def _dist_to_ray(z, theta, r_lo, r_hi):
    """Distance from z to the radial segment {t e^{i theta}: r_lo <= t <= r_hi}."""
    w = z * cmath.exp(-1j * theta)  # rotate the ray onto the positive axis
    t = min(max(w.real, r_lo), r_hi)
    return abs(w - t)


def generate_loops(centers, base):
    """The loop tree around the singular points ``centers``, highway
    construction: one TreeEdge per point, in loop order.

    Each loop runs from the base along the circle of radius |base| (the
    highway) to the singular point's radial spoke, descends to its
    clearance circle, winds counterclockwise once, and retraces.  A spoke
    blocked by another disk skirts it on a counterclockwise detour arc that
    stays inside a thin tube around the ray, so spokes never cross.  Loop
    order: ascending spoke angle in (0, 2 pi] swept counterclockwise from
    the base direction (a point on the base direction closes the sweep, its
    highway being the full circle), ties broken by descending modulus; with
    this order the ordered product of the generators (rightmost applied
    first) equals the counterclockwise circle around everything.  The
    edges keep the highway only as legs, each from the previous spoke to
    its own, and each spoke with its gaps bridged, so that the legs,
    spokes and circles, walked in order, are the tree.
    """
    base = complex(base)
    R = abs(base)
    spoke = {k: (cmath.phase(c) if abs(c) > 0 else 0.0)
             for k, c in enumerate(centers)}
    radii = []
    for k, c in enumerate(centers):
        r = _clearance(centers, k, base)
        r = min(r, (R - abs(c)) / 2.0)
        # keep every disk clear of the other spokes' rays, so that detour
        # bulges never cross a neighboring spoke (pairwise-disjoint tubes)
        for i in range(len(centers)):
            if i == k:
                continue
            d = _dist_to_ray(c, spoke[i], abs(centers[i]), R)
            if d > 1e-9 * max(1.0, R):
                r = min(r, 0.45 * d)
        if r <= 0:
            raise BasePointTooClose(
                f"singular point {c:.6g} too close to the highway radius {R:.6g}")
        radii.append(r)
    base_angle = cmath.phase(base)

    def sweep(k):
        """(sort angle, highway angle) of spoke k from the base direction."""
        rel = (spoke[k] - base_angle) % (2 * math.pi)
        # snap to a coarse grid so float jitter in root phases cannot
        # scramble the tie-breaking of (near-)collinear points; a point on
        # the base direction itself closes the sweep (angle 2 pi, so it is
        # listed last and traveled first), after the full highway circle
        snapped = round(rel, 8)
        if snapped == 0.0 or snapped >= round(2 * math.pi, 8):
            return 2 * math.pi, (rel + 2 * math.pi if rel < math.pi else rel)
        return snapped, rel

    sweeps = {k: sweep(k) for k in range(len(centers))}
    # collinear points are passed on the counterclockwise side, which
    # attaches the farther point's petal first
    order = sorted(range(len(centers)),
                   key=lambda k: (sweeps[k][0], -abs(centers[k]), k))
    edges, angle = [], base_angle
    for k in order:
        c, r, phi = centers[k], radii[k], spoke[k]
        outer = R * cmath.exp(1j * phi)
        inner = c + r * cmath.exp(1j * phi)
        obstacles = [(centers[j], radii[j])
                     for j in range(len(centers)) if j != k]
        pieces = list(bridged(_segment_with_detours(outer, inner, obstacles)))
        end = _arc(0.0, R, base_angle, base_angle + sweeps[k][1],
                   ccw=True).a1
        a0 = cmath.phase(pieces[-1].end - c)
        edges.append(TreeEdge(k, Arc(0.0, R, angle, end), pieces,
                              _arc(c, r, a0, a0 + 2 * math.pi, ccw=True)))
        angle = end
    return edges


def big_circle_loop(centers, base):
    """The pieces of a path from base once counterclockwise around a circle
    enclosing every singular point, and back."""
    base = complex(base)
    radius = abs(base)  # centered at 0; base rule keeps all points inside
    if any(abs(c) >= radius * 0.999 for c in centers):
        radius = 2 * max(abs(c) for c in centers) + abs(base)
    a0 = cmath.phase(base)
    circle = _arc(0.0, radius, a0, a0 + 2 * math.pi, ccw=True)
    # walk out radially, circle, walk back
    return [Segment(base, circle.start), circle, Segment(circle.start, base)]


# --- branch tracking -----------------------------------------------------------


def _horner(coeffs, x):
    """The polynomial with coefficients ``coeffs``, highest power first, at x."""
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def bridged(pieces):
    """The pieces in order, with a chord bridging each gap of more than
    1e-12 between the end of one piece and the start of the next; the
    branch tracker and the Fuchsian transport walk this path."""
    x = None
    for piece in pieces:
        if x is not None and abs(piece.start - x) > 1e-12:
            yield Segment(x, piece.start)
        yield piece
        x = piece.end


def _nearest(ys):
    """Distance from each value to the nearest other one (inf when alone)."""
    near = [math.inf] * len(ys)
    for i, a in enumerate(ys):
        for j in range(i + 1, len(ys)):
            d = abs(a - ys[j])
            if d < near[i]:
                near[i] = d
            if d < near[j]:
                near[j] = d
    return near


def _min_separation(ys):
    """Smallest distance between two of the values (inf for fewer than two)."""
    return min(_nearest(ys), default=math.inf)


def _magnitude(ys):
    return max(1.0, max((abs(y) for y in ys), default=0.0))


class _Tracker:
    """Predictor-corrector continuation of all n branches of P(x, y) = 0
    along a path of segments and arcs, in plain complex arithmetic.  It
    holds the float image of P, its rows and those of dP/dx, built once per
    monodromy computation, and counts the steps of every path it tracks."""

    def __init__(self, P: BivariatePolynomial, tol: float):
        # x-coefficients of each y-power, highest first in both
        self.rows = [[complex(c) for c in reversed(row.coeffs)]
                     for row in reversed(P.rows)]
        dPx = P.derivative_x()
        self.rows_x = [[complex(c) for c in reversed(dPx.coefficient_y(j).coeffs)]
                       for j in range(P.degree_y(), -1, -1)]
        self.tol = tol
        self.accepted = self.rejected = 0
        self._x = self._cs = None

    def coefficients(self, x):
        """Coefficients of P(x, .), highest power of y first."""
        if x != self._x:
            self._x, self._cs = x, [_horner(row, x) for row in self.rows]
        return self._cs

    def _correct(self, x, ys):
        """Newton-correct all branches at x; accepted when the corrector
        contracts by >= 4 within three iterations, then polished to tol."""
        cs = self.coefficients(x)
        contracted = False
        for k in range(11):
            size, scale = 0.0, 1.0
            new = []
            for y in ys:
                p, d = value_and_slope(cs, y)
                if abs(d) < 1e-300:
                    return ys, False
                delta = p / d
                y -= delta
                new.append(y)
                a = abs(delta)
                if a > size:
                    size = a
                elif a != a:  # NaN
                    return ys, False
                if abs(y) > scale:
                    scale = abs(y)
            ys = new
            if size <= self.tol * scale:
                return ys, True
            if k == 0:
                first = size
            elif size <= first / 4.0:
                contracted = True
            elif k >= 3 and not contracted:
                return ys, False
        return ys, size <= 100 * self.tol * scale

    def _slopes(self, x, ys):
        """dy/dx = -P_x/P_y of each branch at x."""
        cs = self.coefficients(x)
        cs_x = [_horner(row, x) for row in self.rows_x]
        slopes = []
        for y in ys:
            d = value_and_slope(cs, y)[1]
            if abs(d) < 1e-300:
                raise SingularOnPath(f"P_y vanishes near x={x:.6g}")
            slopes.append(-_horner(cs_x, y) / d)
        return slopes

    def _step(self, x0, x1, ys, slopes):
        """Euler prediction from x0 to x1 along the slopes at x0, and Newton
        correction.  Returns None when the step is rejected, else the new
        values and the basin check's load: the largest ratio of a branch's
        correction to a quarter of its prediction's nearest separation."""
        dx = x1 - x0
        pred = [y + dx * s for y, s in zip(ys, slopes)]
        out, ok = self._correct(x1, pred)
        # equal predictions correct to equal values and are rejected here,
        # so no nearest distance below is 0
        if not ok or _min_separation(out) < 1e-12 * _magnitude(out):
            return None
        # stay within each root's own Newton basin, whose size is set by
        # how far that root is from the others
        load = max(abs(a - b) / (near / 4.0)
                   for a, b, near in zip(out, pred, _nearest(pred)))
        return (out, load) if load <= 1.0 else None

    def track(self, pieces, ys):
        """The branch values ys continued along the bridged pieces."""
        ys = [complex(y) for y in ys]
        for piece in bridged(pieces):
            ys = self._follow(piece, ys)
        return ys

    def _follow(self, piece, ys):
        """Step along one piece, with the slopes computed once per accepted
        point.  A rejected step halves h.  After an accepted one, h is
        scaled so that the basin check's load, which grows like h^2 (the
        Euler error), comes to about 0.64, and at most doubled."""
        if piece.length == 0:
            return ys
        t, h = 0.0, piece.max_step
        x0, slopes = piece.start, None
        while t < 1.0 - 1e-15:
            h = min(h, 1.0 - t)
            x1 = piece.at(t + h)
            if slopes is None:
                slopes = self._slopes(x0, ys)
            out = self._step(x0, x1, ys, slopes)
            if out is not None:
                self.accepted += 1
                ys, load = out
                x0, slopes = x1, None
                t += h
                h = min(piece.max_step,
                        h * (2.0 if load < 0.16 else 0.8 / math.sqrt(load)))
                continue
            self.rejected += 1
            h /= 2.0
            if h < 1e-12:
                sep = _min_separation(ys)
                if sep < 1e-6 * _magnitude(ys):
                    raise PathCollision(
                        f"branches within {sep:.3g} near x={x0:.6g}")
                raise SingularOnPath(f"continuation stalled near x={x0:.6g}")
        return ys


def continue_roots(tracker: _Tracker, pieces, start_roots):
    """Track all branches along the closed path ``pieces``; return the
    permutation.

    The result sigma maps tracked-branch index i to the label sigma[i] of
    the start root where branch i lands.
    """
    start = [complex(y) for y in start_roots]
    end = tracker.track(pieces, start)
    return match_end_roots(end, start, _min_separation(start) / 3.0)


def match_end_roots(end, start, margin):
    """Match each end root to its nearest start root: every distance must be
    finite and below ``margin`` (a third of the minimal start-root
    separation) and the matching a permutation.  Every other start root is
    then more than twice the margin away, so this is the unique minimal-cost
    perfect assignment."""
    sigma = []
    worst = 0.0
    for e in end:
        cost = [abs(e - s) for s in start]
        j = min(range(len(cost)), key=cost.__getitem__)
        sigma.append(j)
        worst = max(worst, cost[j])
    if not all(cmath.isfinite(e) for e in end) or not worst < margin:
        raise PathCollision(
            f"end matching distance {worst:.3g} exceeds margin {margin:.3g}")
    if len(set(sigma)) != len(sigma):
        raise PathCollision("two branches end at the same start root")
    return tuple(sigma)


def track_to_point(action: MonodromyAction, target: complex):
    """Continue the action's labeled roots from its base point to target,
    on its tracker.

    The path is the straight segment with short detour arcs around singular
    disks; branch values at the target follow the continuation of the
    labels along that specific path.
    """
    base = action.base_point
    centers = [p.center for p in action.singular]
    radii = [min(_clearance(centers, k, base), 0.05 * max(1.0, abs(base)))
             for k in range(len(centers))]
    obstacles = list(zip(centers, radii))
    path = _segment_with_detours(base, complex(target), obstacles,
                                 short_arcs=True)
    return action.tracker.track(path, action.roots)


def monodromy_group(P: BivariatePolynomial, tol: float = CONTINUATION_TOL,
                    root_tol: float = ROOT_TOL) -> MonodromyAction:
    """Monodromy action of the curve P(x, y) = 0.

    The group is generated by one permutation per singular point; for
    reducible curves the action is intransitive and orbit data is exposed
    on the returned object rather than refused.  The branches are tracked
    along the edges of the loop tree, in loop order: each highway leg, from
    the values at the end of the one before; each spoke once, down to its
    circle entry; and each circle from its entry, by continue_roots.  The
    entry values carry the base labels, so a circle's end matching is its
    loop's generator.
    The singular set is certified once, at ``root_tol``, and serves the
    report too; one tracker, tracking at ``tol``, serves every path.  The
    base roots are labeled in the order (-Re, Im).
    """
    import numpy as np  # only here: an algebraic request pays for numpy

    P = P.primitive_y()
    singular = singular_points(P, root_tol)
    centers = [p.center for p in singular]
    base = auto_base_point(centers)
    loops = generate_loops(centers, base)
    tracker = _Tracker(P, tol)
    cs = tracker.coefficients(complex(base))
    if abs(cs[0]) < 1e-300:
        raise SingularOnPath(f"leading coefficient vanishes at {base:.6g}")
    roots = sorted(np.roots(cs), key=lambda r: (-r.real, r.imag))
    generators = []
    values = roots
    for loop in loops:
        values = tracker.track([loop.leg], values)
        entry = tracker.track(loop.spoke, values)
        generators.append(continue_roots(tracker, [loop.circle], entry))
    group = PermGroup(max(P.degree_y(), 1), generators)
    steps = StepCounts(tracker.accepted, tracker.rejected)
    return MonodromyAction(P, singular, base, roots, loops, generators, group,
                           tracker, steps)


def loop_at_infinity_permutation(action: MonodromyAction,
                                 clockwise: bool = False):
    """Permutation along one large circle around all singular points."""
    pieces = big_circle_loop([p.center for p in action.singular],
                             action.base_point)
    if clockwise:
        pieces = [piece.reversed() for piece in reversed(pieces)]
    return continue_roots(action.tracker, pieces, action.roots)


def ordered_product(perms):
    """Product of permutations with the rightmost factor applied first."""
    if not perms:
        raise ValueError("empty product")
    acc = tuple(perms[-1])
    for p in reversed(list(perms)[:-1]):
        acc = compose(tuple(p), acc)
    return acc
