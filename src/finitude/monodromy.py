"""Monodromy of algebraic functions by numerical analytic continuation.

Pipeline: certified singular points (roots of lc_y * disc_y), deterministic
petal loops from a real base point, predictor-corrector tracking of all n
branches along each loop, end matching to the nearest start root within the
separation margin, and group closure through the permutation-group layer.

Conventions (fixed so reruns are bit-identical):

* base point auto rule: real, 1 + 2*max|singular point|;
* root labels at the base point sorted by (-Re, Im), so label 1 is the
  right-most root;
* loops ordered by ascending spoke angle swept counterclockwise from the
  base direction, with the angle taken in (0, 2 pi] (a singular point lying
  on the base direction closes the sweep), ties broken by descending
  modulus; circles are traversed counterclockwise, >= 64 waypoints;
* detours around blocking disks always go counterclockwise;
* the ordered product of the generators (rightmost factor applied first,
  as in function composition) equals the permutation of one big
  counterclockwise circle around all singular points -- equivalently, the
  inverse of the clockwise traverse.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra.poly import BivariatePolynomial, singular_locator
from .algebra.roots import complex_roots
from .config import CONTINUATION_TOL, ROOT_TOL
from .errors import (BasePointTooClose, IterationLimitExceeded,
                     PathCollision, SingularOnPath, SquareFreeRequired)
from .permgroups import PermGroup, cycles_string

CIRCLE_POINTS = 64


class SingularSet:
    """Certified enclosures of the singular points of a curve, with the exact
    locator polynomial they were certified from (None when given directly)."""

    def __init__(self, points, source: BivariatePolynomial, locator=None):
        self.points = list(points)  # ComplexInterval, deduplicated
        self.source = source
        self.locator = locator

    def recertify(self, tol: float) -> "SingularSet":
        """The same singular points certified at ``tol``, by root finding on
        the stored locator only (no new resultant)."""
        return SingularSet(_locator_roots(self.locator, tol), self.source,
                           self.locator)

    def centers(self):
        return [p.center for p in self.points]

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"SingularSet({[p.center for p in self.points]})"


class Loop:
    """Closed polyline from the base point encircling one singular point."""

    def __init__(self, base_point: complex, waypoints, singular_index: int):
        if abs(waypoints[0] - waypoints[-1]) > 1e-12:
            raise ValueError("loop waypoints must be closed")
        self.base_point = complex(base_point)
        self.waypoints = [complex(w) for w in waypoints]
        self.singular_index = singular_index

    def __repr__(self):
        return (f"Loop(around #{self.singular_index}, "
                f"{len(self.waypoints)} waypoints)")


class MonodromyAction:
    """Base point, labeled roots, generator permutations, and the group."""

    def __init__(self, polynomial, singular: SingularSet, base_point, roots,
                 loops, generators, group: PermGroup):
        self.polynomial = polynomial
        self.singular = singular  # the set the loops were built around
        self.base_point = complex(base_point)
        self.roots = [complex(r) for r in roots]
        self.loops = list(loops)
        self.generators = [tuple(g) for g in generators]
        self.group = group
        self.transitive = group.is_transitive() if roots else True

    def orbits(self):
        return self.group.orbits()

    def orbit_groups(self):
        """Per-orbit restricted actions (for reducible curves)."""
        out = []
        for orbit in self.group.orbits():
            index = {pt: k for k, pt in enumerate(orbit)}
            gens = [tuple(index[g[pt]] for pt in orbit)
                    for g in self.group.generators]
            out.append((orbit, PermGroup(len(orbit), gens)))
        return out

    def report(self, singular: SingularSet | None = None):
        data = {
            "base_point": [self.base_point.real, self.base_point.imag],
            "generators": [cycles_string(g) for g in self.generators],
            "group_order": self.group.order(),
            "transitive": self.transitive,
        }
        if singular is not None:
            data["singular_points"] = [[p.center.real, p.center.imag]
                                       for p in singular.points]
        return data

    def __repr__(self):
        return (f"MonodromyAction(order={self.group.order()}, "
                f"transitive={self.transitive})")


# --- singular points ---------------------------------------------------------


def singular_points(P: BivariatePolynomial,
                    tol: float = ROOT_TOL) -> SingularSet:
    """Certified enclosures of all roots of lc_y(P) * disc_y(P).

    Ill-conditioned locator roots (nearly coincident singular points) relax
    the enclosure radius in decades up to 1e-8 rather than failing; the
    returned radii are always genuine certificates.
    """
    if P.degree_y() < 2:
        raise SquareFreeRequired("need degree >= 2 in y")
    locator = singular_locator(P)
    return SingularSet(_locator_roots(locator, tol), P, locator)


def _locator_roots(locator, tol):
    if locator.degree() < 1:
        return []
    attempt = tol
    while True:
        try:
            enclosures = [enc for enc, _ in complex_roots(locator, attempt)]
            break
        except IterationLimitExceeded:
            attempt *= 10
            if attempt > 1e-8:
                raise
    return enclosures


# --- loop construction --------------------------------------------------------


def auto_base_point(singular: SingularSet) -> complex:
    radius = max((abs(c) for c in singular.centers()), default=0.0)
    return complex(1.0 + 2.0 * radius, 0.0)


def _clearance(centers, k, base):
    others = [abs(centers[k] - c) for i, c in enumerate(centers) if i != k]
    r = abs(centers[k] - base) / 2.0
    if others:
        r = min(r, min(others) / 3.0)
    return r


def _arc(center, radius, a0, a1, ccw=True, min_points=8):
    """Waypoints along a circular arc (endpoints included)."""
    if ccw:
        while a1 <= a0:
            a1 += 2 * math.pi
    else:
        while a1 >= a0:
            a1 -= 2 * math.pi
    span = abs(a1 - a0)
    count = max(min_points, int(CIRCLE_POINTS * span / (2 * math.pi)) + 1)
    return [center + radius * cmath.exp(1j * (a0 + (a1 - a0) * t / count))
            for t in range(count + 1)]


def _segment_with_detours(z0, z1, obstacles, depth=0, short_arcs=False):
    """Polyline from z0 to z1 avoiding obstacle disks (center, radius).

    Blocking disks are skirted on a counterclockwise arc by default (the
    homotopy-pinned choice for loop spokes); with ``short_arcs`` the detour
    takes whichever side is shorter, appropriate for sampling paths whose
    homotopy class is irrelevant.
    """
    if depth > 8:
        return [z0, z1]
    direction = z1 - z0
    length = abs(direction)
    if length == 0:
        return [z0]
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
        return [z0, z1]
    s, center, radius = blocking
    # chord intersections of the segment with the safety circle
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
    arc = _arc(center, radius, a0, a1, ccw=ccw)
    head = _segment_with_detours(z0, a, obstacles, depth + 1, short_arcs)
    tail = _segment_with_detours(b, z1, obstacles, depth + 1, short_arcs)
    # when an endpoint lies inside the disk the chord clips and the arc
    # endpoints sit off the segment; bridge explicitly
    out = head[:-1] if abs(arc[0] - a) <= 1e-12 else head
    out = out + arc
    out = out + (tail[1:] if abs(arc[-1] - b) <= 1e-12 else tail)
    return out


def _dist_to_ray(z, theta, r_lo, r_hi):
    """Distance from z to the radial segment {t e^{i theta}: r_lo <= t <= r_hi}."""
    w = z * cmath.exp(-1j * theta)  # rotate the ray onto the positive axis
    t = min(max(w.real, r_lo), r_hi)
    return abs(w - t)


def generate_loops(singular: SingularSet, base=None):
    """One counterclockwise loop per singular point, highway construction.

    Every loop runs from the base along the circle of radius |base| (the
    highway) to the singular point's radial spoke, descends to its
    clearance circle, winds counterclockwise once, and retraces.  A spoke
    blocked by another disk skirts it on a counterclockwise detour arc that
    stays inside a thin tube around the ray, so spokes never cross.  Loop
    order: ascending spoke angle in (0, 2 pi] swept counterclockwise from
    the base direction (a point on the base direction closes the sweep),
    ties broken by descending modulus; with this order the ordered product
    of the generators (rightmost applied first) equals the counterclockwise
    circle around everything.
    """
    centers = singular.centers()
    if base is None:
        base = auto_base_point(singular)
    base = complex(base)
    if not centers:
        return []
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

    def sort_key(k):
        rel = (spoke[k] - base_angle) % (2 * math.pi)
        # snap to a coarse grid so float jitter in root phases cannot
        # scramble the tie-breaking of (near-)collinear points; a point on
        # the base direction itself closes the sweep (angle 2 pi, so it is
        # listed last and traveled first)
        rel = round(rel, 8)
        if rel == 0.0 or rel >= round(2 * math.pi, 8):
            rel = 2 * math.pi
        # collinear points are passed on the counterclockwise side, which
        # attaches the farther point's petal first
        return (rel, -abs(centers[k]), k)

    order = sorted(range(len(centers)), key=sort_key)
    loops = []
    for k in order:
        c, r, phi = centers[k], radii[k], spoke[k]
        outer = R * cmath.exp(1j * phi)
        inner = c + r * cmath.exp(1j * phi)
        obstacles = [(centers[j], radii[j])
                     for j in range(len(centers)) if j != k]
        down = _segment_with_detours(outer, inner, obstacles)
        entry = down[-1]
        highway = _arc(0.0, R, base_angle,
                       base_angle + (phi - base_angle) % (2 * math.pi),
                       ccw=True)
        a0 = cmath.phase(entry - c)
        circle = _arc(c, r, a0, a0 + 2 * math.pi, ccw=True,
                      min_points=CIRCLE_POINTS)
        up = list(reversed(down))
        back = list(reversed(highway))
        waypoints = highway[:-1] + down[:-1] + circle + up[1:] + back[1:]
        if abs(waypoints[0] - base) > 1e-12:
            waypoints = [base] + waypoints
        if abs(waypoints[-1] - base) > 1e-12:
            waypoints = waypoints + [base]
        loops.append(Loop(base, waypoints, k))
    return loops


def big_circle_loop(singular: SingularSet, base=None) -> Loop:
    """A counterclockwise circle enclosing every singular point, based at base."""
    centers = singular.centers()
    if base is None:
        base = auto_base_point(singular)
    base = complex(base)
    radius = abs(base)  # centered at 0; base rule keeps all points inside
    if any(abs(c) >= radius * 0.999 for c in centers):
        radius = 2 * max(abs(c) for c in centers) + abs(base)
    a0 = cmath.phase(base)
    circle = _arc(0.0, radius, a0, a0 + 2 * math.pi, ccw=True,
                  min_points=4 * CIRCLE_POINTS)
    # walk out radially, circle, walk back
    start = radius * cmath.exp(1j * a0)
    return Loop(base, [base, start] + circle[1:] + [start, base], -1)


# --- branch tracking -----------------------------------------------------------


class _Tracker:
    """Vectorized predictor-corrector continuation of all n branches."""

    def __init__(self, P: BivariatePolynomial, tol: float = CONTINUATION_TOL):
        self.rows = [np.array([complex(c) for c in row.coeffs], dtype=complex)
                     if not row.is_zero() else np.zeros(1, dtype=complex)
                     for row in P.rows]
        dPx = P.derivative_x()
        self.rows_x = [np.array([complex(c) for c in row.coeffs], dtype=complex)
                       if not row.is_zero() else np.zeros(1, dtype=complex)
                       for row in (dPx.coefficient_y(j)
                                   for j in range(P.degree_y() + 1))]
        self.tol = tol
        self.n = P.degree_y()

    @staticmethod
    def _horner_scalar(coeffs, x):
        acc = 0j
        for c in coeffs[::-1]:
            acc = acc * x + c
        return acc

    def coeffs_at(self, x):
        return np.array([self._horner_scalar(row, x) for row in self.rows])

    def coeffs_x_at(self, x):
        return np.array([self._horner_scalar(row, x) for row in self.rows_x])

    @staticmethod
    def _eval_many(cs, ys):
        acc = np.zeros_like(ys)
        for c in cs[::-1]:
            acc = acc * ys + c
        return acc

    @staticmethod
    def _eval_deriv_many(cs, ys):
        dcs = cs[1:] * np.arange(1, len(cs))
        acc = np.zeros_like(ys)
        for c in dcs[::-1]:
            acc = acc * ys + c
        return acc

    def roots_at(self, x):
        """All n roots of P(x, .) at a non-singular x (via numpy)."""
        cs = self.coeffs_at(x)
        if abs(cs[-1]) < 1e-300:
            raise SingularOnPath(f"leading coefficient vanishes at {x:.6g}")
        return np.roots(cs[::-1])

    def _newton_step(self, x, ys, steps=3):
        """Newton-correct all branches at x; accepted when the corrector
        contracts by >= 4 within three iterations, then polished to tol."""
        cs = self.coeffs_at(x)
        first = None
        contracted = False
        size = math.inf
        for k in range(steps + 8):
            pv = self._eval_many(cs, ys)
            dv = self._eval_deriv_many(cs, ys)
            if np.any(np.abs(dv) < 1e-300):
                return ys, False, np.inf
            delta = pv / dv
            ys = ys - delta
            size = float(np.max(np.abs(delta)))
            scale = max(1.0, float(np.max(np.abs(ys))))
            if first is None:
                first = size
            if k >= 1 and size <= first / 4.0:
                contracted = True
            if k >= steps and not contracted and size > first / 4.0 \
                    and size > self.tol * scale:
                return ys, False, size
            if size <= self.tol * scale:
                return ys, True, size
        final_scale = max(1.0, float(np.max(np.abs(ys))))
        return ys, size <= 100 * self.tol * final_scale, size


    def track(self, waypoints, start):
        """Continue the root vector along the polyline; returns end values."""
        ys = np.array(start, dtype=complex)
        for a, b in zip(waypoints, waypoints[1:]):
            if a == b:
                continue
            t = 0.0
            h = 1.0
            while t < 1.0 - 1e-15:
                h = min(h, 1.0 - t)
                x0 = a + t * (b - a)
                x1 = a + (t + h) * (b - a)
                trial, ok = self._attempt_step(x0, x1, ys)
                if ok:
                    ys = trial
                    t += h
                    h = min(1.0, h * 2.0)
                else:
                    h /= 2.0
                    if h < 1e-12:
                        sep = self._min_separation(ys)
                        scale = max(1.0, float(np.max(np.abs(ys))))
                        if sep < 1e-6 * scale:
                            raise PathCollision(
                                f"branches within {sep:.3g} near x={x0:.6g}")
                        raise SingularOnPath(
                            f"continuation stalled near x={x0:.6g}")
        return ys

    def _attempt_step(self, x0, x1, ys):
        cs0 = self.coeffs_at(x0)
        dv = self._eval_deriv_many(cs0, ys)
        if np.any(np.abs(dv) < 1e-300):
            return ys, False
        px = self._eval_many(self.coeffs_x_at(x0), ys)
        pred = ys + (x1 - x0) * (-px / dv)
        out, ok, _size = self._newton_step(x1, pred)
        if not ok:
            return ys, False
        # stay safely within the local Newton basin: the correction must be
        # small against the separation of the predicted configuration
        sep = self._min_separation(pred)
        if not math.isfinite(sep):
            return out, True
        moved = float(np.max(np.abs(out - pred)))
        if moved > sep / 4.0:
            return ys, False
        if self._min_separation(out) < 1e-12 * max(1.0, float(np.max(np.abs(out)))):
            return ys, False
        return out, True

    @staticmethod
    def _min_separation(ys):
        n = len(ys)
        if n < 2:
            return math.inf
        diff = np.abs(ys[:, None] - ys[None, :])
        np.fill_diagonal(diff, np.inf)
        return float(np.min(diff))


def base_roots(P: BivariatePolynomial, base: complex):
    """Labeled roots at the base point: sorted by (-Re, Im)."""
    tracker = _Tracker(P)
    roots = tracker.roots_at(base)
    order = sorted(range(len(roots)),
                   key=lambda k: (-roots[k].real, roots[k].imag))
    return [roots[k] for k in order]


def continue_roots(P: BivariatePolynomial, loop: Loop, start_roots,
                   tol: float = CONTINUATION_TOL):
    """Track all branches around the loop; return the permutation.

    The result sigma maps tracked-branch index i to the label sigma[i] of
    the start root where branch i lands.
    """
    tracker = _Tracker(P, tol)
    start = np.array(start_roots, dtype=complex)
    end = tracker.track(loop.waypoints, start)
    return match_end_roots(end, start, tracker._min_separation(start) / 3.0)


def match_end_roots(end, start, margin):
    """Match each end root to its nearest start root: every distance must be
    finite and below ``margin`` (a third of the minimal start-root
    separation) and the matching a permutation.  Every other start root is
    then more than twice the margin away, so this is the unique minimal-cost
    perfect assignment."""
    cost = np.abs(end[:, None] - start[None, :])
    sigma = np.argmin(cost, axis=1)
    worst = float(np.max(cost[np.arange(len(end)), sigma], initial=0.0))
    if not np.all(np.isfinite(end)) or not worst < margin:
        raise PathCollision(
            f"end matching distance {worst:.3g} exceeds margin {margin:.3g}")
    if len(set(sigma.tolist())) != len(sigma):
        raise PathCollision("two branches end at the same start root")
    return tuple(int(j) for j in sigma)


def track_to_point(P: BivariatePolynomial, singular: SingularSet,
                   base: complex, start_roots, target: complex,
                   tol: float = CONTINUATION_TOL):
    """Continue the labeled roots from base to target.

    The path is the straight segment with short detour arcs around singular
    disks; branch values at the target follow the continuation of the
    labels along that specific path.
    """
    centers = singular.centers()
    radii = [min(_clearance(centers, k, base), 0.05 * max(1.0, abs(base)))
             for k in range(len(centers))]
    obstacles = list(zip(centers, radii))
    path = _segment_with_detours(complex(base), complex(target), obstacles,
                                 short_arcs=True)
    tracker = _Tracker(P, tol)
    return tracker.track(path, np.array(start_roots, dtype=complex))


def monodromy_group(P: BivariatePolynomial, tol: float = CONTINUATION_TOL,
                    base=None) -> MonodromyAction:
    """Monodromy action of the curve P(x, y) = 0.

    The group is generated by one permutation per singular point; for
    reducible curves the action is intransitive and orbit data is exposed
    on the returned object rather than refused.
    """
    P = P.primitive_y()
    singular = singular_points(P, min(tol, 1e-10))
    if base is None:
        base = auto_base_point(singular)
    loops = generate_loops(singular, base)
    roots = base_roots(P, base)
    generators = [continue_roots(P, loop, roots, tol) for loop in loops]
    group = PermGroup(max(P.degree_y(), 1), generators)
    return MonodromyAction(P, singular, base, roots, loops, generators, group)


def loop_at_infinity_permutation(P: BivariatePolynomial, singular, roots,
                                 base=None, tol: float = CONTINUATION_TOL,
                                 clockwise: bool = False):
    """Permutation along one large circle around all singular points."""
    loop = big_circle_loop(singular, base)
    waypoints = list(reversed(loop.waypoints)) if clockwise else loop.waypoints
    loop = Loop(loop.base_point, waypoints, -1)
    return continue_roots(P, loop, roots, tol)


def ordered_product(perms):
    """Product of permutations with the rightmost factor applied first."""
    if not perms:
        raise ValueError("empty product")
    from .permgroups import compose
    acc = tuple(perms[-1])
    for p in reversed(list(perms)[:-1]):
        acc = compose(tuple(p), acc)
    return acc
