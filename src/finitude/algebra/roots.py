"""Certified numeric root finding.

Strategy: exact square-free decomposition first, so every root that the
iteration sees is simple; companion-matrix eigenvalues seed a simultaneous
Aberth-Ehrlich iteration; a posteriori each approximation gets an inclusion
disk from the classical bound |z - root| <= n |p(z)/p'(z)| for square-free p.
Where double evaluation of that bound is too coarse (a cluster of close
roots), callers may ask for it to be evaluated exactly at a ``refine_root``
point instead.

``refine_root`` carries one root past double precision: Newton on the exact
Q(i) coefficients, each iterate rounded to a fixed dyadic grid.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..config import ROOT_TOL
from ..errors import IterationLimitExceeded, ZeroPolynomial
from .gaussian import GaussianRational, rationalize_complex
from .poly import UnivariatePolynomial, squarefree_factorization

# refine_root rounds its iterates to multiples of 2^-REFINE_BITS; far below
# double precision, and small enough that the exact iteration stays cheap
REFINE_BITS = 128
_REFINE_STEPS = 12


class ComplexInterval:
    """A disk |z - center| <= radius certified to contain a root."""

    __slots__ = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        if not (radius >= 0 and math.isfinite(radius)):
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "center", complex(center))
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexInterval is immutable")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius

    def overlaps(self, other: "ComplexInterval") -> bool:
        return abs(self.center - other.center) <= self.radius + other.radius

    def __repr__(self):
        return f"ComplexInterval({self.center!r}, {self.radius:.3g})"


def _complex_coeffs(p: UnivariatePolynomial) -> np.ndarray:
    return np.array([complex(c) for c in p.coeffs], dtype=complex)


def value_and_slope(cs, z):
    """p(z) and p'(z) by Horner, for p with coefficients cs, highest power
    first."""
    p = d = 0j
    for c in cs:
        d = d * z + p
        p = p * z + c
    return p, d


def _companion_seeds(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    if n == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    monic = coeffs / coeffs[-1]
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)

def _aberth(coeffs: np.ndarray, tol: float, max_iter: int = 200) -> np.ndarray:
    """Simultaneous refinement of all simple roots of a square-free poly."""
    z = _companion_seeds(coeffs).astype(complex)
    n = len(z)
    if n == 1:
        return z
    for _ in range(max_iter):
        moved = 0.0
        pv = np.empty(n, dtype=complex)
        dv = np.empty(n, dtype=complex)
        for k in range(n):
            pv[k], dv[k] = value_and_slope(coeffs[::-1], z[k])
        newton = np.where(dv != 0, pv / dv, 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = np.sum(1.0 / diff, axis=1) - 1.0  # remove diagonal's 1/1
        corr = newton / (1.0 - newton * sums)
        corr = np.where(np.isfinite(corr), corr, newton)
        z = z - corr
        moved = float(np.max(np.abs(corr)))
        if moved < tol * max(1.0, float(np.max(np.abs(z)))) * 1e-3:
            break
    return z


def _certify(coeffs: np.ndarray, z: complex) -> float:
    """Inclusion radius n |p(z)/p'(z)| (valid for square-free p)."""
    pv, dv = value_and_slope(coeffs[::-1], z)
    if dv == 0:
        return math.inf
    n = len(coeffs) - 1
    return n * abs(pv / dv)


def complex_roots(p: UnivariatePolynomial, tol: float = ROOT_TOL,
                  refine: bool = False):
    """All complex roots of ``p`` with multiplicity, as certified disks.

    Returns a list of (ComplexInterval, multiplicity) pairs.  Distinct roots
    of each square-free factor come in pairwise disjoint disks of radius
    <= tol; failure to reach that raises IterationLimitExceeded carrying the
    best enclosures found.  With ``refine``, a root that double evaluation
    cannot certify is first refined and certified exactly.
    """
    if p.is_zero():
        raise ZeroPolynomial("root finding on the zero polynomial")
    out = []
    for factor, mult in squarefree_factorization(p):
        coeffs = _complex_coeffs(factor)
        scale = float(np.max(np.abs(coeffs)))
        coeffs = coeffs / scale
        zs = _aberth(coeffs, tol)
        # polish with plain Newton to machine precision (centers should be
        # as accurate as doubles allow; the radius then certifies <= tol)
        radii = []
        for k in range(len(zs)):
            z = zs[k]
            best_z, best_rad = z, _certify(coeffs, z)
            for _ in range(60):
                pv, dv = value_and_slope(coeffs[::-1], z)
                if dv == 0:
                    break
                step = pv / dv
                if abs(step) <= 1e-17 * max(1.0, abs(z)):
                    break
                z = z - step
                rad = _certify(coeffs, z)
                if rad < best_rad:
                    best_z, best_rad = z, rad
                elif best_rad <= tol * 0.5:
                    break
            zs[k] = best_z
            radii.append(max(best_rad, 1e-300))
        enclosures = [ComplexInterval(z, r) for z, r in zip(zs, radii)]
        for k, enc in enumerate(enclosures):
            if enc.radius > tol and refine:
                # double evaluation is too coarse near a cluster of roots
                enc = _exact_enclosure(factor, enc.center) or enc
                enclosures[k] = enc
            if enc.radius > tol:
                raise IterationLimitExceeded(
                    f"could not certify root near {enc.center:.6g} to tol={tol}",
                    enclosures=enclosures)
            for other in enclosures[:k]:
                if enc.overlaps(other):
                    raise IterationLimitExceeded(
                        "root enclosures overlap; tolerance too coarse",
                        enclosures=enclosures)
        out.extend((enc, mult) for enc in enclosures)
    out.sort(key=lambda pair: (pair[0].center.real, pair[0].center.imag))
    return out


def _round_to_grid(c: GaussianRational) -> GaussianRational:
    scale = 1 << REFINE_BITS
    return GaussianRational(Fraction(round(c.re * scale), scale),
                            Fraction(round(c.im * scale), scale))


def _upper_abs(g: GaussianRational) -> float:
    """A float no smaller than |g|."""
    return abs(g) * (1 + 1e-15) + 1e-300


def _exact_enclosure(p: UnivariatePolynomial, z: complex):
    """An enclosure of the root of the square-free ``p`` near ``z``, centred
    on the double nearest an exact refinement c of ``z``: the radius is
    n |p(c)/p'(c)|, evaluated exactly, plus the distance from c to that
    double.  None when ``z`` approximates no root."""
    c = refine_root(p, z)
    if c is None:
        return None
    slope = p.derivative()(c)
    if slope.is_zero():
        return None
    center = complex(c)
    radius = (p.degree() * _upper_abs(p(c) / slope)
              + _upper_abs(c - GaussianRational.coerce(center)))
    return ComplexInterval(center, radius)


def refine_root(p: UnivariatePolynomial, z: complex):
    """A Q(i) point on the grid of spacing 2^-REFINE_BITS next to the root
    of ``p`` that ``z`` approximates, or None when ``z`` is not one.

    Newton runs in exact arithmetic, each iterate rounded to the grid, until
    it stops moving; for a simple root the result is within one spacing of
    it.  When the first step exceeds 1e-6 * max(1, |z|), ``z`` is taken to be
    no root of ``p`` and None is returned.
    """
    z = complex(z)
    dp = p.derivative()
    bound = Fraction(1e-6) * max(1, Fraction(abs(z)))
    c = _round_to_grid(GaussianRational.coerce(z))
    for k in range(_REFINE_STEPS):
        slope = dp(c)
        if slope.is_zero():
            return None
        step = p(c) / slope
        if k == 0 and step.re ** 2 + step.im ** 2 > bound ** 2:
            return None
        nxt = _round_to_grid(c - step)
        if nxt == c:
            break
        c = nxt
    return c


def exact_gaussian_roots(p: UnivariatePolynomial, tol: float = 1e-10):
    """Split p into certified Gaussian-rational roots and a residual factor.

    Returns (pairs, residual) where pairs is a list of (GaussianRational
    root, multiplicity) verified by exact division, and residual is the
    monic cofactor with no Gaussian-rational roots found.
    """
    residual = p.monic()
    found = []
    try:
        enclosures = complex_roots(p, tol)
    except IterationLimitExceeded as err:
        # huge roots cannot be certified to an absolute radius in doubles;
        # best-effort centers are fine here because every candidate is
        # verified by exact division below
        enclosures = [(enc, 1) for enc in err.enclosures]
    for enc, _mult in enclosures:
        cand = rationalize_complex(enc.center)
        lin = UnivariatePolynomial([-cand, 1])
        count = 0
        while residual.degree() >= 1:
            q, r = residual.divmod(lin)
            if not r.is_zero():
                break
            residual = q
            count += 1
        if count:
            found.append((cand, count))
    return found, residual
