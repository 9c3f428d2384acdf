"""Finite permutation groups at desk scale (degree <= 32).

Permutations are tuples of 0-based images internally and print 1-based in
disjoint-cycle notation, identity "()".  Groups carry a lazily built
stabilizer chain (base + strong generating set, textbook Schreier-Sims) used
for order, membership, and element enumeration.

Solvability is the derived series reaching the trivial group.  k-solvability
follows the normal-chain definition whose quotients are abelian or embed in
S_k; we decide it through the composition factors: a finite group admits such
a chain exactly when every composition factor is cyclic or embeds into S_k,
since composition factors of subgroups of S_k are themselves isomorphic to
subgroups of S_k.  Simple factors are recognized by order (with the one
classical order collision resolved by element orders), and anything outside
the recognition table raises SearchBudgetExceeded instead of guessing.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import (DegreeTooLarge, NotApplicable, NotTransitive,
                     SearchBudgetExceeded)

MAX_DEGREE = 32
K_SOLVABLE_MAX_DEGREE = 16
ELEMENT_BUDGET = 10**6

# --- permutations as image tuples ------------------------------------------


def identity(n: int):
    return tuple(range(n))


def compose(p, q):
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def conjugate(g, h):
    """h g h^-1."""
    return compose(h, compose(g, inverse(h)))


def commutator(a, b):
    """a^-1 b^-1 a b."""
    return compose(inverse(a), compose(inverse(b), compose(a, b)))


def cycles(p):
    """Disjoint cycles of p as point lists, fixed points included, in the
    order of their least points, each starting there."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        if cycle:
            out.append(cycle)
    return out


def cycle_type(p):
    """Sorted tuple of cycle lengths, fixed points included."""
    return tuple(sorted(len(c) for c in cycles(p)))


def perm_order(p):
    result = 1
    for length in set(cycle_type(p)):
        result = result * length // gcd(result, length)
    return result


def cycles_string(p) -> str:
    """Disjoint-cycle text with 1-based labels; identity prints as "()"."""
    return "".join("(" + " ".join(str(k + 1) for k in c) + ")"
                   for c in cycles(p) if len(c) > 1) or "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int):
    """Inverse of cycles_string; labels are 1-based in the text."""
    img = list(range(degree))
    body = text.strip()
    if body in ("", "()"):
        return tuple(img)
    if not _CYCLE_RE.findall(body):
        raise ValueError(f"cannot parse permutation {text!r}")
    for cyc in _CYCLE_RE.findall(body):
        labels = [int(tok) - 1 for tok in cyc.replace(",", " ").split()]
        if not labels:
            continue
        if any(not 0 <= v < degree for v in labels):
            raise ValueError(f"label out of range in {text!r}")
        for a, b in zip(labels, labels[1:] + labels[:1]):
            img[a] = b
    return tuple(img)


# --- stabilizer chain --------------------------------------------------------


def _transversal(point, gens, n):
    """Orbit of ``point`` under ``gens``, each orbit point mapped to a
    coset representative: a depth-first walk where b = g(a) gets g*rep(a)."""
    transversal = {point: identity(n)}
    frontier = [point]
    while frontier:
        a = frontier.pop()
        rep = transversal[a]
        for gen in gens:
            b = gen[a]
            if b not in transversal:
                transversal[b] = compose(gen, rep)
                frontier.append(b)
    return transversal


class _ChainNode:
    """One level of a stabilizer chain (recursive Schreier-Sims).

    ``gens`` holds the strong generators that move this level's base point;
    generators fixing it live further down in ``stab``.  The transversal maps
    each orbit point to a full coset representative.
    """

    __slots__ = ("n", "point", "gens", "transversal", "stab")

    def __init__(self, n):
        self.n = n
        self.point = None
        self.gens = []
        self.transversal = {}
        self.stab = None

    def order(self):
        if self.point is None:
            return 1
        return len(self.transversal) * self.stab.order()

    def all_gens(self):
        if self.point is None:
            return []
        return self.gens + self.stab.all_gens()

    def sift(self, p):
        node = self
        while node.point is not None:
            rep = node.transversal.get(p[node.point])
            if rep is None:
                return p
            p = compose(inverse(rep), p)
            node = node.stab
        return p

    def add_gen(self, p) -> bool:
        """Extend the chain by p; False when p is already in the group."""
        p = self.sift(p)
        if p == identity(self.n):
            return False
        self._add_new(p)
        return True

    def _add_new(self, p):
        if self.point is None:
            for i, img in enumerate(p):
                if img != i:
                    self.point = i
                    break
            else:
                return
            self.stab = _ChainNode(self.n)
        if p[self.point] == self.point:
            self.stab._add_new(p)
        else:
            self.gens.append(p)
        gens = self.all_gens()
        self.transversal = _transversal(self.point, gens, self.n)
        for a, rep in list(self.transversal.items()):
            for gen in gens:
                w = compose(gen, rep)
                schreier = compose(inverse(self.transversal[w[self.point]]), w)
                self.stab.add_gen(schreier)

    def levels(self):
        out = []
        node = self
        while node.point is not None:
            out.append(node)
            node = node.stab
        return out


class PermGroup:
    """Immutable permutation group on {1..n} given by generators."""

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise ValueError("degree must be positive")
        if degree > MAX_DEGREE:
            raise DegreeTooLarge(f"degree {degree} exceeds cap {MAX_DEGREE}")
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_cycles(g, degree)
            g = tuple(g)
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
            if g != identity(degree) and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None
        self._order = None
        self._series = None

    # --- constructors ----------

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, [])

    @staticmethod
    def symmetric(n: int) -> "PermGroup":
        if n == 1:
            return PermGroup.trivial(1)
        gens = [tuple([1, 0] + list(range(2, n)))]
        if n > 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        return PermGroup(n, gens)

    @staticmethod
    def cyclic(n: int) -> "PermGroup":
        return PermGroup(n, [tuple(list(range(1, n)) + [0])])

    @staticmethod
    def from_cycles(degree: int, *cycle_strings) -> "PermGroup":
        return PermGroup(degree, [parse_cycles(s, degree)
                                  for s in cycle_strings])

    # --- Schreier-Sims ----------

    @staticmethod
    def _with_chain(root: _ChainNode, generators) -> "PermGroup":
        """The group of ``generators``, ``root`` grown by them in order."""
        group = PermGroup(root.n, generators)
        group._chain, group._order = root, root.order()
        return group

    def _build_chain(self):
        if self._chain is None:
            root = _ChainNode(self.degree)
            for g in self.generators:
                root.add_gen(g)
            self._chain, self._order = root, root.order()

    def order(self) -> int:
        self._build_chain()
        return self._order

    def contains(self, g) -> bool:
        if isinstance(g, str):
            g = parse_cycles(g, self.degree)
        self._build_chain()
        return self._chain.sift(tuple(g)) == identity(self.degree)

    def elements(self, budget: int = ELEMENT_BUDGET):
        """Iterate all elements via transversal products (order-capped)."""
        if self.order() > budget:
            raise SearchBudgetExceeded(
                f"group order {self.order()} exceeds enumeration budget",
                budget=budget)
        self._build_chain()
        result = [identity(self.degree)]
        for level in reversed(self._chain.levels()):
            reps = list(level.transversal.values())
            result = [compose(r, g) for r in reps for g in result]
        return result

    # --- basic structure ----------

    def is_trivial(self) -> bool:
        return not self.generators

    def orbits(self):
        n = self.degree
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            frontier = [start]
            while frontier:
                pt = frontier.pop()
                for g in self.generators:
                    img = g[pt]
                    if not seen[img]:
                        seen[img] = True
                        orbit.append(img)
                        frontier.append(img)
            out.append(sorted(orbit))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def stabilizer(self, point0: int) -> "PermGroup":
        """Stabilizer of a 0-based point, via Schreier generators."""
        n = self.degree
        transversal = _transversal(point0, self.generators, n)
        gens = set()
        for pt, rep in transversal.items():
            for g in self.generators:
                schreier = compose(inverse(transversal[g[pt]]),
                                   compose(g, rep))
                if schreier != identity(n):
                    gens.add(schreier)
        gens = sorted(gens)
        if len(gens) <= 8:
            return PermGroup(n, gens)
        # drop generators already generated by the earlier ones
        root = _ChainNode(n)
        return PermGroup._with_chain(root, [g for g in gens
                                            if root.add_gen(g)])

    def normal_closure(self, elements) -> "PermGroup":
        """Smallest subgroup containing ``elements`` normalized by self; one
        stabilizer chain grows as the generators are accepted."""
        root = _ChainNode(self.degree)
        closure_gens = []
        queue = [tuple(e) for e in elements]
        while queue:
            g = queue.pop()
            if root.add_gen(g):
                closure_gens.append(g)
                queue.extend(conjugate(g, h) for h in self.generators)
        return PermGroup._with_chain(root, closure_gens)

    def derived_subgroup(self) -> "PermGroup":
        comms = [commutator(a, b)
                 for i, a in enumerate(self.generators)
                 for b in self.generators[:i]]
        return self.normal_closure(comms)

    def derived_series(self):
        """G >= G' >= G'' ... until stabilization, a tuple built once."""
        if self._series is None:
            series = [self]
            while not series[-1].is_trivial():
                nxt = series[-1].derived_subgroup()
                if nxt.order() == series[-1].order():
                    break
                series.append(nxt)
            self._series = tuple(series)
        return self._series

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_trivial()


# --- k-solvability -----------------------------------------------------------

# order -> (name, minimal faithful permutation degree) for the non-abelian
# simple groups that can appear as composition factors at degree <= 16
_SIMPLE_TABLE = {
    60: ("A5", 5),
    168: ("PSL(3,2)", 7),
    360: ("A6", 6),
    504: ("PSL(2,8)", 9),
    660: ("PSL(2,11)", 11),
    1092: ("PSL(2,13)", 14),
    2520: ("A7", 7),
    5616: ("PSL(3,3)", 13),
    7920: ("M11", 11),
    95040: ("M12", 12),
    181440: ("A9", 9),
    1814400: ("A10", 10),
    19958400: ("A11", 11),
    239500800: ("A12", 12),
    3113510400: ("A13", 13),
    43589145600: ("A14", 14),
    653837184000: ("A15", 15),
    10461394944000: ("A16", 16),
}
_ORDER_20160 = 20160  # A8 vs PSL(3,4): only A8 has elements of order 15


def _identify_simple(group: PermGroup):
    """(name, minimal faithful degree) of a non-abelian simple group."""
    order = group.order()
    if order == _ORDER_20160:
        for g in group.elements():
            if perm_order(g) == 15:
                return ("A8", 8)
        return ("PSL(3,4)", 21)
    if order in _SIMPLE_TABLE:
        return _SIMPLE_TABLE[order]
    raise SearchBudgetExceeded(
        f"simple factor of order {order} not in the recognition table")


def _conjugacy_classes(group: PermGroup):
    """Conjugacy classes as lists of elements (enumeration-budget bound)."""
    elements = group.elements()
    unseen = set(elements)
    unseen.discard(identity(group.degree))
    classes = []
    while unseen:
        start = next(iter(unseen))
        orbit = {start}
        frontier = [start]
        while frontier:
            g = frontier.pop()
            for h in group.generators:
                c = conjugate(g, h)
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        unseen -= orbit
        classes.append(sorted(orbit))
    return classes


def _minimal_normal_subgroup(group: PermGroup) -> PermGroup:
    """A minimal nontrivial normal subgroup.

    Every minimal normal subgroup is the normal closure of any of its
    non-identity elements, so scanning one representative per conjugacy
    class finds one of minimal order.
    """
    best = None
    for cls in _conjugacy_classes(group):
        closure = group.normal_closure([cls[0]])
        if best is None or closure.order() < best.order():
            best = closure
            if best.order() <= 2:
                break
    if best is None:
        raise ValueError("trivial group has no minimal normal subgroup")
    return best


def composition_factors(group: PermGroup):
    """Multiset of composition factor descriptors.

    Abelian factors are reported as ('cyclic', p); non-abelian simple ones
    as ('simple', name, order, minimal_degree).  The computation walks the
    derived series first (those quotients are abelian, contributing cyclic
    factors) and then splits the perfect core along its orbits; a
    transitive core is identified when it is simple, and a proper minimal
    normal subgroup raises SearchBudgetExceeded.
    """
    factors = []
    series = group.derived_series()
    for upper, lower in zip(series, series[1:]):
        q = upper.order() // lower.order()
        factors.extend(_abelian_factor_primes(q))
    core = series[-1]
    _core_factors(core, factors)
    return factors


def _abelian_factor_primes(q: int):
    out = []
    d = 2
    while d * d <= q:
        while q % d == 0:
            out.append(("cyclic", d))
            q //= d
        d += 1
    if q > 1:
        out.append(("cyclic", q))
    return out


def _core_factors(core: PermGroup, factors):
    if core.is_trivial():
        return
    moved = [o for o in core.orbits() if len(o) > 1]
    if len(moved) > 1 or (moved and len(moved[0]) < core.degree):
        # split along the restriction to one moved orbit: factors(core) =
        # factors(image on orbit) + factors(kernel of the restriction)
        orbit = moved[0]
        image, kernel = _orbit_restriction(core, orbit)
        factors.extend(composition_factors(image))
        factors.extend(composition_factors(kernel))
        return
    minimal = _minimal_normal_subgroup(core)
    if minimal.order() < core.order():
        # core/minimal is a nontrivial perfect group, so it has a nonabelian
        # simple quotient and order >= 60 > MAX_DEGREE: its coset action
        # cannot be built
        raise SearchBudgetExceeded(
            f"coset action of index {core.order() // minimal.order()} "
            "exceeds degree cap")
    name, mu = _identify_simple(core)
    factors.append(("simple", name, core.order(), mu))


def _orbit_restriction(group: PermGroup, orbit):
    """(image on the orbit as a PermGroup, kernel of the restriction)."""
    index = {pt: k for k, pt in enumerate(orbit)}
    gens = []
    for g in group.generators:
        gens.append(tuple(index[g[pt]] for pt in orbit))
    image = PermGroup(len(orbit), gens)
    kernel = group
    for pt in orbit:
        kernel = kernel.stabilizer(pt)
    return image, kernel


def is_k_solvable(group: PermGroup, k: int):
    """Decide k-solvability; returns (bool, witness chain).

    The witness is a list of (description, order) steps of a
    normal-in-previous chain with quotient types annotated.
    SearchBudgetExceeded propagates when a factor cannot be recognized
    within the desk-scale table.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if group.degree > K_SOLVABLE_MAX_DEGREE:
        raise DegreeTooLarge(
            f"k-solvability search capped at degree {K_SOLVABLE_MAX_DEGREE}")
    witness = []
    series = group.derived_series()
    for upper, lower in zip(series, series[1:]):
        witness.append((f"abelian quotient of order "
                        f"{upper.order() // lower.order()}", lower.order()))
    core = series[-1]
    if core.is_trivial():
        return True, [("group", group.order())] + witness
    factors = []
    _core_factors(core, factors)
    for factor in factors:
        if factor[0] == "cyclic":
            witness.append((f"abelian quotient C_{factor[1]}", None))
            continue
        _, name, order, mu = factor
        if mu > k:
            return False, [(f"composition factor {name} needs S_{mu}", order)]
        witness.append((f"factor {name} embeds in S_{k}", order))
    return True, [("group", group.order())] + witness


# --- transitivity refinements -------------------------------------------------


def is_primitive(group: PermGroup) -> bool:
    """Block-system test; requires transitivity."""
    if not group.is_transitive():
        raise NotTransitive("primitivity is defined for transitive groups")
    n = group.degree
    if n == 1:
        return True
    for other in range(1, n):
        # minimal block containing {0, other} via union-find closure
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                return True
            return False

        union(0, other)
        changed = True
        while changed:
            changed = False
            for g in group.generators:
                for i in range(n):
                    j = find(i)
                    if i == j:
                        continue
                    if union(g[i], g[j]):
                        changed = True
        block_size = sum(1 for i in range(n) if find(i) == find(0))
        if block_size < n:
            return False
    return True


def full_cycles(group: PermGroup, budget: int = ELEMENT_BUDGET):
    """All full cycles found: generators always checked, then the element
    enumeration when the order fits the budget."""
    n = group.degree
    found = [g for g in group.generators if cycle_type(g) == (n,)]
    if group.order() <= budget:
        for g in group.elements(budget):
            if cycle_type(g) == (n,) and g not in found:
                found.append(g)
    return found


def classify_primitive_solvable_with_cycle(group: PermGroup):
    """Classify a primitive solvable group with a full cycle.

    Returns either {"case": "size4"} for degree 4, or
    {"case": "affine", "p": p, "relabeling": perm, "affine_maps": [(a, b)]}
    where relabeling[point] is the F_p label under which every generator
    acts as x -> a x + b.  Hypothesis failures raise NotApplicable saying
    which hypothesis broke.
    """
    if not group.is_transitive():
        raise NotApplicable("group is not transitive")
    if not is_primitive(group):
        raise NotApplicable("group is not primitive")
    if not group.is_solvable():
        raise NotApplicable("group is not solvable")
    full = full_cycles(group)
    if not full:
        raise NotApplicable("group has no full cycle")
    n = group.degree
    if n == 4:
        return {"case": "size4"}
    if not _is_prime(n):
        raise NotApplicable(
            f"degree {n} is neither 4 nor prime; hypotheses cannot hold")
    sigma = full[0]
    # label sigma^j(0) as j in F_p; then sigma acts as x -> x + 1
    label = [0] * n
    for j, pt in enumerate(cycles(sigma)[0]):
        label[pt] = j
    affine_maps = []
    for g in group.generators:
        # g acts on labels: x -> a x + b must match on all points
        b = None
        a = None
        images = [0] * n
        for point in range(n):
            images[label[point]] = label[g[point]]
        b = images[0]
        a = (images[1] - b) % n
        for x in range(n):
            if images[x] != (a * x + b) % n:
                raise NotApplicable(
                    "no affine relabeling exists for this full cycle")
        affine_maps.append((a, b))
    return {"case": "affine", "p": n, "relabeling": tuple(label),
            "affine_maps": affine_maps}


def _is_prime(n: int) -> bool:
    return _abelian_factor_primes(n) == [("cyclic", n)]
