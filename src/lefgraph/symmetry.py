"""Automorphism groups and what they average.

Covers the automorphism search, orbits of simplices, Lefschetz curvature,
the average Lefschetz number, the orbigraph quotient, and a verifier for
the three averaging identities (curvature sum, quotient Euler
characteristic, Burnside count).

The search finds a stabilizer chain: coset representatives, not every
element (Seress, *Permutation Group Algorithms*, 2003).  The average
Lefschetz number is the Euler characteristic of the invariant cochain
complex of the group the representatives generate: the signed count of
the simplex orbits whose stabilizer keeps orientation, with no rank, since
the ranks of the orbit coboundaries cancel in an alternating sum.  The
orbits of vertices and simplices are found from the representatives by one
union-find, so none of these needs another element.  The elements are
multiplied out from the representatives only where something iterates the
group.  Wherever every element's L(T) is computed anyway, as in the
averaging verifier, their mean must equal that average.  The curvature and
Burnside count fold in one fixed-simplex list per group element
(`FixedSimplexSweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .complexes import CliqueComplex, Simplex, build_complex
from .cohomology import CochainSpaces, SignedOrbits
from .dynamics import FixedSimplexRecord, GraphMap, fixed_simplices
from .graphs import Graph
from .reporting import TheoremCheck, VerificationError

# The automorphism search's largest graph, in vertices.
GROUP_CAP = 12
# The largest group whose elements are multiplied out and walked one by one:
# K_9's 9! elements take minutes, and each vertex more costs 10-15x.
ELEMENT_CAP = factorial(9)


class SymmetryError(ValueError):
    pass


class AutomorphismGroup:
    """A group of automorphisms of a graph, kept as a stabilizer chain.

    Level i holds coset representatives of the automorphisms fixing 0..i
    among those fixing 0..i-1: one for each image of i other than i.  Each
    element is t_0 o t_1 o ... with t_i the identity or a representative
    of level i, in exactly one way, so the order is the product over the
    levels of 1 + the number of representatives, and the representatives
    generate the group.  The elements are multiplied out only when
    something iterates the group: each is composed once, validated as a
    `GraphMap` and kept, sorted by image tuple, so the identity is first.
    A group of order above `ELEMENT_CAP` raises SymmetryError instead,
    before any element is built.
    """

    __slots__ = ("graph", "levels", "_elements")

    def __init__(self, graph: Graph, levels: tuple[tuple[GraphMap, ...], ...]):
        self.graph = graph
        self.levels = levels
        self._elements: tuple[GraphMap, ...] | None = None

    @property
    def representatives(self) -> tuple[GraphMap, ...]:
        """The coset representatives of every level, level by level."""
        return tuple(t for level in self.levels for t in level)

    @property
    def order(self) -> int:
        return prod(1 + len(level) for level in self.levels)

    @property
    def elements(self) -> tuple[GraphMap, ...]:
        if self._elements is None:
            if self.order > ELEMENT_CAP:
                raise SymmetryError(
                    f"|Aut| = {self.order} is above {ELEMENT_CAP}, the largest "
                    "group whose elements are walked one by one")
            images = [tuple(range(self.graph.n))]
            for level in reversed(self.levels):
                images += [tuple(t.image[v] for v in s) for t in level for s in images]
            images.sort()
            self._elements = tuple(GraphMap(self.graph, im) for im in images)
        return self._elements

    def identity(self) -> GraphMap:
        return GraphMap.identity(self.graph)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"AutomorphismGroup(order={self.order})"

    def vertex_orbits(self) -> list[tuple[int, ...]]:
        """Vertex orbits, each sorted, ordered by smallest member: the
        orbits of the group the representatives generate, found without
        multiplying out any element."""
        orbits = SignedOrbits(self.graph.n)
        for t in self.representatives:
            orbits.relate(t.image)
        return orbits.orbits()


def automorphism_group(g: Graph) -> AutomorphismGroup:
    """Aut(g) as a stabilizer chain, found by backtracking over vertices.

    Level i fixes 0..i-1 and, for each u != i, runs the search from the
    prefix 0, ..., i-1, u, stopping at the first automorphism it finds: the
    coset representative for i -> u, or none if i and u lie in different
    orbits of that stabilizer.  A candidate u for v must be unused, have
    v's degree, and pass one mask test, adj[u] & placed == wanted: placed
    is the set of images of 0..v-1 and wanted the set of images of v's
    earlier neighbors, so every earlier neighbor goes to a neighbor and
    every earlier non-neighbor to a non-neighbor.  These searches visit
    disjoint subtrees of the tree that enumerating every element walks, and stop each
    successful one at its first leaf.  That prunes hard enough for
    desk-scale graphs: up to `GROUP_CAP` vertices, and a larger graph
    raises SymmetryError.
    """
    if g.n > GROUP_CAP:
        raise SymmetryError(
            f"automorphism search capped at {GROUP_CAP} vertices (got {g.n})")
    n = g.n
    adj = g.adj
    degrees = [g.degree(v) for v in range(n)]
    image = [-1] * n

    def extend(v: int, candidates, placed: int) -> bool:
        """Map v, v + 1, ... on from the images of 0..v-1, whose set is placed."""
        if v == n:
            return True
        dv = degrees[v]
        wanted = 0  # the images of v's earlier neighbors
        m = adj[v] & ((1 << v) - 1)
        while m:
            low = m & -m
            wanted |= 1 << image[low.bit_length() - 1]
            m ^= low
        for u in candidates:
            if placed >> u & 1 or degrees[u] != dv or adj[u] & placed != wanted:
                continue
            image[v] = u
            if extend(v + 1, range(n), placed | 1 << u):
                return True
        return False

    levels = []
    for i in range(n):
        found = []
        for u in range(i + 1, n):
            image[:i] = range(i)
            if extend(i, (u,), (1 << i) - 1):
                found.append(GraphMap(g, image))
        levels.append(tuple(found))
    return AutomorphismGroup(g, tuple(levels))


def simplex_orbits_under_group(cx: CliqueComplex,
                               group: AutomorphismGroup) -> list[tuple[Simplex, ...]]:
    """Orbits of all simplices under the full group, sorted within and
    between, found from the coset representatives alone: in each dimension,
    the orbits of the maps they induce on the simplices."""
    out = []
    for k, level in enumerate(cx.by_dim):
        index = cx.index[k]
        orbits = SignedOrbits(len(level))
        for t in group.representatives:
            orbits.relate([index[t.image_simplex(x)] for x in level])
        out += [tuple(level[i] for i in orbit) for orbit in orbits.orbits()]
    return out


@dataclass(frozen=True)
class CurvatureTable:
    """Exact rational curvature per simplex, normalized by the group order."""

    values: dict[Simplex, Fraction]
    group_order: int

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def orbit_sums(self, orbits: list[tuple[Simplex, ...]]) -> list[Fraction]:
        return [sum((self.values[x] for x in orbit), Fraction(0))
                for orbit in orbits]


def lefschetz_curvature(cx: CliqueComplex, group: AutomorphismGroup) -> CurvatureTable:
    """kappa(x) = (1/|A|) * sum of i_T(x) over the stabilizer of x.

    Computed in one sweep: every fixed simplex of every group element
    contributes its index, then everything is divided by the group order.
    """
    return fixed_simplex_sweep(cx, group).curvature(group.order)


class FixedSimplexSweep:
    """Running totals of the fixed-simplex scans of a group's elements.

    Per simplex, the sum of the indices i_T(x) over the scanned elements
    that fix it; overall, the number of (element, fixed simplex) pairs and
    the set of scanned elements' image tuples.  One integer is kept per
    simplex, not the scans.
    """

    __slots__ = ("totals", "fixed_total", "scanned")

    def __init__(self, cx: CliqueComplex):
        self.totals: dict[Simplex, int] = {x: 0 for x in cx}
        self.fixed_total = 0
        self.scanned: set[tuple[int, ...]] = set()

    def add(self, t: GraphMap, fixed: list[FixedSimplexRecord]):
        """Fold in `fixed`, the fixed-simplex scan of the element t.
        SymmetryError is raised if t was scanned already."""
        if t.image in self.scanned:
            raise SymmetryError(f"{t.image} is already in the fixed-simplex sweep")
        self.scanned.add(t.image)
        totals = self.totals
        for rec in fixed:
            totals[rec.simplex] += rec.index
        self.fixed_total += len(fixed)

    def curvature(self, order: int) -> CurvatureTable:
        return CurvatureTable(
            {x: Fraction(v, order) for x, v in self.totals.items()}, order)


def fixed_simplex_sweep(cx: CliqueComplex, group: AutomorphismGroup) -> FixedSimplexSweep:
    """The sweep of one fixed-simplex scan per group element."""
    sweep = FixedSimplexSweep(cx)
    for t in group:
        sweep.add(t, fixed_simplices(cx, t))
    return sweep


def lefschetz_numbers(spaces: CochainSpaces, group: AutomorphismGroup) -> list[int]:
    """L(T) for every group element, in group order."""
    return [spaces.lefschetz_number(t.image) for t in group]


def lefschetz_multiset(spaces: CochainSpaces, group: AutomorphismGroup) -> dict[int, int]:
    """Multiset of L(T) over the group, as value -> multiplicity."""
    counts: dict[int, int] = {}
    for value in lefschetz_numbers(spaces, group):
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def average_lefschetz(spaces: CochainSpaces, group: AutomorphismGroup) -> int:
    """Mean of L(T) over the automorphism group, from its generators.

    The mean of a trace over a finite group is the dimension of the
    subspace the group fixes, so the mean is the alternating sum over k of
    dim H^k(G)^A, an integer by construction.  Over Q, averaging over the
    group commutes with d (the rational transfer), so that sum is the Euler
    characteristic of the invariant cochains, and an Euler characteristic
    is read off the cochains alone: the ranks of the orbit coboundaries
    cancel in it.  `CochainSpaces.invariant_euler_characteristic` counts,
    per degree, the simplex orbits of the group the coset representatives
    generate whose stabilizer keeps orientation (an orbit it reverses
    carries no invariant cochain).  It needs a group, which the
    representatives, all automorphisms, give.  No induced map, no
    elimination and no other element is built."""
    return spaces.invariant_euler_characteristic([t.image for t in group.representatives])


@dataclass(frozen=True)
class Orbigraph:
    """Simple quotient of a graph by its automorphism group."""

    graph: Graph                        # quotient graph on orbit classes
    classes: tuple[tuple[int, ...], ...]  # vertex orbit -> members
    projection: tuple[int, ...]         # original vertex -> class id


def orbigraph(group: AutomorphismGroup) -> Orbigraph:
    """Quotient on vertex orbits; edges between distinct classes, loops dropped."""
    g = group.graph
    classes = group.vertex_orbits()
    proj = [0] * g.n
    for i, orbit in enumerate(classes):
        for v in orbit:
            proj[v] = i
    edges = {(min(proj[u], proj[v]), max(proj[u], proj[v]))
             for u, v in g.edges if proj[u] != proj[v]}
    return Orbigraph(Graph(len(classes), edges), tuple(classes), tuple(proj))


@dataclass
class AveragingReport:
    """Results of the three averaging identities plus informational findings,
    with what they were checked on: the average Lefschetz number, the
    curvature table, and the orbigraph with its Euler characteristic."""

    checks: list[TheoremCheck]
    findings: list[str]
    average: int
    curvature: CurvatureTable
    quotient: Orbigraph
    quotient_chi: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_averaging_theorems(spaces: CochainSpaces, group: AutomorphismGroup,
                              sweep: FixedSimplexSweep) -> AveragingReport:
    """Check curvature sum, orbigraph Euler characteristic, and Burnside count.

    The curvature table and the Burnside count come from one fixed-simplex
    scan per group element, folded into `sweep`; SymmetryError is raised
    unless it scanned exactly the group's elements, each once.  The average
    Lefschetz number comes from the representatives (`average_lefschetz`);
    VerificationError is raised unless it equals the mean of every
    element's L(T), the cross-check of that route.  Per-orbit curvature
    sums outside {+1, -1} are reported as findings, not failures: the
    averaged identities are the reliable statements.
    """
    cx = spaces.cx
    if sweep.scanned != {t.image for t in group}:
        raise SymmetryError(f"the fixed-simplex sweep scanned {len(sweep.scanned)} "
                            f"elements, not the {group.order} of the group")
    avg = average_lefschetz(spaces, group)
    mean = Fraction(sum(lefschetz_numbers(spaces, group)), group.order)
    if mean != avg:
        raise VerificationError(
            f"the mean of L(T) over the {group.order} group elements is {mean}, "
            f"but the subspaces of H^k their generators fix give {avg}")
    table = sweep.curvature(group.order)
    quotient = orbigraph(group)
    quotient_chi = build_complex(quotient.graph).euler_characteristic()
    orbits = simplex_orbits_under_group(cx, group)
    burnside = Fraction(sweep.fixed_total, group.order)
    checks = [
        TheoremCheck("curvature_sum_equals_average_lefschetz",
                     table.total() == avg, table.total(), avg),
        TheoremCheck("average_lefschetz_equals_orbigraph_euler",
                     avg == quotient_chi, avg, quotient_chi),
        TheoremCheck("burnside_orbit_count",
                     burnside == len(orbits), burnside, len(orbits)),
    ]
    findings = []
    for orbit, total in zip(orbits, table.orbit_sums(orbits)):
        if total not in (1, -1):
            findings.append(
                f"curvature sum over orbit of {orbit[0]} is {total}, not +-1")
    return AveragingReport(checks, findings, avg, table, quotient, quotient_chi)
