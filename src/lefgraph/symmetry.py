"""Automorphism groups and what they average.

Covers group enumeration, orbits and stabilizers of simplices, Lefschetz
curvature, the average Lefschetz number, the orbigraph quotient, and a
verifier for the three averaging identities (curvature sum, quotient Euler
characteristic, Burnside count).

The curvature and Burnside count fold in one fixed-simplex list per group
element (`FixedSimplexSweep`).  A caller that already walked an element's
simplices with `dynamics.orbit_census` passes that walk's fixed simplices;
otherwise the sweep walks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import CliqueComplex, Simplex, build_complex
from .cohomology import CochainSpaces
from .dynamics import FixedSimplexRecord, GraphMap, fixed_simplices, lefschetz_cohomological
from .graphs import Graph
from .linalg import LinearAlgebraError
from .reporting import TheoremCheck

DEFAULT_GROUP_CAP = 12


class SymmetryError(ValueError):
    pass


class AutomorphismGroup:
    """All automorphisms of a graph, identity first, sorted by image tuple."""

    __slots__ = ("graph", "elements")

    def __init__(self, graph: Graph, elements: tuple[GraphMap, ...]):
        self.graph = graph
        self.elements = elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> GraphMap:
        return self.elements[0]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"AutomorphismGroup(order={self.order})"

    def vertex_orbits(self) -> list[tuple[int, ...]]:
        """Vertex orbits, each sorted, ordered by smallest member."""
        seen = [False] * self.graph.n
        orbits = []
        for v in range(self.graph.n):
            if seen[v]:
                continue
            orbit = {t.image[v] for t in self.elements}
            for u in orbit:
                seen[u] = True
            orbits.append(tuple(sorted(orbit)))
        return orbits


def automorphism_group(g: Graph, cap: int = DEFAULT_GROUP_CAP) -> AutomorphismGroup:
    """Enumerate Aut(g) by backtracking over vertices.

    Candidate images must have the same degree and must map every
    already-assigned neighbor to a neighbor (and non-neighbor to
    non-neighbor), which prunes hard enough for desk-scale graphs.
    """
    if g.n > cap:
        raise SymmetryError(
            f"automorphism enumeration capped at {cap} vertices (got {g.n})")
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    image = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(v: int):
        if v == n:
            found.append(tuple(image))
            return
        dv = degrees[v]
        for u in range(n):
            if used[u] or degrees[u] != dv:
                continue
            ok = True
            for w in range(v):
                if g.adjacent(v, w) != g.adjacent(u, image[w]):
                    ok = False
                    break
            if ok:
                image[v] = u
                used[u] = True
                extend(v + 1)
                used[u] = False
                image[v] = -1

    extend(0)
    found.sort()
    return AutomorphismGroup(g, tuple(GraphMap(g, im) for im in found))


def simplex_orbits_under_group(cx: CliqueComplex,
                               group: AutomorphismGroup) -> list[tuple[Simplex, ...]]:
    """Orbits of all simplices under the full group, sorted within and between."""
    orbits = []
    visited = set()
    for level in cx.by_dim:
        for x in level:
            if x in visited:
                continue
            orbit = {t.image_simplex(x) for t in group}
            visited |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def stabilizer(group: AutomorphismGroup, x: Simplex) -> list[GraphMap]:
    """Elements fixing the simplex setwise, in group order."""
    return [t for t in group if t.image_simplex(x) == x]


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


def lefschetz_curvature(g: Graph, group: AutomorphismGroup | None = None,
                        cx: CliqueComplex | None = None) -> CurvatureTable:
    """kappa(x) = (1/|A|) * sum of i_T(x) over the stabilizer of x.

    Computed in one sweep: every fixed simplex of every group element
    contributes its index, then everything is divided by the group order.
    """
    if group is None:
        group = automorphism_group(g)
    if cx is None:
        cx = build_complex(g)
    return _fixed_simplex_sweep(cx, group).curvature(group.order)


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


def _fixed_simplex_sweep(cx: CliqueComplex, group: AutomorphismGroup) -> FixedSimplexSweep:
    """The sweep of one fixed-simplex scan per group element."""
    sweep = FixedSimplexSweep(cx)
    for t in group:
        sweep.add(t, fixed_simplices(cx, t))
    return sweep


def lefschetz_numbers(g: Graph, group: AutomorphismGroup | None = None,
                      spaces: CochainSpaces | None = None) -> list[int]:
    """L(T) for every group element, in group order."""
    if group is None:
        group = automorphism_group(g)
    if spaces is None:
        spaces = CochainSpaces(build_complex(g))
    return [lefschetz_cohomological(g, t, spaces) for t in group]


def lefschetz_multiset(g: Graph, group: AutomorphismGroup | None = None,
                       spaces: CochainSpaces | None = None) -> dict[int, int]:
    """Multiset of L(T) over the group, as value -> multiplicity."""
    counts: dict[int, int] = {}
    for value in lefschetz_numbers(g, group, spaces):
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def average_lefschetz(g: Graph, group: AutomorphismGroup | None = None,
                      spaces: CochainSpaces | None = None) -> int:
    """Mean of L(T) over the automorphism group.

    The average of a trace over a finite group is the dimension of the
    subspace the group fixes, so the mean is the alternating sum of the
    dimensions of the fixed subspaces of H^k; LinearAlgebraError is raised
    if it is not an integer."""
    values = lefschetz_numbers(g, group, spaces)
    avg = Fraction(sum(values), len(values))
    if avg.denominator != 1:
        raise LinearAlgebraError(f"average Lefschetz number {avg} is not an integer")
    return avg.numerator


@dataclass(frozen=True)
class Orbigraph:
    """Simple quotient of a graph by its automorphism group."""

    graph: Graph                        # quotient graph on orbit classes
    classes: tuple[tuple[int, ...], ...]  # vertex orbit -> members
    projection: tuple[int, ...]         # original vertex -> class id


def orbigraph(g: Graph, group: AutomorphismGroup | None = None) -> Orbigraph:
    """Quotient on vertex orbits; edges between distinct classes, loops dropped."""
    if group is None:
        group = automorphism_group(g)
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


def verify_averaging_theorems(g: Graph, group: AutomorphismGroup | None = None,
                              spaces: CochainSpaces | None = None,
                              sweep: FixedSimplexSweep | None = None) -> AveragingReport:
    """Check curvature sum, orbigraph Euler characteristic, and Burnside count.

    The curvature table and the Burnside count come from one fixed-simplex
    scan per group element, folded into `sweep`: the caller's, when it
    already scanned every element (SymmetryError is raised unless it
    scanned exactly the group's elements, each once), else a fresh one.
    Per-orbit curvature sums outside {+1, -1} are reported as findings, not
    failures: the averaged identities are the reliable statements.
    """
    if group is None:
        group = automorphism_group(g)
    if spaces is None:
        spaces = CochainSpaces(build_complex(g))
    cx = spaces.cx
    if sweep is None:
        sweep = _fixed_simplex_sweep(cx, group)
    elif sweep.scanned != {t.image for t in group}:
        raise SymmetryError(f"the fixed-simplex sweep scanned {len(sweep.scanned)} "
                            f"elements, not the {group.order} of the group")
    avg = average_lefschetz(g, group, spaces)
    table = sweep.curvature(group.order)
    quotient = orbigraph(g, group)
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
