"""Self-maps of graphs and their Lefschetz fixed-point data.

A graph endomorphism is a vertex map sending edges to edges; that forces it
to be injective on every clique, so it acts simplicially on the clique
complex.  The Lefschetz number is computed two independent ways (traces on
cohomology, signed count of fixed simplices) plus the chain-level trace sum,
and all three must agree.  The orbit census walks a map's simplices once,
each by one multiply and one lookup on a prime-product key, and reads the
sign of each periodic orbit off the map's vertex cycles; its orbits of
period 1 are the fixed simplices of the signed count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .complexes import CliqueComplex, Simplex, build_complex
from .cohomology import CochainSpaces
from .graphs import Graph, connected_components, induced_subgraph
from .reporting import VerificationError


class MapError(ValueError):
    pass


class GraphMap:
    """An edge-preserving self-map of a graph, as an image tuple."""

    __slots__ = ("graph", "image", "kind", "_order")

    def __init__(self, graph: Graph, image):
        image = tuple(image)
        if len(image) != graph.n:
            raise MapError(
                f"map lists {len(image)} images for a graph on {graph.n} vertices")
        for v, w in enumerate(image):
            if not 0 <= w < graph.n:
                raise MapError(f"image of vertex {v} is {w}, outside 0..{graph.n - 1}")
        for u, v in graph.edges:
            if not graph.adjacent(image[u], image[v]):
                raise MapError(
                    f"edge ({u}, {v}) maps to ({image[u]}, {image[v]}), "
                    "which is not an edge")
        self.graph = graph
        self.image = image
        self.kind = "automorphism" if len(set(image)) == graph.n else "endomorphism"
        self._order: int | None = None

    @classmethod
    def identity(cls, graph: Graph) -> "GraphMap":
        return cls(graph, range(graph.n))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def is_automorphism(self) -> bool:
        return self.kind == "automorphism"

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.image))

    def image_simplex(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.image[v] for v in s))

    def compose(self, inner: "GraphMap") -> "GraphMap":
        """self after inner: vertex v goes to self(inner(v))."""
        if inner.graph != self.graph:
            raise MapError("cannot compose maps of different graphs")
        return GraphMap(self.graph, tuple(self.image[w] for w in inner.image))

    def power(self, m: int) -> "GraphMap":
        """The m-fold composite.  The image tuples are composed first, so
        only the result is built as a GraphMap and validated."""
        if m < 0:
            raise MapError("negative powers are only defined via inverse()")
        out = tuple(range(self.graph.n))
        for _ in range(m):
            out = tuple(self.image[v] for v in out)
        return GraphMap(self.graph, out)

    def inverse(self) -> "GraphMap":
        if not self.is_automorphism():
            raise MapError("only automorphisms are invertible")
        inv = [0] * self.graph.n
        for v, w in enumerate(self.image):
            inv[w] = v
        return GraphMap(self.graph, inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition (automorphisms only), ordered by smallest member."""
        if not self.is_automorphism():
            raise MapError("cycle decomposition needs an automorphism")
        seen = [False] * self.graph.n
        out = []
        for start in range(self.graph.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.image[start]
            while v != start:
                seen[v] = True
                cyc.append(v)
                v = self.image[v]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        """The least N >= 1 with T^N the identity (automorphisms only),
        kept after the first call: the image never changes."""
        if self._order is None:
            self._order = math.lcm(*(len(c) for c in self.cycles())) if self.graph.n else 1
        return self._order

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphMap):
            return NotImplemented
        return self.graph == other.graph and self.image == other.image

    def __hash__(self) -> int:
        return hash((self.graph, self.image))

    def __repr__(self) -> str:
        return f"GraphMap({self.kind}, image={list(self.image)})"


def validate_map(g: Graph, image) -> GraphMap:
    """Build a GraphMap, raising MapError with a reason if image is invalid."""
    return GraphMap(g, image)


class FixedSimplexRecord(NamedTuple):
    """A simplex fixed setwise, with the sign data of the restriction."""

    simplex: Simplex
    dim: int
    perm_sign: int  # signature of the permutation the map induces on the simplex
    index: int      # (-1)^dim * perm_sign


@dataclass
class OrbitCensus:
    """Counts of prime periodic orbits by period, dimension parity, and sign.

    a(p): odd-dimensional, T^p-signature +1;  b(p): even-dimensional, +1;
    c(p): odd-dimensional, signature -1;      d(p): even-dimensional, -1.

    `fixed` holds the walked map's orbits of period 1, its fixed simplices,
    by dimension and in stored order within each; a merged census has none.
    """

    a: dict[int, int] = field(default_factory=dict)
    b: dict[int, int] = field(default_factory=dict)
    c: dict[int, int] = field(default_factory=dict)
    d: dict[int, int] = field(default_factory=dict)
    fixed: list[FixedSimplexRecord] = field(default_factory=list)

    def periods(self) -> list[int]:
        return sorted(set(self.a) | set(self.b) | set(self.c) | set(self.d))

    def merged(self, other: "OrbitCensus") -> "OrbitCensus":
        out = OrbitCensus(dict(self.a), dict(self.b), dict(self.c), dict(self.d))
        for mine, theirs in ((out.a, other.a), (out.b, other.b),
                             (out.c, other.c), (out.d, other.d)):
            for p, k in theirs.items():
                mine[p] = mine.get(p, 0) + k
        return out

    def exponents(self) -> dict[int, tuple[int, int]]:
        """Per period: exponents of (1 - z^p) and (1 + z^p) in the product."""
        return {p: (self.a.get(p, 0) - self.b.get(p, 0),
                    self.c.get(p, 0) - self.d.get(p, 0))
                for p in self.periods()}


def orbit_census(cx: CliqueComplex, t: GraphMap) -> OrbitCensus:
    """Classify every periodic orbit of a graph map, in one walk.

    An orbit of minimal period p is classed by the dimension of its
    representative x and the signature of T^p on x.  Each k-simplex is
    addressed by its key in `cx.census_tables()`, and the image key of x is
    the image key of its prefix x[:-1] times the prime of T(x[-1]), so one
    multiply and one lookup give its target position.  Each untagged
    position, in stored order, starts a walk over the targets that tags
    each position it reaches with the walk's start, until it comes back to
    its start or meets a tag: an earlier walk's ends a tail, which adds
    nothing; its own enters a cycle behind a tail, walked once more from
    there.  The sign of T^p on x is read off the vertex cycles of T
    (`_even_cycle_marks`), with no sort.  Orbits of period 1 are kept in
    `fixed`, in stored order, so a fixed simplex met by a tail is untagged
    and left to the loop.  The pullbacks are never read: this route must
    stay apart from the chain traces it is checked against.
    """
    primes, tables = cx.census_tables()
    image = t.image
    image_prime = [primes[w] for w in image]
    census = OrbitCensus()
    fixed = census.fixed
    cycles = None  # the map's vertex cycles of even length, found on first use
    marks: dict[int, frozenset[int]] = {}
    keys = image_prime
    for dim, (level, table) in enumerate(zip(cx.by_dim, tables)):
        plus, minus = (census.a, census.c) if dim % 2 else (census.b, census.d)
        if table is None:
            target = image  # the vertex v is stored at position v
        else:
            prefix, last, position = table
            keys = [keys[q] * image_prime[v] for q, v in zip(prefix, last)]
            target = [position[key] for key in keys]
        walked = [None] * len(level)  # each walk's tag is its start simplex
        for i, j in enumerate(target):
            if walked[i]:
                continue
            walked[i] = walk = level[i]
            p = 1
            while j != i and not walked[j]:
                walked[j] = walk
                p += 1
                j = target[j]
            x = i
            if j != i:
                if walked[j] is not walk:
                    continue  # a tail into an earlier walk
                x = j  # a cycle behind this walk's tail, entered at j
                j = target[x]
                if j == x:
                    walked[x] = None  # fixed, and stored later: counted there
                    continue
                p = 1
                while j != x:
                    p += 1
                    j = target[j]
            simplex = level[x]
            marked = marks.get(p)
            if marked is None:
                if cycles is None:
                    cycles = _even_vertex_cycles(image)
                marked = marks[p] = _even_cycle_marks(cycles, image, p)
            sign = -1 if marked and len(marked.intersection(simplex)) % 2 else 1
            counts = plus if sign > 0 else minus
            counts[p] = counts.get(p, 0) + 1
            if p == 1:
                fixed.append(FixedSimplexRecord(simplex, dim, sign,
                                                -sign if dim % 2 else sign))
    return census


def _even_vertex_cycles(image: tuple[int, ...]) -> dict[int, list[int]]:
    """The cycles of even length of a vertex map, as lists of one vertex
    of each, by length; vertices on tails lie on no cycle."""
    state = bytearray(len(image))  # 1: on this walk, 2: walked before
    cycles: dict[int, list[int]] = {}
    for start in range(len(image)):
        v = start
        while not state[v]:
            state[v] = 1
            v = image[v]
        if state[v] == 1:  # a cycle through v that no earlier walk met
            length, w = 1, image[v]
            while w != v:
                length += 1
                w = image[w]
            if length % 2 == 0:
                cycles.setdefault(length, []).append(v)
        v = start
        while state[v] == 1:
            state[v] = 2
            v = image[v]
    return cycles


def _even_cycle_marks(cycles: dict[int, list[int]], image: tuple[int, ...],
                      p: int) -> frozenset[int]:
    """One vertex of each cycle of even length of T^p, so that T^p has
    signature (-1)^(marked vertices in x) on every simplex x it maps to
    itself, x being a union of its cycles.  T^p splits a T-cycle
    c_0 .. c_(l-1), c_(i+1) = T(c_i), into the g = gcd(l, p) cycles
    {c_i : i = r mod g}, each of length l/g, and c_0 .. c_(g-1) lie one
    on each.  Only even l gives even l/g, so `cycles`, which gives c_0 of
    each T-cycle by length, may hold only those of even length."""
    marked = set()
    for length, starts in cycles.items():
        g = math.gcd(length, p)
        if length // g % 2 == 0:
            for v in starts:
                for _ in range(g):
                    marked.add(v)
                    v = image[v]
    return frozenset(marked)


def fixed_simplices(cx: CliqueComplex, t: GraphMap) -> list[FixedSimplexRecord]:
    """The simplices x with t(x) == x as a set: the census's period-1 orbits."""
    return orbit_census(cx, t).fixed


def fixed_index_sum(cx: CliqueComplex, t: GraphMap) -> int:
    return sum(rec.index for rec in fixed_simplices(cx, t))


def lefschetz_chain(spaces: CochainSpaces, t: GraphMap) -> int:
    """Alternating sum of chain-level pullback traces, sum_k (-1)^k tr(P_k),
    on the pullbacks of the map's record (`CochainSpaces.chain`): the
    fixed simplices of its signed cycle table (`MapChain.cycles`), those
    of sign +1 less those of sign -1."""
    weight = spaces.chain(t.image).cycles()
    return weight.get((1, 1), 0) - weight.get((1, -1), 0)


def lefschetz_cohomological(g: Graph, t: GraphMap,
                            spaces: CochainSpaces | None = None) -> int:
    """Lefschetz number via traces of the maps induced on cohomology.

    The graph argument and the optional `spaces` are kept because the
    benchmark under `bench/` calls this function with them; the package
    itself reads `spaces.lefschetz_number` instead."""
    if spaces is None:
        spaces = CochainSpaces(build_complex(g))
    return spaces.lefschetz_number(t.image)


@dataclass(frozen=True)
class Attractor:
    """The eventual image subgraph, on which the map becomes an automorphism."""

    graph: Graph
    map: GraphMap
    vertices: tuple[int, ...]  # original labels of the surviving vertices


def attractor(t: GraphMap) -> Attractor:
    """Iterate t until the vertex image stabilizes; restrict to that subgraph."""
    current = frozenset(range(t.graph.n))
    while True:
        nxt = frozenset(t.image[v] for v in current)
        if nxt == current:
            break
        current = nxt
    sub, kept = induced_subgraph(t.graph, current)
    pos = {v: i for i, v in enumerate(kept)}
    restricted = GraphMap(sub, tuple(pos[t.image[v]] for v in kept))
    if not restricted.is_automorphism():
        raise VerificationError(f"{t} is not a bijection on its attractor {list(kept)}")
    return Attractor(sub, restricted, tuple(kept))


def is_star_shaped(spaces: CochainSpaces) -> bool:
    """True when all cohomology above degree 0 vanishes."""
    return not any(spaces.betti_numbers()[1:])


@dataclass(frozen=True)
class BrouwerReport:
    applicable: bool          # connected and star-shaped
    lefschetz: int
    fixed_count: int
    witness: Simplex | None   # some fixed simplex, when one exists


def brouwer_check(spaces: CochainSpaces, t: GraphMap,
                  fixed: list[FixedSimplexRecord]) -> BrouwerReport:
    """Fixed-clique guarantee for connected star-shaped graphs.

    In that case L(t) = 1 for every endomorphism, so the signed fixed-simplex
    count cannot be empty; the caller checks `fixed_count`.  `fixed` is the
    map's fixed simplices, the period-1 orbits of its census.
    """
    connected = spaces.cx.graph.n > 0 and spaces.betti(0) == 1
    applicable = connected and is_star_shaped(spaces)
    return BrouwerReport(applicable, spaces.lefschetz_number(t.image), len(fixed),
                         fixed[0].simplex if fixed else None)


def random_endomorphism(g: Graph, rng: random.Random) -> GraphMap:
    """A uniform-ish random endomorphism found by randomized backtracking.

    A connected component maps into one component, so each component, in
    the order of `connected_components`, is searched on its own, in
    rounds.  A round draws a root, then draws image components without
    replacement, each searched with a budget of assignments
    (`_map_component`), until one takes the component.  The budget of
    round i is the component's size times the i-th term of Luby's sequence
    1, 1, 2, 1, 1, 2, 4, ...: a backtracking search's run time is
    heavy-tailed (on the 58-vertex component of a sparse random graph, one
    seed's search took thousands of times longer than most), and these
    restarts keep the expected cost within a log factor of the best fixed
    budget's (Luby, Sinclair and Zuckerman, Inf. Process. Lett. 47, 1993).
    The budgets grow without bound, and the component itself always takes
    it (the identity), so some round succeeds.
    """
    components = connected_components(g)
    image = [-1] * g.n
    pool = list(range(len(components)))
    for component in components:
        mapped, i = False, 0
        while not mapped:
            i += 1
            budget = len(component) * _luby(i)
            root = component[rng.randrange(len(component))]
            for j in range(len(pool)):
                r = rng.randrange(j, len(pool))
                pool[j], pool[r] = pool[r], pool[j]
                mapped = _map_component(g, root, components[pool[j]], image, rng, budget)
                if mapped:
                    break
    return GraphMap(g, image)


def _luby(i: int) -> int:
    """The i-th term (i >= 1) of Luby's sequence 1, 1, 2, 1, 1, 2, 4, ...:
    2^(k-1) when i = 2^k - 1, else the term at i - 2^(k-1) + 1 for the
    largest k with 2^(k-1) <= i."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _map_component(g: Graph, root: int, target: tuple[int, ...], image: list[int],
                   rng: random.Random, budget: int) -> bool:
    """Map the component of `root` into the component `target`, writing
    `image`, by backtracking with forward checking, trying at most `budget`
    assignments; on failure every vertex of the component is left at -1.

    The frontier holds the root and every unassigned vertex with an
    assigned neighbor, each with its domain: the common neighbors of its
    assigned neighbors' images, as a bit mask.  The next vertex is the
    frontier's vertex with the smallest domain, the smallest vertex among
    equals, so every vertex after the root has an assigned neighbor and a
    vertex left one candidate or none is taken at once.  Its candidates, in
    ascending order, are shuffled.  Assigning u narrows the domain of each
    unassigned neighbor to adj[u], and an empty domain rejects u.  The
    search keeps its own stack, one frame per assigned vertex (the vertex,
    its domain, an iterator over its shuffled candidates, and the domains
    its assignment changed), so its depth is not bounded by Python's
    recursion limit.
    """
    adj = g.adj
    frontier = {root: sum(1 << v for v in target)}
    stack = []
    while frontier:
        v = min(frontier, key=lambda w: (frontier[w].bit_count(), w))
        domain = frontier.pop(v)
        candidates = _set_bits(domain)
        rng.shuffle(candidates)
        stack.append((v, domain, iter(candidates), []))
        # Take the next candidate of the deepest vertex that has one left
        # and leaves no empty domain, unassigning the vertices whose
        # candidates ran out.
        while stack:
            v, domain, remaining, changed = stack[-1]
            for w, old in reversed(changed):
                if old is None:
                    del frontier[w]
                else:
                    frontier[w] = old
            changed.clear()
            u = next(remaining, None)
            if u is None:
                image[v] = -1
                frontier[v] = domain
                stack.pop()
                continue
            if not budget:
                for frame in stack:
                    image[frame[0]] = -1
                return False
            budget -= 1
            image[v] = u
            for w in g.neighbors(v):
                if image[w] < 0:
                    old = frontier.get(w)
                    changed.append((w, old))
                    frontier[w] = narrowed = adj[u] if old is None else old & adj[u]
                    if not narrowed:
                        break
            else:
                break
        if not stack:
            return False
    return True
