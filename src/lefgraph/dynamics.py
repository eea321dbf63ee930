"""Self-maps of graphs and their Lefschetz fixed-point data.

A graph endomorphism is a vertex map sending edges to edges; that forces it
to be injective on every clique, so it acts simplicially on the clique
complex.  The Lefschetz number is computed two independent ways (traces on
cohomology, signed count of fixed simplices) plus the chain-level trace sum,
and all three must agree.  The orbit census walks a map's simplices once:
its orbits of period 1 are the fixed simplices of the signed count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .complexes import CliqueComplex, Simplex, build_complex
from .cohomology import CochainSpaces, permutation_parity_sign
from .graphs import Graph, induced_subgraph
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


@dataclass(frozen=True)
class FixedSimplexRecord:
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

    def total_weight(self) -> int:
        """Sum of p * (orbit count at p): the number of periodic simplices,
        all of them for an automorphism."""
        return sum(p * (self.a.get(p, 0) + self.b.get(p, 0)
                        + self.c.get(p, 0) + self.d.get(p, 0))
                   for p in self.periods())

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
    representative x and the signature of T^p on x.  Each untagged simplex
    x, in stored order, starts a walk that applies t to the vertices of x
    itself and tags each sorted image with the walk's number, until it
    comes back to x (the unsorted vertex list then holds T^p on x, whose
    sort parity is the sign) or meets a tag: an earlier walk's ends a tail,
    which adds nothing; its own enters a cycle behind a tail, walked once
    more from there.  Orbits of period 1 are kept in `fixed`, in stored
    order, so a fixed simplex met by a tail is untagged and left to the
    loop.  The pullbacks are never read: this route must stay apart from
    the chain traces it is checked against.
    """
    image = t.image
    census = OrbitCensus()
    fixed = census.fixed
    for dim, (level, index) in enumerate(zip(cx.by_dim, cx.index)):
        plus, minus = (census.a, census.c) if dim % 2 else (census.b, census.d)
        walked = [0] * len(level)
        for i, x in enumerate(level):
            if walked[i]:
                continue
            walked[i] = walk = i + 1
            mapped = [image[v] for v in x]
            y = tuple(sorted(mapped))
            p = 1
            while y != x:
                j = index[y]
                if walked[j]:
                    break
                walked[j] = walk
                p += 1
                mapped = [image[v] for v in mapped]
                y = tuple(sorted(mapped))
            if y != x:
                if walked[j] != walk:
                    continue  # a tail into an earlier walk
                x = y  # a cycle behind this walk's tail, entered at y
                mapped = [image[v] for v in x]
                y = tuple(sorted(mapped))
                if y == x:
                    walked[j] = 0  # fixed, and stored later: counted there
                    continue
                p = 1
                while y != x:
                    p += 1
                    mapped = [image[v] for v in mapped]
                    y = tuple(sorted(mapped))
            sign = permutation_parity_sign(mapped)
            counts = plus if sign > 0 else minus
            counts[p] = counts.get(p, 0) + 1
            if p == 1:
                fixed.append(FixedSimplexRecord(x, dim, sign, -sign if dim % 2 else sign))
    return census


def fixed_simplices(cx: CliqueComplex, t: GraphMap) -> list[FixedSimplexRecord]:
    """The simplices x with t(x) == x as a set: the census's period-1 orbits."""
    return orbit_census(cx, t).fixed


def fixed_index_sum(cx: CliqueComplex, t: GraphMap) -> int:
    return sum(rec.index for rec in fixed_simplices(cx, t))


def lefschetz_chain(spaces: CochainSpaces, t: GraphMap) -> int:
    """Alternating sum of chain-level pullback traces, sum_k (-1)^k tr(P_k),
    on the map's pullbacks kept by `spaces`."""
    total = 0
    for k in range(spaces.dim + 1):
        total += (-1) ** k * spaces.pullback(t.image, k).trace()
    return total


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
    return all(spaces.betti(k) == 0 for k in range(1, spaces.dim + 1))


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

    Vertices are assigned in a shuffled order; each assignment must keep all
    already-mapped neighbors adjacent.  The identity always exists, so the
    search cannot fail outright.  The search keeps its own stack, one
    iterator over the shuffled candidates per assigned vertex, so its depth
    is not bounded by Python's recursion limit.
    """
    order = list(range(g.n))
    rng.shuffle(order)
    image = [-1] * g.n
    full = (1 << g.n) - 1
    stack = []
    while len(stack) < g.n:
        v = order[len(stack)]
        allowed = full
        for w in g.neighbors(v):
            if image[w] >= 0:
                allowed &= g.adj[image[w]]
        candidates = [u for u in range(g.n) if allowed >> u & 1]
        rng.shuffle(candidates)
        stack.append(iter(candidates))
        # Take the next candidate of the deepest vertex that has one left,
        # unassigning the vertices whose candidates ran out.
        while stack:
            v = order[len(stack) - 1]
            u = next(stack[-1], None)
            if u is not None:
                image[v] = u
                break
            image[v] = -1
            stack.pop()
        if not stack:
            raise VerificationError(f"no endomorphism of {g} found, not even the identity")
    return GraphMap(g, image)
