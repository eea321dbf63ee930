"""Finite simple graphs on vertices 0..n-1.

Graphs are immutable: a vertex count plus a frozenset of ordered edge pairs
(u, v) with u < v.  Adjacency is mirrored into per-vertex bitmasks because
clique enumeration and map validation live on mask intersections.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations


# Larger vertex counts are refused up front with a message, instead of
# failing while the per-vertex tables are allocated.
MAX_VERTICES = 10**6


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Malformed edge-list text; the message carries the offending line."""


_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """The int spelled by text: an optional '-' and ASCII digits, nothing
    else.  Python's int() also takes '+', '_' between digits, surrounding
    blanks and non-ASCII digits, none of which an input file or a command
    line should carry.  ValueError otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


class Graph:
    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} is above the limit of {MAX_VERTICES}")
        normalized = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) mentions a vertex outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(normalized)
        adj = [0] * n
        for u, v in normalized:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbors of v in ascending order, read off the set bits of
        its adjacency mask, so the cost is linear in the degree."""
        out = []
        m = self.adj[v]
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    Lines: optional ``# comment`` lines and blank lines anywhere, exactly one
    ``vertices <n>`` header before any edge, then ``<u> <v>`` per edge.
    Duplicate edges collapse silently; loops and out-of-range vertices fail.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate vertices header")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'vertices <n>'")
            try:
                n = integer(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if n < 0:
                raise GraphFormatError(f"line {lineno}: vertex count must be nonnegative")
            continue
        if n is None:
            raise GraphFormatError(
                f"line {lineno}: edge before the 'vertices <n>' header")
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = integer(parts[0]), integer(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: edge endpoints must be integers, got {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"line {lineno}: edge ({u}, {v}) outside vertex range 0..{n - 1}")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'vertices <n>' header")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph so that parse_edge_list round-trips it."""
    lines = [f"vertices {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def complete_graph(k: int) -> Graph:
    return Graph(k, combinations(range(k), 2))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    if k < 1:
        raise GraphError("a path needs at least 1 vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def discrete_graph(k: int) -> Graph:
    return Graph(k)


def star_graph(k: int) -> Graph:
    """Center 0 joined to k leaves."""
    if k < 1:
        raise GraphError("a star needs at least 1 leaf")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def wheel_graph(k: int) -> Graph:
    """Cycle 0..k-1 plus a hub vertex k joined to every rim vertex."""
    if k < 3:
        raise GraphError("a wheel needs a rim of at least 3 vertices")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges.extend((i, k) for i in range(k))
    return Graph(k + 1, edges)


def octahedron_graph() -> Graph:
    """Six vertices, every pair adjacent except the antipodes (i, i + 3)."""
    edges = [(u, v) for u, v in combinations(range(6), 2) if v - u != 3]
    return Graph(6, edges)


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges.extend((5 + i, 5 + (i + 2) % 5) for i in range(5))
    edges.extend((i, i + 5) for i in range(5))
    return Graph(10, edges)


def two_triangles_shared_edge() -> Graph:
    """Two triangles glued along the edge (0, 1); apexes 2 and 3."""
    return Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


_PARAMETRIC_FAMILIES = {
    "complete": complete_graph,
    "cycle": cycle_graph,
    "path": path_graph,
    "discrete": discrete_graph,
    "star": star_graph,
    "wheel": wheel_graph,
}

_FIXED_GRAPHS = {
    "octahedron": octahedron_graph,
    "petersen": petersen_graph,
    "two_triangles_shared_edge": two_triangles_shared_edge,
}


def named_graph(name: str, k: int | None = None) -> Graph:
    """Look up a named family, e.g. named_graph('cycle', 5) or named_graph('petersen')."""
    if name in _PARAMETRIC_FAMILIES:
        if k is None:
            raise GraphError(f"family {name!r} needs a size parameter")
        if k > MAX_VERTICES:  # before a family lists k edges
            raise GraphError(f"size {k} is above the vertex limit of {MAX_VERTICES}")
        return _PARAMETRIC_FAMILIES[name](k)
    if name in _FIXED_GRAPHS:
        if k is not None:
            raise GraphError(f"graph {name!r} does not take a size parameter")
        return _FIXED_GRAPHS[name]()
    known = sorted(_PARAMETRIC_FAMILIES) + sorted(_FIXED_GRAPHS)
    raise GraphError(f"unknown graph name {name!r}; known: {', '.join(known)}")


def named_graph_names() -> list[str]:
    return sorted(_PARAMETRIC_FAMILIES) + sorted(_FIXED_GRAPHS)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Vertices of b are shifted up by a.n."""
    edges = list(a.edges)
    edges.extend((u + a.n, v + a.n) for u, v in b.edges)
    return Graph(a.n + b.n, edges)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced on the given vertices, relabeled 0..len-1 ascending.

    Returns the subgraph together with the list mapping new labels back to
    the original vertex names.
    """
    kept = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(kept)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(kept), edges), kept


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the components, each sorted, ordered by smallest member."""
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        components.append(tuple(sorted(comp)))
    return components


MAX_EXHAUSTIVE_VERTICES = 7


def _exhaustive_slots(n: int) -> list[tuple[int, int]]:
    """The edge slots of the exhaustive enumerations: the lexicographically
    sorted vertex pairs.  Refuses n < 0 and n > MAX_EXHAUSTIVE_VERTICES (the
    count doubles per edge slot: n = 8 already means 2^28 graphs)."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise GraphError(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_VERTICES} vertices")
    return list(combinations(range(n), 2))


def all_graphs(n: int):
    """Yield every labeled graph on n vertices in a fixed deterministic order.

    Graph number m includes edge slot i exactly when bit i of m is set.
    First graph is discrete, last is complete.
    """
    pairs = _exhaustive_slots(n)
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def isomorphism_classes(n: int):
    """Yield (representative, orbit size) for each isomorphism class of graphs
    on n vertices, in all_graphs order of the representatives.

    The edge masks are walked in all_graphs order.  The first mask not yet
    visited represents a new class, and its whole S_n-orbit is marked by a
    stack walk under two generators of S_n, the transposition (0 1) and the
    n-cycle v -> v + 1.  Each generator acts on a mask through one lookup
    table per byte of edge slots.  The orbit size is the number of labeled
    graphs in the class, n!/|Aut| by orbit-stabilizer.
    """
    pairs = _exhaustive_slots(n)
    slots = len(pairs)
    slot = {p: i for i, p in enumerate(pairs)}
    generators = []
    if n >= 2:
        for perm in ([1, 0, *range(2, n)], [(v + 1) % n for v in range(n)]):
            target = [slot[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
            generators.append([
                [sum(1 << target[lo + i] for i in range(8) if byte >> i & 1)
                 for byte in range(1 << min(8, slots - lo))]
                for lo in range(0, slots, 8)])
    seen = bytearray(1 << slots)
    for mask in range(1 << slots):
        if seen[mask]:
            continue
        seen[mask] = 1
        size = 1
        stack = [mask]
        while stack:
            m = stack.pop()
            for tables in generators:
                image = 0
                rest = m
                for table in tables:
                    image |= table[rest & 255]
                    rest >>= 8
                if not seen[image]:
                    seen[image] = 1
                    size += 1
                    stack.append(image)
        yield Graph(n, [pairs[i] for i in range(slots) if mask >> i & 1]), size


def graph_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def random_graph(n: int, edge_probability: Fraction, rng: random.Random) -> Graph:
    """Erdos-Renyi sample with an exact rational edge probability.

    Each pair is kept when a uniform draw from 0..den-1 lands below num, so
    no floating point enters the sampling.
    """
    p = Fraction(edge_probability)
    if not 0 <= p <= 1:
        raise GraphError("edge probability must be between 0 and 1")
    edges = [e for e in combinations(range(n), 2)
             if rng.randrange(p.denominator) < p.numerator]
    return Graph(n, edges)
