"""The clique complex of a graph.

A k-simplex is a (k+1)-clique, stored as an ascending vertex tuple; that
ordering doubles as the reference orientation.  Simplices of each dimension
are kept in lexicographic order with an index lookup, because cochain
matrices and pullbacks address simplices by position.
"""

from __future__ import annotations

from .graphs import Graph

Simplex = tuple[int, ...]


class CliqueComplex:
    __slots__ = ("graph", "by_dim", "index")

    def __init__(self, graph: Graph, by_dim: list[list[Simplex]]):
        self.graph = graph
        self.by_dim = by_dim
        self.index = [{s: i for i, s in enumerate(level)} for level in by_dim]

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    def simplices(self, k: int) -> list[Simplex]:
        if 0 <= k < len(self.by_dim):
            return self.by_dim[k]
        return []

    def count(self, k: int) -> int:
        return len(self.simplices(k))

    def index_of(self, s: Simplex) -> int:
        k = len(s) - 1
        if not (0 <= k < len(self.by_dim)) or s not in self.index[k]:
            raise KeyError(f"{s} is not a simplex of the complex")
        return self.index[k][s]

    def contains(self, s: Simplex) -> bool:
        k = len(s) - 1
        return 0 <= k < len(self.by_dim) and s in self.index[k]

    def __iter__(self):
        for level in self.by_dim:
            yield from level

    def __len__(self) -> int:
        return sum(len(level) for level in self.by_dim)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(level) for k, level in enumerate(self.by_dim))

    def __repr__(self) -> str:
        return f"CliqueComplex(f_vector={self.f_vector()})"


def build_complex(g: Graph) -> CliqueComplex:
    """Enumerate all cliques of g.

    Cliques grow by appending common neighbors above the current maximum
    vertex, so each clique is produced exactly once, already ascending.
    """
    by_dim: list[list[Simplex]] = []

    def record(clique: Simplex):
        k = len(clique) - 1
        while len(by_dim) <= k:
            by_dim.append([])
        by_dim[k].append(clique)

    def extend(clique: Simplex, candidates: int):
        record(clique)
        m = candidates
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            above = ~((1 << (v + 1)) - 1)
            extend(clique + (v,), candidates & g.adj[v] & above)

    for v in range(g.n):
        above = ~((1 << (v + 1)) - 1)
        extend((v,), g.adj[v] & above)

    for level in by_dim:
        level.sort()
    return CliqueComplex(g, by_dim)
