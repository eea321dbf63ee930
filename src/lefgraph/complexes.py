"""The clique complex of a graph.

A k-simplex is a (k+1)-clique, stored as an ascending vertex tuple; that
ordering doubles as the reference orientation.  Simplices of each dimension
are kept in lexicographic order with an index lookup, because cochain
matrices and pullbacks address simplices by position.  The orbit census
addresses them by key instead: the product of their vertices' primes
(`CliqueComplex.census_tables`).
"""

from __future__ import annotations

import itertools
import math

from .graphs import Graph

Simplex = tuple[int, ...]


class CliqueComplex:
    __slots__ = ("graph", "by_dim", "index", "_census_tables")

    def __init__(self, graph: Graph, by_dim: list[list[Simplex]]):
        self.graph = graph
        self.by_dim = by_dim
        self.index = [{s: i for i, s in enumerate(level)} for level in by_dim]
        self._census_tables = None

    def census_tables(self):
        """The tables the orbit census walks, built on first use and kept:
        `(primes, levels)`, with primes[v] the prime of vertex v (the v-th
        prime, from 0), and levels[k] = `(prefix, last, position)` for each
        dimension k >= 1.  The key of a simplex is the product of its
        vertices' primes, exact and independent of vertex order by unique
        factorization.  For the i-th k-simplex x, last[i] is x[-1] and
        prefix[i] the position of x[:-1] among the (k-1)-simplices, so the
        key of x is the key of its prefix times the prime of its last
        vertex; `position` maps each key back to its stored position.
        The 0-simplex (v,) is stored at position v and needs no table:
        levels[0] is None."""
        if self._census_tables is None:
            primes = _first_primes(self.graph.n)
            levels = [None]
            keys = primes
            for k in range(1, len(self.by_dim)):
                level = self.by_dim[k]
                last = [x[-1] for x in level]
                if k == 1:
                    prefix = [x[0] for x in level]
                else:
                    faces = self.index[k - 1]
                    prefix = [faces[x[:-1]] for x in level]
                keys = [keys[q] * primes[v] for q, v in zip(prefix, last)]
                levels.append((prefix, last, dict(zip(keys, range(len(level))))))
            self._census_tables = (primes, levels)
        return self._census_tables

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


_PRIMES = [2, 3, 5, 7, 11, 13]


def _first_primes(n: int) -> list[int]:
    """A list that starts with the first n primes.  The primes found so far
    are kept; for more, a sieve runs up to Rosser's bound
    p_n < n (ln n + ln ln n), which holds for n >= 6."""
    if n > len(_PRIMES):
        bound = int(n * (math.log(n) + math.log(math.log(n)))) + 1
        sieve = bytearray([1]) * (bound + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
        _PRIMES[:] = itertools.compress(range(bound + 1), sieve)
    return _PRIMES


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
