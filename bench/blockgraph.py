"""Seeded input for the `large-graph` workload: a relabeled disjoint union of
small blocks together with an automorphism of it.

The blocks are C5, C6, the wheel W5, the octahedron and K4.  The map rotates
or reflects each block and swaps some pairs of equal blocks.  Because the
graph is a disjoint union, every invariant the workload checks follows from
the block structure alone, so this module predicts them without lefgraph:
the f-vector, the Betti numbers, the Lefschetz number and the dynamical zeta
function of the map.

The same seed gives byte-identical graph and map files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

# 2 x C5, 2 x C6, W5, 2 x octahedron, K4: 8 blocks, 44 vertices.
DEFAULT_BLOCKS = ("C5",) * 2 + ("C6",) * 2 + ("W5",) + ("O",) * 2 + ("K4",)


def _cycle_edges(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, (i + 1) % k) for i in range(k))


def _dihedral(k: int, rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Random symmetry i -> s*i + r of the k-cycle; s is its sign on H^1."""
    s = rng.choice((1, -1))
    r = rng.randrange(k)
    return tuple((s * i + r) % k for i in range(k)), s


def _wheel(rng: random.Random) -> tuple[tuple[int, ...], int]:
    rim, _ = _dihedral(5, rng)
    return rim + (5,), 1


def _octahedron(rng: random.Random) -> tuple[tuple[int, ...], int]:
    """Random signed permutation of the axes; vertex a + 3*(s < 0) is s*e_a.

    The sign on H^2 is the degree of the map of the sphere: the determinant
    sign(sigma) * prod(eps).
    """
    sigma = rng.choice(list(permutations(range(3))))
    eps = [rng.choice((1, -1)) for _ in range(3)]
    image = [0] * 6
    for a in range(3):
        for s in (1, -1):
            t = s * eps[a]
            image[a + (0 if s > 0 else 3)] = sigma[a] + (0 if t > 0 else 3)
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                     if sigma[i] > sigma[j])
    det = (-1) ** inversions * eps[0] * eps[1] * eps[2]
    return tuple(image), det


def _k4(rng: random.Random) -> tuple[tuple[int, ...], int]:
    image = list(range(4))
    rng.shuffle(image)
    return tuple(image), 1


@dataclass(frozen=True)
class BlockType:
    n: int
    edges: tuple[tuple[int, int], ...]
    f_vector: tuple[int, ...]
    class_degree: int | None  # degree k of the one class above H^0, if any
    draw: object              # rng -> (local automorphism, sign on that class)


BLOCK_TYPES = {
    "C5": BlockType(5, _cycle_edges(5), (5, 5), 1, lambda rng: _dihedral(5, rng)),
    "C6": BlockType(6, _cycle_edges(6), (6, 6), 1, lambda rng: _dihedral(6, rng)),
    "W5": BlockType(6, _cycle_edges(5) + tuple((i, 5) for i in range(5)),
                    (6, 10, 5), None, _wheel),
    "O": BlockType(6, tuple((u, v) for u in range(6) for v in range(u + 1, 6)
                            if v - u != 3), (6, 12, 8), 2, _octahedron),
    "K4": BlockType(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)),
                    (4, 6, 4, 1), None, _k4),
}


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _one_minus(sign: int, m: int) -> list[int]:
    """1 - sign * z^m."""
    return [1] + [0] * (m - 1) + [-sign]


@dataclass(frozen=True)
class BlockGraph:
    seed: int
    n: int
    edges: tuple[tuple[int, int], ...]   # sorted, u < v
    image: tuple[int, ...]               # the automorphism
    f_vector: tuple[int, ...]
    betti: tuple[int, ...]
    lefschetz: int
    zeta_num: tuple[int, ...]            # zeta = zeta_num / zeta_den, not reduced
    zeta_den: tuple[int, ...]

    def graph_text(self) -> str:
        lines = [f"# block graph, seed {self.seed}", f"vertices {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def map_text(self) -> str:
        return f"# block graph automorphism, seed {self.seed}\nmap " \
            + " ".join(map(str, self.image)) + "\n"

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        graph_path = directory / f"blocks-{self.seed}.graph"
        map_path = directory / f"blocks-{self.seed}.map"
        graph_path.write_text(self.graph_text(), encoding="utf-8")
        map_path.write_text(self.map_text(), encoding="utf-8")
        return graph_path, map_path

    def zeta_matches(self, num, den) -> bool:
        """Is num/den the predicted zeta function?  Compared crosswise, so
        any normalization of either quotient is accepted."""
        return _poly_mul(list(num), list(self.zeta_den)) == \
            _poly_mul(list(self.zeta_num), list(den))


def generate(seed: int, blocks: tuple[str, ...] = DEFAULT_BLOCKS) -> BlockGraph:
    rng = random.Random(seed)
    types = [BLOCK_TYPES[b] for b in blocks]
    offsets = []
    n = 0
    for t in types:
        offsets.append(n)
        n += t.n
    label = list(range(n))
    rng.shuffle(label)

    # Block permutation: disjoint swaps of equal blocks, how many is seeded.
    target = list(range(len(blocks)))
    for name in sorted(set(blocks)):
        same = [i for i, b in enumerate(blocks) if b == name]
        rng.shuffle(same)
        for j in range(rng.randrange(len(same) // 2 + 1)):
            a, b = same[2 * j], same[2 * j + 1]
            target[a], target[b] = b, a

    image = [0] * n
    signs = []
    for i, t in enumerate(types):
        local, sign = t.draw(rng)
        signs.append(sign)
        for v in range(t.n):
            image[label[offsets[i] + v]] = label[offsets[target[i]] + local[v]]

    edges = sorted(tuple(sorted((label[offsets[i] + u], label[offsets[i] + v])))
                   for i, t in enumerate(types) for u, v in t.edges)
    dim = max(len(t.f_vector) for t in types)
    f_vector = tuple(sum(t.f_vector[k] for t in types if k < len(t.f_vector))
                     for k in range(dim))
    betti = [len(blocks)] + [0] * (dim - 1)
    for t in types:
        if t.class_degree is not None:
            betti[t.class_degree] += 1

    # T acts on H^0 by permuting blocks and on each higher class by the block
    # signs.  A block cycle of length m with sign product S contributes
    # det(1 - z T_k) = 1 - S z^m; zeta = prod_k det(1 - z T_k)^((-1)^(k+1)).
    lefschetz = 0
    num, den = [1], [1]
    seen = [False] * len(blocks)
    for start in range(len(blocks)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = target[i]
        m = len(cycle)
        den = _poly_mul(den, _one_minus(1, m))
        lefschetz += m == 1
        k = types[start].class_degree
        if k is not None:
            s = 1
            for i in cycle:
                s *= signs[i]
            if k % 2:
                num = _poly_mul(num, _one_minus(s, m))
            else:
                den = _poly_mul(den, _one_minus(s, m))
            if m == 1:
                lefschetz += (-1) ** k * s
    return BlockGraph(seed, n, tuple(edges), tuple(image), f_vector, tuple(betti),
                      lefschetz, tuple(num), tuple(den))
