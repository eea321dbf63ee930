"""Simplicial cochain cohomology of a clique complex, over the rationals.

A k-form is a coefficient vector indexed by the k-simplices in their stored
order.  The exterior derivative is (df)(x) = sum_i (-1)^i f(x minus vertex i)
against the ascending-vertex reference orientation.  Betti numbers come from
rank-nullity: b_k = dim ker(d_k) - rank(d_{k-1}).

The chain level is sparse and integer.  A graph map is injective on every
clique, so its pullback P_k is a signed map of the k-simplices (a signed
permutation for an automorphism), one (target, +-1) pair per simplex; a row
of d_k holds k+2 entries +-1, found by face lookups.  P_k is read off
P_{k-1} of the same map, with no sort and no parity count: a k-simplex x is
its prefix x[:-1] plus its last vertex w, so image(x) is image(x[:-1]) plus
T(w), and appending T(w) to the prefix's sorted image and sorting again
multiplies the prefix's sign by (-1)^(vertices of image(x[:-1]) above T(w)).
One lookup in the complex's extension table, (y, w) -> (index of y + {w},
that parity), gives both.  The orbit census finds images by its own
prime-product keys (`CliqueComplex.census_tables`) and signs on the map's
vertex cycles, so it shares no table and no step with this build; its
orbits of period 1 are the fixed simplices of the index sum.  The
chain-map identity and d o d = 0 are checked on these integer rows in
O(nonzeros).  Per row of d_k, the chain-map check reads the left side,
times the row's pullback sign, into k+2 keys and compares it with the
shared signed row of d_k; it builds no summed row unless there is a
collision (two terms on one column, from a corrupt pullback or corrupt face
rows) or the sides differ.

A map's chain data is one record, `MapChain`, which `CochainSpaces.chain`
builds for the latest map only: P_0..P_dim, built together, and, on first
use, one signed cycle table merged over the degrees (one walk of each
P_k), the matrices induced on H^k and the chain-map verdict.  The
chain-map check, the chain-level trace, the iterates L(T^n), the
cohomological trace, the zeta determinant and the invariant cochains of a
map all read that record, so none of it is built twice for one map, and
no map's pullbacks are composed from another's.

Cohomology takes two routes, both through the one sparse fraction-free
kernel of `linalg`.  Betti numbers come from rank-nullity on
`rank(d_k)`, the pivot count of d_k's forward pass.  The maps induced on
H^k come from free-column coordinates: `rref(d_k)`, back-substituted
from that same forward pass, which is kept on the shared d_k, and a
cocycle's values on the free columns are its coordinates in ker(d_k).
The rows of d_{k-1} at the free k-simplices span im(d_{k-1}) in those
coordinates; one sparse `rref` of them picks the representatives (its
non-pivot columns) and reads a cocycle's class (reduction modulo its
rows).  The two routes must agree on the number of representatives.

The induced maps stay sparse and integer from end to end.  A representative
is a {simplex: int} dict, nonzero on its free column and the pivot columns
of d_k's kernel rows that hold that column.  Its pullback is built on the
preimages of that support, and checked to be a cocycle on the rows of d_k
that have a face in it (the coface index, the transpose of the face rows);
every other row of d_k applied to it is zero.  Both RREFs come from `rref`
as integer rows over a scale, so the class functionals are integer over
one scale per degree, the product of the two, and T_k is a
`linalg.SparseMatrix` over that scale.  A trace is the integer diagonal
sum divided by the scale once, and `zeta.zeta_det` reduces the integer rows
themselves.  Where the scale is 1, as on most graphs, no Fraction is built.

The subspace H^k(G)^A fixed by a group A of automorphisms needs no induced
map.  Over Q, averaging the pullbacks over A projects the cochains onto the
invariant cochains C^*(G)^A and commutes with d, so H^k(C^*(G)^A) is
H^k(G)^A (the rational transfer).  An invariant cochain is one number per
simplex orbit, up to the signs the pullbacks carry, found by a signed
union-find (`SignedOrbits`) over the shared pullbacks of A's generators; an
orbit whose stabilizer reverses orientation carries only the zero cochain.
Those orbits are built once, by `CochainSpaces.invariant_orbits`.  The
dimension of H^k(G)^A is then c_k, the number of orientable k-orbits, minus
the integer ranks of the orbit coboundaries in degrees k and k - 1, exact
with no division.  The alternating sum of these dimensions, the mean of
L(T) over A, needs no rank: each rank enters it once with each sign, so it
is sum_k (-1)^k c_k (`CochainSpaces.invariant_euler_characteristic`).
The transfer holds for a group only, so every map given must be a
bijection of the vertices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .complexes import CliqueComplex
from .linalg import (
    LinearAlgebraError,
    NotInSpanError,
    SparseMatrix,
    cyclotomic_exponents,
    det_one_minus_z_blocks,
    rank,
    rref,
)

# The matrix induced on H^k where b_k = 0, one for every map and degree.
_EMPTY = SparseMatrix(0, 0, [])


def _sparse_row(terms) -> dict[int, int]:
    """Sum (column, coefficient) terms into a row without zero entries."""
    row: dict[int, int] = {}
    for col, c in terms:
        row[col] = row.get(col, 0) + c
    return {col: c for col, c in row.items() if c}


def coboundary_squares_to_zero(spaces: CochainSpaces) -> bool:
    """Check d_{k+1} d_k == 0 in every degree, on integer sparse rows built
    from the face rows kept by `spaces`.  Every row of the product is built
    in full."""
    for k in range(spaces.dim):
        inner = spaces.face_rows(k)
        for faces in spaces.face_rows(k + 1):
            if _sparse_row((col, (-1) ** (i + j))
                           for i, f in enumerate(faces)
                           for j, col in enumerate(inner[f])):
                return False
    return True


class Pullback:
    """Sparse form of the pullback P_k of a simplicial map on k-forms.

    Row x carries exactly one entry: (P_k f)(x) = sign(x) * f(image(x)),
    where image(x) is the ascending image simplex and sign(x) is the parity
    of sorting the image vertex list.  Its preimage lists are built on
    first use and kept, so its targets must not change after they are
    read.  Its cycle table is walked afresh on each call; the map's record
    keeps the signed sum of its degrees' tables (`MapChain.cycles`).
    """

    __slots__ = ("k", "size", "target_index", "sign", "_preimages")

    def __init__(self, k: int, size: int, target_index: list[int], sign: list[int]):
        self.k = k
        self.size = size
        self.target_index = target_index
        self.sign = sign
        self._preimages: list[list[int]] | None = None

    def preimages(self) -> list[list[int]]:
        """For each simplex y, the simplices x with target(x) = y."""
        if self._preimages is None:
            out: list[list[int]] = [[] for _ in range(self.size)]
            for x, y in enumerate(self.target_index):
                out[y].append(x)
            self._preimages = out
        return self._preimages

    def cycles(self) -> dict[tuple[int, int], int]:
        """{(length p, sign s): simplices on such cycles} over the closed
        cycles of the signed map, s being the product of a cycle's signs.

        P is a signed functional graph x -> target(x).  One walk from each
        unvisited simplex marks what it visits with the walk's number, and
        stops at the first marked simplex: back at its start, the walk was
        a cycle (every walk of a permutation is); at another simplex marked
        by this walk, a tail led into a cycle through it, which is walked
        once more for its length and sign; at an earlier walk's simplex, it
        found no new cycle.  Simplices on a tail (of a non-injective map)
        are on no cycle.

        The diagonal entry (P^n)_xx is nonzero only on a closed cycle, and
        a cycle of length p whose signs multiply to s adds p * s^(n/p) to
        tr(P^n) at every n = p, 2p, ...; the table gives every tr(P^n).
        """
        target, sign = self.target_index, self.sign
        walk = [0] * self.size
        weight: dict[tuple[int, int], int] = {}
        for start in range(self.size):
            if walk[start]:
                continue
            mark = start + 1
            x, p, s = start, 0, 1
            while not walk[x]:
                walk[x] = mark
                p += 1
                s *= sign[x]
                x = target[x]
            if x != start:
                if walk[x] != mark:
                    continue
                y, p, s = target[x], 1, sign[x]
                while y != x:
                    p += 1
                    s *= sign[y]
                    y = target[y]
            key = (p, s)
            weight[key] = weight.get(key, 0) + p
        return weight


class SignedOrbits:
    """Orbits of the points 0..size-1 under relations f(x) = s * f(y),
    s = +-1, kept by a signed union-find.

    Each point keeps a parent and the sign with f(x) = sign * f(parent).
    The root of an orbit is its smallest member, and `labels` reads every
    relation as f(x) = sigma(x) * f(root).  A relation that closes a loop
    with the other sign forces f(root) = -f(root): the orbit is not
    orientable, and the only f it admits is zero on it.  Relations without
    signs give the plain orbits of the group the maps x -> targets[x]
    generate.
    """

    __slots__ = ("parent", "sign", "flipped")

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.sign = [1] * size
        self.flipped = [False] * size

    def relate(self, targets, signs=None):
        """Add f(x) = signs[x] * f(targets[x]) for every point x, with every
        sign +1 when `signs` is None."""
        parent, sign, flipped = self.parent, self.sign, self.flipped

        def find(x: int) -> tuple[int, int]:
            path = []
            while parent[x] != x:
                path.append(x)
                x = parent[x]
            s = 1
            for y in reversed(path):
                s *= sign[y]
                sign[y] = s
                parent[y] = x
            return x, sign[path[0]] if path else 1

        # A root, or a point whose parent is its root, is read without a call.
        pairs = zip(targets, itertools.repeat(1) if signs is None else signs)
        for x, (y, s) in enumerate(pairs):
            if y == x and s > 0:
                continue
            rx = parent[x]
            if rx == x:
                sx = 1
            elif parent[rx] == rx:
                sx = sign[x]
            else:
                rx, sx = find(x)
            ry = parent[y]
            if ry == y:
                sy = 1
            elif parent[ry] == ry:
                sy = sign[y]
            else:
                ry, sy = find(y)
            s *= sx * sy
            if rx == ry:
                if s < 0:
                    flipped[rx] = True
            elif rx < ry:
                parent[ry], sign[ry] = rx, s
                flipped[rx] = flipped[rx] or flipped[ry]
            else:
                parent[rx], sign[rx] = ry, s
                flipped[ry] = flipped[ry] or flipped[rx]

    def labels(self) -> tuple[list[int], list[int]]:
        """The root and sigma of every point, with f(x) = sigma(x) * f(root)."""
        parent, sign = self.parent, self.sign
        roots, sigma = [], []
        for x, p in enumerate(parent):
            # Roots are smallest members, so parent p < x is labeled already.
            if p == x:
                roots.append(x)
                sigma.append(1)
            else:
                roots.append(roots[p])
                sigma.append(sign[x] * sigma[p])
        return roots, sigma

    def orientable_roots(self) -> list[int]:
        """The roots of the orbits that admit a nonzero f, ascending."""
        flipped = self.flipped
        return [x for x, p in enumerate(self.parent) if p == x and not flipped[x]]

    def orbits(self) -> list[tuple[int, ...]]:
        """The orbits, each ascending, ordered by their smallest member."""
        members: dict[int, list[int]] = {}
        for x, r in enumerate(self.labels()[0]):
            members.setdefault(r, []).append(x)
        return [tuple(m) for m in members.values()]


def verify_chain_map(spaces: CochainSpaces, image: tuple[int, ...]) -> bool:
    """Check d_k P_k == P_{k+1} d_k in every degree, on the map's record
    (`CochainSpaces.chain`) and the face rows and coboundaries kept by
    `spaces`.  The record keeps the verdict."""
    chain = spaces.chain(image)
    if chain._commutes is None:
        chain._commutes = pullbacks_commute(chain.pullbacks, spaces.face_rows,
                                            lambda k: spaces.coboundary(k).data)
    return chain._commutes


def signed_rows(faces: list[tuple[int, ...]]) -> list[dict[int, int]]:
    """The rows of d_k from its face rows: face i carries (-1)^i.  Two
    equal entries in a face row (corrupt rows) keep only the last one's
    sign."""
    return [{f: -1 if i % 2 else 1 for i, f in enumerate(x)} for x in faces]


def pullbacks_commute(pullbacks: list[Pullback], face_rows, coboundary_rows) -> bool:
    """Check d_k P_k == P_{k+1} d_k for the given P_0..P_dim, row by row.

    Row x of d_k P_k holds (-1)^i sign_k(f_i) at target_k(f_i) for the faces
    f_i of x; row x of P_{k+1} d_k is s = sign_{k+1}(x) times row
    y = target_{k+1}(x) of d_k.  The left side times s is read straight
    into a dict, one key per face, and compared with the signed row y of
    d_k as `coboundary_rows(k)` holds it.  Only where a side has fewer keys
    than faces (two terms on one column, which only a corrupt pullback or
    corrupt face rows give) or the sides differ are the terms of both
    summed into rows without zero entries and compared, so the verdict is
    that of the summed rows on every input.  `face_rows(k)` gives the row
    pattern of d_k and `coboundary_rows(k)` its rows, `signed_rows` of
    that pattern.
    """
    for k in range(len(pullbacks) - 1):
        faces, rows = face_rows(k), coboundary_rows(k)
        pk, pk1 = pullbacks[k], pullbacks[k + 1]
        target, sign = pk.target_index, pk.sign
        for x_faces, y, s in zip(faces, pk1.target_index, pk1.sign, strict=True):
            left = {target[f]: -s * sign[f] if i % 2 else s * sign[f]
                    for i, f in enumerate(x_faces)}
            y_faces = faces[y]
            if left != rows[y] or len(left) < len(x_faces) or len(rows[y]) < len(y_faces):
                if _sparse_row((target[f], -s * sign[f] if i % 2 else s * sign[f])
                               for i, f in enumerate(x_faces)) != \
                        _sparse_row((g, -1 if j % 2 else 1) for j, g in enumerate(y_faces)):
                    return False
    return True


class MapChain:
    """One map's chain data, built once and read by every route of that map.

    `pullbacks` holds P_0..P_dim, built together by `CochainSpaces.chain`;
    each keeps the preimage lists the representatives are pulled back
    through, from first use.  The signed cycle table (`cycles`), the
    matrices induced on H^k (`CochainSpaces.induced_matrix`) and the
    chain-map verdict (`verify_chain_map`) are kept here once built.  The
    record holds no reference back to its spaces, so a spaces that is
    dropped is freed at once, record and all.  It is shared: callers must
    not modify it.
    """

    __slots__ = ("image", "pullbacks", "_cycles", "_matrices", "_commutes")

    def __init__(self, image: tuple[int, ...], pullbacks: list[Pullback]):
        self.image = image
        self.pullbacks = pullbacks
        self._cycles: dict[tuple[int, int], int] | None = None
        self._matrices: list[SparseMatrix] | None = None
        self._commutes: bool | None = None

    def cycles(self) -> dict[tuple[int, int], int]:
        """sum_k (-1)^k of the cycle tables of the P_k (`Pullback.cycles`),
        {(length p, sign s): signed weight}, with no weight zero.

        sum_k (-1)^k tr(P_k^n), which is L(T^n), adds w * s^(n/p) for each
        entry at every n = p, 2p, ...; the fixed simplices are the entries
        of length 1, so L(T) = w(1, +1) - w(1, -1).  Built on first use and
        kept; the result is shared: callers must not modify it.
        """
        if self._cycles is None:
            merged: dict[tuple[int, int], int] = {}
            for k, pb in enumerate(self.pullbacks):
                for key, w in pb.cycles().items():
                    merged[key] = merged.get(key, 0) + (-w if k % 2 else w)
            self._cycles = {key: w for key, w in merged.items() if w}
        return self._cycles


class _CohomologyBasis(NamedTuple):
    """Representatives h_j of H^k, integer cocycles kept as {k-simplex:
    value} dicts without zero values, and the functionals reading classes,
    kept by k-simplex: the sum of c * w[x] over the pairs (i, c) in
    readers[x] is `scale` times the coefficient of h_i in the class of the
    cocycle w.  A cocycle is read on its nonzeros only, in ints."""

    scale: int
    reps: list[dict[int, int]]
    readers: dict[int, list[tuple[int, int]]]


class CochainSpaces:
    """The one handle to a graph's cochain data; its complex is `cx`.

    Each part is built on first use: the face rows of each d_k and their
    transposes (the coface index), the extension tables the pullbacks are
    read through, the sparse integer coboundaries and their ranks (behind
    the Betti numbers), and for each H^k its representatives with the
    functionals that read a class.  Those come from the `rref` of d_k, in
    free-column coordinates, and one of the image rows (see the module
    docstring); the rank and the RREF of d_k share its one forward pass.
    Every pulled-back representative is checked to be a cocycle before it
    is read.  A function that reads cochain data takes an instance, so
    anything that iterates over many maps of the same graph shares one.

    Kept for the latest map only, so memory does not grow with the number of
    maps: its record (`chain`), which holds its pullbacks P_0..P_dim, built
    together, with their preimage lists, and, once asked for, its signed
    cycle table, the matrices it induces on H^k and its chain-map verdict.
    Asking for another map replaces the record.  Every map's Lefschetz
    number is kept, as one integer, and so is the peeled det(1 - z T_k) of
    each distinct exact input (`peeled_det`), so that maps of one graph
    with equal induced matrices and orders share one peeling.
    """

    def __init__(self, cx: CliqueComplex):
        self.cx = cx
        self._faces: dict[int, list[tuple[int, ...]]] = {}
        self._cofaces: dict[int, list[list[tuple[int, int]]]] = {}
        self._extension: dict[int, list[dict[int, tuple[int, int]]]] = {}
        self._d: dict[int, SparseMatrix] = {}
        self._betti: tuple[int, ...] | None = None
        self._basis: dict[int, _CohomologyBasis] = {}
        self._chain: MapChain | None = None
        self._lefschetz: dict[tuple[int, ...], int] = {}
        self._peeled: dict[tuple, tuple[dict[int, int], tuple[list, ...]]] = {}

    @property
    def dim(self) -> int:
        return self.cx.dim

    def face_rows(self, k: int) -> list[tuple[int, ...]]:
        """Row pattern of d_k: for each (k+1)-simplex, the indices of its
        k-faces, face i (the simplex minus vertex i) carrying the
        coefficient (-1)^i."""
        if k not in self._faces:
            cx = self.cx
            index = cx.index[k] if k + 1 < len(cx.by_dim) else {}
            self._faces[k] = [tuple(index[x[:i] + x[i + 1:]] for i in range(len(x)))
                              for x in cx.simplices(k + 1)]
        return self._faces[k]

    def coface_rows(self, k: int) -> list[list[tuple[int, int]]]:
        """The transpose of d_k, read off `face_rows(k)`: for each
        k-simplex f, a pair (x, (-1)^i) for each (k+1)-simplex x whose
        face i is f."""
        if k not in self._cofaces:
            out: list[list[tuple[int, int]]] = [[] for _ in range(self.cx.count(k))]
            for x, faces in enumerate(self.face_rows(k)):
                for i, f in enumerate(faces):
                    out[f].append((x, -1 if i % 2 else 1))
            self._cofaces[k] = out
        return self._cofaces[k]

    def extension_table(self, k: int) -> list[dict[int, tuple[int, int]]]:
        """Extension table into the k-simplices (k >= 1): entry [y][w] is
        (index of y + {w}, (-1)^(vertices of y above w)) for a (k-1)-simplex
        y and a vertex w outside it whose union with y is a k-simplex.

        Read off the face rows of d_{k-1}: face i of a k-simplex z is z minus
        z[i], and z[i] has k - i vertices of z above it.
        """
        if k not in self._extension:
            table: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.cx.count(k - 1))]
            for j, (z, faces) in enumerate(zip(self.cx.simplices(k), self.face_rows(k - 1))):
                for i, f in enumerate(faces):
                    table[f][z[i]] = (j, -1 if (k - i) % 2 else 1)
            self._extension[k] = table
        return self._extension[k]

    def chain(self, image: tuple[int, ...]) -> MapChain:
        """The record of the vertex map `image`, shared by every caller that
        asks for the same map until another map is asked for.

        This is the one pullback builder; it builds P_0..P_dim together.
        P_0 is read off the image.  For k >= 1, row x of P_k is read off row
        x[:-1] (the last face of x) of P_{k-1}: the extension table's entry
        for (the prefix's target, T(last vertex of x)) is the target of x
        and the parity the prefix's sign is multiplied by.  A missing entry
        means the image of x is not a simplex; KeyError is raised naming
        that sorted image, for the first such simplex of the lowest degree,
        and the previous record is kept.
        """
        image = tuple(image)
        chain = self._chain
        if chain is not None and chain.image == image:
            return chain
        cx = self.cx
        pullbacks: list[Pullback] = []
        for k in range(self.dim + 1):
            simplices = cx.simplices(k)
            targets: list[int] = []
            signs: list[int] = []
            add_target, add_sign = targets.append, signs.append
            try:
                if k == 0:
                    index = cx.index[0]
                    for (v,) in simplices:
                        add_target(index[image[v],])
                        add_sign(1)
                else:
                    lower = pullbacks[k - 1]
                    lower_target, lower_sign = lower.target_index, lower.sign
                    table = self.extension_table(k)
                    for x, faces in zip(simplices, self.face_rows(k - 1)):
                        p = faces[-1]
                        t, s = table[lower_target[p]][image[x[-1]]]
                        add_target(t)
                        add_sign(s * lower_sign[p])
            except KeyError:
                y = tuple(sorted(image[v] for v in simplices[len(targets)]))
                raise KeyError(f"{y} is not a simplex of the complex") from None
            pullbacks.append(Pullback(k, len(targets), targets, signs))
        self._chain = MapChain(image, pullbacks)
        return self._chain

    def coboundary(self, k: int) -> SparseMatrix:
        """d_k as sparse integer rows, one per (k+1)-simplex, over the
        k-simplices.  The result is shared: callers must not modify it."""
        if k not in self._d:
            rows = signed_rows(self.face_rows(k))
            self._d[k] = SparseMatrix(len(rows), self.cx.count(k), rows)
        return self._d[k]

    def betti(self, k: int) -> int:
        if not 0 <= k <= self.dim:
            return 0
        return self.betti_numbers()[k]

    def betti_numbers(self) -> tuple[int, ...]:
        """b_k = count(k) - rank(d_k) - rank(d_{k-1}), computed on first ask."""
        if self._betti is None:
            ranks = [rank(self.coboundary(k)) for k in range(self.dim + 1)]
            self._betti = tuple(self.cx.count(k) - ranks[k] - (ranks[k - 1] if k else 0)
                                for k in range(self.dim + 1))
        return self._betti

    def _cohomology_basis(self, k: int) -> _CohomologyBasis:
        """Representatives of H^k and the functionals that read classes.

        `rref` gives d_k's RREF as integer rows over a scale, so the cocycle
        that is that scale on free column c, zero on the other free columns
        and -row_r[c] on pivot column p_r is an integer cocycle.  A cocycle
        w has free-column coordinates w[free]; subtracting w[free[q_r]]
        times RREF row r of the image rows for each image pivot q_r leaves
        its class, read on the image's non-pivot columns.  That RREF is
        integer rows over its own scale, and the basis's scale is the
        product of the two.
        """
        if not 0 <= k <= self.dim:
            return _CohomologyBasis(1, [], {})
        if k in self._basis:
            return self._basis[k]
        n = self.cx.count(k)
        kernel, pivots = rref(self.coboundary(k))
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        # (pivot column, entry) of every kernel row with a nonzero in column c
        in_column: dict[int, list[tuple[int, int]]] = {c: [] for c in free}
        for row, p in zip(kernel.data, pivots):
            for c, x in row.items():
                if c != p:
                    in_column[c].append((p, x))
        if k == 0:
            image_scale = 1
            kept = list(range(len(free)))
            readers = {c: [(i, 1)] for i, c in enumerate(free)}
        else:
            lower = self.face_rows(k - 1)
            image: list[dict[int, int]] = [{} for _ in range(self.cx.count(k - 1))]
            for i, x in enumerate(free):
                for s, f in enumerate(lower[x]):
                    image[f][i] = -1 if s % 2 else 1
            reduced, image_pivots = rref(SparseMatrix(len(image), len(free), image))
            image_scale = reduced.scale
            image_pivot_set = set(image_pivots)
            kept = [i for i in range(len(free)) if i not in image_pivot_set]
            readers = {free[i]: [(j, image_scale)] for j, i in enumerate(kept)}
            class_of = {i: j for j, i in enumerate(kept)}
            for row, q in zip(reduced.data, image_pivots):
                readers[free[q]] = [(class_of[i], -x) for i, x in row.items() if i != q]
        reps = []
        for i in kept:
            h = {free[i]: kernel.scale}
            for p, x in in_column[free[i]]:
                h[p] = -x
            reps.append(h)
        if len(reps) != self.betti(k):
            raise LinearAlgebraError(
                f"H^{k}: {len(reps)} representatives but Betti number {self.betti(k)}")
        self._basis[k] = _CohomologyBasis(kernel.scale * image_scale, reps, readers)
        return self._basis[k]

    def representatives(self, k: int) -> list[dict[int, int]]:
        """Integer cocycles whose classes form a basis of H^k, each a
        {k-simplex: value} dict without zero values.

        One per free column of d_k that is not a pivot of the reduced image
        rows, so the choice is deterministic.
        """
        return self._cohomology_basis(k).reps

    def induced_matrix(self, image: tuple[int, ...], k: int) -> SparseMatrix:
        """Matrix of the map induced on H^k by pulling back along the vertex
        map, as integer rows over the basis's scale, 0 x 0 where b_k = 0.
        The first call for a map builds the matrices of every degree into
        its record (`chain`).  The result is shared: callers must not
        modify it.

        Column j holds the coordinates of [P_k h_j] in the representative
        basis, read off the free-column values of P_k h_j modulo the image
        rows.  P_k h_j is built on its support only: its value at x is
        sign(x) h_j(target(x)), so it is nonzero exactly on the preimages
        of the support of h_j.  The reading is only valid for a cocycle, so
        d_k P_k h_j is first summed through `coface_rows` from that support,
        which reaches every row of d_k with a face in it; every other row
        is zero.  NotInSpanError is raised if a row is not.
        """
        if not self.betti(k):
            return _EMPTY
        chain = self.chain(image)
        if chain._matrices is None:
            chain._matrices = [self._induce(pb, b) if b else _EMPTY
                               for pb, b in zip(chain.pullbacks, self.betti_numbers())]
        return chain._matrices[k]

    def _induce(self, pb: Pullback, b: int) -> SparseMatrix:
        k = pb.k
        preimages, sign = pb.preimages(), pb.sign
        basis = self._cohomology_basis(k)
        cofaces = self.coface_rows(k)
        out: list[dict[int, int]] = [{} for _ in range(b)]
        for j, h in enumerate(basis.reps):
            w = {x: a if sign[x] > 0 else -a for y, a in h.items() for x in preimages[y]}
            dw: dict[int, int] = {}
            for f, a in w.items():
                for r, s in cofaces[f]:
                    dw[r] = dw.get(r, 0) + s * a
            if any(dw.values()):
                raise NotInSpanError(
                    f"the pullback of an H^{k} representative is not a cocycle")
            column: dict[int, int] = {}
            for x, a in w.items():
                for i, c in basis.readers.get(x, ()):
                    column[i] = column.get(i, 0) + c * a
            for i, total in column.items():
                if total:
                    out[i][j] = total
        return SparseMatrix(b, b, out, basis.scale)

    def invariant_orbits(self, images) -> list[SignedOrbits]:
        """Per degree k, the orbits of the k-simplices under the group A that
        the automorphisms `images` generate, with the signs of the cochains
        invariant under A.

        A cochain is invariant when f(x) = sign_k(x) * f(target_k(x)) under
        every image; per degree these relations go into one `SignedOrbits`,
        read straight off the pullbacks of each image's record (`chain`),
        with the images outermost, since only the latest map's record is
        kept.  An orbit whose relations conflict (its stabilizer reverses
        orientation) carries only the zero cochain; each other orbit carries
        one basis cochain, equal to sigma(x) on its members.

        The orbits serve the rational transfer, which needs a group:
        ValueError is raised, naming the first image that is not a bijection
        of the vertices, before any of its relations is read.
        """
        n = self.cx.count(0)
        vertices = set(range(n))
        orbits = [SignedOrbits(self.cx.count(k)) for k in range(self.dim + 1)]
        for image in images:
            image = tuple(image)
            if len(image) != n or set(image) != vertices:
                raise ValueError(
                    f"{image} is not a bijection of the {n} vertices, so it is not an "
                    "automorphism; the invariant cochains need a group")
            for relations, pb in zip(orbits, self.chain(image).pullbacks):
                relations.relate(pb.target_index, pb.sign)
        return orbits

    def invariant_euler_characteristic(self, images) -> int:
        """sum_k (-1)^k dim H^k(G)^A for the group A that the automorphisms
        `images` generate, with no rank.

        It is sum_k (-1)^k c_k, c_k the number of orientable k-orbits of
        `invariant_orbits`: the Euler characteristic of the invariant
        cochain complex C^*(G)^A equals that of its cohomology, which is
        H^*(G)^A (see `fixed_betti_numbers`).  In the alternating sum of
        c_k - rank d^A_k - rank d^A_{k-1} each rank appears once with each
        sign, and rank d^A_dim = 0, so the ranks cancel.
        """
        total = 0
        for k, relations in enumerate(self.invariant_orbits(images)):
            c = len(relations.orientable_roots())
            total += -c if k % 2 else c
        return total

    def fixed_betti_numbers(self, images) -> tuple[int, ...]:
        """For each k, the dimension of H^k(G)^A, the subspace of H^k fixed
        by the group A that the automorphisms `images` generate.

        Read off the invariant cochain complex C^*(G)^A of
        `invariant_orbits`, with no Betti rank, no H^k basis and no induced
        matrix.  Over Q the average of the pullbacks over A is a projection
        onto C^*(G)^A that commutes with d, so H^k(C^*(G)^A) is H^k(G)^A
        (the rational transfer; Bredon, *Introduction to Compact
        Transformation Groups*, ch. III), and every rank below is an exact
        integer rank.  The invariant coboundary has one row per orientable
        (k+1)-orbit, read at its root z as the sum of (-1)^i sigma(face_i z)
        on the orbits of the faces, and
        dim H^k(G)^A = c_k - rank d^A_k - rank d^A_{k-1}, c_k the number of
        orientable k-orbits.  With no images it is the Betti numbers.  The
        ValueError of `invariant_orbits` is raised for an image that is not
        a bijection.
        """
        orbits = self.invariant_orbits(images)
        labels = [relations.labels() for relations in orbits]
        # per degree, orientable root -> its basis cochain's column
        columns = [{x: j for j, x in enumerate(relations.orientable_roots())}
                   for relations in orbits]
        ranks = []
        for k in range(self.dim):
            roots, sigma = labels[k]
            column, faces = columns[k], self.face_rows(k)
            rows = []
            for z in columns[k + 1]:
                row = _sparse_row((column[roots[f]], -sigma[f] if i % 2 else sigma[f])
                                  for i, f in enumerate(faces[z]) if roots[f] in column)
                if row:
                    rows.append(row)
            ranks.append(rank(SparseMatrix(len(rows), len(column), rows)) if rows else 0)
        ranks.append(0)
        return tuple(len(column) - ranks[k] - (ranks[k - 1] if k else 0)
                     for k, column in enumerate(columns))

    def lefschetz_number(self, image: tuple[int, ...]) -> int:
        """sum_k (-1)^k tr(T_k) over the maps T_k induced on H^k.

        Each trace is the integer diagonal sum of T_k divided by its scale
        once, in ints when the scale is 1.  Kept per map (one integer
        each), so that a group average reuses the numbers its elements were
        already checked with.
        """
        image = tuple(image)
        if image not in self._lefschetz:
            total = 0
            for k, b in enumerate(self.betti_numbers()):
                if b:
                    m = self.induced_matrix(image, k)
                    trace = m.diagonal_sum()
                    total += (-1) ** k * (trace if m.scale == 1 else Fraction(trace, m.scale))
            if total.denominator != 1:
                raise LinearAlgebraError(
                    f"cohomological trace sum {total} is not an integer")
            self._lefschetz[image] = total.numerator
        return self._lefschetz[image]

    def peeled_det(self, m: SparseMatrix, order: int) -> tuple[dict[int, int], tuple[list, ...]]:
        """det(1 - z M) peeled into the F_d with d dividing `order`, for the
        matrix M that m stands for: the exponents {d: e_d} summed over the
        diagonal blocks of its Hessenberg form
        (`linalg.det_one_minus_z_blocks`), each peeled on its own
        (`linalg.cyclotomic_exponents`), and what each block left other
        than 1, in block order.

        A pure function of m's shape, scale and rows (read sorted) and of
        `order`, kept per such input, so the maps of this graph that
        induce equal matrices and have equal orders peel them once.  The
        result is shared: callers must not modify it.
        """
        key = (m.rows, m.cols, m.scale,
               tuple(tuple(sorted(row.items())) for row in m.data), order)
        peeled = self._peeled.get(key)
        if peeled is None:
            found: dict[int, int] = {}
            lefts = []
            for det in det_one_minus_z_blocks(m):
                exponents, left = cyclotomic_exponents(det, order)
                for d, e in exponents.items():
                    found[d] = found.get(d, 0) + e
                if left != [1]:
                    lefts.append(left)
            peeled = self._peeled[key] = (found, tuple(lefts))
        return peeled
