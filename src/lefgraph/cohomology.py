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
that parity), gives both.  The orbit census walks the simplices
themselves, sorting their images, so it shares no step with this build;
its orbits of period 1 are the fixed simplices of the index sum.  The
chain-map identity and d o d = 0 are checked on these integer rows in
O(nonzeros).  Per row of d_k, the chain-map check reads the left side,
times the row's pullback sign, into k+2 keys and compares it with the
shared signed row of d_k; it builds no summed row unless there is a
collision (two terms on one column, from a corrupt pullback or corrupt face
rows) or the sides differ.

Cohomology takes two routes, both through the one sparse fraction-free
kernel of `linalg`, each with its own elimination of the sparse integer
d_k.  Betti numbers come from rank-nullity on `rank(d_k)`.  The maps
induced on H^k come from free-column coordinates: one `rref` of d_k, and
a cocycle's values on the free columns are its coordinates in
ker(d_k).  The rows of d_{k-1} at the free k-simplices span im(d_{k-1}) in
those coordinates; one sparse `rref` of them picks the representatives (its
non-pivot columns) and reads a cocycle's class (reduction modulo its rows).
The two routes must agree on the number of representatives.

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
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import CliqueComplex
from .linalg import (
    LinearAlgebraError,
    NotInSpanError,
    SparseMatrix,
    rank,
    rref,
)


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


def permutation_parity_sign(seq) -> int:
    """Sign of the permutation that sorts seq (distinct entries) ascending."""
    n = len(seq)
    if n < 3:
        return -1 if n == 2 and seq[0] > seq[1] else 1
    inversions = 0
    for i in range(n - 1):
        a = seq[i]
        for b in seq[i + 1:]:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


class Pullback:
    """Sparse form of the pullback P_k of a simplicial map on k-forms.

    Row x carries exactly one entry: (P_k f)(x) = sign(x) * f(image(x)),
    where image(x) is the ascending image simplex and sign(x) is the parity
    of sorting the image vertex list.  Its cycle table and its preimage
    lists are built on first use and kept, so its targets must not change
    after either is read, nor its signs after the cycle table is.
    """

    __slots__ = ("k", "size", "target_index", "sign", "_cycles", "_preimages")

    def __init__(self, k: int, size: int, target_index: list[int], sign: list[int]):
        self.k = k
        self.size = size
        self.target_index = target_index
        self.sign = sign
        self._cycles: dict[tuple[int, int], int] | None = None
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

        P is a signed functional graph x -> target(x).  One walk visits each
        simplex once: a simplex is new (0), on the current walk (1) or done
        (2).  Simplices on a tail (of a non-injective map) are on no cycle.
        """
        if self._cycles is None:
            state = [0] * self.size
            weight: dict[tuple[int, int], int] = {}
            for start in range(self.size):
                walk = []
                x = start
                while state[x] == 0:
                    state[x] = 1
                    walk.append(x)
                    x = self.target_index[x]
                if state[x] == 1:
                    cycle = walk[walk.index(x):]
                    s = 1
                    for y in cycle:
                        s *= self.sign[y]
                    key = (len(cycle), s)
                    weight[key] = weight.get(key, 0) + len(cycle)
                for y in walk:
                    state[y] = 2
            self._cycles = weight
        return self._cycles

    def trace(self) -> int:
        """The signs of the fixed simplices summed: the cycles of length 1."""
        weight = self.cycles()
        return weight.get((1, 1), 0) - weight.get((1, -1), 0)

    def power_traces(self, count: int) -> list[int]:
        """tr(P^n) for n = 1..count, from the cycles of the signed map.

        The diagonal entry (P^n)_xx is nonzero only on a closed cycle, and
        a cycle of length p whose signs multiply to s adds p * s^(n/p) at
        every n = p, 2p, ...
        """
        out = [0] * count
        for (p, s), w in self.cycles().items():
            for n in range(p, count + 1, p):
                out[n - 1] += w * s ** (n // p)
        return out


def verify_chain_map(spaces: CochainSpaces, image: tuple[int, ...]) -> bool:
    """Check d_k P_k == P_{k+1} d_k in every degree, on the map's pullbacks
    and the face rows and coboundaries kept by `spaces`."""
    return pullbacks_commute([spaces.pullback(image, k) for k in range(spaces.dim + 1)],
                             spaces.face_rows, lambda k: spaces.coboundary(k).data)


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
    functionals that read a class.  Those come from one `rref` of d_k, in
    free-column coordinates, and one of the image rows (see the module
    docstring); every pulled-back representative is checked to be a
    cocycle before it is read.  A function that reads cochain data takes an
    instance, so anything that iterates over many maps of the same graph
    shares one.

    Kept for the latest map only, so memory does not grow with the number of
    maps: its pullbacks P_k (with their cycle tables and preimage lists)
    and the matrices it induces on H^k, each degree built when first asked
    for.  Every map's Lefschetz number is kept, as one integer.
    """

    def __init__(self, cx: CliqueComplex):
        self.cx = cx
        self._faces: dict[int, list[tuple[int, ...]]] = {}
        self._cofaces: dict[int, list[list[tuple[int, int]]]] = {}
        self._extension: dict[int, list[dict[int, tuple[int, int]]]] = {}
        self._d: dict[int, SparseMatrix] = {}
        self._rank: dict[int, int] = {}
        self._betti: tuple[int, ...] | None = None
        self._basis: dict[int, _CohomologyBasis] = {}
        # Pullbacks and induced matrices of the map `_image` only.
        self._image: tuple[int, ...] | None = None
        self._pullbacks: dict[int, Pullback] = {}
        self._induced: dict[int, SparseMatrix] = {}
        self._lefschetz: dict[tuple[int, ...], int] = {}

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

    def _select_map(self, image: tuple[int, ...]):
        """Make `image` the latest map, dropping the previous map's data."""
        if image != self._image:
            self._image = image
            self._pullbacks = {}
            self._induced = {}

    def pullback(self, image: tuple[int, ...], k: int) -> Pullback:
        """The pullback P_k of the vertex map, shared by every caller that
        asks for the same map until another map is asked for.  The result
        is shared: callers must not modify it.

        This is the one pullback builder.  P_0 is read off the image.  For
        j >= 1, row x of P_j is read off row x[:-1] (the last face of x) of
        P_{j-1}: the extension table's entry for (the prefix's target,
        T(last vertex of x)) is the target of x and the parity the prefix's
        sign is multiplied by.  So P_k is built after P_0..P_{k-1}.  A
        missing entry means the image of x is not a simplex; KeyError is
        raised naming that sorted image, for the first such simplex of the
        lowest degree.
        """
        self._select_map(tuple(image))
        built, image, cx = self._pullbacks, self._image, self.cx
        for j in range(min(k, 0), k + 1):
            if j in built:
                continue
            simplices = cx.simplices(j)
            targets: list[int] = []
            signs: list[int] = []
            add_target, add_sign = targets.append, signs.append
            try:
                if j == 0 and simplices:
                    index = cx.index[0]
                    for (v,) in simplices:
                        add_target(index[image[v],])
                        add_sign(1)
                elif simplices:
                    lower = built[j - 1]
                    lower_target, lower_sign = lower.target_index, lower.sign
                    table = self.extension_table(j)
                    for x, faces in zip(simplices, self.face_rows(j - 1)):
                        p = faces[-1]
                        t, s = table[lower_target[p]][image[x[-1]]]
                        add_target(t)
                        add_sign(s * lower_sign[p])
            except KeyError:
                y = tuple(sorted(image[v] for v in simplices[len(targets)]))
                raise KeyError(f"{y} is not a simplex of the complex") from None
            built[j] = Pullback(j, len(targets), targets, signs)
        return built[k]

    def coboundary(self, k: int) -> SparseMatrix:
        """d_k as sparse integer rows, one per (k+1)-simplex, over the
        k-simplices.  The result is shared: callers must not modify it."""
        if k not in self._d:
            rows = signed_rows(self.face_rows(k))
            self._d[k] = SparseMatrix(len(rows), self.cx.count(k), rows)
        return self._d[k]

    def coboundary_rank(self, k: int) -> int:
        """rank(d_k); zero outside 0..dim."""
        if not 0 <= k <= self.dim:
            return 0
        if k not in self._rank:
            self._rank[k] = rank(self.coboundary(k))
        return self._rank[k]

    def betti(self, k: int) -> int:
        if not 0 <= k <= self.dim:
            return 0
        return self.betti_numbers()[k]

    def betti_numbers(self) -> tuple[int, ...]:
        """b_k = count(k) - rank(d_k) - rank(d_{k-1}), computed on first ask."""
        if self._betti is None:
            self._betti = tuple(
                self.cx.count(k) - self.coboundary_rank(k) - self.coboundary_rank(k - 1)
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
        map, as integer rows over the basis's scale.

        Column j holds the coordinates of [P_k h_j] in the representative
        basis, read off the free-column values of P_k h_j modulo the image
        rows.  P_k h_j is built on its support only: its value at x is
        sign(x) h_j(target(x)), so it is nonzero exactly on the preimages
        of the support of h_j.  The reading is only valid for a cocycle, so
        d_k P_k h_j is first summed through `coface_rows` from that support,
        which reaches every row of d_k with a face in it; every other row
        is zero.  NotInSpanError is raised if a row is not.

        The matrices of the latest map are kept until another map is asked
        for, so the trace and the determinant of one map share one reading.
        The result is shared: callers must not modify it.
        """
        b = self.betti(k)
        if b == 0:
            return SparseMatrix(0, 0, [])
        self._select_map(tuple(image))
        if k not in self._induced:
            pb = self.pullback(self._image, k)
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
            self._induced[k] = SparseMatrix(b, b, out, basis.scale)
        return self._induced[k]

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
            for k in range(self.dim + 1):
                if self.betti(k):
                    m = self.induced_matrix(image, k)
                    trace = m.diagonal_sum()
                    total += (-1) ** k * (trace if m.scale == 1 else Fraction(trace, m.scale))
            if total.denominator != 1:
                raise LinearAlgebraError(
                    f"cohomological trace sum {total} is not an integer")
            self._lefschetz[image] = total.numerator
        return self._lefschetz[image]
