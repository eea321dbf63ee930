"""Dense Fraction-matrix references for the tests.

lefgraph computes on sparse integer rows and signed permutations.  These
helpers rebuild the same objects as dense `linalg.RationalMatrix`es
straight from the complex, and multiply them by the textbook definition, so
the tests can check the sparse code against plain matrix algebra.  The
dense `rank`, `rref` and `nullspace`, the dense pull-back of a cochain, and
the induced-map route that read dense representatives into dense Fraction
matrices live here too, as oracles.  The orbit walk of a single automorphism
is kept here as well, in its plain set-of-tuples form, and so are the
scan of a map's fixed simplices that tests every simplex on its own, every
graph map of a small graph, the multiplied-out det(1 - z M) and the
log-derivative series of a quotient by long division.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from lefgraph import linalg
from lefgraph.cohomology import Pullback, permutation_parity_sign
from lefgraph.dynamics import FixedSimplexRecord, GraphMap
from lefgraph.linalg import (
    LinearAlgebraError,
    NotInSpanError,
    RationalMatrix,
    SparseMatrix,
    _exact,
    det_one_minus_z_blocks,
    poly_mul,
    poly_trim,
)
from lefgraph.symmetry import SymmetryError


def dense(m):
    """A SparseMatrix as a RationalMatrix; a RationalMatrix as it is."""
    if isinstance(m, RationalMatrix):
        return m
    out = RationalMatrix(m.rows, m.cols)
    for row, entries in zip(out.data, m.data):
        for c, x in entries.items():
            row[c] = Fraction(x, m.scale)
    return out


def sparse(m) -> SparseMatrix:
    """A RationalMatrix, or a list of equal rows of ints and Fractions, as
    integer rows over the lcm of its denominators."""
    if not isinstance(m, RationalMatrix):
        m = RationalMatrix.from_rows(m)
    scale = math.lcm(1, *(x.denominator for row in m.data for x in row))
    return SparseMatrix(m.rows, m.cols,
                        [{c: int(x * scale) for c, x in enumerate(row) if x} for row in m.data],
                        scale)


def rank(m: RationalMatrix) -> int:
    """The library's rank of a RationalMatrix."""
    return linalg.rank(sparse(m))


def rref(m: RationalMatrix):
    """The library's sparse RREF of a RationalMatrix, as a RationalMatrix."""
    reduced, pivots = linalg.rref(sparse(m))
    return dense(reduced), pivots


def nullspace(m: RationalMatrix) -> list[list[Fraction]]:
    """Canonical kernel basis, one vector per free column of the RREF.

    Vector k has a 1 in the k-th free column; basis order follows ascending
    free-column index.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced.data[r][f]
        basis.append(v)
    return basis


def pullback_apply(pb: Pullback, f: list) -> list:
    """P_k f for a dense cochain f of length count(k): entry x is
    sign(x) * f(target(x))."""
    return [f[t] if s > 0 else -f[t] for s, t in zip(pb.sign, pb.target_index)]


def induced_matrix(spaces, image: tuple[int, ...], k: int) -> RationalMatrix:
    """The map induced on H^k the way it was computed before it became
    sparse and integer: dense representatives, pulled back by
    `pullback_apply`, checked against every face row of d_k, read by
    Fraction functionals into a dense Fraction matrix.

    The basis is built here from the sparse coboundary as it was: d_k
    eliminated once, representatives on its free columns, classes read
    modulo the Fraction RREF of the image rows.
    """
    b = spaces.betti(k)
    if b == 0:
        return RationalMatrix(0, 0)
    n = spaces.cx.count(k)
    kernel, pivots = linalg.rref(spaces.coboundary(k))
    rows, scale = kernel.data, kernel.scale
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    in_column = {c: [] for c in free}
    for row, p in zip(rows, pivots):
        for c, x in row.items():
            if c != p:
                in_column[c].append((p, x))
    if k == 0:
        kept = list(range(len(free)))
        readers = {c: [(i, 1)] for i, c in enumerate(free)}
    else:
        lower = spaces.face_rows(k - 1)
        image_rows = [{} for _ in range(spaces.cx.count(k - 1))]
        for i, x in enumerate(free):
            for s, f in enumerate(lower[x]):
                image_rows[f][i] = -1 if s % 2 else 1
        reduced, image_pivots = linalg.rref(
            SparseMatrix(len(image_rows), len(free), image_rows))
        image_pivot_set = set(image_pivots)
        kept = [i for i in range(len(free)) if i not in image_pivot_set]
        readers = {free[i]: [(j, 1)] for j, i in enumerate(kept)}
        class_of = {i: j for j, i in enumerate(kept)}
        for row, q in zip(reduced.data, image_pivots):
            readers[free[q]] = [(class_of[i], -Fraction(x, reduced.scale))
                                for i, x in row.items() if i != q]
    pb = spaces.pullback(image, k)
    faces = spaces.face_rows(k)
    out = RationalMatrix(b, b)
    for j, i in enumerate(kept):
        h = [0] * n
        h[free[i]] = scale
        for p, x in in_column[free[i]]:
            h[p] = -x
        w = pullback_apply(pb, h)
        if any(sum(w[f] for f in x[::2]) != sum(w[f] for f in x[1::2]) for x in faces):
            raise NotInSpanError(f"the pullback of an H^{k} representative is not a cocycle")
        column = [0] * b
        for x, a in enumerate(w):
            if a:
                for r, c in readers.get(x, ()):
                    column[r] += c * a
        for r, total in enumerate(column):
            if total:
                out.data[r][j] = Fraction(total, scale)
    return out


def matmul(a, b) -> RationalMatrix:
    """The product a * b of two matrices of either kind."""
    a, b = dense(a), dense(b)
    if a.cols != b.rows:
        raise LinearAlgebraError(
            f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = RationalMatrix(a.rows, b.cols)
    for row, out_row in zip(a.data, out.data):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b.data[k]):
                    if y:
                        out_row[j] += x * y
    return out


def apply(m: RationalMatrix, v: list) -> list[Fraction]:
    """The matrix-vector product m v."""
    if len(v) != m.cols:
        raise LinearAlgebraError("vector length does not match column count")
    return [sum((row[j] * v[j] for j in range(m.cols)), Fraction(0)) for row in m.data]


def summed_coboundary(face_rows, cols: int) -> RationalMatrix:
    """d_k from its row pattern: face i of a row adds (-1)^i in its column,
    so a column repeated in one row gets the sum of its terms."""
    m = RationalMatrix(len(face_rows), cols)
    for row, faces in zip(m.data, face_rows):
        for i, f in enumerate(faces):
            row[f] += (-1) ** i
    return m


def coboundary_matrix(cx, k: int) -> RationalMatrix:
    """Matrix of d_k, rows indexed by (k+1)-simplices, columns by k-simplices:
    face i of a simplex (the simplex minus vertex i) carries (-1)^i."""
    m = RationalMatrix(cx.count(k + 1), cx.count(k))
    for row, x in zip(m.data, cx.simplices(k + 1)):
        for i in range(len(x)):
            row[cx.index[k][x[:i] + x[i + 1:]]] = Fraction((-1) ** i)
    return m


def to_matrix(pb: Pullback) -> RationalMatrix:
    """The signed permutation matrix of a pullback."""
    m = RationalMatrix(pb.size, pb.size)
    for r, (s, t) in enumerate(zip(pb.sign, pb.target_index)):
        m.data[r][t] = Fraction(s)
    return m


def pullback_product(a: Pullback, b: Pullback) -> Pullback:
    """The matrix product a * b of two signed functional maps, row by row.

    The pullback of a composite reverses the order, P(S o T) = P(T) P(S),
    so the pullback of T^n is the product of n copies of P(T).
    """
    targets = [b.target_index[y] for y in a.target_index]
    signs = [s * b.sign[y] for s, y in zip(a.sign, a.target_index)]
    return Pullback(a.k, a.size, targets, signs)


def sorted_pullback(cx, image: tuple[int, ...], k: int) -> Pullback:
    """The pullback on k-forms by its definition: each simplex's image vertex
    list is sorted and looked up, and its sign is the parity of that sort."""
    simplices = cx.simplices(k)
    index = cx.index[k] if simplices else {}
    targets = []
    signs = []
    for x in simplices:
        mapped = [image[v] for v in x]
        y = tuple(sorted(mapped))
        try:
            targets.append(index[y])
        except KeyError:
            raise KeyError(f"{y} is not a simplex of the complex") from None
        signs.append(permutation_parity_sign(mapped))
    return Pullback(k, len(simplices), targets, signs)


def pullback_matrix(cx, image: tuple[int, ...], k: int) -> RationalMatrix:
    return to_matrix(sorted_pullback(cx, image, k))


@dataclass(frozen=True)
class MapOrbit:
    """A periodic orbit of one automorphism: representative, period, members,
    and the signature of T^period on the representative's vertices."""

    representative: tuple[int, ...]
    period: int
    simplices: tuple[tuple[int, ...], ...]  # in visit order from the representative
    sign: int


def simplex_orbits_under_map(cx, t) -> list[MapOrbit]:
    """The t-orbits of all simplices, walked on simplex tuples with a set of
    the visited ones: ordered by representative, members in visit order.
    An orbit's sign applies t p times to the representative's vertices, p
    its period, and counts the parity of the result."""
    if not t.is_automorphism():
        raise SymmetryError("periodic orbits need an automorphism")
    orbits = []
    visited = set()
    for level in cx.by_dim:
        for x in level:
            if x in visited:
                continue
            members = [x]
            visited.add(x)
            y = t.image_simplex(x)
            while y != x:
                visited.add(y)
                members.append(y)
                y = t.image_simplex(y)
            mapped = list(x)
            for _ in members:
                mapped = [t.image[v] for v in mapped]
            orbits.append(MapOrbit(x, len(members), tuple(members),
                                   permutation_parity_sign(mapped)))
    return orbits


def fixed_simplices(cx, t) -> list[FixedSimplexRecord]:
    """All simplices x with t(x) == x as a set, in stored order by
    dimension, each tested on its own: one image per simplex and no orbit
    walk."""
    image = t.image
    out = []
    for level in cx.by_dim:
        for x in level:
            mapped = [image[v] for v in x]
            if tuple(sorted(mapped)) != x:
                continue
            sign = permutation_parity_sign(mapped)
            dim = len(x) - 1
            out.append(FixedSimplexRecord(x, dim, sign, (-1) ** dim * sign))
    return out


def graph_maps(g):
    """Every graph map of g, automorphisms and endomorphisms, by
    backtracking over the vertices in order: vertex v may go to any u
    adjacent to the images of v's lower neighbors."""
    image = [0] * g.n

    def extend(v):
        if v == g.n:
            yield GraphMap(g, image)
            return
        for u in range(g.n):
            if all(g.adjacent(u, image[w]) for w in g.neighbors(v) if w < v):
                image[v] = u
                yield from extend(v + 1)

    yield from extend(0)


def det_one_minus_z(m: SparseMatrix) -> list:
    """Coefficients of det(I - z*M), ascending in z: the product of
    `det_one_minus_z_blocks`, each coefficient an int where it is
    integral, else a Fraction."""
    out = [1]
    for block in det_one_minus_z_blocks(m):
        out = poly_mul(out, block)
    return [_exact(c) for c in out]


def log_derivative_series(num, den, count: int) -> list:
    """l_1..l_count with (num/den)'/(num/den) = sum l_n z^(n-1), for integer
    num and den with num(0) = den(0) != 0, by exact long division of
    num' den - num den' by num den, whose constant term is den(0)^2.  Each
    coefficient is an int where it is integral, else a Fraction."""
    num, den = list(num), list(den)

    def derivative(p):
        return [i * c for i, c in enumerate(p)][1:] or [0]

    left, right = poly_mul(derivative(num), den), poly_mul(num, derivative(den))
    a = poly_trim([(left[i] if i < len(left) else 0) - (right[i] if i < len(right) else 0)
                   for i in range(max(len(left), len(right)))])
    b = poly_mul(num, den)
    series = []
    for i in range(count):
        acc = (a[i] if i < len(a) else 0) - \
            sum(series[j] * b[i - j] for j in range(max(0, i - len(b) + 1), i))
        series.append(_exact(Fraction(acc, b[0])))
    return series
