"""Dense Fraction-matrix references for the tests.

lefgraph computes on sparse integer rows and signed permutations.  These
helpers rebuild the same objects as dense `RationalMatrix`es straight from
the complex, and multiply them by the textbook definition, so the tests can
check the sparse code against plain matrix algebra.  The orbit walk of a
single automorphism is kept here too, in its plain set-of-tuples form.
"""

from fractions import Fraction

from lefgraph.cohomology import Pullback, permutation_parity_sign
from lefgraph.linalg import LinearAlgebraError, RationalMatrix
from lefgraph.symmetry import MapOrbit, SymmetryError


def dense(m):
    """A SparseMatrix as a RationalMatrix; a RationalMatrix as it is."""
    if isinstance(m, RationalMatrix):
        return m
    out = RationalMatrix(m.rows, m.cols)
    for row, entries in zip(out.data, m.data):
        for c, x in entries.items():
            row[c] = Fraction(x)
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
