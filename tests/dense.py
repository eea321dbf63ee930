"""Dense Fraction-matrix references for the tests.

lefgraph computes on sparse integer rows and signed permutations.  These
helpers rebuild the same objects as dense `RationalMatrix`es straight from
the complex, and multiply them by the textbook definition, so the tests can
check the sparse code against plain matrix algebra.
"""

from fractions import Fraction

from lefgraph.cohomology import Pullback, pullback
from lefgraph.linalg import LinearAlgebraError, RationalMatrix


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


def pullback_matrix(cx, image: tuple[int, ...], k: int) -> RationalMatrix:
    return to_matrix(pullback(cx, image, k))

