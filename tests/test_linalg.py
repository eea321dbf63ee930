"""Exact linear algebra and polynomial helpers.

The oracles here are deliberately independent implementations: textbook
fraction eliminations for rank and for the reduced row echelon form, and
the Leibniz expansion and permutation cycle decomposition for the
determinant polynomial.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense
from lefgraph import linalg
from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import build_complex
from lefgraph.linalg import (
    LinearAlgebraError,
    SparseMatrix,
    binomial_power,
    cyclotomic_exponents,
    cyclotomic_factor,
    det_one_minus_z_blocks,
    euler_phi,
    mobius,
    one_minus_z_to_the,
    one_plus_z_to_the,
    poly_mul,
    poly_pow,
    poly_trim,
    rank,
    rref,
)
from lefgraph.verification import named_corpus
from dense import RationalMatrix, apply, det_one_minus_z, gauss_jordan, nullspace, sparse


def naive_rank(rows):
    """Oracle: plain Gaussian elimination with Fractions, first nonzero pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def naive_rref(rows, ncols):
    """Oracle: plain Gauss-Jordan elimination with Fractions, first nonzero
    pivot, each pivot row divided by its pivot at once."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


FRACTIONS = st.fractions(-4, 4, max_denominator=6)
ENTRIES = st.one_of(st.just(Fraction(0)), FRACTIONS)


@st.composite
def fraction_rows(draw, nrows, ncols):
    """nrows x ncols Fractions with some rows and columns zeroed, and some
    rows replaced by combinations of two others, so the rank drops."""
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combine")))
        if kind == "zero":
            rows[i] = [Fraction(0)] * ncols
        elif kind == "combine":
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            s, t = draw(FRACTIONS), draw(FRACTIONS)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    zero_columns = draw(st.sets(st.integers(0, ncols - 1),
                                max_size=2)) if ncols else ()
    for j in zero_columns:
        for row in rows:
            row[j] = Fraction(0)
    return rows


@st.composite
def fraction_matrices(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return RationalMatrix(nrows, ncols, draw(fraction_rows(nrows, ncols)))


def test_matrix_constructor_copies_rows_and_converts_ints():
    data = [[1, Fraction(1, 2)], [0, -3]]
    m = RationalMatrix(2, 2, data)
    data[0][0] = 7
    data[1].append(5)
    assert m.data == [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(-3)]]
    assert all(type(x) is Fraction for row in m.data for x in row)


def test_rank_examples():
    assert dense.rank(RationalMatrix(3, 3)) == 0
    assert dense.rank(RationalMatrix.identity(4)) == 4
    # coboundary of K_3 on vertices: rows (0,1), (0,2), (1,2)
    d0 = RationalMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert dense.rank(d0) == 2


def test_rank_empty_shapes():
    assert dense.rank(RationalMatrix(0, 5)) == 0
    assert dense.rank(RationalMatrix(5, 0)) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_rank_matches_naive_elimination(rows):
    m = RationalMatrix.from_rows(rows)
    assert dense.rank(m) == naive_rank(rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_rank_nullity(rows):
    m = RationalMatrix.from_rows(rows)
    assert dense.rank(m) + len(nullspace(m)) == m.cols


def test_nullspace_examples():
    assert nullspace(RationalMatrix.identity(3)) == []
    basis = nullspace(RationalMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * (-1) == v[1] and v != [0, 0]


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        m = RationalMatrix.from_rows(rows)
        for v in nullspace(m):
            assert all(x == 0 for x in apply(m, v))


@settings(max_examples=100, deadline=None)
@given(fraction_matrices())
def test_rref_matches_naive_gauss_jordan(m):
    reduced, pivots = dense.rref(m)
    expected, expected_pivots = naive_rref(m.data, m.cols)
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
    assert pivots == expected_pivots
    assert reduced.data == expected
    assert dense.rank(m) == len(expected_pivots)


# Mostly +-1 entries, as in coboundaries, so -1 pivots are common; the rarer
# 2, 3 and fractions give non-unit pivots, which rescale the other rows.
SPARSE_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def sparse_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(SPARSE_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)) if ncols else ():
        for row in rows:
            row[j] = 0
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example(([[-1, 1, 0], [1, 0, -1], [0, -1, 1]], 3))  # -1 pivots, rank 2
@example(([[2, 1], [1, 1]], 2))  # pivot 2 then 1: the other rows are rescaled
@example(([[0, 3, 0], [0, 0, 0], [0, 1, 2]], 3))  # zero row and column
@example(([], 4))
@example(([[], [], []], 0))
def test_sparse_rank_and_rref_match_naive_gauss_jordan(case):
    rows, ncols = case
    m = sparse(RationalMatrix(len(rows), ncols, rows))
    before = [dict(row) for row in m.data]
    reduced, pivots = rref(m)
    expected, expected_pivots = naive_rref(rows, ncols)
    assert isinstance(reduced, SparseMatrix)
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
    assert pivots == expected_pivots
    assert dense.dense(reduced).data == expected
    assert rank(m) == len(expected_pivots)
    assert m.data == before  # rows are shared with the kernel, never modified


# Integer entries, mostly +-1 as in coboundaries; the rarer 2, -3, 5 and -4
# give negative and non-unit pivots, which rescale the rows below them.
INTEGER_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3, 5, -4])


@st.composite
def integer_matrices(draw):
    """Sparse integer matrices, tall or wide, with some rows and columns
    zeroed and some rows replaced by integer combinations of two others, so
    the rank drops."""
    short, long = draw(st.integers(0, 4)), draw(st.integers(0, 9))
    nrows, ncols = draw(st.sampled_from([(short, long), (long, short)]))
    rows = [{c: x for c in range(ncols) if (x := draw(INTEGER_ENTRIES))} for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combine")))
        if kind == "zero":
            rows[i] = {}
        elif kind == "combine":
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            combined = {c: s * rows[a].get(c, 0) + t * rows[b].get(c, 0) for c in range(ncols)}
            rows[i] = {c: x for c, x in combined.items() if x}
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)) if ncols else ():
        for row in rows:
            row.pop(j, None)
    return SparseMatrix(nrows, ncols, rows)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(SparseMatrix(3, 3, [{0: -1, 1: 1}, {0: 1, 2: -1}, {1: -1, 2: 1}]))  # -1 pivots, rank 2
@example(SparseMatrix(2, 2, [{0: 2, 1: 1}, {0: 1, 1: 1}]))  # pivot 2 then 1
@example(SparseMatrix(3, 2, [{0: -2, 1: 3}, {0: 4, 1: 1}, {0: 6, 1: 4}]))  # tall, rank 2
@example(SparseMatrix(2, 4, [{1: 3, 3: -1}, {1: -6, 2: 5, 3: 2}]))  # wide, zero column
@example(SparseMatrix(0, 4, []))
@example(SparseMatrix(3, 0, [{}, {}, {}]))
def test_rref_is_the_gauss_jordan_elimination_row_for_row(m):
    """Back substitution from the forward pass gives the rows, scale and
    pivots that Gauss-Jordan elimination with the same pivot rule gives."""
    before = [dict(row) for row in m.data]
    expected, expected_pivots = gauss_jordan(m)
    reduced, pivots = rref(m)
    assert (reduced, pivots) == (expected, expected_pivots)
    assert rank(m) == len(pivots)
    assert m.data == before  # rows are shared with the forward pass, never modified


def test_coboundary_rrefs_are_the_gauss_jordan_elimination():
    for name, g in named_corpus():
        spaces = CochainSpaces(build_complex(g))
        for k in range(spaces.dim + 1):
            d = spaces.coboundary(k)
            assert rref(d) == gauss_jordan(d), (name, k)


def test_rank_then_rref_run_one_forward_pass(monkeypatch):
    runs = []

    def counted(data, ncols):
        runs.append(ncols)
        return forward(data, ncols)

    forward = linalg._bareiss_forward
    monkeypatch.setattr(linalg, "_bareiss_forward", counted)
    m = SparseMatrix(3, 3, [{0: 2, 1: 1}, {0: -1, 2: 3}, {1: 1, 2: 6}])
    assert rank(m) == 2
    reduced, pivots = rref(m)
    assert rref(m) == (reduced, pivots) and rank(m) == 2
    assert runs == [3]
    assert rank(SparseMatrix(3, 3, [dict(row) for row in m.data])) == 2
    assert runs == [3, 3]


def test_equality_ignores_the_kept_forward_pass():
    rows = [{0: 1, 1: -1}, {1: 2}]
    a, b = SparseMatrix(2, 2, rows), SparseMatrix(2, 2, [dict(row) for row in rows])
    rank(a)
    assert a._forward is not None and b._forward is None
    assert a == b


def test_rref_is_the_kernels_integer_rows_over_its_scale():
    """Bareiss keeps every entry a minor: the pivots 2 then 3 leave both
    rows at 6, the determinant, and the RREF is read over that scale."""
    reduced, pivots = rref(SparseMatrix(2, 2, [{0: 2}, {1: 3}]))
    assert (reduced.data, reduced.scale, pivots) == ([{0: 6}, {1: 6}], 6, [0, 1])
    assert reduced == SparseMatrix(2, 2, [{0: 6}, {1: 6}], 6)
    assert reduced != SparseMatrix(2, 2, [{0: 1}, {1: 1}])


def test_rref_empty_shapes():
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        reduced, pivots = dense.rref(RationalMatrix(rows, cols))
        assert reduced == RationalMatrix(rows, cols) and pivots == []


def test_rref_is_canonical():
    # Same row space entered in different orders gives the same RREF.
    a = RationalMatrix.from_rows([[2, 4, 0], [1, 2, 1]])
    b = RationalMatrix.from_rows([[1, 2, 1], [3, 6, 1]])
    ra, pa = dense.rref(a)
    rb, pb = dense.rref(b)
    assert pa == pb and ra.data == rb.data


def test_det_one_minus_z_examples():
    assert det_one_minus_z(sparse([[1]])) == [1, -1]
    assert det_one_minus_z(sparse([[-1]])) == [1, 1]
    swap = sparse([[0, 1], [1, 0]])
    assert det_one_minus_z(swap) == [1, 0, -1]


def test_det_one_minus_z_of_an_integer_matrix_has_int_coefficients():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = sparse([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        coefficients = det_one_minus_z(m)
        assert all(type(c) is int for c in coefficients), coefficients
    half = det_one_minus_z(sparse([[Fraction(1, 2)]]))
    assert half == [1, Fraction(-1, 2)] and type(half[0]) is int
    assert type(half[1]) is Fraction


def test_det_one_minus_z_constant_term():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = sparse([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)])
        assert det_one_minus_z(m)[0] == 1


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_det_one_minus_z_permutation_cycle_type():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        mat = SparseMatrix(n, n, [{p: 1} for p in perm])
        # oracle: cycle lengths by direct traversal
        seen = [False] * n
        expected = [1]
        for s in range(n):
            if seen[s]:
                continue
            length = 0
            v = s
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            expected = convolve(expected, [1] + [0] * (length - 1) + [-1])
        got = det_one_minus_z(mat)
        assert [Fraction(x) for x in expected] == got


def leibniz_det_one_minus_z(rows):
    """Oracle: det(I - z*M) = sum over permutations s of sign(s) times the
    product of (delta(i, s(i)) - z * M[i][s(i)])."""
    n = len(rows)
    total = [Fraction(0)] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [Fraction(sign)]
        for i, j in enumerate(perm):
            term = convolve(term, [Fraction(int(i == j)), -Fraction(rows[i][j])])
        total = [a + b for a, b in zip(total, term)]
    return poly_trim(total)


@st.composite
def square_matrices(draw):
    """Small square matrices with zeros on the subdiagonal (the Hessenberg
    form splits into blocks there), permutation matrices and singular ones."""
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("general", "block", "permutation", "singular")))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
        return [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    rows = [[draw(SPARSE_ENTRIES) for _ in range(n)] for _ in range(n)]
    if kind == "block":
        for i in range(1, n):
            if draw(st.booleans()):
                for r in range(i, n):
                    for c in range(i):
                        rows[r][c] = 0
    elif kind == "singular" and n >= 2:
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[b] = [2 * x for x in rows[a]] if a != b else [0] * n
    return rows


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])  # a 3-cycle: det(I - zM) = 1 - z^3
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # zero subdiagonal throughout
@example([[1, 2], [2, 4]])  # singular
@example([[3]])  # orders 1 and 2 are already Hessenberg: no reduction
@example([[0, 1], [-1, 0]])
@example([[Fraction(1, 2), 0], [3, -2]])
@example([])
def test_det_one_minus_z_matches_leibniz_expansion(rows):
    assert det_one_minus_z(sparse(rows)) == leibniz_det_one_minus_z(rows)


def test_det_blocks_split_at_zero_subdiagonal_entries():
    """The identity's Hessenberg form is itself, with a zero subdiagonal
    throughout: one block 1 - z per row, found in time linear in n.  A
    3-cycle beside a sign -1 fixed point, over the scale 2, keeps its
    block whole."""
    assert det_one_minus_z_blocks(SparseMatrix(3000, 3000, [{i: 1} for i in range(3000)])) == \
        [[1, -1]] * 3000
    three_cycle = SparseMatrix(4, 4, [{1: 2}, {2: 2}, {0: 2}, {3: -2}], 2)
    assert det_one_minus_z_blocks(three_cycle) == [[1, 0, 0, -1], [1, 1]]
    # Orders 1 and 2 skip the reduction; they split at a zero subdiagonal.
    assert det_one_minus_z_blocks(SparseMatrix(1, 1, [{0: -3}], 2)) == [[1, Fraction(3, 2)]]
    assert det_one_minus_z_blocks(SparseMatrix(2, 2, [{0: 1, 1: 2}, {1: 5}])) == \
        [[1, -1], [1, -5]]
    assert det_one_minus_z_blocks(SparseMatrix(2, 2, [{1: 1}, {0: -1}])) == [[1, 0, 1]]
    assert det_one_minus_z(SparseMatrix(0, 0, [])) == [1]


def test_poly_arithmetic():
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
    assert poly_trim([1, 2, 0, 0]) == [1, 2]


def test_cyclotomic_factors():
    assert cyclotomic_factor(1) == [1, -1]
    assert cyclotomic_factor(2) == [1, 1]
    assert cyclotomic_factor(3) == [1, 1, 1]
    assert cyclotomic_factor(4) == [1, 0, 1]
    assert cyclotomic_factor(6) == [1, -1, 1]
    # product over divisors reassembles 1 - z^n
    for n in range(1, 13):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_factor(d))
        assert prod == [1] + [0] * (n - 1) + [-1]


def test_plus_minus_exponent_splits():
    for p in range(1, 9):
        minus = [1]
        for d in one_minus_z_to_the(p):
            minus = poly_mul(minus, cyclotomic_factor(d))
        assert minus == [1] + [0] * (p - 1) + [-1]
        plus = [1]
        for d in one_plus_z_to_the(p):
            plus = poly_mul(plus, cyclotomic_factor(d))
        assert plus == [1] + [0] * (p - 1) + [1]


def test_euler_phi_is_the_degree_of_the_cyclotomic_factor():
    for d in range(1, 60):
        assert euler_phi(d) == len(cyclotomic_factor(d)) - 1


def test_mobius_sums_to_zero_over_the_divisors_of_n_above_1():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for n in range(1, 200):
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1), n


def test_binomial_power_equals_repeated_products():
    for e in range(7):
        for s in (1, -1):
            for step in (1, 2, 3):
                assert binomial_power(e, s, step) == \
                    poly_pow([1] + [0] * (step - 1) + [s], e), (e, s, step)


def test_cyclotomic_exponents_peel_products_of_cyclotomic_factors():
    """Random products of F_d, d | order, times a factor with no root of
    unity as a root or with roots of another order: the exponents come
    back, and exactly that factor is left."""
    rng = random.Random(11)
    for _ in range(200):
        order = rng.choice([1, 2, 4, 6, 12, 30, 60, 255255])
        divisors = [d for d in range(1, 40) if order % d == 0]
        exponents = {d: rng.randrange(1, 4)
                     for d in rng.sample(divisors, min(3, len(divisors)))}
        rest = rng.choice([[1], [1, -2], [1, 1, 3], cyclotomic_factor(8),
                           poly_mul([1, 2], cyclotomic_factor(9))])
        a = rest
        for d, e in exponents.items():
            a = poly_mul(a, poly_pow(cyclotomic_factor(d), e))
        assert cyclotomic_exponents(a, order) == (exponents, rest), (order, exponents, rest)
    # rational coefficients and any constant term, which what is left keeps
    assert cyclotomic_exponents([-3, 0, 3], 2) == ({1: 1, 2: 1}, [-3])
    half = poly_mul([1, Fraction(-1, 2)], [1, 0, -1])
    assert cyclotomic_exponents(half, 2) == ({1: 1, 2: 1}, [1, Fraction(-1, 2)])


@pytest.mark.parametrize("rows, cols, data, scale", [
    (2, 2, [{2: 1}, {}], 1),             # a column outside the shape
    (3, 2, [{0: 1}, {}], 1),             # fewer rows than declared
    (1, 1, [{0: Fraction(1, 2)}], 1),    # a Fraction entry
    (1, 1, [{0: Fraction(2, 1)}], 1),    # an integral Fraction is no int either
    (1, 1, [{0: 1}], 0),                 # scale 0
    (1, 1, [{0: 1}], -2),                # a negative scale
])
def test_sparse_matrix_refuses_anything_but_integer_rows_over_a_positive_scale(
        rows, cols, data, scale):
    with pytest.raises(LinearAlgebraError):
        SparseMatrix(rows, cols, data, scale)


def test_matrix_shape_guards():
    with pytest.raises(LinearAlgebraError, match="square"):
        det_one_minus_z_blocks(SparseMatrix(2, 3, [{2: 1}, {}]))
    with pytest.raises(LinearAlgebraError):
        RationalMatrix(2, 3).trace()
