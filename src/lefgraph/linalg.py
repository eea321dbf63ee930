"""Exact dense linear algebra over the rationals.

Everything here works with arbitrary-precision ``fractions.Fraction`` scalars
(or plain ints, which are upgraded on entry).  No floating point is used
anywhere.  Bases returned by kernel/image routines are canonical: they come
from the reduced row echelon form, so equal inputs give identical bases.
"""

from __future__ import annotations

import math
from fractions import Fraction


class LinearAlgebraError(ValueError):
    pass


class NotInSpanError(LinearAlgebraError):
    """Raised when a solve is attempted against a vector outside the span."""


Vector = list[Fraction]


def _as_fraction_rows(data) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in data]


class RationalMatrix:
    """A dense matrix of Fractions with explicit shape.

    The explicit shape matters because coboundary matrices routinely have
    zero rows or zero columns and the arithmetic must still make sense.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            self.data = _as_fraction_rows(data)
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise LinearAlgebraError(
                    f"data does not match declared shape {rows}x{cols}")

    @classmethod
    def from_rows(cls, data: list[list]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_columns(cls, columns: list[Vector], height: int) -> "RationalMatrix":
        m = cls(height, len(columns))
        for j, col in enumerate(columns):
            if len(col) != height:
                raise LinearAlgebraError("column length does not match height")
            for i, x in enumerate(col):
                m.data[i][j] = Fraction(x)
        return m

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.data == other.data

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def column(self, j: int) -> Vector:
        return [row[j] for row in self.data]

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RationalMatrix":
        t = RationalMatrix(self.cols, self.rows)
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                t.data[j][i] = x
        return t

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise LinearAlgebraError("trace needs a square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"shape mismatch: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}")
        out = RationalMatrix(self.rows, other.cols)
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                s = srow[k]
                if s == 0:
                    continue
                prow = other.data[k]
                for j in range(other.cols):
                    if prow[j] != 0:
                        orow[j] += s * prow[j]
        return out

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise LinearAlgebraError("vector length does not match column count")
        return [sum((row[j] * v[j] for j in range(self.cols) if v[j] != 0),
                    Fraction(0)) for row in self.data]


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    RREF is unique, so the result does not depend on pivot choices; rows are
    picked by smallest numerator+denominator bit length purely to keep
    intermediate coefficients small.
    """
    a = _as_fraction_rows(m.data)
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            x = a[i][c]
            if x != 0:
                size = x.numerator.bit_length() + x.denominator.bit_length()
                if best is None or size < best[0]:
                    best = (size, i)
        if best is None:
            continue
        a[r], a[best[1]] = a[best[1]], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return RationalMatrix(nrows, ncols, a), pivots


def rank(m: RationalMatrix) -> int:
    """Rank via fraction-free Bareiss elimination on an integer rescaling."""
    if m.rows == 0 or m.cols == 0:
        return 0
    a: list[list[int]] = []
    for row in m.data:
        scale = 1
        for x in row:  # pairwise, so no argument tuple is built per row
            scale = math.lcm(scale, x.denominator)
        a.append([int(x * scale) for x in row])
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def nullspace(m: RationalMatrix) -> list[Vector]:
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


def column_space_basis(m: RationalMatrix) -> list[Vector]:
    """Canonical basis of the column space: nonzero rows of RREF(transpose)."""
    reduced, pivots = rref(m.transpose())
    return [reduced.data[r][:] for r in range(len(pivots))]


def solve_in_span(columns: list[Vector], target: Vector) -> Vector | None:
    """Coefficients expressing target in the span of the given columns.

    Returns None when the target lies outside the span.  Free coefficients
    are set to zero, so the answer is deterministic.
    """
    width = len(columns)
    height = len(target)
    aug = RationalMatrix(height, width + 1)
    for j, col in enumerate(columns):
        if len(col) != height:
            raise LinearAlgebraError("column height does not match target")
        for i, x in enumerate(col):
            aug.data[i][j] = Fraction(x)
    for i, x in enumerate(target):
        aug.data[i][width] = Fraction(x)
    reduced, pivots = rref(aug)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for r, c in enumerate(pivots):
        x[c] = reduced.data[r][width]
    return x


class SpanSolver:
    """Repeated exact solves against a fixed independent set of columns.

    Picks a row subset on which the columns form an invertible square matrix,
    inverts it once, then each solve is a small matrix-vector product plus a
    full verification that the reconstruction matches the target.
    """

    def __init__(self, columns: list[Vector], height: int):
        self.columns = [[Fraction(x) for x in col] for col in columns]
        self.height = height
        self.width = len(columns)
        for col in self.columns:
            if len(col) != height:
                raise LinearAlgebraError("column height mismatch")
        self._select_rows()

    def _select_rows(self):
        # Greedy: keep the first rows (as width-vectors) that are independent.
        selected: list[int] = []
        reducer: list[tuple[int, Vector]] = []  # (pivot position, unit row)
        for i in range(self.height):
            v = [col[i] for col in self.columns]
            for pos, unit in reducer:
                if v[pos] != 0:
                    f = v[pos]
                    v = [x - f * y for x, y in zip(v, unit)]
            lead = next((j for j, x in enumerate(v) if x != 0), None)
            if lead is None:
                continue
            inv = Fraction(1) / v[lead]
            reducer.append((lead, [x * inv for x in v]))
            selected.append(i)
            if len(selected) == self.width:
                break
        if len(selected) != self.width:
            raise LinearAlgebraError("columns are linearly dependent")
        self.row_indices = selected
        square = RationalMatrix(self.width, self.width,
                                [[self.columns[j][i] for j in range(self.width)]
                                 for i in selected])
        self.inverse = _invert(square)

    def solve(self, target: Vector) -> Vector:
        """Unique coefficient vector c with columns . c == target."""
        if len(target) != self.height:
            raise LinearAlgebraError("target height mismatch")
        restricted = [Fraction(target[i]) for i in self.row_indices]
        coeffs = self.inverse.apply(restricted)
        # The restricted system has a unique solution; verify on all rows.
        for i in range(self.height):
            acc = Fraction(0)
            for j, c in enumerate(coeffs):
                if c != 0:
                    acc += c * self.columns[j][i]
            if acc != target[i]:
                raise NotInSpanError("target is not in the span")
        return coeffs


def _invert(m: RationalMatrix) -> RationalMatrix:
    n = m.rows
    aug = RationalMatrix(n, 2 * n)
    for i in range(n):
        for j in range(n):
            aug.data[i][j] = m.data[i][j]
        aug.data[i][n + i] = Fraction(1)
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise LinearAlgebraError("matrix is singular")
    return RationalMatrix(n, n, [row[n:] for row in reduced.data])


def det_one_minus_z(m: RationalMatrix) -> list[Fraction]:
    """Coefficients of det(I - z*M), ascending in z.

    Uses the Faddeev-LeVerrier recurrence for the characteristic polynomial:
    with M_1 = M, c_k = -trace(M * N_k)/k, the coefficients c_k are exactly
    the z^k coefficients of det(I - z*M).
    """
    n = m.rows
    if n != m.cols:
        raise LinearAlgebraError("determinant needs a square matrix")
    coeffs = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            shifted = RationalMatrix(n, n, [row[:] for row in mk.data])
            for i in range(n):
                shifted.data[i][i] += coeffs[-1]
            mk = m * shifted
        coeffs.append(-mk.trace() / k)
    return poly_trim(coeffs)


# ---------------------------------------------------------------------------
# Polynomials in z, stored as ascending coefficient lists of ints; trimming
# and multiplication take Fraction coefficients as well.


def poly_trim(c: list[int]) -> list[int]:
    out = list(c)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out if out else [0]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if a == [0] or b == [0]:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a: list[int], e: int) -> list[int]:
    if e < 0:
        raise ValueError("negative exponent")
    out = [1]
    base = list(a)
    while e:
        if e & 1:
            out = poly_mul(out, base)
        e >>= 1
        if e:
            base = poly_mul(base, base)
    return out


def poly_derivative(a: list[int]) -> list[int]:
    if len(a) <= 1:
        return [0]
    return poly_trim([i * c for i, c in enumerate(a)][1:])


def poly_divmod(a: list[int], b: list[int]):
    """Quotient and remainder over Q, returned as Fraction coefficient lists."""
    if poly_trim(b) == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in poly_trim(a)]
    d = [Fraction(x) for x in poly_trim(b)]
    if len(r) < len(d):
        return [Fraction(0)], r
    q = [Fraction(0)] * (len(r) - len(d) + 1)
    lead = d[-1]
    for i in range(len(r) - len(d), -1, -1):
        coeff = r[i + len(d) - 1] / lead
        q[i] = coeff
        if coeff != 0:
            for j, x in enumerate(d):
                r[i + j] -= coeff * x
    return q, poly_trim(r)


def poly_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials; raises if not divisible."""
    q, r = poly_divmod(a, b)
    if poly_trim(r) != [Fraction(0)]:
        raise LinearAlgebraError("polynomials do not divide exactly")
    out = []
    for x in q:
        if x.denominator != 1:
            raise LinearAlgebraError("quotient is not integral")
        out.append(int(x))
    return poly_trim(out)


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Monic-free gcd over Q, normalized to primitive integer coefficients.

    Normalization: content 1, and the lowest nonzero coefficient positive.
    """
    fa = [Fraction(x) for x in poly_trim(a)]
    fb = [Fraction(x) for x in poly_trim(b)]
    while fb != [Fraction(0)]:
        _, r = poly_divmod([x for x in fa], [x for x in fb])
        fa, fb = fb, r
        fa = poly_trim(fa)
        fb = poly_trim(fb)
    if fa == [Fraction(0)]:
        return [0]
    denom = math.lcm(*(x.denominator for x in fa))
    ints = [int(x * denom) for x in fa]
    content = math.gcd(*ints)
    ints = [x // content for x in ints]
    low = next(x for x in ints if x != 0)
    if low < 0:
        ints = [-x for x in ints]
    return poly_trim(ints)


_CYCLOTOMIC_CACHE: dict[int, list[int]] = {}


def cyclotomic_factor(d: int) -> list[int]:
    """The degree-phi(d) building block F_d with F_d(0) = 1.

    F_1 = 1 - z and F_d for d >= 2 is the d-th cyclotomic polynomial, so that
    1 - z^n = product of F_d over divisors d of n.
    """
    if d < 1:
        raise ValueError("d must be positive")
    cached = _CYCLOTOMIC_CACHE.get(d)
    if cached is not None:
        return list(cached)
    # 1 - z^d divided by the F_e for proper divisors e of d.
    poly = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            poly = poly_div_exact(poly, cyclotomic_factor(e))
    _CYCLOTOMIC_CACHE[d] = list(poly)
    return poly


def one_minus_z_to_the(p: int) -> dict[int, int]:
    """Cyclotomic exponents of 1 - z^p: every divisor of p once."""
    return {d: 1 for d in range(1, p + 1) if p % d == 0}


def one_plus_z_to_the(p: int) -> dict[int, int]:
    """Cyclotomic exponents of 1 + z^p = (1 - z^2p)/(1 - z^p)."""
    return {d: 1 for d in range(1, 2 * p + 1)
            if (2 * p) % d == 0 and p % d != 0}
