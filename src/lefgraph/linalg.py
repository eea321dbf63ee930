"""Exact dense linear algebra over the rationals.

Matrices hold arbitrary-precision ``fractions.Fraction`` scalars (plain ints
are upgraded on entry).  No floating point is used anywhere.

Every elimination runs through one integer kernel, `_eliminate`: Bareiss's
fraction-free Gauss-Jordan elimination on rows cleared of their
denominators.  `rank` counts its pivots, `rref` divides its rows by its
scale once, and `nullspace` reads the RREF.  Callers holding integer rows
(the cohomology module, on coboundaries) call the kernel directly.  Bases
are canonical: they come from the reduced row echelon form, so equal inputs
give identical bases.
"""

from __future__ import annotations

import math
from fractions import Fraction


class LinearAlgebraError(ValueError):
    pass


class NotInSpanError(LinearAlgebraError):
    """Raised when a vector that must lie in a subspace does not, such as
    a pulled-back cocycle that is not a cocycle."""


Vector = list[Fraction]


def _as_fraction_rows(data) -> list[list[Fraction]]:
    """Copy the rows, keeping Fraction entries (they are immutable) and
    converting the others."""
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in data]


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


def _integer_row(row) -> tuple[int, list[int]]:
    """(d, d * row) for d the lcm of the row's denominators."""
    d = 1
    for x in row:  # pairwise, so no argument tuple is built per row
        d = math.lcm(d, x.denominator)
    return d, [x.numerator * (d // x.denominator) for x in row]


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot is taken from the first remaining row with a nonzero entry in
    its column, and that row is swapped up to follow the earlier pivot rows.
    With p the new pivot, prev the one before it (1 at the start), y the
    pivot row and f a row's entry in the pivot column, every other row x
    becomes (p*x - f*y) // prev; a row with f = 0 is still rescaled, to
    p*x // prev (skipped where that is a no-op: p == prev, or a zero row).
    By Sylvester's identity every entry stays a minor of the input, so each
    division is exact (Bareiss, Math. Comp. 22, 1968).

    Returns (scale, pivot columns), scale being the last pivot: the first
    len(pivots) rows divided by scale are the reduced row echelon form, and
    the remaining rows are zero.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        y = rows[r]
        p = y[c]
        for i, x in enumerate(rows):
            if i == r:
                continue
            f = x[c]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(x, y)]
            elif p != prev and any(x):
                rows[i] = [p * a // prev for a in x]
        pivots.append(c)
        prev = p
    return prev, pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The kernel's rows divided by its scale; RREF is unique, so the result
    does not depend on the pivot rows chosen.
    """
    rows = [_integer_row(row)[1] for row in m.data]
    scale, pivots = _eliminate(rows, m.cols)
    zero = Fraction(0)
    reduced = [[Fraction(x, scale) if x else zero for x in row] for row in rows]
    return RationalMatrix(m.rows, m.cols, reduced), pivots


def rank(m: RationalMatrix) -> int:
    """Number of pivots of the kernel's elimination."""
    return len(_eliminate([_integer_row(row)[1] for row in m.data], m.cols)[1])


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
            shifted = RationalMatrix(n, n, mk.data)
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
