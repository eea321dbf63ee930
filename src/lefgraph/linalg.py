"""Exact linear algebra over the rationals.

Scalars are arbitrary-precision ints and ``fractions.Fraction``s; no floating
point is used anywhere.  A `RationalMatrix` is dense (the small matrices
induced on cohomology); a `SparseMatrix` keeps one {column: value} dict per
row (coboundaries and the image rows of cohomology, which are mostly zero).

Every elimination runs through one kernel, `_eliminate`: Bareiss's
fraction-free Gauss-Jordan elimination on sparse integer rows.  `rank` and
`rref` take either kind of matrix and clear each row of its denominators
first; `rank` counts the kernel's pivots, `rref` divides its rows by its
scale once, and `nullspace` reads the RREF.  Callers holding integer rows
(the cohomology module, on coboundaries) call the kernel directly.  Bases
are canonical: they come from the reduced row echelon form, so equal inputs
give identical bases.

`det_one_minus_z` reduces a square matrix to Hessenberg form by similarity
and reads the characteristic polynomial off the Hessenberg recurrence.
`cyclotomic_exponents` peels the cyclotomic factors F_d off such a
polynomial by exact integer division.
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


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when it is one, so that sums of ints stay in ints."""
    return x.numerator if x.denominator == 1 else x


class RationalMatrix:
    """A dense matrix of Fractions with explicit shape.

    The explicit shape matters because a matrix may have zero rows or zero
    columns, like the map induced on a zero cohomology group.
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


class SparseMatrix:
    """A matrix with explicit shape kept as one {column: value} dict per row,
    zero entries left out; values are ints or Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[dict[int, int | Fraction]]):
        if len(data) != rows or any(not 0 <= c < cols for row in data for c in row):
            raise LinearAlgebraError(f"data does not match declared shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols})"


def _integer_rows(m: RationalMatrix | SparseMatrix) -> list[dict[int, int]]:
    """The rows of m as sparse integer rows, each multiplied by the lcm of
    its denominators.  Integer rows of a SparseMatrix are shared, not
    copied: the kernel never modifies a row in place."""
    if isinstance(m, SparseMatrix):
        rows = m.data
    else:
        rows = [{c: x for c, x in enumerate(row) if x} for row in m.data]
    out = []
    for row in rows:
        d = 1
        for x in row.values():  # pairwise, so no argument tuple is built per row
            d = math.lcm(d, x.denominator)
        if d == 1 and all(type(x) is int for x in row.values()):
            out.append(row)
        else:
            out.append({c: x.numerator * (d // x.denominator) for c, x in row.items()})
    return out


def _eliminate(rows: list[dict[int, int]], ncols: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows.

    The list is reordered and its rows replaced; no row dict is modified,
    so the caller's rows may be shared.  Each pivot is taken from the first
    remaining row with a nonzero entry in its column, and that row is moved
    up to follow the earlier pivot rows; a negative pivot's row is negated
    first.  With p the new pivot, prev the one before it (1 at the start),
    y the pivot row and f a row's entry in the pivot column, every other
    row x becomes (p*x - f*y) // prev; a row with f = 0 becomes p*x // prev,
    which leaves it as it is while p == prev.  By Sylvester's identity every
    entry stays a minor of the input (with the negated rows negated), so
    each division is exact (Bareiss, Math. Comp. 22, 1968).  Coboundary
    pivots are almost always 1, so a step usually touches only the rows
    with a nonzero in its column.

    Returns (scale, pivot columns), scale being the last pivot: the first
    len(pivots) rows divided by scale are the reduced row echelon form, and
    the remaining rows are empty.
    """
    nrows = len(rows)
    # Rows keep their input index i; order[r] is the row at position r.
    order = list(range(nrows))
    position = list(range(nrows))
    holders: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        candidates = [position[i] for i in holders.get(c, ()) if position[i] >= r]
        if not candidates:
            continue
        at = min(candidates)
        piv = order[at]
        order[r], order[at] = piv, order[r]
        position[piv], position[order[at]] = r, at
        y = rows[piv]
        p = y[c]
        if p < 0:
            y = rows[piv] = {col: -a for col, a in y.items()}
            p = -p
        hit = holders[c] - {piv}
        for i in hit:
            x = rows[i]
            f = x[c]
            new = {col: p * a for col, a in x.items()} if p != 1 else dict(x)
            for col, b in y.items():
                a = new.get(col, 0) - f * b
                if a:
                    new[col] = a
                else:
                    del new[col]
            if prev != 1:
                new = {col: a // prev for col, a in new.items()}
            for col in y:
                if col in new:
                    if col not in x:
                        holders.setdefault(col, set()).add(i)
                elif col in x:
                    holders[col].discard(i)
            rows[i] = new
        if p != prev:
            for i, x in enumerate(rows):
                if x and i != piv and i not in hit:
                    rows[i] = {col: p * a // prev for col, a in x.items()}
        pivots.append(c)
        prev = p
    rows[:] = [rows[i] for i in order]
    return prev, pivots


def rref(m: RationalMatrix | SparseMatrix):
    """Reduced row echelon form and the list of pivot columns, as a matrix
    of the same kind as m (a SparseMatrix's entries are ints where exact).

    The kernel's rows divided by its scale; RREF is unique, so the result
    does not depend on the pivot rows chosen.
    """
    rows = _integer_rows(m)
    scale, pivots = _eliminate(rows, m.cols)
    reduced = rows if scale == 1 else \
        [{c: _exact(Fraction(x, scale)) for c, x in row.items()} for row in rows]
    if isinstance(m, SparseMatrix):
        return SparseMatrix(m.rows, m.cols, reduced), pivots
    dense = RationalMatrix(m.rows, m.cols)
    for out, row in zip(dense.data, reduced):
        for c, x in row.items():
            out[c] = Fraction(x)
    return dense, pivots


def rank(m: RationalMatrix | SparseMatrix) -> int:
    """Number of pivots of the kernel's elimination of m, a RationalMatrix
    or a SparseMatrix."""
    return len(_eliminate(_integer_rows(m), m.cols)[1])


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


def _hessenberg(h: list[list]) -> None:
    """Reduce the square matrix h to upper Hessenberg form in place, by
    similarity (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9).

    For each column m - 1, a nonzero below the subdiagonal is swapped up to
    row m (rows and columns swapped together), then each row i below it
    loses u times row m, u = h[i][m-1] / h[m][m-1], and column m gains u
    times column i, which undoes the row operation's effect on the
    eigenvalues.  Zero entries cost nothing, so a permutation matrix or a
    block diagonal matrix is cheap.
    """
    n = len(h)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        t = h[m][m - 1]
        pivot_row = [(j, a) for j, a in enumerate(h[m]) if a]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            u = _exact(Fraction(h[i][m - 1]) / t)
            row = h[i]
            for j, a in pivot_row:
                row[j] -= u * a
            for row in h:
                if row[i]:
                    row[m] += u * row[i]
            pivot_row = [(j, a) for j, a in enumerate(h[m]) if a]


def det_one_minus_z(m: RationalMatrix) -> list[int | Fraction]:
    """Coefficients of det(I - z*M), ascending in z: each an int where it is
    integral, else a Fraction.

    det(I - z*M) is the characteristic polynomial det(x*I - M) with its
    coefficients reversed.  M is reduced to Hessenberg form H, and the
    characteristic polynomial p_j of the leading j x j block of H follows
    from the earlier ones (Cohen, Alg. 2.2.9):

        p_j = (x - H[j][j]) p_(j-1)
              - sum_(i<j) H[i][j] H[i+1][i] ... H[j][j-1] p_i,

    indices from 0 and p_0 = 1.  The sum stops at the first zero
    subdiagonal entry, where H splits into blocks.
    """
    n = m.rows
    if n != m.cols:
        raise LinearAlgebraError("determinant needs a square matrix")
    h = [[x.numerator if x.denominator == 1 else x for x in row] for row in m.data]
    _hessenberg(h)
    polys = [[1]]  # polys[j]: characteristic polynomial of the leading j x j block
    for j in range(n):
        last = polys[j]
        p = [0] + last
        for d, c in enumerate(last):
            p[d] -= h[j][j] * c
        t = 1
        for i in range(j - 1, -1, -1):
            t *= h[i + 1][i]
            if not t:
                break
            factor = t * h[i][j]
            if factor:
                for d, c in enumerate(polys[i]):
                    p[d] -= factor * c
        polys.append(p)
    return poly_trim([_exact(c) for c in reversed(polys[n])])


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


def binomial_power(e: int, s: int, step: int = 1) -> list[int]:
    """(1 + s z^step)^e for s = +-1 and e >= 0, by binomial coefficients:
    the coefficient of z^(step (i+1)) is s (e - i) / (i + 1) times that of
    z^(step i), an exact division."""
    out = [0] * (e * step + 1)
    c = 1
    for i in range(e + 1):
        out[i * step] = c
        c = c * s * (e - i) // (i + 1)
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


def euler_phi(d: int) -> int:
    """Euler's totient of d >= 1, the degree of F_d."""
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _divide_by_factor(a: list[int], d: int) -> list[int] | None:
    """a / F_d when F_d divides the integer polynomial a exactly, else None;
    deg a must be at least deg F_d.

    Power-series division, exact in integers because F_d(0) = 1, followed
    by a check that nothing remains above the quotient's degree.  For
    F_1 = 1 - z the quotient is the prefix sums of a, and for F_2 = 1 + z
    the alternating ones; the last such sum is a(1), resp. +-a(-1), which
    must vanish.
    """
    if d <= 2:
        q, acc = [], 0
        if d == 1:
            for c in a:
                acc += c
                q.append(acc)
        else:
            for c in a:
                acc = c - acc
                q.append(acc)
        return None if q.pop() else q
    f = [(j, c) for j, c in enumerate(cyclotomic_factor(d)) if c and j]
    m = f[-1][0]
    r = list(a)
    top = len(r) - m
    for i in range(top):
        c = r[i]
        if c:
            for j, x in f:
                r[i + j] -= c * x
    if any(r[top:]):
        return None
    return r[:top]


def cyclotomic_exponents(a: list[int], order: int) -> tuple[dict[int, int], list[int]]:
    """Peel the F_d with d dividing `order` off the integer polynomial a
    with a(0) = 1, as when the roots of a are order-th roots of unity.

    Returns the exponent of each F_d found and what is left.  Each F_d is
    divided out until it no longer divides; the F_d are irreducible and
    pairwise coprime, so the exponents do not depend on the order of
    division, and what is left is [1] exactly when a is a product of such
    F_d.  Only F_d of degree phi(d) <= deg a can divide, and
    phi(d) >= sqrt(d / 2), so d runs up to 2 (deg a)^2 at most and `order`
    is never factored.
    """
    a = poly_trim(a)
    exponents: dict[int, int] = {}
    for d in range(1, min(order, 2 * (len(a) - 1) ** 2) + 1):
        if len(a) == 1:
            break
        if order % d:
            continue
        phi, e = euler_phi(d), 0
        while phi < len(a):
            q = _divide_by_factor(a, d)
            if q is None:
                break
            a, e = q, e + 1
        if e:
            exponents[d] = e
    return exponents, a


def one_minus_z_to_the(p: int) -> dict[int, int]:
    """Cyclotomic exponents of 1 - z^p: every divisor of p once."""
    return {d: 1 for d in range(1, p + 1) if p % d == 0}


def one_plus_z_to_the(p: int) -> dict[int, int]:
    """Cyclotomic exponents of 1 + z^p = (1 - z^2p)/(1 - z^p)."""
    return {d: 1 for d in range(1, 2 * p + 1)
            if (2 * p) % d == 0 and p % d != 0}
