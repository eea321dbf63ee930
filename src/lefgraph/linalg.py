"""Exact linear algebra over the rationals.

No floating point is used anywhere.  An exact matrix is a `SparseMatrix`:
one {column: int} dict per row, zero entries left out, over one positive
integer scale that divides every entry.  Coboundaries are over the scale 1;
a reduced row echelon form and a map induced on cohomology are over the
scale the elimination gives them, so no Fraction is built on the way to a
trace or a determinant.  A dense `RationalMatrix` of Fractions is kept as
the tests' reference type; no route of the package builds one.

Every elimination runs through one kernel, `_eliminate`: Bareiss's
fraction-free Gauss-Jordan elimination on sparse integer rows.  `rank`
counts its pivots, and `rref` returns its rows over its scale as they are.
Bases are canonical: they come from the reduced row echelon form, so equal
inputs give identical bases.

`det_one_minus_z_blocks` reduces a square `SparseMatrix` to Hessenberg form
by similarity, on its sparse rows, and reads the characteristic polynomial
of each diagonal block of that form off the Hessenberg recurrence; their
product det(1 - z M) is never formed.  `cyclotomic_exponents` peels the
cyclotomic factors F_d off such a polynomial by exact power-series
division, which is also how `cyclotomic_factor` builds the F_d.  No
polynomial gcd or long division is needed: a zeta function is kept as the
exponents of its F_d (see `zeta.RationalFunctionZ`).
"""

from __future__ import annotations

from fractions import Fraction


class LinearAlgebraError(ValueError):
    pass


class NotInSpanError(LinearAlgebraError):
    """Raised when a vector that must lie in a subspace does not, such as
    a pulled-back cocycle that is not a cocycle."""


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when it is one, so that sums of ints stay in ints."""
    return x.numerator if x.denominator == 1 else x


class SparseMatrix:
    """A matrix with explicit shape kept as sparse integer rows over one
    positive integer scale: entry (i, j) is data[i].get(j, 0) / scale, zero
    entries left out.  Equal when the shapes, the scales and the rows are."""

    __slots__ = ("rows", "cols", "data", "scale")

    def __init__(self, rows: int, cols: int, data: list[dict[int, int]], scale: int = 1):
        if type(scale) is not int or scale < 1 or len(data) != rows or any(
                type(x) is not int or not 0 <= c < cols for row in data for c, x in row.items()):
            raise LinearAlgebraError(
                f"data is not integer rows of a {rows}x{cols} matrix over a positive scale")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.scale = scale

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.scale, self.data) == \
            (other.rows, other.cols, other.scale, other.data)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols} over {self.scale})"

    def diagonal_sum(self) -> int:
        """The sum of the diagonal of the integer rows: `scale` times the
        trace."""
        return sum(row.get(i, 0) for i, row in enumerate(self.data))


class RationalMatrix:
    """A dense matrix of Fractions with explicit shape.

    Nothing in the package computes with it: it is the dense reference
    type the tests check the sparse routes against, and the benchmark's
    tracer (`bench/tracing.py`) still names it.  The explicit shape matters
    because a matrix may have zero rows or zero columns, like the map
    induced on a zero cohomology group.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            self.data = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
                         for row in data]
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


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns: the kernel's
    rows over the kernel's scale, whatever the scale of m.

    RREF is unique, so the result does not depend on the pivot rows chosen;
    its rows and scale are the kernel's, not reduced to lowest terms.
    """
    rows = list(m.data)
    scale, pivots = _eliminate(rows, m.cols)
    return SparseMatrix(m.rows, m.cols, rows, scale), pivots


def rank(m: SparseMatrix) -> int:
    """Number of pivots of the kernel's elimination of m."""
    return len(_eliminate(list(m.data), m.cols)[1])


def _put(h: list[dict], held: list[set[int]], r: int, j: int, x) -> None:
    """Set entry (r, j) of the sparse rows h to x, keeping the column index
    held (column -> rows with a nonzero there) up to date."""
    if x:
        h[r][j] = x
        held[j].add(r)
    else:
        h[r].pop(j, None)
        held[j].discard(r)


def _hessenberg(h: list[dict]) -> None:
    """Reduce the square matrix with sparse rows h ({column: value}, no zero
    entries) to upper Hessenberg form in place, by similarity (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.2.9).

    For each column m - 1, the first row below the subdiagonal with a
    nonzero there is swapped up to row m (rows and columns swapped
    together), then each later row i with a nonzero there loses u times row
    m, u = h[i][m-1] / h[m][m-1], and column m gains u times column i, which
    undoes the row operation's effect on the eigenvalues.  A column index
    finds those rows, so zero entries cost nothing: a permutation matrix or
    a block diagonal matrix is cheap, and the identity costs O(n).
    """
    n = len(h)
    held: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(h):
        for j in row:
            held[j].add(r)
    for m in range(1, n - 1):
        below = [r for r in held[m - 1] if r >= m]
        if not below:
            continue
        i = min(below)
        if i != m:
            for j in h[i].keys() | h[m].keys():
                rows = held[j]
                if (i in rows) != (m in rows):
                    rows.symmetric_difference_update((i, m))
            h[i], h[m] = h[m], h[i]
            for r in held[i] | held[m]:
                row = h[r]
                a, b = row.pop(i, 0), row.pop(m, 0)
                if a:
                    row[m] = a
                if b:
                    row[i] = b
            held[i], held[m] = held[m], held[i]
        t = h[m][m - 1]
        for i in sorted(r for r in held[m - 1] if r > m):
            a = h[i][m - 1]
            u = a * t if t in (1, -1) else _exact(Fraction(a) / t)
            row = h[i]
            for j, b in h[m].items():
                _put(h, held, i, j, row.get(j, 0) - u * b)
            for r in list(held[i]):
                _put(h, held, r, m, h[r].get(m, 0) + u * h[r][i])


def det_one_minus_z_blocks(m: SparseMatrix) -> list[list[int | Fraction]]:
    """det(I - z*B) for each diagonal block B of the Hessenberg form of M,
    the matrix m stands for: their product is det(I - z*M).  Coefficients
    ascend in z, each an int where it is integral, else a Fraction.

    M's integer rows are reduced to Hessenberg form H by similarity; H
    splits into diagonal blocks at its zero subdiagonal entries, and the
    characteristic polynomial p_j of the leading j x j part of a block
    follows from the earlier ones (Cohen, Alg. 2.2.9):

        p_j = (x - H[j][j]) p_(j-1)
              - sum_(i<j) H[i][j] H[i+1][i] ... H[j][j-1] p_i,

    indices from the block's first row and p_0 = 1.  det(I - z*B) is the
    block's characteristic polynomial with its coefficients reversed, the
    coefficient of z^i divided by scale^i.  LinearAlgebraError is raised
    if m is not square.
    """
    if m.rows != m.cols:
        raise LinearAlgebraError(f"det(1 - zM) needs a square matrix, not {m!r}")
    h = [dict(row) for row in m.data]
    _hessenberg(h)
    n, scale = len(h), m.scale
    out = []
    start = 0
    for end in range(1, n + 1):
        if end < n and h[end].get(end - 1):
            continue
        polys = [[1]]  # polys[j]: characteristic polynomial of the leading j rows
        for j in range(start, end):
            last = polys[-1]
            p = [0] + last
            x = h[j].get(j)
            if x:
                for d, c in enumerate(last):
                    p[d] -= x * c
            t = 1
            for i in range(j - 1, start - 1, -1):
                t *= h[i + 1][i]
                factor = h[i].get(j)
                if factor:
                    factor *= t
                    for d, c in enumerate(polys[i - start]):
                        p[d] -= factor * c
            polys.append(p)
        out.append(poly_trim([_exact(c if scale == 1 else Fraction(c) / scale ** i)
                              for i, c in enumerate(reversed(polys[-1]))]))
        start = end
    return out


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
            poly = _divide_by_factor(poly, e)
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


def mobius(n: int) -> int:
    """The Moebius function of n >= 1: 0 when a square divides n, else
    (-1)^(number of prime factors)."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _divide_by_factor(a: list[int], d: int) -> list[int] | None:
    """a / F_d when F_d divides the polynomial a exactly, else None; deg a
    must be at least deg F_d.

    Power-series division, exact in integers (and in rationals) because
    F_d(0) = 1, followed by a check that nothing remains above the
    quotient's degree.  For F_1 = 1 - z the quotient is the prefix sums of
    a, and for F_2 = 1 + z the alternating ones; the last such sum is a(1), resp. +-a(-1), which
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


def cyclotomic_exponents(a: list, order: int | None = None
                         ) -> tuple[dict[int, int], list]:
    """Peel the F_d off the polynomial a (integer or rational coefficients,
    a(0) != 0): those with d dividing `order`, as when the roots of a are
    order-th roots of unity, or every F_d when `order` is None.

    Returns the exponent of each F_d found and what is left, whose constant
    term is a(0).  Each F_d is divided out until it no longer divides; the
    F_d are irreducible and pairwise coprime, so the exponents do not
    depend on the order of division, and what is left is the constant
    [a(0)] exactly when a is a constant times a product of such F_d.  Only
    F_d of degree phi(d) <= deg a can divide, and phi(d) >= sqrt(d / 2),
    so d runs up to 2 (deg a)^2 at most and `order` is never factored.
    """
    a = poly_trim(a)
    exponents: dict[int, int] = {}
    top = 2 * (len(a) - 1) ** 2
    for d in range(1, top + 1 if order is None else min(order, top) + 1):
        if len(a) == 1:
            break
        if order is not None and order % d:
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
