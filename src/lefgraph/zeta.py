"""Dynamical zeta functions of graph automorphisms.

zeta_T(z) = exp(sum_n L(T^n) z^n / n) is rational; it is computed by two
independent constructive routes (a determinant product over cohomology
degrees and a periodic-orbit product) and checked against the power series
of its logarithmic derivative.  The graph zeta function multiplies the
per-automorphism zetas over the whole group.

Both routes are products of the cyclotomic factors F_d, so both end as the
exponent vector {d: e_d} of zeta = prod_d F_d^(e_d) and are compared as
vectors: the orbit product adds up the exponents of its factors 1 - z^p and
1 + z^p, and the determinant route peels each det(1 - z T_k) by exact
division.  The polynomials num and den are expanded only when read, and the
census product's log-derivative series has a closed form.

The series side, L(T^n) = sum_k (-1)^k tr(P_k^n), is read off the cycles of
the map's signed chain pullbacks P_k: a cycle of length p whose signs
multiply to s adds p * s^(n/p) at every multiple n of p.  The orbit census
finds its orbits and signs on the simplices themselves, never through the
pullbacks, so the two sides share no input.  Its walk also hands over the
map's fixed simplices, the orbits of period 1.  Agreement on min(2 order(T),
2 |cx|) terms proves agreement for every n (see
`verification.zeta_checks`); an explicit order may not exceed
`MAX_SERIES_ORDER`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import CliqueComplex, build_complex
from .cohomology import CochainSpaces, permutation_parity_sign
from .dynamics import FixedSimplexRecord, GraphMap
from .graphs import Graph
from .linalg import (
    binomial_power,
    cyclotomic_exponents,
    cyclotomic_factor,
    det_one_minus_z,
    one_minus_z_to_the,
    one_plus_z_to_the,
    poly_derivative,
    poly_div_exact,
    poly_gcd,
    poly_mul,
    poly_pow,
    poly_trim,
)
from .symmetry import AutomorphismGroup, automorphism_group


# Largest series order a caller may ask for; the default order never
# exceeds twice the simplex count.
MAX_SERIES_ORDER = 10**5


class ZetaError(ValueError):
    pass


def _format_factor(p: int, e: int, plus: bool) -> str:
    base = f"(1{'+' if plus else '-'}z)" if p == 1 else \
        f"(1{'+' if plus else '-'}z^{p})"
    return base if e == 1 else f"{base}^{e}"


def _poly_text(c: list[int]) -> str:
    if c == [0]:
        return "0"
    parts = []
    for i, x in enumerate(c):
        if x == 0:
            continue
        if i == 0:
            parts.append(str(x))
            continue
        z = "z" if i == 1 else f"z^{i}"
        if x == 1:
            term = z
        elif x == -1:
            term = f"-{z}"
        else:
            term = f"{x}{z}"
        parts.append(term if not parts else (f"+ {term}" if x > 0 else f"- {term.lstrip('-')}"))
    return " ".join(parts)


class RationalFunctionZ:
    """A rational function of z with value 1 at z = 0.

    Its normal form is a coprime pair `num`, `den` of primitive integer
    polynomials (ascending coefficients, denominator constant term
    positive).  A function built from exponents keeps them instead and
    expands the pair only when `num` or `den` is read:

    - `cyclotomic`, the exponent vector {d: e_d} with zeta = prod_d
      F_d^(e_d), F_d = `linalg.cyclotomic_factor(d)`, no exponent zero;
    - `factors`, when the function was built from an orbit census, the list
      [(p, e_minus, e_plus), ...] of exponents of (1 - z^p) and (1 + z^p).

    The F_d are irreducible and pairwise coprime, so two functions with
    exponent vectors are equal exactly when the vectors are.
    """

    __slots__ = ("_num", "_den", "factors", "cyclotomic")

    def __init__(self, num: list[int], den: list[int],
                 factors: tuple[tuple[int, int, int], ...] | None = None):
        self._num = tuple(poly_trim(num))
        self._den = tuple(poly_trim(den))
        self.factors = factors
        self.cyclotomic: dict[int, int] | None = None
        if self._den[0] <= 0 or self._num[0] != self._den[0]:
            raise ZetaError("zeta functions must satisfy zeta(0) = 1")

    @classmethod
    def one(cls) -> "RationalFunctionZ":
        return cls.from_factors({})

    @classmethod
    def from_quotient(cls, num, den) -> "RationalFunctionZ":
        """Normalize an arbitrary quotient of polynomials (int or Fraction).

        Both lists are scaled by one common factor (so the function is
        unchanged), divided by their polynomial gcd unless one of them is a
        constant, then by their common integer content, and sign-fixed to a
        positive denominator constant.
        """
        num, den = _joint_integer_scale(num, den)
        if den == [0]:
            raise ZetaError("zero denominator")
        if len(num) > 1 and len(den) > 1:  # a constant side has no common factor
            g = poly_gcd(num, den)
            if g != [1]:
                num = poly_div_exact(num, g)
                den = poly_div_exact(den, g)
        num, den = _common_content_and_sign(num, den)
        return cls(num, den)

    @classmethod
    def from_cyclotomic(cls, exponents: dict[int, int],
                        factors: tuple[tuple[int, int, int], ...] | None = None
                        ) -> "RationalFunctionZ":
        """prod_d F_d^(e_d) for exponents {d: e_d}, kept unexpanded."""
        out = cls.__new__(cls)
        out._num = out._den = None
        out.factors = factors
        out.cyclotomic = {d: e for d, e in sorted(exponents.items()) if e}
        return out

    @classmethod
    def from_factors(cls, exponents: dict[int, tuple[int, int]]) -> "RationalFunctionZ":
        """Build from {period p: (exponent of 1-z^p, exponent of 1+z^p)}.

        The cyclotomic exponents are added up over the F_d that make up
        each 1 - z^p and 1 + z^p; nothing is expanded.
        """
        cyclo: dict[int, int] = {}
        factors = []
        for p in sorted(exponents):
            e_minus, e_plus = exponents[p]
            if e_minus == 0 and e_plus == 0:
                continue
            factors.append((p, e_minus, e_plus))
            if e_minus:
                for d in one_minus_z_to_the(p):
                    cyclo[d] = cyclo.get(d, 0) + e_minus
            if e_plus:
                for d in one_plus_z_to_the(p):
                    cyclo[d] = cyclo.get(d, 0) + e_plus
        return cls.from_cyclotomic(cyclo, tuple(factors))

    @property
    def num(self) -> tuple[int, ...]:
        if self._num is None:
            self._expand()
        return self._num

    @property
    def den(self) -> tuple[int, ...]:
        if self._den is None:
            self._expand()
        return self._den

    def _expand(self) -> None:
        """num = product of the F_d^e with e > 0, den that of the F_d^-e
        with e < 0: coprime, primitive (Gauss) and with constant term 1."""
        sides = {1: {}, -1: {}}
        for d, e in self.cyclotomic.items():
            sides[1 if e > 0 else -1][d] = abs(e)
        self._num, self._den = (tuple(_expand_product(sides[s])) for s in (1, -1))

    def __mul__(self, other: "RationalFunctionZ") -> "RationalFunctionZ":
        if self.factors is not None and other.factors is not None:
            merged: dict[int, tuple[int, int]] = {}
            for p, e_minus, e_plus in self.factors + other.factors:
                m, pl = merged.get(p, (0, 0))
                merged[p] = (m + e_minus, pl + e_plus)
            return RationalFunctionZ.from_factors(merged)
        return RationalFunctionZ.from_quotient(
            poly_mul(list(self.num), list(other.num)),
            poly_mul(list(self.den), list(other.den)))

    def __eq__(self, other) -> bool:
        """Exponent vectors when both sides have one, else num/den
        cross-multiplied."""
        if not isinstance(other, RationalFunctionZ):
            return NotImplemented
        if self.cyclotomic is not None and other.cyclotomic is not None:
            return self.cyclotomic == other.cyclotomic
        return poly_mul(list(self.num), list(other.den)) == \
            poly_mul(list(other.num), list(self.den))

    def __hash__(self):
        return hash((self.num, self.den))

    def is_one(self) -> bool:
        return self.num == self.den

    def log_derivative_series(self, count: int) -> list[int]:
        """First `count` coefficients l_1..l_count with zeta'/zeta = sum l_n z^(n-1).

        From census factors, the closed form: log(1 - z^p) and log(1 + z^p)
        have z^n-coefficients -p/n and (-1)^(n/p+1) p/n at the multiples n
        of p, so l_n = sum over p | n of p (e_plus (-1)^(n/p+1) - e_minus).
        Otherwise exact long division of (num' den - num den') by (num
        den); all coefficients are integers because both polynomials have
        constant term 1 up to a common factor.
        """
        if self.factors is not None:
            series = [0] * count
            for p, e_minus, e_plus in self.factors:
                odd, even = p * (e_plus - e_minus), -p * (e_plus + e_minus)
                for m, n in enumerate(range(p - 1, count, p)):
                    series[n] += even if m % 2 else odd
            return series
        num, den = list(self.num), list(self.den)
        a = poly_trim([x - y for x, y in _pad(
            poly_mul(poly_derivative(num), den), poly_mul(num, poly_derivative(den)))])
        b = poly_mul(num, den)
        scale = b[0]
        series = []
        for i in range(count):
            ai = a[i] if i < len(a) else 0
            acc = ai - sum(series[j] * b[i - j] for j in range(max(0, i - len(b) + 1), i))
            # b[0] = num(0)*den(0) = den(0)^2 = scale; division is exact.
            q, r = divmod(acc, scale)
            if r:
                raise ZetaError("log-derivative series is not integral")
            series.append(q)
        return series

    def to_json(self) -> dict:
        return {
            "factored": [list(f) for f in self.factors] if self.factors is not None else None,
            "numerator": list(self.num),
            "denominator": list(self.den),
            "text": self.text(),
        }

    def text(self) -> str:
        """Factored rendering when available, else a polynomial quotient."""
        if self.factors is not None:
            if not self.factors:
                return "1"
            parts = []
            for p, e_minus, e_plus in self.factors:
                if e_minus:
                    parts.append(_format_factor(p, e_minus, plus=False))
                if e_plus:
                    parts.append(_format_factor(p, e_plus, plus=True))
            return " ".join(parts) if parts else "1"
        if self.den == (1,):
            return _poly_text(list(self.num))
        return f"({_poly_text(list(self.num))}) / ({_poly_text(list(self.den))})"

    __str__ = text

    def __repr__(self) -> str:
        return f"RationalFunctionZ({self.text()})"


def _expand_product(exponents: dict[int, int]) -> list[int]:
    """prod_d F_d^(e_d) for positive exponents.  F_1^a F_2^b is
    (1 - z^2)^m (1 - z)^(a-m) (1 + z)^(b-m) with m = min(a, b), each power
    a list of binomial coefficients, so a large a or b costs one product of
    sizes m and |a - b|."""
    a, b = exponents.get(1, 0), exponents.get(2, 0)
    m = min(a, b)
    out = poly_mul(binomial_power(m, -1, 2),
                   poly_mul(binomial_power(a - m, -1), binomial_power(b - m, 1)))
    for d, e in exponents.items():
        if d > 2:
            out = poly_mul(out, poly_pow(cyclotomic_factor(d), e))
    return out


def _pad(a: list[int], b: list[int]) -> list[tuple[int, int]]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
            for i in range(n)]


def _joint_integer_scale(num, den) -> tuple[list[int], list[int]]:
    """Scale both coefficient lists by one factor to make everything integer.
    Integer lists are returned as they are, trimmed."""
    if all(type(x) is int for x in num) and all(type(x) is int for x in den):
        return poly_trim(num), poly_trim(den)
    fn = [Fraction(x) for x in num]
    fd = [Fraction(x) for x in den]
    scale = math.lcm(*(x.denominator for x in fn + fd))
    return (poly_trim([int(x * scale) for x in fn]),
            poly_trim([int(x * scale) for x in fd]))


def _common_content_and_sign(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide by the shared integer content only, keeping the quotient's value."""
    g = math.gcd(*num, *den)
    if g > 1:
        num = [x // g for x in num]
        den = [x // g for x in den]
    if den[0] < 0:
        num = [-x for x in num]
        den = [-x for x in den]
    return num, den


@dataclass
class OrbitCensus:
    """Counts of prime periodic orbits by period, dimension parity, and sign.

    a(p): odd-dimensional, T^p-signature +1;  b(p): even-dimensional, +1;
    c(p): odd-dimensional, signature -1;      d(p): even-dimensional, -1.

    `fixed` holds the walked map's orbits of period 1, its fixed simplices,
    as `dynamics.fixed_simplices` lists them; a merged census has none.
    """

    a: dict[int, int] = field(default_factory=dict)
    b: dict[int, int] = field(default_factory=dict)
    c: dict[int, int] = field(default_factory=dict)
    d: dict[int, int] = field(default_factory=dict)
    fixed: list[FixedSimplexRecord] = field(default_factory=list)

    def periods(self) -> list[int]:
        return sorted(set(self.a) | set(self.b) | set(self.c) | set(self.d))

    def total_weight(self) -> int:
        """Sum of p * (orbit count at p): must equal the simplex count."""
        return sum(p * (self.a.get(p, 0) + self.b.get(p, 0)
                        + self.c.get(p, 0) + self.d.get(p, 0))
                   for p in self.periods())

    def merged(self, other: "OrbitCensus") -> "OrbitCensus":
        out = OrbitCensus(dict(self.a), dict(self.b), dict(self.c), dict(self.d))
        for mine, theirs in ((out.a, other.a), (out.b, other.b),
                             (out.c, other.c), (out.d, other.d)):
            for p, k in theirs.items():
                mine[p] = mine.get(p, 0) + k
        return out

    def exponents(self) -> dict[int, tuple[int, int]]:
        """Per period: exponents of (1 - z^p) and (1 + z^p) in the product."""
        return {p: (self.a.get(p, 0) - self.b.get(p, 0),
                    self.c.get(p, 0) - self.d.get(p, 0))
                for p in self.periods()}


def orbit_census(cx: CliqueComplex, t: GraphMap) -> OrbitCensus:
    """Classify every periodic orbit of an automorphism, in one walk.

    For an orbit of minimal period p with representative x, the signature of
    T^p restricted to x decides the sign class; the dimension of x decides
    the parity class.  The walk takes each unvisited simplex x in stored
    order as a representative and applies t to the vertices of x itself,
    marking each sorted image visited by its index, until the image is x
    again; the unsorted vertex list then holds T^p on x, whose sort parity
    is the sign.  A representative of period 1 is a fixed simplex and is
    kept in `fixed`.  The pullbacks are never read: this route must stay
    apart from the chain traces it is checked against.
    """
    if not t.is_automorphism():
        raise ZetaError("the orbit census needs an automorphism")
    image = t.image
    census = OrbitCensus()
    fixed = census.fixed
    for dim, (level, index) in enumerate(zip(cx.by_dim, cx.index)):
        plus, minus = (census.a, census.c) if dim % 2 else (census.b, census.d)
        visited = bytearray(len(level))
        for i, x in enumerate(level):
            if visited[i]:
                continue
            mapped = [image[v] for v in x]
            y = tuple(sorted(mapped))
            p = 1
            while y != x:
                visited[index[y]] = 1
                p += 1
                mapped = [image[v] for v in mapped]
                y = tuple(sorted(mapped))
            sign = permutation_parity_sign(mapped)
            counts = plus if sign > 0 else minus
            counts[p] = counts.get(p, 0) + 1
            if p == 1:
                fixed.append(FixedSimplexRecord(x, dim, sign, -sign if dim % 2 else sign))
    return census


def zeta_product(census: OrbitCensus) -> RationalFunctionZ:
    """Periodic-orbit product: prod_p (1-z^p)^(a-b) (1+z^p)^(c-d)."""
    return RationalFunctionZ.from_factors(census.exponents())


def zeta_det(g: Graph, t: GraphMap,
             spaces: CochainSpaces | None = None) -> RationalFunctionZ:
    """Determinant route: prod_k det(1 - z T_k)^((-1)^(k+1)), k from 0.

    T_k is the matrix induced on H^k; even k lands in the denominator, odd k
    in the numerator.  T^N is the identity for N = order(T), so every
    eigenvalue of T_k is an N-th root of unity and det(1 - z T_k) is a
    product of F_d over divisors d of N.  Each det is peeled into those
    exponents (`linalg.cyclotomic_exponents`), and the result is the
    exponent vector.  A det that does not peel to 1, which only a wrong
    T_k gives, makes this side the multiplied-out quotient of the dets,
    normalized by `from_quotient`.
    """
    if not t.is_automorphism():
        raise ZetaError("the determinant formula needs finite order, i.e. an automorphism")
    if spaces is None:
        spaces = CochainSpaces(build_complex(g))
    order = t.order()
    exponents: dict[int, int] = {}
    dets: list[tuple[int, list]] = []
    peeled = True
    for k in range(spaces.dim + 1):
        if spaces.betti(k) == 0:
            continue
        det = det_one_minus_z(spaces.induced_matrix(t.image, k))
        dets.append((k, det))
        if peeled:
            found, rest = ({}, det) if any(type(c) is not int for c in det) else \
                cyclotomic_exponents(det, order)
            peeled = rest == [1]
            for d, e in found.items():
                exponents[d] = exponents.get(d, 0) + (e if k % 2 else -e)
    if peeled:
        return RationalFunctionZ.from_cyclotomic(exponents)
    num, den = [1], [1]
    for k, det in dets:
        if k % 2:
            num = poly_mul(num, det)
        else:
            den = poly_mul(den, det)
    return RationalFunctionZ.from_quotient(num, den)


def series_consistency(zeta: RationalFunctionZ, lefschetz_values: list[int]) -> bool:
    """Does zeta'/zeta agree with sum L(T^n) z^(n-1) to the given order?"""
    return zeta.log_derivative_series(len(lefschetz_values)) == list(lefschetz_values)


def lefschetz_iterates(spaces: CochainSpaces, t: GraphMap, count: int) -> list[int]:
    """L(T^n) for n = 1..count, by the chain-trace route.

    L(T^n) = sum_k (-1)^k tr(P_k^n) on the map's pullbacks P_k kept by
    `spaces`.  Each P_k is a signed functional graph on the k-simplices,
    and `Pullback.power_traces` reads every tr(P_k^n) off its cycles in one
    walk, so no power of T or of P_k is built.
    """
    out = [0] * count
    for k in range(spaces.dim + 1):
        sign = -1 if k % 2 else 1
        for i, x in enumerate(spaces.pullback(t.image, k).power_traces(count)):
            out[i] += sign * x
    return out


def graph_zeta(g: Graph, group: AutomorphismGroup | None = None,
               cx: CliqueComplex | None = None) -> RationalFunctionZ:
    """zeta_G = product of zeta_T over the automorphism group.

    Computed by merging all orbit censuses first, then expanding once, so
    the factored form is the merged census product.
    """
    if group is None:
        group = automorphism_group(g)
    if cx is None:
        cx = build_complex(g)
    combined = OrbitCensus()
    for t in group:
        combined = combined.merged(orbit_census(cx, t))
    return zeta_product(combined)
