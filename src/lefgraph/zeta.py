"""Dynamical zeta functions of graph automorphisms.

zeta_T(z) = exp(sum_n L(T^n) z^n / n) is rational; it is computed by two
independent constructive routes (a determinant product over cohomology
degrees and a periodic-orbit product) and checked against the power series
of its logarithmic derivative.  The graph zeta function multiplies the
per-automorphism zetas over the whole group.

Both routes are products of the cyclotomic factors F_d, so both end as the
exponent vector {d: e_d} of zeta = prod_d F_d^(e_d), the one normal form of
`RationalFunctionZ`, and are compared as vectors: the orbit product adds up
the exponents of its factors 1 - z^p and 1 + z^p, and the determinant route
peels det(1 - z T_k) by exact division, one factor per diagonal block of
the Hessenberg form of T_k.  A block that does not peel, which only a wrong
T_k gives, is kept as an unpeeled rest beside the vector.  The polynomials
num and den are expanded only when read, and the log-derivative series is
read off the vector in closed form.

The series side, L(T^n) = sum_k (-1)^k tr(P_k^n), is read off the cycles of
the map's signed chain pullbacks P_k: a cycle of length p whose signs
multiply to s adds p * s^(n/p) at every multiple n of p.  The orbit census
(`dynamics.orbit_census`) finds its orbits and signs on the simplices
themselves, never through the pullbacks, so the two sides share no input.
Agreement on min(2 order(T), 2 |cx|) terms proves agreement for every n
(see `verification.zeta_checks`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import CliqueComplex, build_complex
from .cohomology import CochainSpaces
from .dynamics import GraphMap, OrbitCensus, orbit_census
from .graphs import Graph
from .linalg import (
    binomial_power,
    cyclotomic_exponents,
    cyclotomic_factor,
    det_one_minus_z_blocks,
    mobius,
    one_minus_z_to_the,
    one_plus_z_to_the,
    poly_mul,
    poly_pow,
    poly_trim,
)
from .symmetry import AutomorphismGroup


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


# The rest of a function that is a product of F_d: nothing left unpeeled.
_NO_REST = ((1,), (1,))


class RationalFunctionZ:
    """A rational function of z with value 1 at z = 0, kept as the exponent
    vector of the cyclotomic factors it is a product of:

    - `cyclotomic`, the exponent vector {d: e_d}, no exponent zero, with
      zeta = rest_num / rest_den * prod_d F_d^(e_d) and
      F_d = `linalg.cyclotomic_factor(d)`;
    - `rest`, the pair (rest_num, rest_den) of polynomials with constant
      term 1 that did not peel into F_d.  It is `((1,), (1,))` for every
      zeta of an automorphism; only a wrong induced map leaves more, and
      the rest is not reduced by a gcd;
    - `factors`, when the function was built from an orbit census, the list
      [(p, e_minus, e_plus), ...] of exponents of (1 - z^p) and (1 + z^p),
      kept for the text and the JSON report.

    The F_d are irreducible and pairwise coprime, so two functions without
    a rest are equal exactly when their vectors are; otherwise their `num`
    and `den` are cross-multiplied.  `num` and `den` are expanded only when
    read.

    `RationalFunctionZ(num, den)` peels every F_d off
    num and den, which may hold ints or Fractions with num(0) = den(0).
    """

    __slots__ = ("cyclotomic", "rest", "factors", "_num", "_den")

    def __init__(self, num, den):
        num, den = poly_trim(list(num)), poly_trim(list(den))
        if num[0] != den[0] or not den[0]:
            raise ZetaError("zeta functions must satisfy zeta(0) = 1")
        c = den[0]
        exponents: dict[int, int] = {}
        rest = []
        for side, sign in ((num, 1), (den, -1)):
            found, left = cyclotomic_exponents(side)
            for d, e in found.items():
                exponents[d] = exponents.get(d, 0) + sign * e
            rest.append(tuple(left) if c == 1 else tuple(Fraction(x, c) for x in left))
        self._set(exponents, tuple(rest), None)

    def _set(self, exponents: dict[int, int], rest, factors) -> None:
        self.cyclotomic = {d: e for d, e in sorted(exponents.items()) if e}
        self.rest = rest
        self.factors = factors
        self._num = self._den = None

    @classmethod
    def one(cls) -> "RationalFunctionZ":
        return cls.from_factors({})

    @classmethod
    def from_cyclotomic(cls, exponents: dict[int, int],
                        factors: tuple[tuple[int, int, int], ...] | None = None,
                        rest=_NO_REST) -> "RationalFunctionZ":
        """rest_num / rest_den * prod_d F_d^(e_d) for exponents {d: e_d},
        kept unexpanded; the rest polynomials have constant term 1."""
        out = cls.__new__(cls)
        out._set(exponents, rest, factors)
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
        with e < 0: coprime, primitive (Gauss) and with constant term 1.
        A rest is multiplied in, and both sides are scaled by the one
        common factor that clears its denominators."""
        sides = {1: {}, -1: {}}
        for d, e in self.cyclotomic.items():
            sides[1 if e > 0 else -1][d] = abs(e)
        num, den = (_expand_product(sides[s]) for s in (1, -1))
        if self.rest != _NO_REST:
            num, den = (poly_mul(p, list(r)) for p, r in zip((num, den), self.rest))
            scale = math.lcm(*(x.denominator for x in num + den))
            num, den = ([int(x * scale) for x in p] for p in (num, den))
        self._num, self._den = tuple(num), tuple(den)

    def __mul__(self, other: "RationalFunctionZ") -> "RationalFunctionZ":
        if self.factors is not None and other.factors is not None:
            merged: dict[int, tuple[int, int]] = {}
            for p, e_minus, e_plus in self.factors + other.factors:
                m, pl = merged.get(p, (0, 0))
                merged[p] = (m + e_minus, pl + e_plus)
            return RationalFunctionZ.from_factors(merged)
        exponents = dict(self.cyclotomic)
        for d, e in other.cyclotomic.items():
            exponents[d] = exponents.get(d, 0) + e
        rest = tuple(tuple(poly_mul(list(a), list(b))) for a, b in zip(self.rest, other.rest))
        return RationalFunctionZ.from_cyclotomic(exponents, rest=rest)

    def __eq__(self, other) -> bool:
        """Exponent vectors when neither side has a rest, else num/den
        cross-multiplied."""
        if not isinstance(other, RationalFunctionZ):
            return NotImplemented
        if self.rest == _NO_REST and other.rest == _NO_REST:
            return self.cyclotomic == other.cyclotomic
        return poly_mul(list(self.num), list(other.den)) == \
            poly_mul(list(other.num), list(self.den))

    def __hash__(self):
        # Equal functions have equal log-derivative series, whatever their rest.
        return hash(tuple(self.log_derivative_series(8)))

    def is_one(self) -> bool:
        return self == RationalFunctionZ.one()

    def log_derivative_series(self, count: int) -> list:
        """First `count` coefficients l_1..l_count with zeta'/zeta = sum l_n z^(n-1).

        Moebius inversion of 1 - z^n = prod over d | n of F_d writes the
        product of the F_d^(e_d) as prod_m (1 - z^m)^(a_m), with
        a_m = sum over multiples d of m of mu(d/m) e_d.  The log-derivative
        of (1 - z^m) is -m z^(m-1) / (1 - z^m), so l_n = -sum over m | n of
        m a_m.  A rest adds the series of rest_num and subtracts that of
        rest_den, each by Newton's identities (`_newton_series`).
        """
        a = [0] * (count + 1)
        for d, e in self.cyclotomic.items():
            for m in range(1, min(d, count) + 1):
                if d % m == 0:
                    a[m] += mobius(d // m) * e
        series = [0] * count
        for m in range(1, count + 1):
            if a[m]:
                step = -m * a[m]
                for n in range(m - 1, count, m):
                    series[n] += step
        if self.rest != _NO_REST:
            rest_num, rest_den = self.rest
            for n, (x, y) in enumerate(zip(_newton_series(rest_num, count),
                                           _newton_series(rest_den, count))):
                series[n] += x - y
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


def _newton_series(p, count: int) -> list:
    """q_1..q_count with p'/p = sum q_n z^(n-1), for p with p(0) = 1.

    From p' = p * sum q_n z^(n-1): n p_n = q_n + sum over 1 <= i < n of
    p_i q_(n-i) (Newton's identities), with p_n = 0 above deg p.
    """
    q = []
    for n in range(1, count + 1):
        x = n * p[n] if n < len(p) else 0
        for i in range(1, min(n, len(p))):
            x -= p[i] * q[n - i - 1]
        q.append(x)
    return q


def zeta_product(census: OrbitCensus) -> RationalFunctionZ:
    """Periodic-orbit product: prod_p (1-z^p)^(a-b) (1+z^p)^(c-d)."""
    return RationalFunctionZ.from_factors(census.exponents())


def zeta_det(g: Graph, t: GraphMap,
             spaces: CochainSpaces | None = None) -> RationalFunctionZ:
    """Determinant route: prod_k det(1 - z T_k)^((-1)^(k+1)), k from 0.

    T_k is the matrix induced on H^k; even k lands in the denominator, odd k
    in the numerator.  T^N is the identity for N = order(T), so every
    eigenvalue of T_k is an N-th root of unity and det(1 - z T_k) is a
    product of F_d over divisors d of N.  The det comes in factors, one
    per diagonal block of the Hessenberg form of T_k
    (`linalg.det_one_minus_z_blocks`); each factor is peeled into those
    exponents on its own (`linalg.cyclotomic_exponents`), and the result
    is the exponent vector.  What a factor leaves, which only a wrong T_k
    gives, is multiplied into the rest of its side, the numerator for odd
    k and the denominator for even k.

    The graph argument and the optional `spaces` are kept because the
    benchmark under `bench/` calls this function with them.
    """
    if not t.is_automorphism():
        raise ZetaError("the determinant formula needs finite order, i.e. an automorphism")
    if spaces is None:
        spaces = CochainSpaces(build_complex(g))
    order = t.order()
    exponents: dict[int, int] = {}
    rest = [[1], [1]]  # the leftovers of even k, then of odd k
    for k in range(spaces.dim + 1):
        if spaces.betti(k) == 0:
            continue
        for det in det_one_minus_z_blocks(spaces.induced_matrix(t.image, k)):
            found, left = cyclotomic_exponents(det, order)
            for d, e in found.items():
                exponents[d] = exponents.get(d, 0) + (e if k % 2 else -e)
            if left != [1]:
                rest[k % 2] = poly_mul(rest[k % 2], left)
    return RationalFunctionZ.from_cyclotomic(
        exponents, rest=(tuple(rest[1]), tuple(rest[0])))


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


def graph_zeta(cx: CliqueComplex, group: AutomorphismGroup) -> RationalFunctionZ:
    """zeta_G = product of zeta_T over the automorphism group.

    Computed by merging all orbit censuses first, then expanding once, so
    the factored form is the merged census product.
    """
    combined = OrbitCensus()
    for t in group:
        combined = combined.merged(orbit_census(cx, t))
    return zeta_product(combined)
