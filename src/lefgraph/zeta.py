"""Dynamical zeta functions of graph automorphisms.

zeta_T(z) = exp(sum_n L(T^n) z^n / n) is rational; it is computed by two
independent constructive routes (a determinant product over cohomology
degrees and a periodic-orbit product) and checked against the power series
of its logarithmic derivative.  The graph zeta function multiplies the
per-automorphism zetas over the whole group.

Both routes are finite products of the cyclotomic factors F_d, and both
build their `RationalFunctionZ` from the exponent vector {d: e_d} of
zeta = prod_d F_d^(e_d); nothing else builds one.  The orbit product adds
up the exponents of its factors 1 - z^p and 1 + z^p, and the determinant
route peels det(1 - z T_k) by exact division, one factor per diagonal
block of the Hessenberg form of T_k.  A block that does not peel, which
only a wrong T_k gives, is kept as an unpeeled rest beside the vector.
The two are compared as vectors.  A zeta is printed as a product of
factors (1 - z^p)^e and (1 + z^p)^e, never multiplied out, and its
log-derivative series is read off the vector in closed form.

The series side, L(T^n) = sum_k (-1)^k tr(P_k^n), is read off the cycles of
the map's signed chain pullbacks P_k: a cycle of length p whose signs
multiply to s adds p * s^(n/p) at every multiple n of p.  The map's record
keeps one table of these weights, summed over the degrees with the sign
(-1)^k (`cohomology.MapChain.cycles`), and the series is expanded from it
once.  The orbit census
(`dynamics.orbit_census`) finds its orbits by walking the simplices' own
prime-product keys, and reads the sign of T^p on an orbit off the vertex
cycles of T, never through the pullbacks, so the two sides share no input.
Agreement on min(2 order(T), 2 |cx|) terms proves agreement for every n
(see `verification.zeta_checks`).

Both routes' polynomial work is a pure function of an exact input, and
many maps of one graph share an input, so it is kept for one graph and no
longer: the peeled det(1 - z T_k) per (T_k's shape, scale and sorted rows,
order) on the graph's `CochainSpaces` (`CochainSpaces.peeled_det`), the
orbit product per census exponent vector in the corpus loop
(`verification.run_corpus_suite`), and each function's log-derivative
series per number of terms on the function itself.  Each check still reads
its own map's T_k, census and pullbacks.
"""

from __future__ import annotations

import math

from .complexes import CliqueComplex, build_complex
from .cohomology import CochainSpaces
from .dynamics import GraphMap, OrbitCensus, orbit_census
from .graphs import Graph
from .linalg import (
    binomial_power,
    cyclotomic_factor,
    mobius,
    one_minus_z_to_the,
    one_plus_z_to_the,
    poly_mul,
    poly_pow,
)
from .symmetry import AutomorphismGroup


class ZetaError(ValueError):
    pass


def _format_factor(p: int, e: int, plus: bool) -> str:
    base = f"(1{'+' if plus else '-'}z)" if p == 1 else \
        f"(1{'+' if plus else '-'}z^{p})"
    return base if e == 1 else f"{base}^{e}"


def _poly_text(c) -> str:
    """c_0 + c_1 z + ... over its nonzero terms; a coefficient that is not
    an integer is put in parentheses, so (1/2)z cannot read as 1/(2z)."""
    parts = []
    for i, x in enumerate(c):
        if x == 0:
            continue
        a = abs(x)
        term = str(a) if a.denominator == 1 else f"({a})"
        if i:
            z = "z" if i == 1 else f"z^{i}"
            term = z if a == 1 else term + z
        if parts:
            parts.append(f"{'-' if x < 0 else '+'} {term}")
        else:
            parts.append(f"-{term}" if x < 0 else term)
    return " ".join(parts)


# The rest of a function that is a product of F_d: nothing left unpeeled.
_NO_REST = ((1,), (1,))


class RationalFunctionZ:
    """A rational function of z with value 1 at z = 0, kept as the exponent
    vector of the cyclotomic factors it is a product of:

    - `cyclotomic`, the exponent vector {d: e_d}, no exponent zero, with
      zeta = rest_num / rest_den * prod_d F_d^(e_d) and
      F_d = `linalg.cyclotomic_factor(d)`;
    - `factors`, when the function was built from an orbit census, the list
      [(p, e_minus, e_plus), ...] of exponents of (1 - z^p) and (1 + z^p),
      kept for the text and the JSON report: the vector does not give the
      (1 + z^p) back;
    - `rest`, the pair (rest_num, rest_den) of polynomials with constant
      term 1 that did not peel into F_d.  It is `((1,), (1,))` for every
      zeta of an automorphism; only a wrong induced map leaves more, and
      the rest is not reduced by a gcd.

    Only the two routes build one, `from_factors` (the orbit product) and
    `zeta_det`.  The F_d are irreducible and pairwise coprime, so two
    functions without a rest are equal exactly when their vectors are;
    otherwise their `num` and `den` are cross-multiplied.  `num` and `den`
    are expanded only when read, for the JSON report and for a rest.
    """

    __slots__ = ("cyclotomic", "factors", "rest", "_num", "_den", "_series")

    def __init__(self, exponents: dict[int, int],
                 factors: tuple[tuple[int, int, int], ...] | None = None,
                 rest=_NO_REST):
        """rest_num / rest_den * prod_d F_d^(e_d) for exponents {d: e_d},
        kept unexpanded; the rest polynomials have constant term 1."""
        self.cyclotomic = {d: e for d, e in sorted(exponents.items()) if e}
        self.factors = factors
        self.rest = rest
        self._num = self._den = None
        self._series: dict[int, list[int]] | None = None

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
        return cls(cyclo, tuple(factors))

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

    def __eq__(self, other) -> bool:
        """Exponent vectors when neither side has a rest, else num/den
        cross-multiplied."""
        if not isinstance(other, RationalFunctionZ):
            return NotImplemented
        if self.rest == _NO_REST and other.rest == _NO_REST:
            return self.cyclotomic == other.cyclotomic
        return poly_mul(list(self.num), list(other.den)) == \
            poly_mul(list(other.num), list(self.den))

    def periodic_exponents(self) -> dict[int, int]:
        """The unique {m: a_m}, no a_m zero, with
        prod_d F_d^(e_d) = prod_m (1 - z^m)^(a_m).

        1 - z^n is the product of the F_d over the divisors d of n, so
        Moebius inversion gives a_m = sum over multiples d of m of
        mu(d/m) e_d.  The rest is not included.
        """
        a: dict[int, int] = {}
        for d, e in self.cyclotomic.items():
            for m in range(1, d + 1):
                if d % m == 0:
                    a[m] = a.get(m, 0) + mobius(d // m) * e
        return {m: x for m, x in sorted(a.items()) if x}

    def log_derivative_series(self, count: int) -> list[int]:
        """First `count` coefficients l_1..l_count with zeta'/zeta = sum l_n z^(n-1).

        The log-derivative of (1 - z^m) is -m z^(m-1) / (1 - z^m), so with
        the a_m of `periodic_exponents`, l_n = -sum over m | n of m a_m.
        A zeta with a rest is refused with ZetaError: only a wrong T_k
        leaves one, and the series is read only off the orbit product.
        Kept per `count`, so the result is shared: callers must not modify
        it.
        """
        if self.rest != _NO_REST:
            raise ZetaError("the log-derivative series of a zeta with an unpeeled "
                            "rest is not computed")
        if self._series is None:
            self._series = {}
        series = self._series.get(count)
        if series is None:
            series = self._series[count] = [0] * count
            for m, a in self.periodic_exponents().items():
                for n in range(m - 1, count, m):
                    series[n] -= m * a
        return series

    def to_json(self) -> dict:
        return {
            "factored": [list(f) for f in self.factors] if self.factors is not None else None,
            "numerator": list(self.num),
            "denominator": list(self.den),
            "text": self.text(),
        }

    def text(self) -> str:
        """A product of factors (1 - z^p)^e and (1 + z^p)^e: the census's
        own when it has them, else (1 - z^m)^(a_m) from
        `periodic_exponents`.  A rest other than 1 follows as
        (rest_num) (rest_den)^-1.  Nothing is multiplied out."""
        factors = self.factors
        if factors is None:
            factors = [(m, a, 0) for m, a in self.periodic_exponents().items()]
        parts = []
        for p, e_minus, e_plus in factors:
            if e_minus:
                parts.append(_format_factor(p, e_minus, plus=False))
            if e_plus:
                parts.append(_format_factor(p, e_plus, plus=True))
        rest_num, rest_den = self.rest
        if rest_num != (1,):
            parts.append(f"({_poly_text(rest_num)})")
        if rest_den != (1,):
            parts.append(f"({_poly_text(rest_den)})^-1")
        return " ".join(parts) if parts else "1"

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
    k and the denominator for even k.  The peeling of each distinct
    (T_k, order) is kept on `spaces` (`CochainSpaces.peeled_det`), and the
    sign (-1)^(k+1) is applied after it is looked up.

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
    for k, b in enumerate(spaces.betti_numbers()):
        if b == 0:
            continue
        found, lefts = spaces.peeled_det(spaces.induced_matrix(t.image, k), order)
        for d, e in found.items():
            exponents[d] = exponents.get(d, 0) + (e if k % 2 else -e)
        for left in lefts:
            rest[k % 2] = poly_mul(rest[k % 2], left)
    return RationalFunctionZ(exponents, rest=(tuple(rest[1]), tuple(rest[0])))


def lefschetz_iterates(spaces: CochainSpaces, t: GraphMap, count: int) -> list[int]:
    """L(T^n) for n = 1..count, by the chain-trace route.

    L(T^n) = sum_k (-1)^k tr(P_k^n) on the pullbacks P_k of the map's
    record (`CochainSpaces.chain`).  Each P_k is a signed functional graph
    on the k-simplices, and the record's signed cycle table
    (`MapChain.cycles`), summed over the degrees, gives every L(T^n): an
    entry (p, s) of weight w adds w * s^(n/p) at every n = p, 2p, ...  The
    table is expanded once, so no power of T or of P_k is built.
    """
    out = [0] * count
    for (p, s), w in spaces.chain(t.image).cycles().items():
        for n in range(p, count + 1, p):
            out[n - 1] += w * s ** (n // p)
    return out


def graph_zeta(cx: CliqueComplex, group: AutomorphismGroup) -> RationalFunctionZ:
    """zeta_G = product of zeta_T over the automorphism group.

    Computed by merging all orbit censuses first and building the product
    of the merged census once, so its factors are the merged census's.
    """
    combined = OrbitCensus()
    for t in group:
        combined = combined.merged(orbit_census(cx, t))
    return zeta_product(combined)
