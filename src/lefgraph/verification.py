"""Composite theorem-verification suites over a standing corpus of graphs.

Each checker returns TheoremCheck records carrying both compared values, so
callers (CLI, tests) can render pass/fail lines without recomputing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cohomology import CochainSpaces, coboundary_squares_to_zero, verify_chain_map
from .complexes import build_complex
from .dynamics import (
    Attractor,
    FixedSimplexRecord,
    GraphMap,
    attractor,
    brouwer_check,
    lefschetz_chain,
    orbit_census,
    random_endomorphism,
)
from .graphs import Graph, connected_components, named_graph
from .reporting import TheoremCheck
from .symmetry import (
    FixedSimplexSweep,
    automorphism_group,
    verify_averaging_theorems,
)
from .zeta import (
    RationalFunctionZ,
    lefschetz_iterates,
    zeta_det,
    zeta_product,
)


def named_corpus() -> list[tuple[str, Graph]]:
    """The standing test corpus: complete/cycle/path/star/wheel families plus
    the three fixed graphs."""
    corpus = []
    for k in range(1, 7):
        corpus.append((f"K_{k}", named_graph("complete", k)))
    for k in range(3, 9):
        corpus.append((f"C_{k}", named_graph("cycle", k)))
    for k in range(1, 9):
        corpus.append((f"P_{k}", named_graph("path", k)))
    for k in range(1, 7):
        corpus.append((f"star_{k}", named_graph("star", k)))
    for k in range(4, 7):
        corpus.append((f"W_{k}", named_graph("wheel", k)))
    corpus.append(("octahedron", named_graph("octahedron")))
    corpus.append(("petersen", named_graph("petersen")))
    corpus.append(("two_triangles_shared_edge",
                   named_graph("two_triangles_shared_edge")))
    return corpus


def structural_checks(spaces: CochainSpaces) -> list[TheoremCheck]:
    """d∘d = 0, Euler-Poincare, and b_0 = component count."""
    checks = []
    checks.append(TheoremCheck("d_squared_zero", coboundary_squares_to_zero(spaces),
                               "d(k+1)*d(k)", "0"))
    chi_f = spaces.cx.euler_characteristic()
    chi_b = sum((-1) ** k * b for k, b in enumerate(spaces.betti_numbers()))
    checks.append(TheoremCheck("euler_poincare", chi_f == chi_b, chi_f, chi_b))
    b0 = spaces.betti(0)
    ncomp = len(connected_components(spaces.cx.graph))
    checks.append(TheoremCheck("betti0_equals_components", b0 == ncomp, b0, ncomp))
    return checks


def lefschetz_checks(spaces: CochainSpaces, t: GraphMap,
                     fixed: list[FixedSimplexRecord]) -> list[TheoremCheck]:
    """Three-way Lefschetz agreement plus the chain-map identity for one map.

    `fixed` is the map's fixed simplices, the period-1 orbits of its census.
    """
    coh = spaces.lefschetz_number(t.image)
    idx = sum(r.index for r in fixed)
    chain = lefschetz_chain(spaces, t)
    return [
        TheoremCheck("chain_map_commutes", verify_chain_map(spaces, t.image),
                     "d*P", "P*d"),
        TheoremCheck("lefschetz_cohomological_equals_index_sum",
                     coh == idx, coh, idx),
        TheoremCheck("lefschetz_index_sum_equals_chain_trace",
                     idx == chain, idx, chain),
    ]


def attractor_checks(spaces: CochainSpaces, t: GraphMap,
                     core: Attractor) -> list[TheoremCheck]:
    """L is unchanged when an endomorphism is restricted to its attractor
    `core`.

    When the attractor is the whole graph with the same map (every
    automorphism), its Lefschetz number is the caller's, taken from the
    caller's spaces; a proper attractor gets its own complex and spaces.
    """
    whole = core.graph == spaces.cx.graph and core.map.image == t.image
    core_spaces = spaces if whole else CochainSpaces(build_complex(core.graph))
    l_full = spaces.lefschetz_number(t.image)
    l_core = core_spaces.lefschetz_number(core.map.image)
    return [TheoremCheck("lefschetz_invariant_on_attractor",
                         l_full == l_core, l_full, l_core)]


def zeta_checks(spaces: CochainSpaces, t: GraphMap,
                product: RationalFunctionZ) -> list[TheoremCheck]:
    """Determinant = orbit product, and log-derivative series consistency.

    `product` is the orbit-product zeta of the map.  The series is compared
    up to min(2 order(T), 2 |cx|) terms, with |cx| the number of simplices,
    and never fewer than one, so that an empty complex compares L(T) = 0
    with the product's first coefficient rather than two empty lists.
    That many terms prove agreement for every n:

    - L(T^n) = sum_k (-1)^k tr(P_k^n) is a signed sum of n-th power sums
      of the eigenvalues of the chain pullbacks P_k, |cx| numbers in all,
      so it satisfies the linear recurrence of order |cx| given by the
      characteristic polynomial of the direct sum of the P_k.
    - The coefficients of zeta'/zeta, for zeta = num/den, are power sums of
      the inverse roots of den minus those of num, so they satisfy a
      recurrence of order deg num + deg den.  For the orbit product that
      is at most the census's total weight sum_p p * (orbits of period p),
      which is |cx|.
    - The difference of the two sequences satisfies the product recurrence,
      of order at most 2 |cx|; if its first 2 |cx| terms vanish, all do.

    When order(T) < |cx|, 2 order(T) terms are fewer and enough: L(T^n)
    repeats with period order(T), and so does the product's series, since
    each of its factors (1 - z^p) or (1 + z^p) has p, or 2p for the second,
    dividing order(T).

    The two zetas are compared as cyclotomic exponent vectors (see
    `zeta.RationalFunctionZ`) and kept as the check's values; their text is
    rendered only when the check is printed.
    """
    z_det = zeta_det(spaces.cx.graph, t, spaces)
    series_order = max(1, min(2 * t.order(), 2 * len(spaces.cx)))
    expected = lefschetz_iterates(spaces, t, series_order)
    actual = product.log_derivative_series(series_order)
    return [
        TheoremCheck("zeta_det_equals_product", z_det == product, z_det, product),
        TheoremCheck("zeta_series_consistent", actual == expected,
                     actual, expected),
    ]


@dataclass
class CorpusReport:
    """Outcome of a verification sweep: totals plus the failing checks."""

    graphs: int = 0
    maps: int = 0
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    def absorb(self, label: str, new_checks: list[TheoremCheck]):
        self.checks += len(new_checks)
        for c in new_checks:
            if not c.passed:
                self.failures.append(f"{label}: {c.describe()}")

    @property
    def passed(self) -> bool:
        return not self.failures


def run_corpus_suite(endomorphisms_per_graph: int = 25,
                     seed: int = 0) -> CorpusReport:
    """Full invariant sweep over the named corpus.

    Per graph: structural checks; per automorphism: Lefschetz three-way and
    zeta three-way; per sampled endomorphism: Lefschetz three-way, attractor
    invariance, and the Brouwer guarantee where applicable; plus the
    averaging-theorem report.  Each map's simplices are walked once, by its
    orbit census.  The census's fixed simplices serve the index sum, and
    also the averaging sweep for an automorphism and the Brouwer check for
    an endomorphism; an automorphism's census also gives its orbit product.
    A negative count of endomorphisms is refused with ValueError.
    """
    if endomorphisms_per_graph < 0:
        raise ValueError("the number of endomorphisms per graph must be at "
                         f"least 0 (got {endomorphisms_per_graph})")
    report = CorpusReport()
    rng = random.Random(seed)
    for name, g in named_corpus():
        report.graphs += 1
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        report.absorb(name, structural_checks(spaces))
        group = automorphism_group(g)
        sweep = FixedSimplexSweep(cx)
        for t in group:
            report.maps += 1
            census = orbit_census(cx, t)
            sweep.add(t, census.fixed)
            report.absorb(f"{name} aut {t.image}",
                          lefschetz_checks(spaces, t, census.fixed))
            report.absorb(f"{name} aut {t.image}",
                          zeta_checks(spaces, t, zeta_product(census)))
        averaging = verify_averaging_theorems(spaces, group, sweep)
        report.absorb(name, averaging.checks)
        report.findings.extend(f"{name}: {f}" for f in averaging.findings)
        for _ in range(endomorphisms_per_graph):
            t = random_endomorphism(g, rng)
            report.maps += 1
            fixed = orbit_census(cx, t).fixed
            report.absorb(f"{name} endo {t.image}", lefschetz_checks(spaces, t, fixed))
            report.absorb(f"{name} endo {t.image}",
                          attractor_checks(spaces, t, attractor(t)))
            br = brouwer_check(spaces, t, fixed)
            if br.applicable:
                report.absorb(f"{name} endo {t.image}", [
                    TheoremCheck("brouwer_fixed_clique_exists",
                                 br.fixed_count > 0, br.fixed_count, "> 0")])
    return report
