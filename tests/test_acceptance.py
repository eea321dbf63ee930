"""Acceptance suite: one test and one printed verdict line per criterion.

Shared sweeps are session fixtures so the exhaustive populations (all graphs
on up to 5 vertices, the named corpus, the random endomorphism pool) are
built once and reused by every criterion that quantifies over them.
"""

import random
import time
from fractions import Fraction

import pytest

from dense import equals_quotient, matmul
from labeled import expectation_labeled
from lefgraph.cohomology import CochainSpaces, verify_chain_map
from lefgraph.complexes import build_complex
from lefgraph.dynamics import (
    GraphMap,
    attractor,
    fixed_index_sum,
    fixed_simplices,
    is_star_shaped,
    lefschetz_chain,
    lefschetz_cohomological,
    random_endomorphism,
    validate_map,
)
from lefgraph.experiments import expectation_exhaustive
from lefgraph.graphs import all_graphs, connected_components, cycle_graph
from lefgraph.linalg import poly_mul, poly_pow
from lefgraph.symmetry import (
    automorphism_group,
    average_lefschetz,
    fixed_simplex_sweep,
    lefschetz_curvature,
    lefschetz_multiset,
    verify_averaging_theorems,
)
from lefgraph.verification import named_corpus
from lefgraph.zeta import (
    RationalFunctionZ,
    graph_zeta,
    lefschetz_iterates,
    orbit_census,
    zeta_det,
    zeta_product,
)


# Collected verdict lines, echoed uncaptured by conftest's terminal summary.
VERDICTS: list[str] = []


def conclude(criterion: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE criterion {criterion}: {verdict}"
    VERDICTS.append(line)
    print(line)
    assert not failures, (
        f"criterion {criterion}: {len(failures)} failing checks, "
        f"first: {failures[:3]}")


@pytest.fixture(scope="session")
def small_sweep():
    """Every graph on 1..5 vertices with its complex, spaces, and group."""
    entries = []
    for n in range(1, 6):
        for g in all_graphs(n):
            cx = build_complex(g)
            entries.append((g, cx, CochainSpaces(cx), automorphism_group(g)))
    return entries


@pytest.fixture(scope="session")
def corpus():
    """The named corpus with the same precomputed attachments."""
    entries = []
    for name, g in named_corpus():
        cx = build_complex(g)
        entries.append((name, g, cx, CochainSpaces(cx), automorphism_group(g)))
    return entries


@pytest.fixture(scope="session")
def corpus_endos(corpus):
    """A seeded pool of 32 random endomorphisms per corpus graph (1024 total)."""
    rng = random.Random(2024)
    pool = []
    for name, g, cx, spaces, _ in corpus:
        for _ in range(32):
            pool.append((name, g, cx, spaces, random_endomorphism(g, rng)))
    return pool


def test_criterion_1_petersen_suite(corpus):
    start = time.monotonic()
    failures = []
    name, g, cx, spaces, group = next(e for e in corpus if e[0] == "petersen")
    if cx.euler_characteristic() != -5:
        failures.append(f"chi = {cx.euler_characteristic()}, want -5")
    if group.order != 120:
        failures.append(f"|Aut| = {group.order}, want 120")
    multiset = lefschetz_multiset(spaces, group)
    if multiset != {-5: 1, 0: 24, 1: 80, 3: 15}:
        failures.append(f"multiset = {multiset}")
    if average_lefschetz(spaces, group) != 1:
        failures.append("average Lefschetz != 1")
    zg = graph_zeta(cx, group)
    expected = [1]
    for base, exp in [([1, -1], 10), ([1, 1], 90), ([1, 0, 1], 30),
                      ([1, 1, 1], 40), ([1, 0, 0, 0, -1], 30),
                      ([1, 0, 0, 0, 0, -1], 24), ([1, 0, 0, 0, 0, 0, -1], 20)]:
        expected = poly_mul(expected, poly_pow(base, exp))
    if zg.den != (1,) or zg.num != tuple(expected):
        failures.append("graph zeta mismatch")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    conclude("1", failures)


def test_criterion_2_expectations():
    start = time.monotonic()
    failures = []
    expected = {2: Fraction(1), 3: Fraction(11, 8), 4: Fraction(43, 32),
                5: Fraction(1319, 1024), 6: Fraction(8479, 8192)}
    for n, want in expected.items():
        got = expectation_exhaustive(n)
        if got != want:
            failures.append(f"E_{n} = {got}, want {want}")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s, budget 300s")
    conclude("2", failures)


@pytest.mark.slow
def test_criterion_2_labeled_e6():
    """E_6 by the labeled sum: all 32768 graphs on 6 vertices, each through
    its own automorphism search and eliminations."""
    start = time.monotonic()
    failures = []
    got = expectation_labeled(6)
    if got != Fraction(8479, 8192):
        failures.append(f"labeled E_6 = {got}, want 8479/8192")
    elapsed = time.monotonic() - start
    if elapsed >= 1800:
        failures.append(f"took {elapsed:.1f}s, budget 1800s")
    conclude("2 (labeled E_6)", failures)


@pytest.mark.slow
def test_criterion_2_e7():
    """E_7 over the 1044 isomorphism classes of the 2^21 labeled graphs."""
    start = time.monotonic()
    failures = []
    got = expectation_exhaustive(7)
    if got != Fraction(1289807, 2097152):
        failures.append(f"E_7 = {got}, want 1289807/2097152")
    elapsed = time.monotonic() - start
    if elapsed >= 1800:
        failures.append(f"took {elapsed:.1f}s, budget 1800s")
    conclude("2 (E_7)", failures)


def three_way(g, cx, spaces, t, label, failures):
    coh = lefschetz_cohomological(g, t, spaces)
    idx = fixed_index_sum(cx, t)
    chain = lefschetz_chain(spaces, t)
    if not coh == idx == chain:
        failures.append(f"{label}: {coh} / {idx} / {chain}")


def test_criterion_3_lefschetz_three_way(small_sweep, corpus, corpus_endos):
    failures = []
    for g, cx, spaces, group in small_sweep:
        for t in group:
            three_way(g, cx, spaces, t, f"n={g.n} aut {t.image}", failures)
    for name, g, cx, spaces, group in corpus:
        for t in group:
            three_way(g, cx, spaces, t, f"{name} aut {t.image}", failures)
    endo_count = 0
    for name, g, cx, spaces, t in corpus_endos:
        endo_count += 1
        three_way(g, cx, spaces, t, f"{name} endo {t.image}", failures)
        core = attractor(t)
        l_full = lefschetz_cohomological(g, t, spaces)
        l_core = lefschetz_cohomological(core.graph, core.map)
        if l_full != l_core:
            failures.append(f"{name} endo {t.image}: attractor "
                            f"{l_core} != {l_full}")
    if endo_count < 1000:
        failures.append(f"only {endo_count} random endomorphisms, need >= 1000")
    conclude("3", failures)


def zeta_three_way(g, cx, spaces, t, label, failures):
    det_route = zeta_det(g, t, spaces)
    product_route = zeta_product(orbit_census(cx, t))
    if det_route != product_route:
        failures.append(f"{label}: det != product")
        return
    series = lefschetz_iterates(spaces, t, 2 * t.order())
    if product_route.log_derivative_series(len(series)) != series:
        failures.append(f"{label}: series mismatch")


def test_criterion_4_zeta_three_way(small_sweep, corpus):
    failures = []
    for g, cx, spaces, group in small_sweep:
        for t in group:
            zeta_three_way(g, cx, spaces, t, f"n={g.n} aut {t.image}", failures)
    for name, g, cx, spaces, group in corpus:
        for t in group:
            zeta_three_way(g, cx, spaces, t, f"{name} aut {t.image}", failures)
    # closed-form goldens
    for name, g, cx, spaces, group in corpus:
        chi = cx.euler_characteristic()
        if zeta_det(g, GraphMap.identity(g), spaces) != \
                RationalFunctionZ.from_factors({1: (-chi, 0)}):
            failures.append(f"{name}: identity zeta != (1-z)^-chi")
        if name.startswith("K_"):
            for t in group:
                if not equals_quotient(zeta_det(g, t, spaces), [1], [1, -1]):
                    failures.append(f"{name} aut {t.image}: zeta != 1/(1-z)")
        if name.startswith("C_") and g.n >= 4:
            # C_3 is complete, so it belongs to the K_n golden above
            reflections = [t for t in group if t.order() == 2
                           and fixed_simplices(cx, t)]
            if len(reflections) != g.n:
                failures.append(f"{name}: found {len(reflections)} reflections")
            for t in reflections:
                if not equals_quotient(zeta_det(g, t, spaces), [1, 1], [1, -1]):
                    failures.append(f"{name} reflection {t.image}: "
                                    "zeta != (1+z)/(1-z)")
    c4 = cycle_graph(4)
    if not equals_quotient(zeta_det(c4, validate_map(c4, (1, 2, 3, 0))), [1], [1]):
        failures.append("C_4 rotation zeta != 1")
    for n in (4, 5, 6):
        g = cycle_graph(n)
        if not equals_quotient(graph_zeta(build_complex(g), automorphism_group(g)),
                               poly_pow([1, 1], n), poly_pow([1, -1], n)):
            failures.append(f"graph zeta of C_{n} mismatch")
    conclude("4", failures)


def test_criterion_5_averaging(small_sweep, corpus):
    failures = []
    for g, cx, spaces, group in small_sweep:
        report = verify_averaging_theorems(
            spaces, group, fixed_simplex_sweep(cx, group))
        failures.extend(f"n={g.n} {g.sorted_edges()}: {c.describe()}"
                        for c in report.checks if not c.passed)
    for name, g, cx, spaces, group in corpus:
        report = verify_averaging_theorems(
            spaces, group, fixed_simplex_sweep(cx, group))
        failures.extend(f"{name}: {c.describe()}"
                        for c in report.checks if not c.passed)
        average_lefschetz(spaces, group)  # asserts integrality
    # curvature goldens
    for m in range(2, 7):
        name = f"K_{m}"
        _, g, cx, _, group = next(e for e in corpus if e[0] == name)
        table = lefschetz_curvature(cx, group)
        for v in range(m):
            if table.values[(v,)] != Fraction(1, m):
                failures.append(f"{name}: kappa({v}) = {table.values[(v,)]}, "
                                f"want 1/{m}")
    for n in range(4, 9):
        # Aut(C_n) is dihedral of order 2n. Each vertex is fixed by the
        # identity and by one reflection, both with index +1: kappa = 2/2n.
        # Each edge is fixed by the identity (index -1) and by one
        # reflection that swaps its ends (index +1): kappa = 0. The total
        # n * 1/n = 1 is the average Lefschetz number.
        name = f"C_{n}"
        _, g, cx, _, group = next(e for e in corpus if e[0] == name)
        table = lefschetz_curvature(cx, group)
        want = {1: Fraction(1, n), 2: Fraction(0)}  # by simplex size
        off = {x: v for x, v in table.values.items() if v != want.get(len(x))}
        if off:
            sample = next(iter(off.items()))
            failures.append(
                f"{name}: want kappa 1/{n} on vertices and 0 on edges; e.g. "
                f"kappa({sample[0]}) = {sample[1]} "
                f"({len(off)} of {len(table.values)} simplices differ)")
    for k in range(4, 7):
        name = f"W_{k}"
        _, g, cx, _, group = next(e for e in corpus if e[0] == name)
        table = lefschetz_curvature(cx, group)
        if table.values[(k,)] != 1:
            failures.append(f"{name}: hub kappa = {table.values[(k,)]}, want 1")
    conclude("5", failures)


def test_cycle_curvature_by_definition(corpus):
    """Companion to criterion 5: the values the stabilizer average produces.

    On C_n every vertex gets 1/n and every edge 0, summing to 1, which is
    the average Lefschetz number. Criterion 5 checks the same per-simplex
    values; this test also ties their total to `average_lefschetz`.
    """
    for n in range(4, 9):
        _, g, cx, spaces, group = next(e for e in corpus if e[0] == f"C_{n}")
        table = lefschetz_curvature(cx, group)
        for v in range(n):
            assert table.values[(v,)] == Fraction(1, n)
        for x, value in table.values.items():
            if len(x) == 2:
                assert value == 0
        assert table.total() == 1 == average_lefschetz(spaces, group)


def test_criterion_6_structural(small_sweep, corpus, corpus_endos):
    failures = []

    def structural(g, cx, spaces, label):
        for k in range(cx.dim):
            if not matmul(spaces.coboundary(k + 1), spaces.coboundary(k)).is_zero():
                failures.append(f"{label}: d_{k + 1} d_{k} != 0")
        chi_f = cx.euler_characteristic()
        chi_b = sum((-1) ** k * b for k, b in enumerate(spaces.betti_numbers()))
        if chi_f != chi_b:
            failures.append(f"{label}: Euler {chi_f} != Betti sum {chi_b}")
        if spaces.betti(0) != len(connected_components(g)):
            failures.append(f"{label}: b_0 != component count")

    for g, cx, spaces, group in small_sweep:
        structural(g, cx, spaces, f"n={g.n} {g.sorted_edges()}")
        for t in group:
            if not verify_chain_map(spaces, t.image):
                failures.append(f"n={g.n} aut {t.image}: chain map")
    for name, g, cx, spaces, group in corpus:
        structural(g, cx, spaces, name)
        for t in group:
            if not verify_chain_map(spaces, t.image):
                failures.append(f"{name} aut {t.image}: chain map")
    for name, g, cx, spaces, t in corpus_endos:
        if not verify_chain_map(spaces, t.image):
            failures.append(f"{name} endo {t.image}: chain map")
    conclude("6", failures)


def test_criterion_7_brouwer(corpus):
    failures = []
    rng = random.Random(7)
    eligible = 0
    for name, g, cx, spaces, group in corpus:
        if spaces.betti(0) != 1 or not is_star_shaped(spaces):
            continue
        eligible += 1
        for _ in range(200):
            t = random_endomorphism(g, rng)
            if not fixed_simplices(cx, t):
                failures.append(f"{name} endo {t.image}: no fixed simplex")
    if eligible < 20:
        failures.append(f"only {eligible} connected star-shaped corpus graphs")
    conclude("7", failures)
