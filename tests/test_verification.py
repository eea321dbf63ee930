"""Corpus sweeps and the expectation-over-random-graphs experiments."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeled import expectation_labeled
from lefgraph import experiments
from lefgraph.cli import main
from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import build_complex
from lefgraph.dynamics import (
    attractor,
    fixed_simplices,
    lefschetz_cohomological,
    orbit_census,
    random_endomorphism,
    validate_map,
)
from lefgraph.experiments import (
    expectation_exhaustive,
    expectation_sampled,
    graph_average_lefschetz,
)
from lefgraph.linalg import SparseMatrix
from lefgraph.graphs import (
    Graph,
    GraphError,
    cycle_graph,
    named_graph,
    path_graph,
    petersen_graph,
)
from lefgraph.reporting import TheoremCheck, VerificationError
from lefgraph.symmetry import AutomorphismGroup, automorphism_group, lefschetz_numbers
from lefgraph.zeta import zeta_product
from lefgraph.verification import (
    CorpusReport,
    attractor_checks,
    lefschetz_checks,
    named_corpus,
    run_corpus_suite,
    structural_checks,
    zeta_checks,
)


def test_named_corpus_contents():
    corpus = named_corpus()
    names = [name for name, _ in corpus]
    assert len(names) == len(set(names)) == 32
    assert "K_1" in names and "C_8" in names and "P_8" in names
    assert "W_6" in names and "petersen" in names
    assert "two_triangles_shared_edge" in names
    lookup = dict(corpus)
    assert lookup["petersen"] == petersen_graph()
    assert lookup["C_5"] == cycle_graph(5)
    assert lookup["K_3"] == named_graph("complete", 3)


def test_structural_checks_pass_and_name_their_facts():
    checks = structural_checks(CochainSpaces(build_complex(petersen_graph())))
    assert [c.name for c in checks] == [
        "d_squared_zero", "euler_poincare", "betti0_equals_components"]
    assert all(c.passed for c in checks)


def test_lefschetz_checks_pass_for_sample_map():
    g = cycle_graph(5)
    cx = build_complex(g)
    t = validate_map(g, (1, 2, 3, 4, 0))
    checks = lefschetz_checks(CochainSpaces(cx), t, fixed_simplices(cx, t))
    assert all(c.passed for c in checks)
    assert len(checks) == 3


def test_attractor_and_zeta_checks():
    g = named_graph("star", 3)
    t = validate_map(g, (0, 1, 1, 1))
    checks = attractor_checks(CochainSpaces(build_complex(g)), t, attractor(t))
    assert all(c.passed for c in checks)
    c5 = cycle_graph(5)
    cx = build_complex(c5)
    t = validate_map(c5, (0, 4, 3, 2, 1))
    checks = zeta_checks(CochainSpaces(cx), t, zeta_product(orbit_census(cx, t)))
    assert all(c.passed for c in checks)


def test_corpus_report_accounting():
    report = CorpusReport()
    report.absorb("x", [TheoremCheck("good", True, 1, 1)])
    assert report.passed and report.checks == 1
    report.absorb("y", [TheoremCheck("bad", False, 1, 2)])
    assert not report.passed
    assert report.failures == ["y: FAIL bad: 1 vs 2"]


def test_corpus_failures_are_labeled_by_graph_kind_and_map(monkeypatch):
    """The suite formats a map's label only when one of its checks fails,
    as "<graph> aut <image>" or "<graph> endo <image>": a check planted on
    every map of the two-vertex graphs fails with those labels, in order."""
    import lefgraph.verification as verification

    planted = TheoremCheck("planted", False, 1, 2)
    real = verification.lefschetz_checks

    def lefschetz(spaces, t, fixed):
        checks = real(spaces, t, fixed)
        return checks + [planted] if t.graph.n == 2 else checks

    monkeypatch.setattr(verification, "lefschetz_checks", lefschetz)
    report = run_corpus_suite(endomorphisms_per_graph=1, seed=0)
    rng = random.Random(0)
    expected = []
    for name, g in named_corpus():
        drawn = random_endomorphism(g, rng)
        if g.n == 2:
            expected += [f"{name} aut {t.image}: FAIL planted: 1 vs 2"
                         for t in automorphism_group(g)]
            expected.append(f"{name} endo {drawn.image}: FAIL planted: 1 vs 2")
    assert len(expected) == 9
    assert report.failures == expected
    assert report.checks == 10495 + len(expected)


def test_small_corpus_suite_runs_clean():
    report = run_corpus_suite(endomorphisms_per_graph=2, seed=4)
    assert report.passed, report.failures[:5]
    assert report.graphs == 32
    assert report.checks > 500


def test_graph_average_lefschetz():
    assert graph_average_lefschetz(automorphism_group(petersen_graph())) == 1
    assert graph_average_lefschetz(automorphism_group(named_graph("discrete", 2))) == 1


def test_expectation_exhaustive_small():
    assert expectation_exhaustive(1) == 1
    assert expectation_exhaustive(2) == 1
    assert expectation_exhaustive(3) == Fraction(11, 8)
    assert expectation_exhaustive(4) == Fraction(43, 32)


def test_class_sum_matches_the_labeled_sum():
    for n in range(6):
        assert expectation_exhaustive(n) == expectation_labeled(n)


@st.composite
def relabeled_graphs(draw):
    """A graph on at most 7 vertices and a random relabeling of it."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=60, deadline=None)
@given(relabeled_graphs())
def test_average_lefschetz_is_an_isomorphism_invariant(pair):
    """The premise of the class sum: relabeling a graph keeps L(G)."""
    g, h = pair
    assert graph_average_lefschetz(automorphism_group(g)) == \
        graph_average_lefschetz(automorphism_group(h))


def test_graph_average_lefschetz_uses_a_given_group():
    """A group built from its own coset representatives: the rotations of
    C_5 move 0 to each other vertex, and D_5 adds the reflection fixing 0."""
    g = cycle_graph(5)
    rotations = tuple(validate_map(g, [(v + s) % 5 for v in range(5)]) for s in range(1, 5))
    reflection = validate_map(g, [-v % 5 for v in range(5)])
    cyclic = AutomorphismGroup(g, (rotations, (), (), (), ()))
    dihedral = AutomorphismGroup(g, (rotations, (reflection,), (), (), ()))
    assert (cyclic.order, dihedral.order) == (5, 10)
    assert {t.image for t in dihedral} == {t.image for t in automorphism_group(g)}
    # The rotations alone average L = 0: the five reflections carry L = 2.
    assert graph_average_lefschetz(cyclic) == 0
    assert graph_average_lefschetz(dihedral) == 1
    spaces = CochainSpaces(build_complex(g))
    for group in (cyclic, dihedral):
        assert Fraction(sum(lefschetz_numbers(spaces, group)), group.order) == \
            graph_average_lefschetz(group)


def _drop_one_representative(monkeypatch):
    """Make the automorphism search of the expectations lose the last coset
    representative of its first level."""
    def short(g):
        first, *rest = automorphism_group(g).levels
        return AutomorphismGroup(g, (first[:-1], *rest))

    monkeypatch.setattr(experiments, "automorphism_group", short)


def test_orbit_stabilizer_mismatch_raises_with_both_values(monkeypatch):
    _drop_one_representative(monkeypatch)
    with pytest.raises(VerificationError) as info:
        expectation_exhaustive(4)
    # The first class is the discrete graph: one labeled graph, |Aut| = 24
    # = 4 * 3 * 2 * 1 by the chain, which loses a coset of its first level.
    assert "orbit size 1 times |Aut| 18 is 18, not 4! = 24" in str(info.value)


def test_missing_class_raises_with_both_counts(monkeypatch):
    real = experiments.isomorphism_classes
    monkeypatch.setattr(experiments, "isomorphism_classes",
                        lambda n: list(real(n))[:-1])  # drop K_4
    with pytest.raises(VerificationError, match=r"hold 63 labeled graphs, not 2\^C\(4,2\) = 64"):
        expectation_exhaustive(4)


def test_orbit_stabilizer_mismatch_exits_2(monkeypatch, capsys):
    _drop_one_representative(monkeypatch)
    assert main(["random", "--n", "4", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is 18, not 4! = 24" in captured.err


OPTIMIZED_MISMATCH = textwrap.dedent("""
    import sys
    from lefgraph import experiments
    from lefgraph.cli import main
    from lefgraph.symmetry import AutomorphismGroup, automorphism_group, lefschetz_numbers

    def short(g):
        first, *rest = automorphism_group(g).levels
        return AutomorphismGroup(g, (first[:-1], *rest))

    experiments.automorphism_group = short
    sys.exit(main(["random", "--n", "4", "--exhaustive"]))
""")


def test_orbit_stabilizer_mismatch_exits_2_under_optimization():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_MISMATCH],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "is 18, not 4! = 24" in proc.stderr


def test_expectation_cap():
    with pytest.raises(GraphError, match="capped at 7 vertices"):
        expectation_exhaustive(8)
    assert expectation_exhaustive(3) == Fraction(11, 8)


def test_expectation_sampled_is_seeded():
    a = expectation_sampled(5, Fraction(1, 2), samples=20, seed=8)
    b = expectation_sampled(5, Fraction(1, 2), samples=20, seed=8)
    assert a == b
    assert isinstance(a, Fraction)
    with pytest.raises(ValueError):
        expectation_sampled(4, Fraction(1, 2), samples=0, seed=0)


def _count_spaces_built(monkeypatch):
    """Record the graph of every CochainSpaces built from now on."""
    built = []
    real = CochainSpaces.__init__

    def counting(self, cx):
        built.append(cx.graph)
        real(self, cx)

    monkeypatch.setattr(CochainSpaces, "__init__", counting)
    return built


def test_attractor_checks_reuse_the_callers_spaces_for_the_whole_graph(monkeypatch):
    g = named_graph("octahedron")
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    maps = [validate_map(g, image)
            for image in [(1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2), tuple(range(6))]]
    expected = [lefschetz_cohomological(g, t) for t in maps]
    built = _count_spaces_built(monkeypatch)
    for t, value in zip(maps, expected):
        checks = attractor_checks(spaces, t, attractor(t))
        assert [c.passed for c in checks] == [True]
        assert checks[0].rhs == value
    assert built == []


def test_attractor_checks_build_spaces_for_a_proper_attractor(monkeypatch):
    g = path_graph(6)
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    t = validate_map(g, (1, 0, 1, 0, 1, 0))
    core = attractor(t)
    assert core.graph.n == 2 < g.n
    built = _count_spaces_built(monkeypatch)
    checks = attractor_checks(spaces, t, core)
    assert built == [core.graph]
    assert [c.passed for c in checks] == [True]
    assert checks[0].rhs == lefschetz_cohomological(core.graph, core.map) == 1


def test_corpus_suite_scans_each_map_once(monkeypatch):
    """Each map's simplices are walked once, by its orbit census, whose
    fixed simplices serve the index sum, the averaging sweep of an
    automorphism and the Brouwer check of an endomorphism."""
    import lefgraph.dynamics as dynamics
    import lefgraph.verification as verification

    walked = []
    real = dynamics.orbit_census

    def census(cx, t):
        walked.append(t.image)
        return real(cx, t)

    # A sweep reaches the census through `dynamics.fixed_simplices`, so
    # patching `dynamics` counts it too.
    for module in (verification, dynamics):
        monkeypatch.setattr(module, "orbit_census", census)
    report = run_corpus_suite(endomorphisms_per_graph=1, seed=3)
    assert report.passed and report.maps == 2062
    assert len(walked) == 2062


ANTIPODE = (3, 4, 5, 0, 1, 2)


def test_a_wrong_t2_fails_only_its_own_element(monkeypatch):
    """The det route's peelings are kept per exact (T_k, order) on the
    graph's spaces.  T_2 negated for the antipode alone fails its det
    check, and every other element of the octahedron passes: those of
    order 2 whose correct T_2 is the antipode's, met before and after it,
    and those whose correct T_2 is the antipode's wrong one."""
    g = named_graph("octahedron")
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    real = CochainSpaces.induced_matrix

    def planted(self, image, k):
        m = real(self, image, k)
        if image == ANTIPODE and k == 2:
            return SparseMatrix(m.rows, m.cols,
                                [{c: -x for c, x in row.items()} for row in m.data], m.scale)
        return m

    group = list(automorphism_group(g))
    t2 = {t.image: spaces.induced_matrix(t.image, 2).data for t in group}
    at = [t.image for t in group].index(ANTIPODE)
    peers = [i for i, t in enumerate(group)
             if t.order() == 2 and t2[t.image] == t2[ANTIPODE] and i != at]
    assert min(peers) < at < max(peers)
    assert any(t.order() == 2 and t2[t.image] == [{0: 1}] for t in group)
    monkeypatch.setattr(CochainSpaces, "induced_matrix", planted)
    failed = []
    for t in group:
        for check in zeta_checks(spaces, t, zeta_product(orbit_census(cx, t))):
            if not check.passed:
                failed.append((t.image, check.name))
    assert failed == [(ANTIPODE, "zeta_det_equals_product")]


def test_a_shifted_census_fails_only_its_own_elements_zeta_checks(monkeypatch):
    """The corpus loop builds one orbit product per census exponent
    vector.  The census of the octahedron's reflection (2, 1, 0, 5, 4, 3)
    with one more even-dimensional orbit of period 2 and sign +1 fails its
    two zeta checks and nothing else, though five other elements, before
    and after it, share its correct vector."""
    import dataclasses

    import lefgraph.verification as verification

    monkeypatch.setattr(verification, "named_corpus",
                        lambda: [("octahedron", named_graph("octahedron"))])
    flip = (2, 1, 0, 5, 4, 3)
    cx = build_complex(named_graph("octahedron"))
    vectors = [orbit_census(cx, t).exponents() for t in automorphism_group(cx.graph)]
    images = [t.image for t in automorphism_group(cx.graph)]
    at = images.index(flip)
    peers = [i for i, v in enumerate(vectors) if v == vectors[at] and i != at]
    assert min(peers) < at < max(peers)

    def shifted(cx, t):
        census = orbit_census(cx, t)
        if t.image != flip:
            return census
        return dataclasses.replace(census, b={**census.b, 2: census.b.get(2, 0) + 1})

    monkeypatch.setattr(verification, "orbit_census", shifted)
    report = run_corpus_suite(endomorphisms_per_graph=0, seed=0)
    prefix = f"octahedron aut {flip}: FAIL "
    assert all(f.startswith(prefix) for f in report.failures)
    assert [f[len(prefix):].split(":")[0] for f in report.failures] == [
        "zeta_det_equals_product", "zeta_series_consistent"]


def test_the_corpus_report_does_not_depend_on_the_order_of_the_elements(monkeypatch):
    """Each graph's memos are keyed by exact inputs, so visiting every
    group's elements in reverse order gives the same report."""
    import lefgraph.verification as verification

    forward = run_corpus_suite(endomorphisms_per_graph=1, seed=0)
    real = verification.automorphism_group

    def reversed_group(g):
        group = real(g)
        group._elements = tuple(reversed(group.elements))
        return group

    monkeypatch.setattr(verification, "automorphism_group", reversed_group)
    backward = run_corpus_suite(endomorphisms_per_graph=1, seed=0)
    assert backward == forward
    assert (forward.maps, forward.checks, len(forward.findings)) == (2062, 10495, 38)
