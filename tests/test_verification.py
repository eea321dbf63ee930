"""Corpus sweeps and the expectation-over-random-graphs experiments."""

import os
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
    validate_map,
)
from lefgraph.experiments import (
    expectation_exhaustive,
    expectation_sampled,
    graph_average_lefschetz,
)
from lefgraph.graphs import (
    Graph,
    GraphError,
    cycle_graph,
    named_graph,
    path_graph,
    petersen_graph,
)
from lefgraph.reporting import TheoremCheck, VerificationError
from lefgraph.symmetry import AutomorphismGroup, automorphism_group
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
    g = cycle_graph(5)
    group = automorphism_group(g)
    assert graph_average_lefschetz(group) == 1
    # The rotations alone average L = 0: the five reflections carry L = 2.
    rotations = AutomorphismGroup(g, tuple(
        t for t in group if all((t.image[v] - t.image[0]) % 5 == v for v in range(5))))
    assert rotations.order == 5
    assert graph_average_lefschetz(rotations) == 0


def _drop_one_element(monkeypatch):
    """Make the automorphism search of the expectations lose its last element."""
    def short(g):
        group = automorphism_group(g)
        return AutomorphismGroup(g, group.elements[:-1])

    monkeypatch.setattr(experiments, "automorphism_group", short)


def test_orbit_stabilizer_mismatch_raises_with_both_values(monkeypatch):
    _drop_one_element(monkeypatch)
    with pytest.raises(VerificationError) as info:
        expectation_exhaustive(4)
    # The first class is the discrete graph: one labeled graph, |Aut| = 24.
    assert "orbit size 1 times |Aut| 23 is 23, not 4! = 24" in str(info.value)


def test_missing_class_raises_with_both_counts(monkeypatch):
    real = experiments.isomorphism_classes
    monkeypatch.setattr(experiments, "isomorphism_classes",
                        lambda n: list(real(n))[:-1])  # drop K_4
    with pytest.raises(VerificationError, match=r"hold 63 labeled graphs, not 2\^C\(4,2\) = 64"):
        expectation_exhaustive(4)


def test_orbit_stabilizer_mismatch_exits_2(monkeypatch, capsys):
    _drop_one_element(monkeypatch)
    assert main(["random", "--n", "4", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is 23, not 4! = 24" in captured.err


OPTIMIZED_MISMATCH = textwrap.dedent("""
    import sys
    from lefgraph import experiments
    from lefgraph.cli import main
    from lefgraph.symmetry import AutomorphismGroup, automorphism_group

    def short(g):
        return AutomorphismGroup(g, automorphism_group(g).elements[:-1])

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
    assert "is 23, not 4! = 24" in proc.stderr


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
