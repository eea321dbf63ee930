"""Corpus sweeps and the expectation-over-random-graphs experiments."""

from fractions import Fraction

import pytest

from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import build_complex
from lefgraph.dynamics import attractor, identity_map, lefschetz_cohomological, validate_map
from lefgraph.experiments import (
    expectation_exhaustive,
    expectation_sampled,
    graph_average_lefschetz,
)
from lefgraph.graphs import cycle_graph, named_graph, path_graph, petersen_graph
from lefgraph.reporting import TheoremCheck
from lefgraph.zeta import MAX_SERIES_ORDER
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
    checks = structural_checks(petersen_graph())
    assert [c.name for c in checks] == [
        "d_squared_zero", "euler_poincare", "betti0_equals_components"]
    assert all(c.passed for c in checks)


def test_lefschetz_checks_pass_for_sample_map():
    g = cycle_graph(5)
    checks = lefschetz_checks(g, validate_map(g, (1, 2, 3, 4, 0)))
    assert all(c.passed for c in checks)
    assert len(checks) == 3


def test_attractor_and_zeta_checks():
    g = named_graph("star", 3)
    assert all(c.passed for c in attractor_checks(g, validate_map(g, (0, 1, 1, 1))))
    c5 = cycle_graph(5)
    checks = zeta_checks(c5, validate_map(c5, (0, 4, 3, 2, 1)))
    assert all(c.passed for c in checks)


def test_zeta_checks_refuse_an_empty_series():
    c5 = cycle_graph(5)
    rotation = validate_map(c5, (1, 2, 3, 4, 0))
    for order in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            zeta_checks(c5, rotation, series_order=order)
    series = zeta_checks(c5, rotation, series_order=1)[1]
    assert series.passed and series.lhs == series.rhs == [0]


def test_zeta_checks_cap_the_series_order():
    c5 = cycle_graph(5)
    rotation = validate_map(c5, (1, 2, 3, 4, 0))
    with pytest.raises(ValueError, match=f"above the limit of {MAX_SERIES_ORDER}"):
        zeta_checks(c5, rotation, series_order=MAX_SERIES_ORDER + 1)


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
    assert graph_average_lefschetz(petersen_graph()) == 1
    assert graph_average_lefschetz(named_graph("discrete", 2)) == 1


def test_expectation_exhaustive_small():
    assert expectation_exhaustive(1) == 1
    assert expectation_exhaustive(2) == 1
    assert expectation_exhaustive(3) == Fraction(11, 8)
    assert expectation_exhaustive(4) == Fraction(43, 32)


def test_expectation_cap():
    with pytest.raises(ValueError, match="capped"):
        expectation_exhaustive(7)
    assert expectation_exhaustive(3, cap=3) == Fraction(11, 8)


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
        checks = attractor_checks(g, t, spaces)
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
    checks = attractor_checks(g, t, spaces)
    assert built == [core.graph]
    assert [c.passed for c in checks] == [True]
    assert checks[0].rhs == lefschetz_cohomological(core.graph, core.map) == 1


def test_corpus_suite_scans_each_map_once(monkeypatch):
    """Each map's fixed-simplex scan serves its index sum and the averaging
    sweep or the Brouwer check, so the suite makes one scan per map."""
    import lefgraph.dynamics as dynamics
    import lefgraph.symmetry as symmetry
    import lefgraph.verification as verification

    scans = {"verification": 0, "symmetry": 0, "dynamics": 0}
    for module in (verification, symmetry, dynamics):
        real = module.fixed_simplices

        def counting(cx, t, _name=module.__name__.split(".")[-1], _real=real):
            scans[_name] += 1
            return _real(cx, t)

        monkeypatch.setattr(module, "fixed_simplices", counting)
    report = run_corpus_suite(endomorphisms_per_graph=1, seed=3)
    assert report.passed and report.maps == 2062
    assert scans == {"verification": 2062, "symmetry": 0, "dynamics": 0}
