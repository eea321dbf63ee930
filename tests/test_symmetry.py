"""Automorphism groups, curvature, orbigraphs, and the averaging identities."""

import math
import random
from fractions import Fraction

import pytest

import dense
from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import build_complex
from lefgraph.dynamics import fixed_simplices, validate_map
from lefgraph.graphs import (
    all_graphs,
    complete_graph,
    cycle_graph,
    discrete_graph,
    disjoint_union,
    octahedron_graph,
    path_graph,
    petersen_graph,
    star_graph,
    two_triangles_shared_edge,
    wheel_graph,
)
from lefgraph.symmetry import (
    AutomorphismGroup,
    FixedSimplexSweep,
    SymmetryError,
    automorphism_group,
    average_lefschetz,
    fixed_simplex_sweep,
    lefschetz_curvature,
    lefschetz_multiset,
    lefschetz_numbers,
    orbigraph,
    simplex_orbits_under_group,
    stabilizer,
    verify_averaging_theorems,
)
from lefgraph.verification import named_corpus


def handles(g):
    """The complex, the cochain spaces and the automorphism group of g."""
    cx = build_complex(g)
    return cx, CochainSpaces(cx), automorphism_group(g)


def curvature(g):
    cx, _, group = handles(g)
    return lefschetz_curvature(cx, group)


def averaging(g):
    cx, spaces, group = handles(g)
    return verify_averaging_theorems(spaces, group, fixed_simplex_sweep(cx, group))


def test_group_orders():
    assert automorphism_group(petersen_graph()).order == 120
    assert automorphism_group(cycle_graph(4)).order == 8
    assert automorphism_group(cycle_graph(5)).order == 10
    assert automorphism_group(complete_graph(4)).order == 24
    assert automorphism_group(path_graph(3)).order == 2
    assert automorphism_group(star_graph(3)).order == 6
    assert automorphism_group(octahedron_graph()).order == 48
    assert automorphism_group(two_triangles_shared_edge()).order == 4
    assert automorphism_group(discrete_graph(1)).order == 1


def test_group_elements_sorted_identity_first():
    group = automorphism_group(octahedron_graph())
    elements = list(group)
    assert elements[0].is_identity()
    assert group.identity().is_identity()
    images = [t.image for t in elements]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_group_closure_and_inverses():
    for g in [cycle_graph(5), two_triangles_shared_edge(), star_graph(3)]:
        group = automorphism_group(g)
        members = set(group)
        for t in group:
            assert t.inverse() in members
            for s in group:
                assert t.compose(s) in members


def test_group_order_divides_factorial():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert math.factorial(n) % automorphism_group(g).order == 0


def test_group_cap():
    with pytest.raises(SymmetryError, match="capped"):
        automorphism_group(discrete_graph(13))
    assert automorphism_group(path_graph(12)).order == 2


def test_vertex_orbits():
    assert automorphism_group(petersen_graph()).vertex_orbits() == \
        [tuple(range(10))]
    assert automorphism_group(star_graph(3)).vertex_orbits() == \
        [(0,), (1, 2, 3)]
    assert automorphism_group(wheel_graph(5)).vertex_orbits() == \
        [(0, 1, 2, 3, 4), (5,)]


def test_simplex_orbits_under_map():
    """The tuple-set walk that the orbit census is checked against
    (`dense.simplex_orbits_under_map`) on two hand-worked maps of C_4."""
    g = cycle_graph(4)
    cx = build_complex(g)
    rot = validate_map(g, (1, 2, 3, 0))
    orbits = dense.simplex_orbits_under_map(cx, rot)
    assert [(o.representative, o.period) for o in orbits] == \
        [((0,), 4), ((0, 1), 4)]
    assert orbits[0].simplices == ((0,), (1,), (2,), (3,))
    refl = validate_map(g, (0, 3, 2, 1))   # fixes vertices 0 and 2
    orbits = dense.simplex_orbits_under_map(cx, refl)
    assert [(o.representative, o.period) for o in orbits] == \
        [((0,), 1), ((1,), 2), ((2,), 1), ((0, 1), 2), ((1, 2), 2)]


def test_simplex_orbits_under_map_cover_everything():
    g = octahedron_graph()
    cx = build_complex(g)
    t = validate_map(g, (1, 2, 0, 4, 5, 3))
    orbits = dense.simplex_orbits_under_map(cx, t)
    members = [x for o in orbits for x in o.simplices]
    assert len(members) == len(cx) and len(set(members)) == len(members)
    for o in orbits:
        # the period is minimal
        assert t.power(o.period).image_simplex(o.representative) == \
            o.representative
        for m in range(1, o.period):
            assert t.power(m).image_simplex(o.representative) != \
                o.representative


def test_simplex_orbits_under_group():
    g = complete_graph(3)
    cx = build_complex(g)
    orbits = simplex_orbits_under_group(cx, automorphism_group(g))
    assert orbits == [((0,), (1,), (2,)),
                      ((0, 1), (0, 2), (1, 2)),
                      ((0, 1, 2),)]


def test_orbits_need_an_automorphism():
    g = star_graph(3)
    with pytest.raises(SymmetryError):
        dense.simplex_orbits_under_map(build_complex(g), validate_map(g, (0, 1, 1, 1)))


def test_orbit_stabilizer():
    g = octahedron_graph()
    cx = build_complex(g)
    group = automorphism_group(g)
    for orbit in simplex_orbits_under_group(cx, group):
        x = orbit[0]
        assert len(orbit) * len(stabilizer(group, x)) == group.order


def test_curvature_complete_graphs():
    # vertices of the full simplex on m vertices carry curvature 1/m
    for m in (2, 3, 4):
        table = curvature(complete_graph(m))
        for v in range(m):
            assert table.values[(v,)] == Fraction(1, m)
        assert table.total() == 1


def test_curvature_wheel():
    table = curvature(wheel_graph(5))
    values = table.values
    assert values[(5,)] == 1                       # hub
    for v in range(5):
        assert values[(v,)] == Fraction(1, 5)      # rim vertices
        assert values[(v, 5)] == Fraction(-1, 5)   # spokes
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        assert values[(u, v)] == 0                 # rim edges
    for x, val in values.items():
        if len(x) == 3:
            assert val == 0                        # triangles
    assert table.total() == 1


def test_curvature_cycle():
    table = curvature(cycle_graph(4))
    for v in range(4):
        assert table.values[(v,)] == Fraction(1, 4)
    for e in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        assert table.values[e] == 0
    # total matches the orbigraph (a point), not the cycle itself
    assert table.total() == 1


def test_curvature_is_constant_on_orbits():
    for g in [petersen_graph(), wheel_graph(4), two_triangles_shared_edge()]:
        group = automorphism_group(g)
        cx = build_complex(g)
        table = lefschetz_curvature(cx, group)
        for orbit in simplex_orbits_under_group(cx, group):
            vals = {table.values[x] for x in orbit}
            assert len(vals) == 1


def test_curvature_total_equals_average_lefschetz():
    for g in [petersen_graph(), octahedron_graph(), star_graph(4),
              cycle_graph(6)]:
        cx, spaces, group = handles(g)
        assert lefschetz_curvature(cx, group).total() == \
            average_lefschetz(spaces, group)


def test_lefschetz_numbers_and_multiset():
    g = cycle_graph(4)
    _, spaces, group = handles(g)
    nums = lefschetz_numbers(spaces, group)
    assert len(nums) == 8 and nums[0] == spaces.cx.euler_characteristic()
    assert lefschetz_multiset(spaces, group) == {0: 4, 2: 4}
    _, spaces, group = handles(petersen_graph())
    assert lefschetz_multiset(spaces, group) == {-5: 1, 0: 24, 1: 80, 3: 15}


def test_average_lefschetz_examples():
    for g, expected in [(petersen_graph(), 1), (cycle_graph(4), 1),
                        (complete_graph(5), 1),
                        (disjoint_union(complete_graph(2), complete_graph(1)), 2),
                        (discrete_graph(3), 1)]:
        _, spaces, group = handles(g)
        assert average_lefschetz(spaces, group) == expected


def test_orbigraph_examples():
    q = orbigraph(automorphism_group(petersen_graph()))
    assert q.graph.n == 1 and q.graph.sorted_edges() == []
    assert q.projection == (0,) * 10
    q = orbigraph(automorphism_group(wheel_graph(5)))
    assert q.graph.n == 2 and q.graph.sorted_edges() == [(0, 1)]
    q = orbigraph(automorphism_group(disjoint_union(complete_graph(2), complete_graph(1))))
    assert q.graph.n == 2 and q.graph.sorted_edges() == []
    assert build_complex(q.graph).euler_characteristic() == 2


def test_averaging_theorems_hold():
    for g in [petersen_graph(), octahedron_graph(), wheel_graph(5),
              star_graph(4), two_triangles_shared_edge(), discrete_graph(3)]:
        report = averaging(g)
        assert report.passed, [c.describe() for c in report.checks]


def test_averaging_theorems_exhaustive_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert averaging(g).passed


def test_averaging_findings_report_non_unit_orbit_sums():
    # the edge orbit of the Petersen graph sums to 0, which is worth flagging
    report = averaging(petersen_graph())
    assert report.passed
    assert len(report.findings) == 1
    # star(3): center 1, leaf orbit 1, edge orbit -1, so nothing to flag
    report = averaging(star_graph(3))
    assert report.findings == []


def test_group_repr_mentions_order():
    group = automorphism_group(cycle_graph(3))
    assert "6" in repr(group)
    assert isinstance(group, AutomorphismGroup)


def test_averaging_scans_each_element_once(monkeypatch):
    import lefgraph.symmetry as symmetry

    scanned = []
    real = symmetry.fixed_simplices

    def counting(cx, t):
        scanned.append(t.image)
        return real(cx, t)

    monkeypatch.setattr(symmetry, "fixed_simplices", counting)
    for g in [petersen_graph(), octahedron_graph(), wheel_graph(5), path_graph(3)]:
        cx, spaces, group = handles(g)
        scanned.clear()
        report = verify_averaging_theorems(spaces, group, fixed_simplex_sweep(cx, group))
        assert report.passed
        assert sorted(scanned) == sorted(t.image for t in group)
        assert report.curvature == lefschetz_curvature(cx, group)


def test_streamed_sweep_equals_a_fresh_sweep_on_the_corpus():
    """A sweep fed one scan at a time, as the corpus suite feeds it, gives
    the curvature table and the Burnside total of a fresh sweep."""
    for name, g in named_corpus():
        cx = build_complex(g)
        group = automorphism_group(g)
        streamed = FixedSimplexSweep(cx)
        for t in group:
            streamed.add(t, fixed_simplices(cx, t))
        fresh = fixed_simplex_sweep(cx, group)
        assert streamed.scanned == fresh.scanned == {t.image for t in group}, name
        assert streamed.curvature(group.order) == fresh.curvature(group.order), name
        assert streamed.fixed_total == fresh.fixed_total, name
        assert verify_averaging_theorems(CochainSpaces(cx), group, streamed).passed, name


def test_averaging_refuses_a_sweep_of_other_elements():
    g = cycle_graph(6)
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    group = automorphism_group(g)
    first = group.elements[0]
    sweep = FixedSimplexSweep(cx)
    for t in list(group)[:-1]:
        sweep.add(t, fixed_simplices(cx, t))
    with pytest.raises(SymmetryError, match="scanned 11 elements, not the 12 of the group"):
        verify_averaging_theorems(spaces, group, sweep)
    with pytest.raises(SymmetryError, match="already in the fixed-simplex sweep"):
        sweep.add(first, fixed_simplices(cx, first))
    # Twelve scans, one of them of a map outside the group: a count of the
    # scans alone would pass it.
    fold = validate_map(g, (0, 1, 0, 1, 0, 1))
    sweep.add(fold, fixed_simplices(cx, fold))
    with pytest.raises(SymmetryError, match="scanned 12 elements, not the 12"):
        verify_averaging_theorems(spaces, group, sweep)
    sweep = FixedSimplexSweep(cx)
    for t in group:
        sweep.add(t, fixed_simplices(cx, t))
    assert verify_averaging_theorems(spaces, group, sweep).passed
