"""Clique complexes: enumeration, f-vectors, Euler characteristics."""

from itertools import combinations

from lefgraph.complexes import CliqueComplex, build_complex
from lefgraph.graphs import (
    all_graphs,
    complete_graph,
    cycle_graph,
    discrete_graph,
    disjoint_union,
    octahedron_graph,
    path_graph,
    petersen_graph,
    wheel_graph,
)


def brute_force_cliques(g):
    """Oracle: test every vertex subset for pairwise adjacency."""
    out = []
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(g.adjacent(u, v) for u, v in combinations(combo, 2)):
                out.append(combo)
    return sorted(out, key=lambda s: (len(s), s))


def test_f_vector_examples():
    assert build_complex(cycle_graph(5)).f_vector() == (5, 5)
    assert build_complex(complete_graph(4)).f_vector() == (4, 6, 4, 1)
    assert build_complex(wheel_graph(4)).f_vector() == (5, 8, 4)
    assert build_complex(octahedron_graph()).f_vector() == (6, 12, 8)
    assert build_complex(petersen_graph()).f_vector() == (10, 15)
    assert build_complex(discrete_graph(3)).f_vector() == (3,)


def test_empty_graph():
    cx = build_complex(discrete_graph(0))
    assert cx.f_vector() == ()
    assert cx.dim == -1
    assert cx.euler_characteristic() == 0
    assert len(cx) == 0


def test_simplices_are_sorted_and_indexed():
    cx = build_complex(complete_graph(3))
    assert cx.simplices(0) == [(0,), (1,), (2,)]
    assert cx.simplices(1) == [(0, 1), (0, 2), (1, 2)]
    assert cx.simplices(2) == [(0, 1, 2)]
    for k in range(cx.dim + 1):
        for i, s in enumerate(cx.simplices(k)):
            assert cx.index_of(s) == i
            assert cx.contains(s)
    assert not cx.contains((0, 3))


def test_enumeration_matches_brute_force():
    for g in [cycle_graph(6), wheel_graph(5), octahedron_graph(),
              disjoint_union(complete_graph(3), complete_graph(2))]:
        cx = build_complex(g)
        assert sorted(cx, key=lambda s: (len(s), s)) == brute_force_cliques(g)


def test_enumeration_matches_brute_force_exhaustive_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            cx = build_complex(g)
            assert sorted(cx, key=lambda s: (len(s), s)) == brute_force_cliques(g)


def test_faces_are_closed():
    cx = build_complex(wheel_graph(6))
    for s in cx:
        for face in combinations(s, len(s) - 1):
            if face:
                assert cx.contains(face)


def test_euler_characteristic_examples():
    assert build_complex(petersen_graph()).euler_characteristic() == -5
    assert build_complex(cycle_graph(7)).euler_characteristic() == 0
    assert build_complex(complete_graph(6)).euler_characteristic() == 1
    assert build_complex(octahedron_graph()).euler_characteristic() == 2
    assert build_complex(discrete_graph(4)).euler_characteristic() == 4
    assert build_complex(path_graph(5)).euler_characteristic() == 1


def test_euler_characteristic_additive_over_disjoint_union():
    a, b = wheel_graph(5), cycle_graph(4)
    assert build_complex(disjoint_union(a, b)).euler_characteristic() == \
        build_complex(a).euler_characteristic() + build_complex(b).euler_characteristic()


def test_count_and_len_agree():
    cx = build_complex(octahedron_graph())
    assert len(cx) == sum(cx.count(k) for k in range(cx.dim + 1)) == 26
