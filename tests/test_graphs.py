"""Graph type, edge-list format, and graph families."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefgraph import graphs
from lefgraph.graphs import (
    Graph,
    GraphError,
    GraphFormatError,
    all_graphs,
    complete_graph,
    connected_components,
    cycle_graph,
    discrete_graph,
    disjoint_union,
    format_edge_list,
    graph_count,
    induced_subgraph,
    isomorphism_classes,
    named_graph,
    named_graph_names,
    octahedron_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
    two_triangles_shared_edge,
    wheel_graph,
)


def test_graph_basics():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert not g.adjacent(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_neighbors_equal_the_range_scan_definition():
    """The set-bit walk gives the ascending tuple of a scan over all n
    vertices, on seeded random graphs, the empty graph and isolated vertices."""
    rng = random.Random(41)
    graphs = [Graph(0), discrete_graph(1), discrete_graph(7),
              disjoint_union(cycle_graph(5), discrete_graph(3))]
    graphs += [random_graph(n, Fraction(p, 4), rng) for n in (2, 9, 70) for p in (1, 2, 3)]
    for g in graphs:
        for v in range(g.n):
            expected = tuple(u for u in range(g.n) if g.adj[v] >> u & 1)
            assert g.neighbors(v) == expected, (g, v)
            assert list(expected) == sorted(expected)
    assert all(discrete_graph(7).neighbors(v) == () for v in range(7))


def test_graph_rejects_bad_edges():
    with pytest.raises(Exception):
        Graph(2, [(0, 0)])
    with pytest.raises(Exception):
        Graph(2, [(0, 5)])


def test_parse_minimal():
    g = parse_edge_list("vertices 3\n0 1\n1 2\n")
    assert g.n == 3 and g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_comments_blank_lines_and_duplicates():
    text = "# a graph\n\nvertices 2\n0 1\n# trailing\n1 0\n"
    g = parse_edge_list(text)
    assert g.sorted_edges() == [(0, 1)]


def test_parse_error_messages_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2.*loop"):
        parse_edge_list("vertices 2\n1 1\n")
    with pytest.raises(GraphFormatError, match="line 3.*outside"):
        parse_edge_list("vertices 2\n0 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="line 2.*duplicate"):
        parse_edge_list("vertices 2\nvertices 2\n")
    with pytest.raises(GraphFormatError, match="line 1.*header"):
        parse_edge_list("0 1\nvertices 2\n")
    with pytest.raises(GraphFormatError, match="missing"):
        parse_edge_list("# nothing here\n")
    with pytest.raises(GraphFormatError, match="line 2.*integer"):
        parse_edge_list("vertices 2\n0 x\n")


def test_format_round_trip_examples():
    for g in [petersen_graph(), wheel_graph(5), discrete_graph(4)]:
        assert parse_edge_list(format_edge_list(g)) == g


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                          st.integers(0, max(n - 1, 0)))
                .filter(lambda e: e[0] != e[1]),
                max_size=10) if n > 0 else st.just(set()))))
def test_format_round_trip_random(case):
    n, edges = case
    g = Graph(n, list(edges))
    assert parse_edge_list(format_edge_list(g)) == g


def test_families_shapes():
    assert complete_graph(4).sorted_edges() == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert cycle_graph(4).sorted_edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert path_graph(1).n == 1 and path_graph(1).sorted_edges() == []
    assert path_graph(4).sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    assert discrete_graph(3).sorted_edges() == []
    # star: center 0 with k leaves
    s = star_graph(3)
    assert s.n == 4 and s.degree(0) == 3
    assert all(s.degree(v) == 1 for v in range(1, 4))
    # wheel: rim cycle 0..k-1 plus hub k joined to every rim vertex
    w = wheel_graph(4)
    assert w.n == 5 and w.degree(4) == 4
    assert w.adjacent(0, 1) and w.adjacent(0, 3) and not w.adjacent(0, 2)


def test_family_size_guards():
    with pytest.raises(Exception):
        cycle_graph(2)
    with pytest.raises(Exception):
        wheel_graph(2)
    with pytest.raises(Exception):
        star_graph(0)
    with pytest.raises(Exception):
        path_graph(0)


def test_octahedron():
    g = octahedron_graph()
    assert g.n == 6
    assert len(g.sorted_edges()) == 12
    # each vertex is adjacent to all but its antipode
    for v in range(6):
        assert not g.adjacent(v, (v + 3) % 6)
        assert g.degree(v) == 4


def test_petersen():
    g = petersen_graph()
    assert g.n == 10 and len(g.sorted_edges()) == 15
    assert all(g.degree(v) == 3 for v in range(10))
    # girth 5: no triangles
    for u, v in g.sorted_edges():
        assert not any(g.adjacent(u, w) and g.adjacent(v, w) for w in range(10))


def test_two_triangles_shared_edge():
    g = two_triangles_shared_edge()
    assert g.n == 4
    assert g.sorted_edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert not g.adjacent(2, 3)


def test_named_graph_dispatch():
    assert named_graph("petersen") == petersen_graph()
    assert named_graph("cycle", 5) == cycle_graph(5)
    assert named_graph("complete", 3) == complete_graph(3)
    with pytest.raises(Exception):
        named_graph("nonesuch")
    with pytest.raises(Exception):
        named_graph("cycle")          # needs a size
    assert "petersen" in named_graph_names()


def test_disjoint_union():
    g = disjoint_union(complete_graph(2), complete_graph(3))
    assert g.n == 5
    assert g.adjacent(0, 1) and g.adjacent(2, 3) and not g.adjacent(1, 2)


def test_induced_subgraph():
    sub, labels = induced_subgraph(petersen_graph(), [0, 1, 2, 5])
    assert labels == [0, 1, 2, 5]
    assert sub.n == 4
    # edges present among the kept vertices: 0-1, 1-2, 0-5
    assert sub.sorted_edges() == [(0, 1), (0, 3), (1, 2)]


def test_connected_components():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    comps = connected_components(g)
    assert sorted(map(sorted, comps)) == [[0, 1, 2], [3, 4]]
    assert connected_components(discrete_graph(3)) == [(0,), (1,), (2,)]


def test_all_graphs_census():
    for n in range(0, 5):
        graphs = list(all_graphs(n))
        assert len(graphs) == graph_count(n) == 2 ** (n * (n - 1) // 2)
        assert len({tuple(g.sorted_edges()) for g in graphs}) == len(graphs)
    with pytest.raises(Exception):
        list(all_graphs(8))


def test_isomorphism_class_counts_and_sizes():
    for n, classes in enumerate([1, 1, 2, 4, 11, 34, 156]):
        found = list(isomorphism_classes(n))
        assert len(found) == classes
        assert sum(size for _, size in found) == graph_count(n)


def _mask(g):
    """The number of g in all_graphs order."""
    slots = {p: i for i, p in enumerate(combinations(range(g.n), 2))}
    return sum(1 << slots[e] for e in g.edges)


def test_each_class_is_represented_by_its_first_labeled_graph():
    """Against a brute force over all n! relabelings: the representative is
    the least mask of its class, the size is the number of distinct masks,
    and every labeled graph falls in exactly one class."""
    for n in range(6):
        covered = set()
        for rep, size in isomorphism_classes(n):
            orbit = {_mask(Graph(n, [(p[u], p[v]) for u, v in rep.edges]))
                     for p in permutations(range(n))}
            assert _mask(rep) == min(orbit)
            assert size == len(orbit)
            assert not covered & orbit
            covered |= orbit
        assert covered == set(range(graph_count(n)))
        reps = [_mask(rep) for rep, _ in isomorphism_classes(n)]
        assert reps == sorted(reps)


@pytest.mark.parametrize("n", [8, -1])
def test_isomorphism_classes_refuse_before_allocating(monkeypatch, n):
    allocated = []
    monkeypatch.setattr(graphs, "bytearray",
                        lambda size: allocated.append(size), raising=False)
    with pytest.raises(GraphError):
        next(isomorphism_classes(n))
    assert allocated == []


def test_random_graph_is_seeded_and_valid():
    a = random_graph(8, Fraction(1, 2), random.Random(42))
    b = random_graph(8, Fraction(1, 2), random.Random(42))
    assert a == b
    assert random_graph(6, Fraction(0), random.Random(0)).sorted_edges() == []
    full = random_graph(6, Fraction(1), random.Random(0))
    assert len(full.sorted_edges()) == 15


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])
    assert a != Graph(4, [(0, 1)])
