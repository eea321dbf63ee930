"""Graph self-maps: validation, fixed simplices, Lefschetz numbers, attractors."""

import random

import pytest

from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import build_complex
from lefgraph.dynamics import (
    GraphMap,
    MapError,
    attractor,
    brouwer_check,
    fixed_index_sum,
    fixed_simplices,
    identity_map,
    is_star_shaped,
    lefschetz_chain,
    lefschetz_cohomological,
    random_endomorphism,
    validate_map,
)
from lefgraph.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    discrete_graph,
    octahedron_graph,
    path_graph,
    petersen_graph,
    star_graph,
    two_triangles_shared_edge,
    wheel_graph,
)
from lefgraph.symmetry import automorphism_group


def all_three_lefschetz(g, t):
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    return (lefschetz_cohomological(g, t, spaces),
            fixed_index_sum(cx, t),
            lefschetz_chain(spaces, t))


def test_validate_map():
    g = cycle_graph(4)
    t = validate_map(g, (1, 2, 3, 0))
    assert t.kind == "automorphism"
    with pytest.raises(MapError, match="lists 3 images"):
        validate_map(g, (1, 2, 3))
    with pytest.raises(MapError, match="outside"):
        validate_map(g, (1, 2, 3, 9))
    with pytest.raises(MapError, match="not an edge"):
        validate_map(g, (0, 2, 2, 3))


def test_map_kind():
    s = star_graph(3)
    assert validate_map(s, (0, 2, 3, 1)).kind == "automorphism"
    assert validate_map(s, (0, 1, 1, 1)).kind == "endomorphism"
    assert identity_map(s).is_identity()


def test_compose_applies_inner_first():
    g = cycle_graph(5)
    rot = validate_map(g, (1, 2, 3, 4, 0))
    refl = validate_map(g, (0, 4, 3, 2, 1))
    composed = refl.compose(rot)
    assert composed.image == tuple(refl.image[rot.image[v]] for v in range(5))


def test_power_order_inverse_cycles():
    g = cycle_graph(6)
    rot = validate_map(g, (1, 2, 3, 4, 5, 0))
    assert rot.order() == 6
    assert rot.power(6).is_identity()
    assert rot.power(0).is_identity()
    assert rot.compose(rot.inverse()).is_identity()
    assert rot.cycles() == [(0, 1, 2, 3, 4, 5)]
    refl = validate_map(g, (0, 5, 4, 3, 2, 1))
    assert refl.order() == 2
    assert refl.cycles() == [(0,), (1, 5), (2, 4), (3,)]
    with pytest.raises(MapError):
        validate_map(star_graph(3), (0, 1, 1, 1)).inverse()


def test_power_equals_repeated_composition():
    rng = random.Random(7)
    for g in (petersen_graph(), octahedron_graph(), wheel_graph(5), cycle_graph(6),
              star_graph(4), path_graph(5)):
        maps = list(automorphism_group(g))[:12]
        maps += [random_endomorphism(g, rng) for _ in range(3)]
        for t in maps:
            composite = identity_map(g)
            for m in range(9):
                assert t.power(m) == composite, (t.image, m)
                composite = t.compose(composite)


def test_fixed_simplices_rotation_has_none():
    g = cycle_graph(4)
    cx = build_complex(g)
    assert fixed_simplices(cx, validate_map(g, (1, 2, 3, 0))) == []


def test_fixed_simplices_identity_lists_everything():
    g = complete_graph(3)
    cx = build_complex(g)
    recs = fixed_simplices(cx, identity_map(g))
    assert len(recs) == 7
    assert all(r.perm_sign == 1 for r in recs)
    assert sum(r.index for r in recs) == 3 - 3 + 1


def test_fixed_simplex_indices_on_complete_graph():
    # 3-cycle plus 4-cycle: the fixed simplices are the two cycle supports
    # and their union
    g = complete_graph(7)
    cx = build_complex(g)
    t = validate_map(g, (1, 2, 0, 4, 5, 6, 3))
    recs = {r.simplex: r.index for r in fixed_simplices(cx, t)}
    assert recs == {(0, 1, 2): 1, (3, 4, 5, 6): 1, (0, 1, 2, 3, 4, 5, 6): -1}
    assert fixed_index_sum(cx, t) == 1


def test_fixed_indices_are_unit():
    g = octahedron_graph()
    cx = build_complex(g)
    for image in [(3, 4, 5, 0, 1, 2), (1, 2, 0, 4, 5, 3), (0, 2, 1, 3, 5, 4)]:
        for r in fixed_simplices(cx, validate_map(g, image)):
            assert r.index in (-1, 1)
            assert r.index == (-1) ** r.dim * r.perm_sign


def test_lefschetz_examples():
    oct_g = octahedron_graph()
    assert all_three_lefschetz(oct_g, validate_map(oct_g, (3, 1, 2, 0, 4, 5))) == \
        (0, 0, 0)
    assert all_three_lefschetz(oct_g, validate_map(oct_g, (1, 2, 0, 4, 5, 3))) == \
        (2, 2, 2)
    p = petersen_graph()
    assert all_three_lefschetz(p, identity_map(p)) == (-5, -5, -5)
    for n in (2, 3, 5):
        g = complete_graph(n)
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert all_three_lefschetz(g, validate_map(g, perm)) == (1, 1, 1)
    two = two_triangles_shared_edge()
    assert all_three_lefschetz(two, validate_map(two, (0, 1, 3, 2))) == (1, 1, 1)


def test_lefschetz_of_identity_is_euler_characteristic():
    for g in [cycle_graph(5), octahedron_graph(), wheel_graph(4),
              discrete_graph(3)]:
        cx = build_complex(g)
        assert lefschetz_cohomological(g, identity_map(g)) == \
            cx.euler_characteristic()


def test_lefschetz_routes_agree_on_random_endomorphisms():
    rng = random.Random(17)
    for g in [star_graph(4), wheel_graph(5), two_triangles_shared_edge(),
              path_graph(5)]:
        for _ in range(10):
            t = random_endomorphism(g, rng)
            a, b, c = all_three_lefschetz(g, t)
            assert a == b == c


def test_attractor_of_collapsing_map():
    g = star_graph(3)
    t = validate_map(g, (0, 1, 1, 1))
    a = attractor(t)
    assert a.vertices == (0, 1)
    assert a.graph.n == 2 and a.graph.sorted_edges() == [(0, 1)]
    assert a.map.is_identity()


def test_attractor_of_automorphism_is_whole_graph():
    g = petersen_graph()
    t = validate_map(g, (1, 2, 3, 4, 0, 6, 7, 8, 9, 5))
    a = attractor(t)
    assert a.vertices == tuple(range(10))
    assert a.graph == g


def test_attractor_preserves_lefschetz():
    rng = random.Random(23)
    for g in [star_graph(4), wheel_graph(4), path_graph(6),
              two_triangles_shared_edge()]:
        for _ in range(8):
            t = random_endomorphism(g, rng)
            a = attractor(t)
            assert lefschetz_cohomological(g, t) == \
                lefschetz_cohomological(a.graph, a.map)


def test_lefschetz_of_powers_stays_consistent():
    g = octahedron_graph()
    t = validate_map(g, (1, 2, 0, 4, 5, 3))
    for m in range(1, t.order() + 1):
        a, b, c = all_three_lefschetz(g, t.power(m))
        assert a == b == c


def test_is_star_shaped():
    assert is_star_shaped(complete_graph(4))
    assert is_star_shaped(star_graph(5))
    assert is_star_shaped(wheel_graph(5))
    assert is_star_shaped(path_graph(4))
    assert not is_star_shaped(cycle_graph(5))
    assert not is_star_shaped(petersen_graph())
    assert not is_star_shaped(octahedron_graph())


def test_brouwer_applicable_cases():
    w = wheel_graph(5)
    rep = brouwer_check(w, validate_map(w, (1, 2, 3, 4, 0, 5)))
    assert rep.applicable and rep.lefschetz == 1
    assert rep.witness == (5,)
    k3 = complete_graph(3)
    rep = brouwer_check(k3, validate_map(k3, (1, 2, 0)))
    assert rep.applicable and rep.fixed_count == 1
    assert rep.witness == (0, 1, 2)


def test_brouwer_inapplicable_cases():
    c4 = cycle_graph(4)
    rep = brouwer_check(c4, validate_map(c4, (1, 2, 3, 0)))
    assert not rep.applicable
    assert rep.lefschetz == 0 and rep.fixed_count == 0 and rep.witness is None
    d2 = discrete_graph(2)
    rep = brouwer_check(d2, validate_map(d2, (1, 0)))
    assert not rep.applicable


def test_random_endomorphism_is_valid_and_seeded():
    g = petersen_graph()
    a = random_endomorphism(g, random.Random(99))
    b = random_endomorphism(g, random.Random(99))
    assert a == b
    rng = random.Random(1)
    seen = set()
    for _ in range(50):
        t = random_endomorphism(g, rng)
        seen.add(t.image)
        for u, v in g.edges:
            assert g.adjacent(t.image[u], t.image[v])
    assert len(seen) > 10


def _recursive_random_endomorphism(g, rng):
    """Recursive form of random_endomorphism's backtracking search: the
    reference for which random numbers it draws, and in what order."""
    order = list(range(g.n))
    rng.shuffle(order)
    image = [-1] * g.n
    full = (1 << g.n) - 1

    def assign(i):
        if i == g.n:
            return True
        v = order[i]
        allowed = full
        for w in g.neighbors(v):
            if image[w] >= 0:
                allowed &= g.adj[image[w]]
        candidates = [u for u in range(g.n) if allowed >> u & 1]
        rng.shuffle(candidates)
        for u in candidates:
            image[v] = u
            if assign(i + 1):
                return True
        image[v] = -1
        return False

    assert assign(0)
    return tuple(image)


def test_random_endomorphism_matches_recursive_search():
    graphs = [petersen_graph(), octahedron_graph(), cycle_graph(7), path_graph(5),
              star_graph(4), wheel_graph(5), two_triangles_shared_edge(),
              complete_graph(4), discrete_graph(3), Graph(0), Graph(6, [(0, 1), (2, 3)])]
    for seed in range(20):
        for g in graphs:
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_endomorphism(g, ours).image == \
                    _recursive_random_endomorphism(g, theirs)
            assert ours.random() == theirs.random()


def test_random_endomorphism_on_many_vertices():
    g = Graph(1200, [])  # deeper than the default recursion limit
    t = random_endomorphism(g, random.Random(0))
    assert len(t.image) == 1200 and all(0 <= w < 1200 for w in t.image)


def test_map_equality_and_hash():
    g = cycle_graph(4)
    a = validate_map(g, (1, 2, 3, 0))
    b = validate_map(g, (1, 2, 3, 0))
    assert a == b and hash(a) == hash(b)
    assert a != identity_map(g)
