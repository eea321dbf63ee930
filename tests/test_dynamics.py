"""Graph self-maps: validation, fixed simplices, Lefschetz numbers, attractors."""

import random
import time
from fractions import Fraction

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
    is_star_shaped,
    lefschetz_chain,
    lefschetz_cohomological,
    random_endomorphism,
    validate_map,
)
from lefgraph.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    discrete_graph,
    octahedron_graph,
    path_graph,
    petersen_graph,
    random_graph,
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
    assert GraphMap.identity(s).is_identity()


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
            composite = GraphMap.identity(g)
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
    recs = fixed_simplices(cx, GraphMap.identity(g))
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
    assert all_three_lefschetz(p, GraphMap.identity(p)) == (-5, -5, -5)
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
        assert lefschetz_cohomological(g, GraphMap.identity(g)) == \
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
    for g in (complete_graph(4), star_graph(5), wheel_graph(5), path_graph(4)):
        assert is_star_shaped(CochainSpaces(build_complex(g)))
    for g in (cycle_graph(5), petersen_graph(), octahedron_graph()):
        assert not is_star_shaped(CochainSpaces(build_complex(g)))


def brouwer(g, image):
    cx = build_complex(g)
    t = validate_map(g, image)
    return brouwer_check(CochainSpaces(cx), t, fixed_simplices(cx, t))


def test_brouwer_applicable_cases():
    rep = brouwer(wheel_graph(5), (1, 2, 3, 4, 0, 5))
    assert rep.applicable and rep.lefschetz == 1
    assert rep.witness == (5,)
    rep = brouwer(complete_graph(3), (1, 2, 0))
    assert rep.applicable and rep.fixed_count == 1
    assert rep.witness == (0, 1, 2)


def test_brouwer_inapplicable_cases():
    rep = brouwer(cycle_graph(4), (1, 2, 3, 0))
    assert not rep.applicable
    assert rep.lefschetz == 0 and rep.fixed_count == 0 and rep.witness is None
    rep = brouwer(discrete_graph(2), (1, 0))
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


def _luby(i):
    """Luby's sequence 1, 1, 2, 1, 1, 2, 4, ... by its definition."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    return 1 << (k - 1) if i == (1 << k) - 1 else _luby(i - (1 << (k - 1)) + 1)


def _recursive_random_endomorphism(g, rng):
    """Recursive form of random_endomorphism's search: the reference for
    which random numbers it draws, and in what order.  `extend` gives True
    when every vertex is mapped, False when the choices so far admit no
    map, and None when the budget is spent."""
    image = [-1] * g.n
    components = connected_components(g)
    pool = list(range(len(components)))

    def extend(frontier, budget):
        if not frontier:
            return True
        v = min(frontier, key=lambda w: (bin(frontier[w]).count("1"), w))
        domain = frontier.pop(v)
        candidates = [u for u in range(g.n) if domain >> u & 1]
        rng.shuffle(candidates)
        for u in candidates:
            if budget[0] == 0:
                return None
            budget[0] -= 1
            image[v] = u
            narrowed = dict(frontier)
            for w in g.neighbors(v):
                if image[w] < 0:
                    narrowed[w] = narrowed.get(w, -1) & g.adj[u]
                    if not narrowed[w]:
                        break
            else:
                outcome = extend(narrowed, budget)
                if outcome is not False:
                    return outcome
        image[v] = -1
        return False

    for component in components:
        mapped, i = False, 0
        while not mapped:
            i += 1
            root = component[rng.randrange(len(component))]
            for j in range(len(pool)):
                r = rng.randrange(j, len(pool))
                pool[j], pool[r] = pool[r], pool[j]
                target = components[pool[j]]
                budget = [len(component) * _luby(i)]
                mapped = extend({root: sum(1 << u for u in target)}, budget)
                if mapped:
                    break
                for v in component:
                    image[v] = -1
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
    assert [_luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_random_endomorphism_on_many_vertices():
    g = Graph(1200, [])  # deeper than the default recursion limit
    t = random_endomorphism(g, random.Random(0))
    assert len(t.image) == 1200 and all(0 <= w < 1200 for w in t.image)
    path = path_graph(1200)
    t = random_endomorphism(path, random.Random(0))
    assert validate_map(path, t.image) == t


def test_random_endomorphism_returns_on_a_sparse_disconnected_graph():
    """60 vertices, 99 edges, components of 58, 1 and 1 vertices: a search
    over all vertices at once did not return within 20 s."""
    g = random_graph(60, Fraction(1, 20), random.Random(0))
    assert sorted(map(len, connected_components(g))) == [1, 1, 58]
    for seed in range(5):
        start = time.perf_counter()
        t = random_endomorphism(g, random.Random(seed))
        assert time.perf_counter() - start < 2, seed
        assert validate_map(g, t.image) == t


def test_map_equality_and_hash():
    g = cycle_graph(4)
    a = validate_map(g, (1, 2, 3, 0))
    b = validate_map(g, (1, 2, 3, 0))
    assert a == b and hash(a) == hash(b)
    assert a != GraphMap.identity(g)
