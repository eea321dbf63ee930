"""Zeta functions of graph automorphisms: normal form, census, both routes."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dense
from lefgraph import cohomology, zeta
from lefgraph.cli import main
from lefgraph.cohomology import CochainSpaces, Pullback
from lefgraph.complexes import build_complex
from lefgraph.dynamics import (
    GraphMap,
    fixed_index_sum,
    lefschetz_chain,
    random_endomorphism,
    validate_map,
)
from lefgraph.graphs import (
    all_graphs,
    complete_graph,
    cycle_graph,
    discrete_graph,
    disjoint_union,
    isomorphism_classes,
    octahedron_graph,
    parse_edge_list,
    path_graph,
    petersen_graph,
    star_graph,
)
from lefgraph.linalg import (
    SparseMatrix,
    cyclotomic_exponents,
    det_one_minus_z_blocks,
    poly_mul,
    poly_pow,
)
from lefgraph.symmetry import automorphism_group
from lefgraph.verification import CorpusReport, named_corpus, run_corpus_suite, zeta_checks
from lefgraph.zeta import (
    OrbitCensus,
    RationalFunctionZ,
    ZetaError,
    graph_zeta,
    lefschetz_iterates,
    orbit_census,
    zeta_det,
    zeta_product,
)


def test_quotient_normalization():
    """num and den are read off the vector: the F_d with a positive
    exponent above, the others below, and no exponent zero is kept."""
    f = RationalFunctionZ({4: -1, 1: 0, 2: 1})
    assert f.cyclotomic == {2: 1, 4: -1}
    assert f.num == (1, 1) and f.den == (1, 0, 1)
    f = RationalFunctionZ({1: 1, 2: 1})
    assert f.num == (1, 0, -1) and f.den == (1,)


def test_value_at_zero_must_be_one():
    """Every F_d and every rest has constant term 1, so num(0) = den(0),
    also when a rest with fractions is scaled to integers."""
    for f in (RationalFunctionZ({}), RationalFunctionZ({1: -3, 6: 2}),
              RationalFunctionZ({2: -1}, rest=((1, Fraction(-1, 2)), (1, -2)))):
        assert f.num[0] == f.den[0] != 0, f.cyclotomic


def test_equality_is_cross_multiplied():
    """Vectors without a rest; with a rest, num and den crosswise.  The
    functions are values, not dict keys: they have no hash."""
    a = RationalFunctionZ({1: -1, 2: 1}, rest=((1, -2), (1, -2)))
    b = RationalFunctionZ.from_factors({1: (-1, 1)})
    assert a == b and b == a
    assert a != RationalFunctionZ({})
    with pytest.raises(TypeError):
        hash(b)


def test_a_rest_is_compared_by_value():
    """1 - 2z has no root of unity as a root, so it stays in the rest,
    unreduced; equality still goes by the function's value."""
    same = RationalFunctionZ({}, rest=((1, -2), (1, -2)))
    assert same == RationalFunctionZ({})
    square = RationalFunctionZ({}, rest=((1, -4, 4), (1, -2)))
    line = RationalFunctionZ({}, rest=((1, -2), (1,)))
    assert square == line
    assert square.num == (1, -4, 4) and square.den == (1, -2)
    assert line != RationalFunctionZ({})
    # a rest beside cyclotomic factors, with fractions scaled out of num/den
    mixed = RationalFunctionZ({1: -1}, rest=((1, Fraction(-1, 2)), (1,)))
    assert mixed.num == (2, -1) and mixed.den == (2, -2)
    assert mixed != RationalFunctionZ({1: -1})


def test_a_rest_has_no_log_derivative_series():
    """The series is read off the vector only; a rest, which only a wrong
    T_k leaves, is refused rather than expanded."""
    with pytest.raises(ZetaError):
        RationalFunctionZ({1: -1}, rest=((1, -2), (1,))).log_derivative_series(4)
    assert RationalFunctionZ({1: -1}).log_derivative_series(4) == [1, 1, 1, 1]


def test_multiplication():
    """Zetas are multiplied by merging their censuses, as `graph_zeta`
    does: the merged census's product is the product of the two, with
    num and den multiplied out."""
    a = OrbitCensus(a={1: 1}, b={1: 2}, c={}, d={})
    b = OrbitCensus(a={2: 3}, b={1: 1}, c={1: 5}, d={})
    fa, fb, merged = (zeta_product(c) for c in (a, b, a.merged(b)))
    assert merged.factors == ((1, -2, 5), (2, 3, 0))
    assert dense.equals_quotient(merged, poly_mul(list(fa.num), list(fb.num)),
                                 poly_mul(list(fa.den), list(fb.den)))


def test_periodic_exponents_are_the_moebius_inversion():
    assert RationalFunctionZ({}).periodic_exponents() == {}
    # (1+z)/(1-z) = (1-z^2) (1-z)^-2
    assert RationalFunctionZ({1: -1, 2: 1}).periodic_exponents() == {1: -2, 2: 1}
    # F_6 = (1-z)(1-z^6) / ((1-z^2)(1-z^3))
    assert RationalFunctionZ({6: 1}).periodic_exponents() == {1: 1, 2: -1, 3: -1, 6: 1}
    # 1 + z^3 = (1-z^6) / (1-z^3)
    plus = RationalFunctionZ.from_factors({3: (0, 1)})
    assert plus.periodic_exponents() == {3: -1, 6: 1}


def test_factored_text_layout():
    f = RationalFunctionZ.from_factors({1: (0, -1), 2: (1, 1)})
    assert f.text() == "(1+z)^-1 (1-z^2) (1+z^2)"
    assert RationalFunctionZ.from_factors({}).text() == "1"
    # without census factors: the (1 - z^m)^(a_m) of the vector
    assert RationalFunctionZ({1: -1, 2: 1}).text() == "(1-z)^-2 (1-z^2)"
    assert RationalFunctionZ({}).text() == "1"
    # a rest other than 1 follows the factors, its fractions in parentheses
    assert RationalFunctionZ({2: -1}, rest=((1,), (1, -2))).text() == \
        "(1-z) (1-z^2)^-1 (1 - 2z)^-1"
    assert RationalFunctionZ({}, rest=((1, Fraction(-1, 2)), (1, 0, Fraction(3, 2)))).text() == \
        "(1 - (1/2)z) (1 + (3/2)z^2)^-1"


def test_to_json_shape():
    f = RationalFunctionZ.from_factors({1: (-1, 1)})
    blob = f.to_json()
    assert blob["factored"] == [[1, -1, 1]]
    assert blob["numerator"] == [1, 1]
    assert blob["denominator"] == [1, -1]
    assert isinstance(blob["text"], str)


def census_dict(census):
    return {"a": census.a, "b": census.b, "c": census.c, "d": census.d}


def total_weight(census):
    """Sum of p * (orbit count at p): the number of periodic simplices,
    all of them for an automorphism."""
    return sum(p * (census.a.get(p, 0) + census.b.get(p, 0)
                    + census.c.get(p, 0) + census.d.get(p, 0))
               for p in census.periods())


def test_census_vertex_fixing_reflection():
    g = cycle_graph(4)
    cx = build_complex(g)
    census = orbit_census(cx, validate_map(g, (0, 3, 2, 1)))
    assert census_dict(census) == \
        {"a": {2: 2}, "b": {1: 2, 2: 1}, "c": {}, "d": {}}
    assert total_weight(census) == len(cx)


def test_census_edge_fixing_reflection():
    g = cycle_graph(4)
    cx = build_complex(g)
    census = orbit_census(cx, validate_map(g, (1, 0, 3, 2)))
    assert census_dict(census) == \
        {"a": {2: 1}, "b": {2: 2}, "c": {1: 2}, "d": {}}


def test_census_identity_counts_simplices_by_parity():
    g = complete_graph(2)
    census = orbit_census(build_complex(g), GraphMap.identity(g))
    assert census_dict(census) == {"a": {1: 1}, "b": {1: 2}, "c": {}, "d": {}}
    for graph in [octahedron_graph(), petersen_graph()]:
        cx = build_complex(graph)
        census = orbit_census(cx, GraphMap.identity(graph))
        f = cx.f_vector()
        assert census.a.get(1, 0) == sum(f[k] for k in range(1, len(f), 2))
        assert census.b.get(1, 0) == sum(f[k] for k in range(0, len(f), 2))
        assert not census.c and not census.d


def test_census_weight_accounts_for_every_simplex():
    rng = random.Random(31)
    g = octahedron_graph()
    cx = build_complex(g)
    group = list(automorphism_group(g))
    for t in rng.sample(group, 10):
        assert total_weight(orbit_census(cx, t)) == len(cx)


def test_census_merge():
    a = OrbitCensus(a={1: 1}, b={1: 2}, c={}, d={})
    b = OrbitCensus(a={2: 3}, b={1: 1}, c={1: 5}, d={})
    merged = a.merged(b)
    assert census_dict(merged) == \
        {"a": {1: 1, 2: 3}, "b": {1: 3}, "c": {1: 5}, "d": {}}
    assert merged.exponents() == {1: (-2, 5), 2: (3, 0)}


def test_zeta_identity_is_one_minus_z_to_minus_euler():
    for g in [petersen_graph(), octahedron_graph(), cycle_graph(5),
              complete_graph(4)]:
        chi = build_complex(g).euler_characteristic()
        expected = RationalFunctionZ.from_factors({1: (-chi, 0)})
        assert zeta_det(g, GraphMap.identity(g)) == expected
        assert zeta_product(orbit_census(build_complex(g),
                                         GraphMap.identity(g))) == expected


def test_zeta_golden_values():
    c4 = cycle_graph(4)
    rotation = validate_map(c4, (1, 2, 3, 0))
    one = RationalFunctionZ({})
    assert zeta_det(c4, rotation) == one
    assert zeta_product(orbit_census(build_complex(c4), rotation)) == one
    for n, image in [(4, (0, 3, 2, 1)), (4, (1, 0, 3, 2)),
                     (5, (0, 4, 3, 2, 1)), (6, (0, 5, 4, 3, 2, 1))]:
        g = cycle_graph(n)
        assert dense.equals_quotient(zeta_det(g, validate_map(g, image)), [1, 1], [1, -1])
    for n in (2, 3, 4, 5):
        g = complete_graph(n)
        perm = list(range(1, n)) + [0]
        assert dense.equals_quotient(zeta_det(g, validate_map(g, perm)), [1], [1, -1])
        assert dense.equals_quotient(zeta_det(g, GraphMap.identity(g)), [1], [1, -1])


def test_zeta_routes_agree_exhaustively_small():
    for n in range(1, 5):
        for g in all_graphs(n):
            cx = build_complex(g)
            spaces = CochainSpaces(cx)
            for t in automorphism_group(g):
                det_route = zeta_det(g, t, spaces)
                product_route = zeta_product(orbit_census(cx, t))
                assert det_route == product_route
                series = lefschetz_iterates(spaces, t, 2 * t.order())
                assert det_route.log_derivative_series(len(series)) == series


def test_zeta_routes_agree_on_samples():
    rng = random.Random(13)
    for g in [octahedron_graph(), petersen_graph()]:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for t in rng.sample(list(automorphism_group(g)), 8):
            assert zeta_det(g, t, spaces) == zeta_product(orbit_census(cx, t))


def test_series_consistency_rejects_perturbed_series():
    c4 = cycle_graph(4)
    refl = validate_map(c4, (1, 0, 3, 2))
    zeta = zeta_det(c4, refl)
    series = lefschetz_iterates(CochainSpaces(build_complex(c4)), refl, 4)
    assert series == [2, 0, 2, 0]
    assert zeta.log_derivative_series(4) == series
    assert zeta.log_derivative_series(4) != [2, 0, 2, 1]
    assert RationalFunctionZ({}).log_derivative_series(4) != series


def test_log_derivative_series_of_identity_is_constant_euler():
    g = octahedron_graph()
    zeta = zeta_det(g, GraphMap.identity(g))
    assert zeta.log_derivative_series(6) == [2] * 6


def test_zeta_multiplicative_over_disjoint_union():
    left, right = complete_graph(3), cycle_graph(4)
    union = disjoint_union(left, right)
    t_left = validate_map(left, (1, 2, 0))
    t_right = validate_map(right, (0, 3, 2, 1))
    t_union = validate_map(union, (1, 2, 0, 3, 6, 5, 4))
    a, b = zeta_det(left, t_left), zeta_det(right, t_right)
    num, den = poly_mul(list(a.num), list(b.num)), poly_mul(list(a.den), list(b.den))
    assert dense.equals_quotient(zeta_det(union, t_union), num, den)
    assert dense.equals_quotient(zeta_product(orbit_census(build_complex(union), t_union)),
                                 num, den)


def test_zeta_rejects_endomorphisms():
    g = star_graph(3)
    collapse = validate_map(g, (0, 1, 1, 1))
    with pytest.raises(ZetaError):
        zeta_det(g, collapse)


def test_census_walks_the_tails_of_an_endomorphism():
    """Leaves 2 and 3 of the star, and the edges to them, are tails into
    the fixed leaf 1 and the fixed edge (0, 1): they add no orbit."""
    g = star_graph(3)
    cx = build_complex(g)
    census = orbit_census(cx, validate_map(g, (0, 1, 1, 1)))
    assert census_dict(census) == {"a": {1: 1}, "b": {1: 2}, "c": {}, "d": {}}
    assert [r.simplex for r in census.fixed] == [(0,), (1,), (0, 1)]
    assert total_weight(census) == 3 < len(cx)
    assert dense.equals_quotient(zeta_product(census), [1], [1, -1])


def zeta_of_graph(g):
    return graph_zeta(build_complex(g), automorphism_group(g))


def test_graph_zeta_cycles():
    for n in (4, 5, 6):
        assert dense.equals_quotient(zeta_of_graph(cycle_graph(n)),
                                     poly_pow([1, 1], n), poly_pow([1, -1], n))
    assert zeta_of_graph(cycle_graph(5)).text() == "(1-z)^-5 (1+z)^5"


def test_graph_zeta_complete_graph():
    assert zeta_of_graph(complete_graph(3)) == \
        RationalFunctionZ.from_factors({1: (-6, 0)})


def test_graph_zeta_of_rigid_graph_is_identity_zeta():
    # triangle with tails of different lengths: no symmetry at all
    from lefgraph.graphs import Graph

    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (4, 5)])
    group = automorphism_group(g)
    assert group.order == 1
    chi = build_complex(g).euler_characteristic()
    assert graph_zeta(build_complex(g), group) == \
        RationalFunctionZ.from_factors({1: (-chi, 0)})


def test_composed_iterates_match_rebuilt_powers():
    """L(T^n) from composed signed permutations equals the chain trace and
    the fixed-simplex index sum of T^n built as a map, for n <= 2 order(T)
    on every corpus automorphism, and for n <= 6 on seeded endomorphisms.
    The maps of one graph follow each other on one CochainSpaces, whose
    shared pullbacks must give the same values as a second instance's, which
    also serves the powers."""
    rng = random.Random(31)
    for name, g in named_corpus():
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        other = CochainSpaces(cx)
        maps = [(t, 2 * t.order()) for t in automorphism_group(g)]
        maps += [(random_endomorphism(g, rng), 6) for _ in range(3)]
        for t, count in maps:
            iterates = lefschetz_iterates(spaces, t, count)
            assert len(iterates) == count
            assert iterates == lefschetz_iterates(other, t, count), (name, t.image)
            assert lefschetz_chain(spaces, t) == iterates[0], (name, t.image)
            power = t
            for n, value in enumerate(iterates, start=1):
                assert value == lefschetz_chain(other, power) == fixed_index_sum(cx, power), \
                    (name, t.image, n)
                power = t.compose(power)


def test_bounded_series_order_is_a_prefix_of_the_full_period():
    """zeta_checks compares min(2 order(T), 2 |cx|) terms.  On
    every corpus automorphism, and on cycle unions whose rotation has an
    order above the simplex count, the iterates up to 2 order(T) start with
    the compared ones and equal the product zeta's series throughout."""
    cases = [(g, list(automorphism_group(g))) for _, g in named_corpus()]
    for sizes in ((4, 5), (5, 7)):
        union = disjoint_union(cycle_graph(sizes[0]), cycle_graph(sizes[1]))
        image = [(v + 1) % sizes[0] for v in range(sizes[0])] + \
            [sizes[0] + (v + 1) % sizes[1] for v in range(sizes[1])]
        cases.append((union, [validate_map(union, image)]))
    longer = 0
    for g, maps in cases:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for t in maps:
            full = lefschetz_iterates(spaces, t, 2 * t.order())
            bounded = min(2 * t.order(), 2 * len(cx))
            longer += bounded < len(full)
            product = zeta_product(orbit_census(cx, t))
            checks = zeta_checks(spaces, t, product)
            assert all(c.passed for c in checks), (g, t.image)
            assert checks[1].rhs == full[:bounded], (g, t.image)
            assert product.log_derivative_series(len(full)) == full, (g, t.image)
    assert longer == 2


def test_orbit_census_reads_no_pullback(monkeypatch):
    """The census product is checked against the chain traces, so it must
    not share their input: with no Pullback buildable it still gives the
    series of the iterates computed before."""
    graphs = [octahedron_graph(), petersen_graph(), complete_graph(4),
              cycle_graph(6), star_graph(3)]
    cases = []
    for g in graphs:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for t in automorphism_group(g):
            cases.append((cx, t, lefschetz_iterates(spaces, t, 2 * t.order())))

    def refuse(*args, **kwargs):
        raise AssertionError("the orbit census built a pullback")

    monkeypatch.setattr(Pullback, "__init__", refuse)
    for cx, t, iterates in cases:
        product = zeta_product(orbit_census(cx, t))
        assert product.log_derivative_series(len(iterates)) == iterates, t.image


def _corpus_automorphisms():
    for name, g in named_corpus():
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for t in automorphism_group(g):
            yield name, g, cx, spaces, t


def test_census_series_closed_form_equals_long_division():
    """The census product's series comes from its exponent vector in closed
    form; the long division of its expanded num and den gives the same."""
    for name, g, cx, spaces, t in _corpus_automorphisms():
        product = zeta_product(orbit_census(cx, t))
        order = min(2 * t.order(), 2 * len(cx))
        assert product.log_derivative_series(order) == \
            dense.log_derivative_series(product.num, product.den, order), (name, t.image)


def _cycle_union(lengths):
    edges, image, offset = [], [], 0
    for n in lengths:
        edges += [(offset + i, offset + (i + 1) % n) for i in range(n)]
        image += [offset + (i + 1) % n for i in range(n)]
        offset += n
    g = parse_edge_list(f"vertices {offset}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return g, validate_map(g, image)


def _blockgraph():
    """The large-graph benchmark's generator, `bench/blockgraph.py`."""
    if "blockgraph" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "blockgraph.py"
        spec = importlib.util.spec_from_file_location("blockgraph", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["blockgraph"] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["blockgraph"]


def _block_cases():
    """The large-graph benchmark's block unions, seeds 0-4, under their
    automorphisms, and the union of 3-, 5-, 7-, 11-, 13- and 17-cycles
    under its rotation."""
    cases = []
    for seed in range(5):
        bg = _blockgraph().generate(seed)
        g = parse_edge_list(bg.graph_text())
        cases.append((f"blocks {seed}", g, CochainSpaces(build_complex(g)),
                      validate_map(g, bg.image)))
    g, t = _cycle_union((3, 5, 7, 11, 13, 17))
    return cases + [("cycles", g, CochainSpaces(build_complex(g)), t)]


def test_peeled_det_expands_to_the_hessenberg_quotient():
    cases = [(name, g, spaces, t) for name, g, cx, spaces, t in _corpus_automorphisms()]
    cases += _block_cases()
    assert cases[-1][3].order() == 255255
    for name, g, spaces, t in cases:
        peeled = zeta_det(g, t, spaces)
        assert peeled.rest == ((1,), (1,)), (name, t.image)
        assert dense.equals_quotient(peeled, *dense.hessenberg_quotient(spaces, t)), \
            (name, t.image)


def test_periodic_exponents_multiply_out_to_num_over_den():
    """prod_m (1 - z^m)^(a_m), each power multiplied out, equals num/den
    crosswise on every corpus automorphism and on the block unions."""
    cases = [(name, g, spaces, t) for name, g, cx, spaces, t in _corpus_automorphisms()]
    for name, g, spaces, t in cases + _block_cases():
        zeta = zeta_det(g, t, spaces)
        sides = {1: [1], -1: [1]}
        for m, a in zeta.periodic_exponents().items():
            power = poly_pow([1] + [0] * (m - 1) + [-1], abs(a))
            sides[1 if a > 0 else -1] = poly_mul(sides[1 if a > 0 else -1], power)
        assert dense.equals_quotient(zeta, sides[1], sides[-1]), (name, t.image)


def test_det_text_is_the_census_text_without_plus_factors():
    """Both routes print (1 - z^p)^e factors.  Where the census has no
    (1 + z^p) factor its text is that of the det route's vector, character
    for character; the vector does not give the (1 + z^p) back."""
    same = plus = 0
    for name, g, cx, spaces, t in _corpus_automorphisms():
        product = zeta_product(orbit_census(cx, t))
        if any(e_plus for _, _, e_plus in product.factors):
            plus += 1
        else:
            assert zeta_det(g, t, spaces).text() == product.text(), (name, t.image)
            same += 1
    assert (same, plus) == (1710, 320)


def test_integer_induced_maps_equal_the_dense_fraction_route():
    """T_k as integer rows over the basis scale equals the dense Fraction
    matrix of the route it replaced (`dense.induced_matrix`: dense
    representatives, every face row checked, Fraction readers) on every
    corpus automorphism, one seeded endomorphism per corpus graph and the
    block unions.  The Lefschetz numbers are the dense traces summed."""
    rng = random.Random(3)
    cases = [(name, spaces, t) for name, g, cx, spaces, t in _corpus_automorphisms()]
    for name, g in named_corpus():
        cases.append((name, CochainSpaces(build_complex(g)), random_endomorphism(g, rng)))
    cases += [(name, spaces, t) for name, g, spaces, t in _block_cases()]
    kinds = set()
    for name, spaces, t in cases:
        total = 0
        for k in range(spaces.dim + 1):
            oracle = dense.induced_matrix(spaces, t.image, k)
            m = spaces.induced_matrix(t.image, k)
            assert m.scale == 1, (name, t.image, k)
            assert dense.dense(m) == oracle, (name, t.image, k)
            total += (-1) ** k * oracle.trace()
        assert spaces.lefschetz_number(t.image) == total, (name, t.image)
        kinds.add(t.kind)
    assert len(cases) == 2030 + 32 + 6 and kinds == {"automorphism", "endomorphism"}


def test_block_peel_equals_the_peel_of_the_whole_det():
    """Peeling each diagonal block of the Hessenberg form on its own gives
    the exponents that peeling their product, det(1 - z T_k), gives."""
    split = 0
    for name, g, spaces, t in _block_cases():
        order = t.order()
        for k in range(spaces.dim + 1):
            m = spaces.induced_matrix(t.image, k)
            blocks = det_one_minus_z_blocks(m)
            found: dict[int, int] = {}
            for block in blocks:
                exponents, rest = cyclotomic_exponents(block, order)
                assert rest == [1], (name, k)
                for d, e in exponents.items():
                    found[d] = found.get(d, 0) + e
            assert (found, [1]) == cyclotomic_exponents(dense.det_one_minus_z(m), order), \
                (name, k)
            split += len(blocks) > 1
    assert split > 0


def test_corpus_suite_needs_no_fraction_in_cohomology_or_zeta(monkeypatch):
    """Every basis scale on the corpus is 1, so T_k, its traces and its
    dets stay in ints: the Fraction name of cohomology is never called,
    and zeta has none."""
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    assert not hasattr(zeta, "Fraction")
    monkeypatch.setattr(cohomology, "Fraction", refuse)
    report = run_corpus_suite(1, 0)
    assert report.passed
    assert (report.graphs, report.maps, report.checks) == (32, 2062, 10495)


def test_corpus_suite_decomposes_each_automorphism_once(monkeypatch):
    """A map keeps its order after the first call, so a corpus pass
    decomposes each of its 2030 automorphisms into cycles once, although
    zeta_det and zeta_checks both read the order."""
    calls = []
    real = GraphMap.cycles

    def counted(self):
        calls.append(self.image)
        return real(self)

    monkeypatch.setattr(GraphMap, "cycles", counted)
    report = run_corpus_suite(1, 0)
    assert report.passed and report.maps == 2062
    assert len(calls) == 2030


def test_orbit_census_counts_the_dense_orbits_on_the_corpus():
    """On every corpus automorphism the census counts, per period,
    dimension parity and sign, the orbits of the tuple-set walk
    (`dense.simplex_orbits_under_map`)."""
    maps = 0
    for name, g, cx, spaces, t in _corpus_automorphisms():
        expected = dense.census_counts(dense.simplex_orbits_under_map(cx, t))
        assert census_dict(orbit_census(cx, t)) == expected, (name, t.image)
        maps += 1
    assert maps == 2030


def test_census_carries_the_fixed_simplex_scan():
    for name, g, cx, spaces, t in _corpus_automorphisms():
        assert orbit_census(cx, t).fixed == dense.fixed_simplices(cx, t), (name, t.image)


def test_census_matches_the_scan_and_the_iterates_on_every_small_map():
    """On every graph map of every graph on 1 to 5 vertices, one class
    representative each: the census counts the orbits of the tuple-set
    walk on the periodic simplices, per period, dimension parity and sign,
    its fixed simplices are the scan's, in the scan's order, its product's
    series is L(T^n) for n = 1..12, and every simplex lies on an orbit
    exactly for an automorphism."""
    maps = 0
    for n in range(1, 6):
        for g, _ in isomorphism_classes(n):
            cx = build_complex(g)
            spaces = CochainSpaces(cx)
            for t in dense.graph_maps(g):
                census = orbit_census(cx, t)
                assert census_dict(census) == \
                    dense.census_counts(dense.simplex_orbits_under_map(cx, t)), (g, t.image)
                assert census.fixed == dense.fixed_simplices(cx, t), (g, t.image)
                assert zeta_product(census).log_derivative_series(12) == \
                    lefschetz_iterates(spaces, t, 12), (g, t.image)
                assert (total_weight(census) == len(cx)) == t.is_automorphism()
                maps += 1
    assert maps == 6493


@pytest.mark.parametrize("graph, image, counts, fixed", [
    # Vertex v > 0 goes to v - 1: a tail of 299 steps into the fixed vertex 0.
    (discrete_graph(300), lambda v: max(v - 1, 0),
     {"a": {}, "b": {1: 1}, "c": {}, "d": {}}, [((0,), 1)]),
    # The path folds onto its first edge, which the map flips: the vertex
    # orbit {0, 1} of period 2, and the edge (0, 1) fixed with sign -1.
    (path_graph(60), lambda v: abs(v - 1),
     {"a": {}, "b": {2: 1}, "c": {1: 1}, "d": {}}, [((0, 1), -1)]),
], ids=["discrete:300", "path:60"])
def test_census_walks_long_tails_once(graph, image, counts, fixed):
    """Endomorphisms whose simplices lie nearly all on long tails: the census
    counts the dense walk's orbits, its fixed simplices are the scan's, and
    its product's series is L(T^n) for n = 1..12."""
    cx = build_complex(graph)
    t = validate_map(graph, [image(v) for v in range(graph.n)])
    census = orbit_census(cx, t)
    assert census_dict(census) == counts
    assert census_dict(census) == dense.census_counts(dense.simplex_orbits_under_map(cx, t))
    assert [(r.simplex, r.perm_sign) for r in census.fixed] == fixed
    assert census.fixed == dense.fixed_simplices(cx, t)
    assert zeta_product(census).log_derivative_series(12) == \
        lefschetz_iterates(CochainSpaces(cx), t, 12)


def test_a_wrong_induced_matrix_fails_the_det_check_with_both_texts(monkeypatch, capsys):
    """T_0 = [[2]] has an eigenvalue that is no root of unity, so its det
    does not peel and stays in that side's rest, and the check fails
    showing both functions."""
    g = octahedron_graph()
    t = validate_map(g, (3, 4, 5, 0, 1, 2))
    real = CochainSpaces.induced_matrix

    def wrong(self, image, k):
        return SparseMatrix(1, 1, [{0: 2}]) if k == 0 else real(self, image, k)

    monkeypatch.setattr(CochainSpaces, "induced_matrix", wrong)
    cx = build_complex(g)
    check = zeta_checks(CochainSpaces(cx), t, zeta_product(orbit_census(cx, t)))[0]
    assert check.name == "zeta_det_equals_product" and not check.passed
    assert check.lhs.rest == ((1,), (1, -2))
    expected = "FAIL zeta_det_equals_product: (1-z) (1-z^2)^-1 (1 - 2z)^-1 vs (1-z^2)^-1"
    assert check.describe() == expected
    assert main(["analyze", "--named", "octahedron", "--map", "3,4,5,0,1,2"]) == 2
    captured = capsys.readouterr()
    assert "  " + expected + "\n" in captured.out and captured.err == ""


def test_wrong_induced_matrices_get_the_verdict_of_the_multiplied_dets(monkeypatch):
    """Random T_k in place of the induced maps: signed permutations (finite
    order, mostly the wrong one), small integer and fractional matrices.
    The det route peels or keeps a rest, and its verdict against the orbit
    product and its value are those of the multiplied-out dets."""
    rng = random.Random(5)

    def draw(b):
        kind = rng.randrange(3)
        if kind == 0:
            perm = rng.sample(range(b), b)
            return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(b)]
                    for i in range(b)]
        if kind == 1:
            return [[rng.randint(-1, 1) for _ in range(b)] for _ in range(b)]
        return [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(b)]
                for _ in range(b)]

    real = CochainSpaces.induced_matrix
    fake = {}
    monkeypatch.setattr(CochainSpaces, "induced_matrix",
                        lambda self, image, k: fake.get(k) or real(self, image, k))
    outcomes = set()
    for g in (octahedron_graph(), petersen_graph(), cycle_graph(6), complete_graph(4),
              disjoint_union(cycle_graph(4), cycle_graph(5))):
        cx = build_complex(g)
        group = list(automorphism_group(g))
        for t in rng.sample(group, min(len(group), 12)):
            spaces = CochainSpaces(cx)
            product = zeta_product(orbit_census(cx, t))
            fake.clear()
            for k in range(cx.dim + 1):
                if spaces.betti(k) and rng.random() < 0.6:
                    fake[k] = dense.sparse(draw(spaces.betti(k)))
            peeled, oracle = zeta_det(g, t, spaces), dense.hessenberg_quotient(spaces, t)
            assert (peeled == product) == dense.equals_quotient(product, *oracle), \
                (g, t.image, fake)
            assert dense.equals_quotient(peeled, *oracle), (g, t.image, fake)
            outcomes.add((peeled == product, peeled.rest != ((1,), (1,))))
    assert {(True, False), (False, False), (False, True)} <= outcomes


def test_rests_that_cancel_across_degrees_pass_the_det_check(monkeypatch):
    """T_0 = T_1 = [[2]] on C_4 under its rotation: both dets are 1 - 2z and
    neither peels, so 1 - 2z is the rest of both sides.  Unreduced, the
    rest still has the value 1, that of the orbit product."""
    g = cycle_graph(4)
    t = validate_map(g, (1, 2, 3, 0))
    monkeypatch.setattr(CochainSpaces, "induced_matrix",
                        lambda self, image, k: SparseMatrix(1, 1, [{0: 2}]))
    cx = build_complex(g)
    check = zeta_checks(CochainSpaces(cx), t, zeta_product(orbit_census(cx, t)))[0]
    assert check.name == "zeta_det_equals_product" and check.passed
    assert check.lhs.rest == ((1, -2), (1, -2)) and check.lhs.cyclotomic == {}
    assert check.rhs == RationalFunctionZ({})


def test_corpus_suite_multiplies_no_polynomials(monkeypatch):
    """Both zeta routes of every corpus automorphism are compared as
    exponent vectors, and every check's text is rendered as factors: no
    polynomial product and no polynomial gcd."""
    def refuse(*args):
        raise AssertionError("a polynomial was multiplied out")

    for name, module in list(sys.modules.items()):
        if name == "lefgraph" or name.startswith("lefgraph."):
            for attr in ("poly_gcd", "poly_mul"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    lines = []
    absorb = CorpusReport.absorb

    def rendering(self, label, checks):
        lines.extend(c.describe() for c in checks)
        absorb(self, label, checks)

    monkeypatch.setattr(CorpusReport, "absorb", rendering)
    report = run_corpus_suite(1, 0)
    assert report.passed
    assert (report.graphs, report.maps, report.checks) == (32, 2062, 10495)
    assert len(lines) == 10495
    assert sum(line.startswith("PASS zeta_det_equals_product: ") for line in lines) == 2030
