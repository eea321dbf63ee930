"""Zeta functions of graph automorphisms: normal form, census, both routes."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lefgraph.cli import main
from lefgraph.cohomology import CochainSpaces, Pullback
from lefgraph.complexes import build_complex, euler_characteristic
from lefgraph.dynamics import (
    fixed_index_sum,
    fixed_simplices,
    identity_map,
    lefschetz_chain,
    random_endomorphism,
    validate_map,
)
from lefgraph.graphs import (
    all_graphs,
    complete_graph,
    cycle_graph,
    disjoint_union,
    octahedron_graph,
    parse_edge_list,
    petersen_graph,
    star_graph,
)
from lefgraph.linalg import RationalMatrix, det_one_minus_z, poly_mul, poly_pow
from lefgraph.symmetry import automorphism_group
from lefgraph.verification import named_corpus, run_corpus_suite, zeta_checks
from lefgraph.zeta import (
    OrbitCensus,
    RationalFunctionZ,
    ZetaError,
    graph_zeta,
    lefschetz_iterates,
    orbit_census,
    series_consistency,
    zeta_det,
    zeta_product,
)


def test_quotient_normalization():
    f = RationalFunctionZ.from_quotient([2, 2], [2])
    assert f.num == (1, 1) and f.den == (1,)
    # common polynomial factor dropped
    f = RationalFunctionZ.from_quotient([1, 0, -1], [1, -1])
    assert f.num == (1, 1) and f.den == (1,)
    # sign fixed jointly so den(0) > 0
    f = RationalFunctionZ.from_quotient([-1, -1], [-1])
    assert f.num == (1, 1) and f.den == (1,)


def test_value_at_zero_must_be_one():
    with pytest.raises(ZetaError):
        RationalFunctionZ.from_quotient([1, 1], [2])
    with pytest.raises(ZetaError):
        RationalFunctionZ([2, 1], [1])
    with pytest.raises(ZetaError):
        RationalFunctionZ.from_quotient([1], [0])


def test_equality_is_cross_multiplied():
    a = RationalFunctionZ.from_quotient([1, 1], [1, -1])
    b = RationalFunctionZ.from_factors({1: (-1, 1)})
    assert a == b
    assert hash(a) == hash(b)
    assert a != RationalFunctionZ.one()


def test_multiplication():
    grow = RationalFunctionZ.from_factors({1: (-1, 0)})   # 1/(1-z)
    shrink = RationalFunctionZ.from_factors({1: (1, 0)})  # 1-z
    assert (grow * shrink).is_one()
    # factored times factored keeps a factored form
    prod = grow * RationalFunctionZ.from_factors({2: (1, 0)})
    assert prod.factors == ((1, -1, 0), (2, 1, 0))
    # quotient route still multiplies correctly
    q = RationalFunctionZ.from_quotient([1, 1], [1, -1])
    assert q * q == RationalFunctionZ.from_quotient([1, 2, 1], [1, -2, 1])


def test_factored_text_layout():
    f = RationalFunctionZ.from_factors({1: (0, -1), 2: (1, 1)})
    assert f.text() == "(1+z)^-1 (1-z^2) (1+z^2)"
    assert RationalFunctionZ.from_factors({}).text() == "1"
    assert RationalFunctionZ.from_quotient([1, 1], [1, -1]).text() == \
        "(1 + z) / (1 - z)"


def test_to_json_shape():
    f = RationalFunctionZ.from_factors({1: (-1, 1)})
    blob = f.to_json()
    assert blob["factored"] == [[1, -1, 1]]
    assert blob["numerator"] == [1, 1]
    assert blob["denominator"] == [1, -1]
    assert isinstance(blob["text"], str)


def census_dict(census):
    return {"a": census.a, "b": census.b, "c": census.c, "d": census.d}


def test_census_vertex_fixing_reflection():
    g = cycle_graph(4)
    cx = build_complex(g)
    census = orbit_census(cx, validate_map(g, (0, 3, 2, 1)))
    assert census_dict(census) == \
        {"a": {2: 2}, "b": {1: 2, 2: 1}, "c": {}, "d": {}}
    assert census.total_weight() == len(cx)


def test_census_edge_fixing_reflection():
    g = cycle_graph(4)
    cx = build_complex(g)
    census = orbit_census(cx, validate_map(g, (1, 0, 3, 2)))
    assert census_dict(census) == \
        {"a": {2: 1}, "b": {2: 2}, "c": {1: 2}, "d": {}}


def test_census_identity_counts_simplices_by_parity():
    g = complete_graph(2)
    census = orbit_census(build_complex(g), identity_map(g))
    assert census_dict(census) == {"a": {1: 1}, "b": {1: 2}, "c": {}, "d": {}}
    for graph in [octahedron_graph(), petersen_graph()]:
        cx = build_complex(graph)
        census = orbit_census(cx, identity_map(graph))
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
        assert orbit_census(cx, t).total_weight() == len(cx)


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
        chi = euler_characteristic(g)
        expected = RationalFunctionZ.from_factors({1: (-chi, 0)})
        assert zeta_det(g, identity_map(g)) == expected
        assert zeta_product(orbit_census(build_complex(g),
                                         identity_map(g))) == expected


def test_zeta_golden_values():
    c4 = cycle_graph(4)
    rotation = validate_map(c4, (1, 2, 3, 0))
    assert zeta_det(c4, rotation).is_one()
    assert zeta_product(orbit_census(build_complex(c4), rotation)).is_one()
    ratio = RationalFunctionZ.from_quotient([1, 1], [1, -1])
    for n, image in [(4, (0, 3, 2, 1)), (4, (1, 0, 3, 2)),
                     (5, (0, 4, 3, 2, 1)), (6, (0, 5, 4, 3, 2, 1))]:
        g = cycle_graph(n)
        assert zeta_det(g, validate_map(g, image)) == ratio
    single = RationalFunctionZ.from_quotient([1], [1, -1])
    for n in (2, 3, 4, 5):
        g = complete_graph(n)
        perm = list(range(1, n)) + [0]
        assert zeta_det(g, validate_map(g, perm)) == single
        assert zeta_det(g, identity_map(g)) == single


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
                assert series_consistency(det_route, series)


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
    assert series_consistency(zeta, series)
    assert not series_consistency(zeta, [2, 0, 2, 1])
    assert not series_consistency(RationalFunctionZ.one(), series)


def test_log_derivative_series_of_identity_is_constant_euler():
    g = octahedron_graph()
    zeta = zeta_det(g, identity_map(g))
    assert zeta.log_derivative_series(6) == [2] * 6


def test_zeta_multiplicative_over_disjoint_union():
    left, right = complete_graph(3), cycle_graph(4)
    union = disjoint_union(left, right)
    t_left = validate_map(left, (1, 2, 0))
    t_right = validate_map(right, (0, 3, 2, 1))
    t_union = validate_map(union, (1, 2, 0, 3, 6, 5, 4))
    product = zeta_det(left, t_left) * zeta_det(right, t_right)
    assert zeta_det(union, t_union) == product
    assert zeta_product(orbit_census(build_complex(union), t_union)) == product


def test_zeta_rejects_endomorphisms():
    g = star_graph(3)
    collapse = validate_map(g, (0, 1, 1, 1))
    with pytest.raises(ZetaError):
        zeta_det(g, collapse)
    with pytest.raises(ZetaError):
        orbit_census(build_complex(g), collapse)


def test_graph_zeta_cycles():
    for n in (4, 5, 6):
        expected = RationalFunctionZ.from_quotient(
            poly_pow([1, 1], n), poly_pow([1, -1], n))
        assert graph_zeta(cycle_graph(n)) == expected
    assert graph_zeta(cycle_graph(5)).text() == "(1-z)^-5 (1+z)^5"


def test_graph_zeta_complete_graph():
    assert graph_zeta(complete_graph(3)) == \
        RationalFunctionZ.from_factors({1: (-6, 0)})


def test_graph_zeta_of_rigid_graph_is_identity_zeta():
    # triangle with tails of different lengths: no symmetry at all
    from lefgraph.graphs import Graph

    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (4, 5)])
    group = automorphism_group(g)
    assert group.order == 1
    chi = euler_characteristic(g)
    assert graph_zeta(g, group) == RationalFunctionZ.from_factors({1: (-chi, 0)})


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
    """zeta_checks compares min(2 order(T), 2 |cx|) terms by default.  On
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
            checks = zeta_checks(g, t, spaces, product=product)
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
    """The census product's series comes from its factors in closed form;
    the same function as a plain quotient takes the long division."""
    for name, g, cx, spaces, t in _corpus_automorphisms():
        product = zeta_product(orbit_census(cx, t))
        quotient = RationalFunctionZ(product.num, product.den)
        assert quotient.factors is None and quotient.cyclotomic is None
        order = min(2 * t.order(), 2 * len(cx))
        assert product.log_derivative_series(order) == \
            quotient.log_derivative_series(order), (name, t.image)


def _hessenberg_quotient(spaces, t):
    """zeta_det as a product of the det polynomials, normalized by
    from_quotient: the route that peeling replaced."""
    num, den = [1], [1]
    for k in range(spaces.dim + 1):
        if spaces.betti(k):
            det = det_one_minus_z(spaces.induced_matrix(t.image, k))
            if k % 2:
                num = poly_mul(num, det)
            else:
                den = poly_mul(den, det)
    return RationalFunctionZ.from_quotient(num, den)


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


def test_peeled_det_expands_to_the_hessenberg_quotient():
    cases = [(name, g, spaces, t) for name, g, cx, spaces, t in _corpus_automorphisms()]
    blockgraph = _blockgraph()
    for seed in range(5):
        bg = blockgraph.generate(seed)
        g = parse_edge_list(bg.graph_text())
        cases.append((f"blocks {seed}", g, CochainSpaces(build_complex(g)),
                      validate_map(g, bg.image)))
    g, t = _cycle_union((3, 5, 7, 11, 13, 17))
    assert t.order() == 255255
    cases.append(("cycles", g, CochainSpaces(build_complex(g)), t))
    for name, g, spaces, t in cases:
        peeled = zeta_det(g, t, spaces)
        assert peeled.cyclotomic is not None, (name, t.image)
        oracle = _hessenberg_quotient(spaces, t)
        assert (peeled.num, peeled.den) == (oracle.num, oracle.den), (name, t.image)
        assert peeled == oracle


def test_census_carries_the_fixed_simplex_scan():
    for name, g, cx, spaces, t in _corpus_automorphisms():
        assert orbit_census(cx, t).fixed == fixed_simplices(cx, t), (name, t.image)


def test_a_wrong_induced_matrix_fails_the_det_check_with_both_texts(monkeypatch, capsys):
    """T_0 = [[2]] has an eigenvalue that is no root of unity, so its det
    does not peel; that side falls back to the plain quotient, and the
    check fails showing both functions."""
    g = octahedron_graph()
    t = validate_map(g, (3, 4, 5, 0, 1, 2))
    real = CochainSpaces.induced_matrix

    def wrong(self, image, k):
        return RationalMatrix(1, 1, [[2]]) if k == 0 else real(self, image, k)

    monkeypatch.setattr(CochainSpaces, "induced_matrix", wrong)
    check = zeta_checks(g, t, CochainSpaces(build_complex(g)))[0]
    assert check.name == "zeta_det_equals_product" and not check.passed
    assert check.lhs.cyclotomic is None
    expected = "FAIL zeta_det_equals_product: (1) / (1 - z - 2z^2) vs (1-z^2)^-1"
    assert check.describe() == expected
    assert main(["analyze", "--named", "octahedron", "--map", "3,4,5,0,1,2"]) == 2
    captured = capsys.readouterr()
    assert "  " + expected + "\n" in captured.out and captured.err == ""


def test_wrong_induced_matrices_get_the_verdict_of_the_multiplied_dets(monkeypatch):
    """Random T_k in place of the induced maps: signed permutations (finite
    order, mostly the wrong one), small integer and fractional matrices.
    The det route peels or falls back, and its verdict against the orbit
    product, its num and its den are those of the multiplied-out dets."""
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
                    fake[k] = RationalMatrix.from_rows(draw(spaces.betti(k)))
            peeled, oracle = zeta_det(g, t, spaces), _hessenberg_quotient(spaces, t)
            assert (peeled == product) == (oracle == product), (g, t.image, fake)
            assert (peeled.num, peeled.den) == (oracle.num, oracle.den)
            outcomes.add((peeled == product, peeled.cyclotomic is not None))
    assert {(True, True), (False, True), (False, False)} <= outcomes


def test_corpus_suite_multiplies_no_polynomials(monkeypatch):
    """Both zeta routes of every corpus automorphism are compared as
    exponent vectors: no polynomial product and no polynomial gcd."""
    def refuse(*args):
        raise AssertionError("a polynomial was multiplied out")

    for name, module in list(sys.modules.items()):
        if name == "lefgraph" or name.startswith("lefgraph."):
            for attr in ("poly_gcd", "poly_mul"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    report = run_corpus_suite(1, 0)
    assert report.passed
    assert (report.graphs, report.maps, report.checks) == (32, 2062, 10495)
