"""Coboundary operators, pullbacks, Betti numbers, induced maps on cohomology."""

import gc
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefgraph.cohomology import (
    CochainSpaces,
    Pullback,
    SignedOrbits,
    coboundary_squares_to_zero,
    pullbacks_commute,
    signed_rows,
    verify_chain_map,
)
from lefgraph import cohomology, linalg
from lefgraph.complexes import build_complex
from dense import (
    RationalMatrix,
    apply,
    coboundary_matrix,
    dense,
    fixed_dimension as dense_fixed_dimension,
    induced_matrix as dense_induced_matrix,
    matmul,
    permutation_parity_sign,
    power_traces,
    rank,
    pullback_matrix,
    pullback_apply,
    pullback_product,
    sorted_pullback,
    summed_coboundary,
    to_matrix,
    trace,
)
from lefgraph.dynamics import (
    GraphMap,
    fixed_index_sum,
    lefschetz_chain,
    lefschetz_cohomological,
    random_endomorphism,
)
from lefgraph.graphs import (
    Graph,
    all_graphs,
    complete_graph,
    connected_components,
    cycle_graph,
    discrete_graph,
    disjoint_union,
    isomorphism_classes,
    octahedron_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from lefgraph.linalg import NotInSpanError, SparseMatrix
from lefgraph.symmetry import automorphism_group, average_lefschetz, lefschetz_numbers
from lefgraph.experiments import expectation_exhaustive
from lefgraph.verification import named_corpus
from lefgraph.zeta import lefschetz_iterates, orbit_census, zeta_det, zeta_product


def test_permutation_parity_sign():
    assert permutation_parity_sign((0, 1, 2)) == 1
    assert permutation_parity_sign((1, 0, 2)) == -1
    assert permutation_parity_sign((2, 0, 1)) == 1
    assert permutation_parity_sign((5,)) == 1


def test_permutation_parity_sign_matches_inversion_count():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
            assert permutation_parity_sign(perm) == (-1) ** inversions, perm
            # only the order of the entries counts
            assert permutation_parity_sign([3 * v + 7 for v in perm]) == \
                (-1) ** inversions, perm


def test_coboundary_single_edge():
    cx = build_complex(path_graph(2))
    d0 = coboundary_matrix(cx, 0)
    assert d0.rows == 1 and d0.cols == 2
    assert d0.data[0] == [Fraction(-1), Fraction(1)]


def test_coboundary_shapes_and_row_pattern():
    cx = build_complex(petersen_graph())
    d0 = coboundary_matrix(cx, 0)
    assert (d0.rows, d0.cols) == (15, 10)
    for row in d0.data:
        assert sorted(x for x in row if x != 0) == [Fraction(-1), Fraction(1)]


def test_coboundary_triangle_rows():
    cx = build_complex(complete_graph(3))
    d1 = coboundary_matrix(cx, 1)
    # single row for (0,1,2) over edges (0,1), (0,2), (1,2) with signs +,-,+
    assert d1.data == [[Fraction(1), Fraction(-1), Fraction(1)]]


def test_d_squared_is_zero():
    for g in [complete_graph(5), octahedron_graph(), cycle_graph(6)]:
        cx = build_complex(g)
        for k in range(cx.dim):
            prod = matmul(coboundary_matrix(cx, k + 1), coboundary_matrix(cx, k))
            assert prod.is_zero()


def test_betti_examples():
    assert CochainSpaces(build_complex(cycle_graph(5))).betti_numbers() == (1, 1)
    assert CochainSpaces(build_complex(octahedron_graph())).betti_numbers() == (1, 0, 1)
    assert CochainSpaces(build_complex(petersen_graph())).betti_numbers() == (1, 6)
    assert CochainSpaces(build_complex(discrete_graph(3))).betti_numbers() == (3,)
    assert CochainSpaces(build_complex(complete_graph(4))).betti_numbers() == (1, 0, 0, 0)
    assert CochainSpaces(build_complex(path_graph(6))).betti_numbers() == (1, 0)


def test_betti_zero_counts_components_exhaustively():
    for n in range(1, 5):
        for g in all_graphs(n):
            cx = build_complex(g)
            assert CochainSpaces(cx).betti(0) == len(connected_components(g))


def test_representatives_are_cocycles_spanning_h0():
    cx = build_complex(complete_graph(3))
    spaces = CochainSpaces(cx)
    reps = spaces.representatives(0)
    assert len(reps) == 1
    # connected graph: degree-0 cocycles are the constant functions
    v = [reps[0].get(c, 0) for c in range(cx.count(0))]
    assert v[0] != 0 and all(x == v[0] for x in v)


def test_pullback_identity_is_identity():
    cx = build_complex(octahedron_graph())
    identity = tuple(range(6))
    for k in range(cx.dim + 1):
        assert pullback_matrix(cx, identity, k).data == \
            [[Fraction(i == j) for j in range(cx.count(k))]
             for i in range(cx.count(k))]


def test_pullbacks_in_degrees_without_simplices_are_empty():
    """A map's record holds one pullback per degree 0..dim, none below
    degree 0 or above the dimension, and none for the empty complex."""
    for g, image in [(Graph(0, []), ()), (path_graph(2), (1, 0))]:
        cx = build_complex(g)
        pullbacks = CochainSpaces(cx).chain(image).pullbacks
        assert [(pb.k, pb.size) for pb in pullbacks] == \
            [(k, cx.count(k)) for k in range(cx.dim + 1)], g


def test_pullback_edge_swap_flips_sign():
    cx = build_complex(path_graph(2))
    m = pullback_matrix(cx, (1, 0), 1)
    assert m.data == [[Fraction(-1)]]


def test_pullback_of_automorphism_is_signed_permutation():
    rng = random.Random(5)
    for g in [octahedron_graph(), petersen_graph()]:
        cx = build_complex(g)
        group = automorphism_group(g)
        for t in rng.sample(list(group), 6):
            for k in range(cx.dim + 1):
                m = pullback_matrix(cx, t.image, k)
                for row in m.data:
                    assert sorted(abs(x) for x in row if x != 0) == [1]


def test_pullback_trace_matches_matrix_trace():
    cx = build_complex(octahedron_graph())
    spaces = CochainSpaces(cx)
    image = (3, 4, 5, 0, 1, 2)  # antipodal map
    for k in range(cx.dim + 1):
        pb = spaces.chain(image).pullbacks[k]
        assert trace(pb) == pullback_matrix(cx, image, k).trace()


def test_chain_map_commutes():
    spaces = CochainSpaces(build_complex(octahedron_graph()))
    assert verify_chain_map(spaces, (3, 4, 5, 0, 1, 2))
    assert verify_chain_map(spaces, (1, 2, 0, 4, 5, 3))
    # also for non-injective endomorphisms (edge-preserving, so still
    # injective on every clique)
    assert verify_chain_map(CochainSpaces(build_complex(star_graph(3))), (0, 1, 1, 1))
    assert verify_chain_map(CochainSpaces(build_complex(path_graph(3))), (1, 0, 1))


def test_induced_matrix_examples():
    c4 = CochainSpaces(build_complex(cycle_graph(4)))
    rotation = c4.induced_matrix((1, 2, 3, 0), 1)
    assert dense(rotation).data == [[Fraction(1)]]
    reflection = c4.induced_matrix((0, 3, 2, 1), 1)
    assert dense(reflection).data == [[Fraction(-1)]]
    k5 = CochainSpaces(build_complex(complete_graph(5)))
    assert dense(k5.induced_matrix((4, 3, 2, 1, 0), 0)).data == [[Fraction(1)]]


def test_induced_matrix_zero_betti_degrees_are_empty():
    spaces = CochainSpaces(build_complex(complete_graph(4)))
    for k in range(1, 4):
        assert spaces.induced_matrix((0, 1, 2, 3), k) == SparseMatrix(0, 0, [])


def test_induced_map_reverses_composition_order():
    g = petersen_graph()
    spaces = CochainSpaces(build_complex(g))
    group = automorphism_group(g)
    rng = random.Random(9)
    elements = list(group)
    for _ in range(5):
        t = rng.choice(elements)
        s = rng.choice(elements)
        composed = t.compose(s)  # apply s first, then t
        for k in (0, 1):
            lhs = dense(spaces.induced_matrix(composed.image, k))
            rhs = matmul(spaces.induced_matrix(s.image, k),
                         spaces.induced_matrix(t.image, k))
            assert lhs.data == rhs.data


def test_induced_identity_matrix():
    for g in [cycle_graph(5), petersen_graph()]:
        spaces = CochainSpaces(build_complex(g))
        for k in range(spaces.dim + 1):
            m = dense(spaces.induced_matrix(tuple(range(g.n)), k))
            b = spaces.betti(k)
            assert m.data == [[Fraction(i == j) for j in range(b)]
                              for i in range(b)]


def _dense_commutes(cx, matrices, face_rows=None):
    """Dense reference for the chain-map identity: d_k P_k == P_{k+1} d_k
    as Fraction matrix products, given the dense P_0..P_dim.  With
    `face_rows`, d_k is summed from that row pattern instead of the complex."""
    for k in range(cx.dim + 1):
        if face_rows is None:
            d = coboundary_matrix(cx, k)
        else:
            d = summed_coboundary(face_rows(k) if k < cx.dim else [], matrices[k].rows)
        left = matmul(d, matrices[k])
        right = matmul(matrices[k + 1], d) if k < cx.dim else RationalMatrix(0, d.cols)
        if left != right:
            return False
    return True


def _flipped(p, row):
    """A copy of the pullback p with the sign of one row reversed."""
    signs = list(p.sign)
    signs[row] = -signs[row]
    return Pullback(p.k, p.size, list(p.target_index), signs)


def _corpus_maps(endomorphisms_per_graph):
    """Every corpus automorphism and seeded endomorphisms, each graph's maps
    sharing one CochainSpaces, so that a pullback kept from an earlier map
    would show."""
    rng = random.Random(17)
    for name, g in named_corpus():
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for t in automorphism_group(g):
            yield name, cx, spaces, t
        for _ in range(endomorphisms_per_graph):
            yield name, cx, spaces, random_endomorphism(g, rng)


def _class_maps():
    """Every automorphism and one seeded endomorphism of each isomorphism
    class with at most 5 vertices, each graph's maps sharing one
    CochainSpaces."""
    rng = random.Random(29)
    for n in range(6):
        for g, _ in isomorphism_classes(n):
            cx = build_complex(g)
            spaces = CochainSpaces(cx)
            for t in automorphism_group(g):
                yield f"class {g.edges}", cx, spaces, t
            yield f"class {g.edges}", cx, spaces, random_endomorphism(g, rng)


def _record_cases():
    """Every automorphism of each corpus graph and of each isomorphism class
    with at most 5 vertices, with three seeded endomorphisms per corpus
    graph and one per class."""
    return itertools.chain(_corpus_maps(3), _class_maps())


def test_sparse_chain_map_check_matches_dense_reference():
    """The chain-map verdict of every map of `_record_cases` is the dense
    d P == P d."""
    for name, cx, spaces, t in _record_cases():
        dense = [pullback_matrix(cx, t.image, k) for k in range(cx.dim + 1)]
        sparse = verify_chain_map(spaces, t.image)
        assert sparse == _dense_commutes(cx, dense), (name, t.image)
        assert sparse, (name, t.image)


def test_sparse_chain_map_check_matches_dense_reference_on_corrupted_pullbacks():
    rng = random.Random(23)
    verdicts = set()
    for i, (name, cx, spaces, t) in enumerate(_corpus_maps(3)):
        if i % 5 or cx.dim < 0:
            continue
        pullbacks = list(spaces.chain(t.image).pullbacks)
        k = rng.randrange(cx.dim + 1)
        pullbacks[k] = _flipped(pullbacks[k], rng.randrange(pullbacks[k].size))
        sparse = _commute(pullbacks, spaces.face_rows)
        assert sparse == _dense_commutes(cx, [to_matrix(p) for p in pullbacks]), \
            (name, t.image, k)
        verdicts.add(sparse)
    assert verdicts == {True, False}  # K_1 has no rows to compare


def test_chain_map_check_detects_every_single_sign_flip():
    spaces = CochainSpaces(build_complex(octahedron_graph()))
    for image in [(3, 4, 5, 0, 1, 2), (1, 2, 0, 4, 5, 3), tuple(range(6))]:
        pullbacks = list(spaces.chain(image).pullbacks)
        assert _commute(pullbacks, spaces.face_rows)
        for k, p in enumerate(pullbacks):
            for row in range(p.size):
                broken = pullbacks[:k] + [_flipped(p, row)] + pullbacks[k + 1:]
                assert not _commute(broken, spaces.face_rows), (image, k, row)


def _commute(pullbacks, face_rows):
    """The sparse chain-map verdict on the given face rows, with the rows of
    d_k built from them as `CochainSpaces.coboundary` builds them."""
    return pullbacks_commute(pullbacks, face_rows, lambda k: signed_rows(face_rows(k)))


def _commute_verdicts(cx, pullbacks, face_rows=None):
    """The sparse chain-map verdict and the dense reference's, on the same
    pullbacks and row pattern: by default the complex's, which the dense
    reference reads off the complex itself."""
    return (_commute(pullbacks, face_rows or CochainSpaces(cx).face_rows),
            _dense_commutes(cx, [to_matrix(p) for p in pullbacks], face_rows))


def test_chain_map_check_sums_pullbacks_that_collide():
    """Two faces of one simplex sent to one target: the terms are summed,
    whether they cancel or add up, as in the matrix product."""
    cx = build_complex(complete_graph(3))
    spaces = CochainSpaces(cx)
    identity = list(spaces.chain((0, 1, 2)).pullbacks)
    cases = []
    # every vertex to vertex 0: each edge's two terms cancel
    cases.append([Pullback(0, 3, [0, 0, 0], [1, 1, 1])] + identity[1:])
    # vertices 0 and 1 to 0 with opposite signs: the terms on edge (0, 1) add
    cases.append([Pullback(0, 3, [0, 0, 2], [1, -1, 1])] + identity[1:])
    # every edge to edge (1, 2): the triangle's three terms collide
    cases.append(identity[:1] + [Pullback(1, 3, [2, 2, 2], [1, 1, 1])] + identity[2:])
    for pullbacks in cases:
        sparse, dense = _commute_verdicts(cx, pullbacks)
        assert sparse == dense, [(p.target_index, p.sign) for p in pullbacks]
    rng = random.Random(31)
    for name, cx, spaces, t in _corpus_maps(1):
        if cx.dim < 1 or rng.random() < 0.8:
            continue
        pullbacks = list(spaces.chain(t.image).pullbacks)
        k = rng.randrange(cx.dim + 1)
        p = pullbacks[k]
        targets = list(p.target_index)
        targets[rng.randrange(p.size)] = targets[rng.randrange(p.size)]
        pullbacks[k] = Pullback(k, p.size, targets, list(p.sign))
        sparse, dense = _commute_verdicts(cx, pullbacks)
        assert sparse == dense, (name, t.image, k, targets)


def test_chain_map_check_sums_face_rows_with_a_repeated_index():
    """Face rows that hold one column twice: d_k is their summed matrix, and
    the verdict is that of the summed rows, never of the first or last term."""
    # an edge whose two faces are both vertex 0: d_0 is zero, so any pair of
    # pullbacks commutes, though the two sides' last terms differ in sign
    cx = build_complex(complete_graph(2))
    rows = {0: [(0, 0)]}
    pullbacks = [Pullback(0, 2, [0, 1], [1, 1]), Pullback(1, 1, [0], [-1])]
    assert _commute_verdicts(cx, pullbacks, rows.get) == (True, True)
    rng = random.Random(37)
    cx = build_complex(complete_graph(3))
    counts = [cx.count(k) for k in range(cx.dim + 1)]
    verdicts = set()
    for _ in range(3000):
        rows = {k: [tuple(rng.randrange(counts[k]) for _ in range(k + 2))
                    for _ in range(counts[k + 1])]
                for k in range(cx.dim)}
        pullbacks = [Pullback(k, n, [rng.randrange(n) for _ in range(n)],
                              [rng.choice((1, -1)) for _ in range(n)])
                     for k, n in enumerate(counts)]
        sparse, dense = _commute_verdicts(cx, pullbacks, rows.get)
        assert sparse == dense, (rows, [(p.target_index, p.sign) for p in pullbacks])
        verdicts.add(sparse)
    assert verdicts == {True, False}


def test_sparse_d_squared_matches_dense_reference():
    for _, g in named_corpus():
        cx = build_complex(g)
        dense = all((matmul(coboundary_matrix(cx, k + 1), coboundary_matrix(cx, k))).is_zero()
                    for k in range(cx.dim))
        assert coboundary_squares_to_zero(CochainSpaces(cx)) == dense
        assert dense


def test_sparse_d_squared_detects_a_wrong_face():
    cx = build_complex(complete_graph(3))
    # point the face (0, 1) of the triangle at the index of (0, 2)
    cx.index[1][(0, 1)] = cx.index[1][(0, 2)]
    assert not coboundary_squares_to_zero(CochainSpaces(cx))
    assert not matmul(coboundary_matrix(cx, 1), coboundary_matrix(cx, 0)).is_zero()


def test_pullback_product_is_pullback_of_composite():
    rng = random.Random(3)
    for g in [octahedron_graph(), petersen_graph(), complete_graph(4)]:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        elements = list(automorphism_group(g))
        for _ in range(6):
            s, t = rng.choice(elements), rng.choice(elements)
            composite = s.compose(t)  # apply t first, then s
            for k in range(cx.dim + 1):
                product = pullback_product(spaces.chain(t.image).pullbacks[k],
                                           spaces.chain(s.image).pullbacks[k])
                direct = spaces.chain(composite.image).pullbacks[k]
                assert (product.target_index, product.sign) == \
                    (direct.target_index, direct.sign)
                assert to_matrix(product) == \
                    matmul(pullback_matrix(cx, t.image, k), pullback_matrix(cx, s.image, k))


@st.composite
def signed_functional_graphs(draw):
    """A signed map x -> target(x) on up to 12 nodes, shaped like a pullback.

    Targets are unrestricted, so non-injective maps with tails into their
    cycles and fixed points of sign -1 both occur."""
    size = draw(st.integers(1, 12))
    targets = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size))
    return Pullback(0, size, targets, signs)


@settings(max_examples=200, deadline=None)
@given(signed_functional_graphs(), st.integers(1, 30))
@example(Pullback(0, 3, [0, 0, 1], [-1, 1, 1]), 4)  # a tail into a -1 fixed point
@example(Pullback(0, 4, [1, 2, 0, 0], [1, -1, 1, -1]), 2)  # count below the cycle length
def test_power_traces_match_repeated_products(pb, count):
    """tr(P^n) from the cycles equals the trace of the dense matrix of the
    n-fold product, for n = 1..count."""
    expected = []
    power = pb
    for _ in range(count):
        expected.append(to_matrix(power).trace())
        power = pullback_product(power, pb)
    assert power_traces(pb, count) == expected


def test_pullback_apply_matches_matrix():
    cx = build_complex(octahedron_graph())
    spaces = CochainSpaces(cx)
    image = (1, 2, 0, 4, 5, 3)
    signs = set()
    for k in range(cx.dim + 1):
        f = [Fraction(i + 1, 3) for i in range(cx.count(k))]
        pb = spaces.chain(image).pullbacks[k]
        assert pullback_apply(pb, f) == apply(pullback_matrix(cx, image, k), f)
        signs.update(pb.sign)
    assert signs == {1, -1}


def test_shared_induced_matrices_equal_fresh_ones():
    g = disjoint_union(cycle_graph(5), octahedron_graph())  # betti (2, 1, 1)
    cx = build_complex(g)
    shared = CochainSpaces(cx)
    group = list(automorphism_group(g))
    rng = random.Random(11)
    for t in rng.sample(group, 12) + group[:3]:
        fresh = CochainSpaces(cx)
        for k in (2, 0, 1, 0, 2):
            assert shared.induced_matrix(t.image, k) == fresh.induced_matrix(t.image, k)
        assert shared.lefschetz_number(t.image) == \
            CochainSpaces(cx).lefschetz_number(t.image)


def test_stored_induced_matrices_stay_bounded():
    """The spaces hold one record, the latest map's, with one induced
    matrix per degree."""
    g = petersen_graph()
    spaces = CochainSpaces(build_complex(g))
    group = automorphism_group(g)
    assert group.order == 120
    for t in group:
        zeta_det(g, t, spaces)
    lefschetz_numbers(spaces, group)
    last = list(group)[-1].image
    assert spaces._chain.image == last
    assert len(spaces.chain(last)._matrices) == spaces.dim + 1


def _same_pullback(a, b):
    return (a.k, a.size, a.target_index, a.sign) == (b.k, b.size, b.target_index, b.sign)


def test_shared_pullbacks_equal_fresh_ones():
    for name, cx, spaces, t in _corpus_maps(3):
        fresh_spaces = CochainSpaces(cx)
        for k in list(range(cx.dim, -1, -1)) + [0, cx.dim]:
            shared = spaces.chain(t.image).pullbacks[k]
            fresh = fresh_spaces.chain(t.image).pullbacks[k]
            assert _same_pullback(shared, fresh), (name, t.image, k)
        assert verify_chain_map(spaces, t.image), (name, t.image)


def _diagonal_sum(pb):
    """The trace of the matrix of a signed map: the signs of its fixed rows."""
    return sum(s for x, (y, s) in enumerate(zip(pb.target_index, pb.sign)) if x == y)


def test_extension_pullbacks_equal_the_sorted_oracle_on_the_corpus():
    """The record of each map of `_record_cases`, against dense oracles.
    Its pullbacks, each P_k read off P_{k-1} through the extension table,
    have the targets and signs of the sort-and-parity definition, on
    shared spaces and on fresh ones alike.  Its chain-map verdict, which
    `test_sparse_chain_map_check_matches_dense_reference` compares with the
    dense d P == P d on the same maps, holds.  tr(P_k) is the dense matrix
    trace, and tr(P_k^n) the diagonal of the n-fold product, n <= 8.  Its induced matrices are
    those of the dense route (`dense.induced_matrix`).  Asking for the map
    replaces the record of the map before, and asking again returns it."""
    maps = 0
    held_by, held = None, None
    for name, cx, spaces, t in _record_cases():
        chain = spaces.chain(t.image)
        assert (chain is held) == (held_by is spaces and held.image == t.image), \
            (name, t.image)
        assert spaces.chain(t.image) is chain
        fresh = CochainSpaces(cx).chain(t.image)
        expected = [sorted_pullback(cx, t.image, k) for k in range(cx.dim + 1)]
        assert len(chain.pullbacks) == len(fresh.pullbacks) == cx.dim + 1
        for k, (pb, oracle) in enumerate(zip(chain.pullbacks, expected)):
            assert _same_pullback(pb, oracle), (name, t.image, k)
            assert _same_pullback(fresh.pullbacks[k], oracle), (name, t.image, k)
            assert trace(pb) == to_matrix(oracle).trace(), (name, t.image, k)
            power, traces = oracle, []
            for _ in range(8):
                traces.append(_diagonal_sum(power))
                power = pullback_product(power, oracle)
            assert power_traces(pb, 8) == traces, (name, t.image, k)
            assert dense(spaces.induced_matrix(t.image, k)) == \
                dense_induced_matrix(spaces, t.image, k), (name, t.image, k)
        assert verify_chain_map(spaces, t.image), (name, t.image)
        assert spaces.chain(t.image) is chain
        held_by, held = spaces, chain
        maps += 1
    assert maps == 2030 + 3 * 32 + sum(
        automorphism_group(g).order + 1 for n in range(6) for g, _ in isomorphism_classes(n))


def test_the_merged_cycle_table_is_the_signed_sum_of_the_degrees():
    """The record's one cycle table is sum_k (-1)^k of the tables of its
    P_k, with no zero weight, for every map of `_record_cases`.  The chain
    trace and the iterates read off it are the signed sums of the
    per-degree traces and power traces."""
    for name, cx, spaces, t in _record_cases():
        pullbacks = spaces.chain(t.image).pullbacks
        expected = {}
        for k, pb in enumerate(pullbacks):
            for key, w in pb.cycles().items():
                expected[key] = expected.get(key, 0) + (-1) ** k * w
        merged = spaces.chain(t.image).cycles()
        assert merged == {key: w for key, w in expected.items() if w}, (name, t.image)
        assert 0 not in merged.values()
        assert lefschetz_chain(spaces, t) == \
            sum((-1) ** k * trace(pb) for k, pb in enumerate(pullbacks)), (name, t.image)
        per_degree = [power_traces(pb, 8) for pb in pullbacks]
        assert lefschetz_iterates(spaces, t, 8) == \
            [sum((-1) ** k * x[n] for k, x in enumerate(per_degree)) for n in range(8)], \
            (name, t.image)


@st.composite
def graphs_with_endomorphisms(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, keep in zip(pairs, kept) if keep])
    return g, random_endomorphism(g, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150, deadline=None)
@given(graphs_with_endomorphisms())
def test_extension_pullbacks_equal_the_sorted_oracle_on_random_graphs(case):
    g, t = case
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    for k in range(cx.dim + 1):
        assert _same_pullback(spaces.chain(t.image).pullbacks[k],
                              sorted_pullback(cx, t.image, k)), k


def test_extension_table_entries():
    """Entry [y][w] is y + {w} with (-1)^(vertices of y above w), for every
    (k-1)-simplex y and every vertex w that extends it, and nothing else."""
    for g in [octahedron_graph(), complete_graph(5), petersen_graph()]:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        for k in range(1, cx.dim + 1):
            table = spaces.extension_table(k)
            for y, row in zip(cx.simplices(k - 1), table):
                expected = {}
                for w in range(g.n):
                    z = tuple(sorted(y + (w,)))
                    if w not in y and cx.contains(z):
                        expected[w] = (cx.index_of(z), (-1) ** sum(v > w for v in y))
                assert row == expected, (k, y)
            # The builder reads each k-simplex's prefix x[:-1] as its last face.
            assert [cx.simplices(k - 1)[faces[-1]] + (x[-1],)
                    for x, faces in zip(cx.simplices(k), spaces.face_rows(k - 1))] == \
                cx.simplices(k)


def _oracle_error(cx, image):
    """The sorted build's KeyError message at the lowest degree at which it
    fails, or None."""
    for k in range(cx.dim + 1):
        try:
            sorted_pullback(cx, image, k)
        except KeyError as exc:
            return str(exc)
    return None


def test_non_graph_map_images_raise_the_sorted_builds_key_error():
    """An image that is not a graph map raises KeyError naming the sorted
    image of the first simplex, lowest degree first, that does not map to a
    simplex: the message of the sorted build at that degree.  Shared spaces
    keep the record they held before."""
    cases = [
        (octahedron_graph(), (0, 0, 1, 2, 3, 4)),   # an edge to a vertex
        (octahedron_graph(), (0, 3, 1, 2, 4, 5)),   # an edge to a non-edge
        (complete_graph(4), (0, 1, 2, 2)),          # a triangle to an edge
        (cycle_graph(5), (0, 1, 2, 3, 7)),          # a vertex off the graph
        (petersen_graph(), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)),
    ]
    raised = 0
    for g, image in cases:
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        identity = tuple(range(g.n))
        held = spaces.chain(identity)
        expected = _oracle_error(cx, image)
        assert "is not a simplex of the complex" in expected
        for build in (lambda: spaces.chain(image), lambda: CochainSpaces(cx).chain(image)):
            with pytest.raises(KeyError) as exc:
                build()
            assert str(exc.value) == expected, image
            raised += 1
        assert spaces.chain(identity) is held
    assert raised == 10


def test_one_held_spaces_serves_many_maps(monkeypatch):
    """The chain-level routes of 20 maps run on the one CochainSpaces their
    caller holds, so its face rows and extension tables are built once per
    complex, not once per call."""
    g = complete_graph(5)
    cx = build_complex(g)
    built = []
    real = CochainSpaces.__init__

    def counting(self, complex_):
        built.append(complex_)
        real(self, complex_)

    monkeypatch.setattr(CochainSpaces, "__init__", counting)
    spaces = CochainSpaces(cx)
    for t in list(automorphism_group(g))[:20]:
        assert lefschetz_chain(spaces, t) == fixed_index_sum(cx, t)
        assert verify_chain_map(spaces, t.image)
        for k in range(cx.dim + 1):
            assert _same_pullback(spaces.chain(t.image).pullbacks[k],
                                  sorted_pullback(cx, t.image, k))
    assert built == [cx]


def test_face_rows_are_built_once_and_match_the_coboundary():
    cx = build_complex(octahedron_graph())
    spaces = CochainSpaces(cx)
    for k in range(cx.dim + 1):
        rows = spaces.face_rows(k)
        assert spaces.face_rows(k) is rows
        d = coboundary_matrix(cx, k)
        assert len(rows) == d.rows
        for faces, row in zip(rows, d.data):
            assert {f: (-1) ** i for i, f in enumerate(faces)} == \
                {c: x for c, x in enumerate(row) if x}


def test_stored_pullbacks_stay_bounded():
    """Asking for a map replaces the record of the map before: the spaces
    hold one record, with one pullback per degree.  The record refers to
    no spaces, so dropping the spaces frees it at once, without waiting
    for the cycle collector."""
    g = petersen_graph()
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    group = automorphism_group(g)
    assert group.order == 120
    before = None
    for t in group:
        assert verify_chain_map(spaces, t.image)
        zeta_det(g, t, spaces)
        chain = spaces.chain(t.image)
        assert chain is spaces._chain and chain is not before
        assert len(chain.pullbacks) == spaces.dim + 1
        before = chain
    held = weakref.ref(spaces)
    gc.disable()
    try:
        del spaces
        assert held() is None
    finally:
        gc.enable()


def test_chain_map_check_reads_the_shared_pullbacks():
    """The verdict is taken on the record's pullbacks: a sign flipped in one
    before the check fails it, and asking for another map and back builds a
    clean record."""
    cx = build_complex(octahedron_graph())
    spaces = CochainSpaces(cx)
    image, other = (1, 2, 0, 4, 5, 3), tuple(range(6))
    for k in range(cx.dim + 1):
        assert verify_chain_map(spaces, image)
        size = spaces.chain(image).pullbacks[k].size
        for row in (0, size - 1):
            spaces.chain(other)
            stored = spaces.chain(image).pullbacks[k]
            stored.sign[row] = -stored.sign[row]
            assert not verify_chain_map(spaces, image), (k, row)
            assert verify_chain_map(CochainSpaces(cx), image), (k, row)
            spaces.chain(other)
            assert verify_chain_map(spaces, image), (k, row)


def _image_columns(cx, k):
    """The columns of the dense d_{k-1}, spanning im(d_{k-1}); none for k = 0."""
    if k == 0:
        return []
    d = coboundary_matrix(cx, k - 1)
    return [[row[j] for row in d.data] for j in range(d.cols)]


def _rank_modulo(columns, base_rank, vectors):
    """Rank of the vectors modulo the span of the columns: 0 when all lie in
    it, len(vectors) when they are independent modulo it."""
    if not vectors:
        return 0
    return rank(RationalMatrix.from_rows(columns + vectors)) - base_rank


def test_induced_matrix_is_the_pullback_modulo_coboundaries():
    images = {}
    for name, cx, spaces, t in _corpus_maps(3):
        for k in range(cx.dim + 1):
            reps = [[h.get(c, 0) for c in range(cx.count(k))]
                    for h in spaces.representatives(k)]
            if (name, k) not in images:
                columns = _image_columns(cx, k)
                base_rank = rank(RationalMatrix.from_rows(columns)) if columns else 0
                images[name, k] = columns, base_rank
                assert len(reps) == spaces.betti(k)
                assert _rank_modulo(columns, base_rank, reps) == len(reps), (name, k)
            m = dense(spaces.induced_matrix(t.image, k))
            pb = spaces.chain(t.image).pullbacks[k]
            residues = []
            for j, h in enumerate(reps):
                pulled = pullback_apply(pb, h)
                residues.append([x - sum(m.data[i][j] * reps[i][c] for i in range(len(reps)))
                                 for c, x in enumerate(pulled)])
            assert _rank_modulo(*images[name, k], residues) == 0, (name, t.image, k)


# The six-vertex real projective plane (the hemi-icosahedron).
RP2_TRIANGLES = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))
RP2_FACES = sorted({frozenset(c) for t in RP2_TRIANGLES for r in (1, 2, 3)
                    for c in itertools.combinations(t, r)},
                   key=lambda f: (len(f), sorted(f)))


def _subdivision(faces, apex_over=()):
    """The barycentric subdivision of RP^2 as a graph, vertex i standing for
    faces[i] and an edge joining nested faces, so its clique complex is the
    subdivision; with `apex_over`, one more vertex adjacent to those faces."""
    index = {f: i for i, f in enumerate(faces)}
    edges = [(index[a], index[b]) for a in faces for b in faces if a < b]
    edges += [(index[f], len(faces)) for f in apex_over]
    return Graph(len(faces) + bool(apex_over), edges)


def _face_map(faces, perm, extra=()):
    """The map of the subdivision induced by a vertex permutation of RP^2,
    followed by the images of any vertices past the faces."""
    index = {f: i for i, f in enumerate(faces)}
    return tuple(index[frozenset(perm[v] for v in f)] for f in faces) + tuple(extra)


def torsion_cases():
    """Two graphs whose cohomology bases have scale 2, each with the degree
    of that scale and some of its maps, the automorphisms first.

    RP^2 + C_4: H^2(RP^2; Z) = Z/2, so every maximal minor of d_1 is even
    and the kernel's scale in degree 1 is 2; its last map folds the C_4
    onto an edge.  RP^2 with a projective line coned off: the generator of
    H_2 = Z covers the cone twice, so with a cone triangle last the image
    RREF in degree 2 has entries 1/2 and its denominator makes the scale 2."""
    n = len(RP2_FACES)
    with_cycle = disjoint_union(_subdivision(RP2_FACES), cycle_graph(4))
    c4 = [n, n + 1, n + 2, n + 3]
    fivefold = (0, 2, 3, 4, 5, 1)
    same = tuple(range(6))
    # Vertex 3 and the edges 13, 03 are numbered last among the faces
    # they go with, so the cone triangle (3, 03, apex) is the last triangle.
    loop = [frozenset(s) for s in ({0}, {0, 1}, {1}, {1, 3}, {3}, {0, 3})]
    front = [frozenset({v}) for v in (0, 1, 2, 4, 5, 3)]
    back = [frozenset({1, 3}), frozenset({0, 3})]
    faces = front + [f for f in RP2_FACES if f not in front + back] + back
    coned = _subdivision(faces, loop)
    return [
        (with_cycle, 1, [_face_map(RP2_FACES, same, c4),
                         _face_map(RP2_FACES, fivefold, c4[1:] + c4[:1]),
                         _face_map(RP2_FACES, same, [c4[0], c4[3], c4[2], c4[1]]),
                         _face_map(RP2_FACES, fivefold, [c4[0], c4[1], c4[0], c4[1]])]),
        (coned, 2, [_face_map(faces, same, [n]),
                    _face_map(faces, (1, 3, 5, 0, 2, 4), [n]),
                    _face_map(faces, (0, 3, 2, 1, 5, 4), [n])]),
    ]


def test_integer_induced_maps_equal_the_dense_route_over_scales_above_one():
    """Torsion in the integral cohomology makes a basis scale above 1, and
    both places a scale comes from are reached (`torsion_cases`).  On both,
    T_k over its scale equals the dense Fraction route, the Lefschetz number
    is the dense traces summed, and an automorphism's det route equals its
    orbit product.  The dimensions of the subspaces fixed by each
    automorphism, and by all of them, equal those of the dense T_k - I.
    The map that folds the C_4 is no bijection, so the invariant cochains
    refuse it, naming it."""
    folds = 0
    for g, k_scaled, images in torsion_cases():
        cx = build_complex(g)
        spaces = CochainSpaces(cx)
        assert spaces.betti(k_scaled) == 1
        signs = set()
        automorphisms = []
        for image in images:
            t = GraphMap(g, image)
            total = 0
            for k in range(cx.dim + 1):
                m = spaces.induced_matrix(image, k)
                assert m.scale == (2 if k == k_scaled else 1), (k, m)
                oracle = dense_induced_matrix(spaces, image, k)
                assert dense(m) == oracle, (image, k)
                total += (-1) ** k * oracle.trace()
            signs.add(spaces.induced_matrix(image, k_scaled).data[0].get(0, 0))
            assert spaces.lefschetz_number(image) == total
            if not t.is_automorphism():
                with pytest.raises(ValueError, match=re.escape(f"{image} is not a bijection")):
                    spaces.fixed_betti_numbers(images)
                folds += 1
                continue
            automorphisms.append(image)
            assert zeta_det(g, t, spaces) == zeta_product(orbit_census(cx, t))
            assert spaces.fixed_betti_numbers([image]) == tuple(
                dense_fixed_dimension(spaces, [image], k) for k in range(cx.dim + 1))
        assert {2, -2} <= signs
        assert spaces.fixed_betti_numbers(automorphisms) == tuple(
            dense_fixed_dimension(spaces, automorphisms, k) for k in range(cx.dim + 1))
        assert spaces.fixed_betti_numbers([]) == spaces.betti_numbers()
    assert folds == 1


def test_signed_orbits_mark_an_orbit_whose_relations_conflict():
    """f(0) = f(1), f(1) = -f(2) and f(2) = -f(0) leave one orientable orbit
    with sigma = (1, 1, -1); f(3) = -f(4) twice over is consistent, but
    f(4) = -f(4) forces f = 0 on {3, 4}.  Roots are smallest members, and
    without signs the relations give the plain orbits."""
    orbits = SignedOrbits(6)
    orbits.relate([1, 2, 0, 4, 3, 5], [1, -1, -1, -1, -1, 1])
    assert orbits.labels() == ([0, 0, 0, 3, 3, 5], [1, 1, -1, 1, -1, 1])
    assert orbits.orientable_roots() == [0, 3, 5]
    orbits.relate([0, 1, 2, 3, 4, 5], [1, 1, 1, 1, -1, 1])
    assert orbits.orientable_roots() == [0, 5]
    assert orbits.orbits() == [(0, 1, 2), (3, 4), (5,)]
    plain = SignedOrbits(5)
    plain.relate([4, 1, 0, 3, 2])
    assert plain.orbits() == [(0, 2, 4), (1,), (3,)]
    assert plain.orientable_roots() == [0, 1, 3]


def assert_invariant_cochains_equal_the_dense_route(g, images):
    """Degree by degree, and in the alternating sum that the orbit count
    gives with no rank."""
    spaces = CochainSpaces(build_complex(g))
    fixed = spaces.fixed_betti_numbers(images)
    oracle = tuple(dense_fixed_dimension(spaces, images, k) for k in range(spaces.dim + 1))
    assert fixed == oracle, g
    count = spaces.invariant_euler_characteristic(images)
    assert count == sum(-d if k % 2 else d for k, d in enumerate(fixed)), g
    assert count == sum(-d if k % 2 else d for k, d in enumerate(oracle)), g


def test_invariant_cochains_give_the_fixed_subspaces_degree_by_degree():
    """dim H^k(G)^A from the invariant cochain complex equals b_k minus the
    rank of the dense T_k - I stacked over the coset representatives, in
    every degree, and the signed count of orientable orbits equals the
    alternating sum of both: on every isomorphism class with at most 6
    vertices, the corpus, and the two torsion cases under their
    automorphisms."""
    for n in range(7):
        for g, _ in isomorphism_classes(n):
            assert_invariant_cochains_equal_the_dense_route(
                g, [t.image for t in automorphism_group(g).representatives])
    for _, g in named_corpus():
        assert_invariant_cochains_equal_the_dense_route(
            g, [t.image for t in automorphism_group(g).representatives])
    for g, _, images in torsion_cases():
        assert_invariant_cochains_equal_the_dense_route(
            g, [image for image in images if GraphMap(g, image).is_automorphism()])


@pytest.mark.slow
def test_invariant_cochains_give_the_fixed_subspaces_on_seven_vertices():
    for g, _ in isomorphism_classes(7):
        assert_invariant_cochains_equal_the_dense_route(
            g, [t.image for t in automorphism_group(g).representatives])


def test_planted_faults_in_the_invariant_orbits_change_the_average(monkeypatch):
    """L(G) counts orientable orbits, so it must see the signs and every
    generator.  Relating without signs makes every orbit orientable, which
    changes L(G) on 72 of the 209 classes with at most 6 vertices (K_2,
    whose swap reverses its edge: 1 -> 0); dropping the last coset
    representative changes it on 31."""
    classes = [g for n in range(7) for g, _ in isomorphism_classes(n)]

    def averages():
        return {g: average_lefschetz(CochainSpaces(build_complex(g)), automorphism_group(g))
                for g in classes}

    honest = averages()
    relate, orbits = SignedOrbits.relate, CochainSpaces.invariant_orbits
    with monkeypatch.context() as m:
        m.setattr(SignedOrbits, "relate",
                  lambda self, targets, signs=None: relate(self, targets))
        unsigned = averages()
    with monkeypatch.context() as m:
        m.setattr(CochainSpaces, "invariant_orbits",
                  lambda self, images: orbits(self, list(images)[:-1]))
        dropped = averages()
    assert len(classes) == 209
    assert sum(honest[g] != unsigned[g] for g in classes) == 72
    assert (honest[complete_graph(2)], unsigned[complete_graph(2)]) == (1, 0)
    assert sum(honest[g] != dropped[g] for g in classes) == 31


def test_the_average_runs_no_elimination(monkeypatch):
    """E_5 is summed from 34 values of L(G), each a count of orbits: with
    every rank and forward elimination refused, it is still 1319/1024."""
    def refuse(*args):
        raise AssertionError("an elimination ran")

    for module, name in ((linalg, "rank"), (cohomology, "rank"),
                         (linalg, "_bareiss_forward")):
        monkeypatch.setattr(module, name, refuse)
    assert expectation_exhaustive(5) == Fraction(1319, 1024)


def test_a_pullback_that_breaks_a_cocycle_is_refused():
    g = octahedron_graph()
    spaces = CochainSpaces(build_complex(g))
    image = (1, 2, 0, 4, 5, 3)
    stored = spaces.chain(image).pullbacks[0]
    for row in range(stored.size):
        stored.sign[row] = -stored.sign[row]
        with pytest.raises(NotInSpanError):
            spaces.induced_matrix(image, 0)
        stored.sign[row] = -stored.sign[row]
    assert dense(spaces.induced_matrix(image, 0)).data == [[Fraction(1)]]


def test_a_sign_flip_inside_the_pulled_back_support_is_refused():
    """The cocycle check reads only the rows of d_k with a face in the
    support of P_k h.  Flipping the sign of P_k at one simplex x of that
    support breaks the cocycle exactly when x is a face of some row of d_k:
    on C_5 every vertex is (k = 0); on C_5 with a triangle on one edge only
    that triangle's edges are (k = 1), and the representative of H^1 lies
    on the triangle for the edge 34 and off it for the edge 01."""
    def cone(a):
        return Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(a, 5), (a + 1, 5)])

    outcomes = []
    for g, image, k in ((cycle_graph(5), (1, 2, 3, 4, 0), 0),
                        (cone(3), tuple(range(6)), 1),
                        (cone(3), (2, 1, 0, 4, 3, 5), 1),
                        (cone(0), (1, 0, 4, 3, 2, 5), 1)):
        spaces = CochainSpaces(build_complex(g))
        assert spaces.betti(k) == 1
        expected = spaces.induced_matrix(image, k)
        chain = spaces.chain(image)
        stored = chain.pullbacks[k]
        support = {x for y in spaces.representatives(k)[0]
                   for x in stored.preimages()[y]}
        for x in sorted(support):
            stored.sign[x] = -stored.sign[x]
            chain._matrices = None
            breaks = bool(spaces.coface_rows(k)[x])
            if breaks:
                with pytest.raises(NotInSpanError):
                    spaces.induced_matrix(image, k)
            else:
                assert spaces.induced_matrix(image, k) != expected
            outcomes.append(breaks)
            stored.sign[x] = -stored.sign[x]
        chain._matrices = None
        assert spaces.induced_matrix(image, k) == expected
    assert outcomes.count(True) == 5 + 2 + 2 and outcomes.count(False) == 1


def test_grid_lefschetz_routes_agree():
    # b_1 = 121: large induced matrices, in the determinant route too.
    side = 12
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    g = Graph(side * side, edges)
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    assert spaces.betti_numbers() == (1, 121)
    rotation = tuple(side * side - 1 - v for v in range(side * side))
    reflection = tuple((v // side) * side + side - 1 - v % side for v in range(side * side))
    for image, expected in ((rotation, 0), (reflection, side)):
        t = GraphMap(g, image)
        assert t.is_automorphism()
        assert lefschetz_cohomological(g, t, spaces) == fixed_index_sum(cx, t) == \
            lefschetz_chain(spaces, t) == expected
        assert zeta_det(g, t, spaces) == zeta_product(orbit_census(cx, t))


OPTIMIZED_CHECKS = textwrap.dedent("""
    from lefgraph import build_complex, named_graph, symmetry
    from lefgraph.cohomology import CochainSpaces
    from lefgraph.linalg import LinearAlgebraError, SparseMatrix
    from lefgraph.reporting import VerificationError

    def outcome(call):
        try:
            return f"returned {call()}"
        except (LinearAlgebraError, VerificationError) as exc:
            return f"raised {exc}"

    print("debug", __debug__)
    cx = build_complex(named_graph("cycle", 5))
    real = CochainSpaces.induced_matrix

    def half_trace(self, image, k):
        if k == 1:
            return SparseMatrix(1, 1, [{0: 1}], 2)
        return real(self, image, k)

    CochainSpaces.induced_matrix = half_trace
    print(outcome(lambda: CochainSpaces(cx).lefschetz_number((1, 2, 3, 4, 0))))
    CochainSpaces.induced_matrix = real
    symmetry.lefschetz_numbers = lambda spaces, group: [0, 1]
    group = symmetry.automorphism_group(cx.graph)
    print(outcome(lambda: symmetry.verify_averaging_theorems(
        CochainSpaces(cx), group, symmetry.fixed_simplex_sweep(cx, group))))
    CochainSpaces.betti = lambda self, k: 2
    print(outcome(lambda: CochainSpaces(cx).representatives(1)))
""")


def test_integrality_and_representative_count_are_checked_under_optimization():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "raised cohomological trace sum 1/2 is not an integer",
        "raised the mean of L(T) over the 10 group elements is 1/10, "
        "but the subspaces of H^k their generators fix give 1",
        "raised H^1: 1 representatives but Betti number 2",
    ]
