"""Tests for the seeded large-graph generator.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import blockgraph  # noqa: E402
from lefgraph import (  # noqa: E402
    CochainSpaces,
    build_complex,
    fixed_index_sum,
    lefschetz_cohomological,
    parse_edge_list,
    validate_map,
)
from lefgraph.zeta import orbit_census, zeta_det, zeta_product  # noqa: E402

@pytest.mark.parametrize("seed", range(4))
def test_map_is_a_valid_automorphism(seed):
    bg = blockgraph.generate(seed)
    g = parse_edge_list(bg.graph_text())
    t = validate_map(g, bg.image)
    assert g.n == 44 and t.is_automorphism()
    assert bg.map_text().splitlines()[-1].split() == ["map", *map(str, bg.image)]


def test_same_seed_gives_identical_files(tmp_path):
    a = blockgraph.generate(7).write(tmp_path / "a")
    b = blockgraph.generate(7).write(tmp_path / "b")
    for x, y in zip(a, b):
        assert x.read_bytes() == y.read_bytes()


def test_different_seeds_relabel_differently():
    edge_sets = {blockgraph.generate(seed).edges for seed in range(5)}
    assert len(edge_sets) == 5


def test_block_f_vectors_match_lefgraph():
    for kind in blockgraph.BLOCK_TYPES.values():
        cx = build_complex(parse_edge_list(
            f"vertices {kind.n}\n" + "".join(f"{u} {v}\n" for u, v in kind.edges)))
        assert cx.f_vector() == kind.f_vector


@pytest.mark.parametrize("seed", range(6))
def test_predicted_invariants_match_lefgraph(seed):
    bg = blockgraph.generate(seed)
    g = parse_edge_list(bg.graph_text())
    t = validate_map(g, bg.image)
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    assert cx.f_vector() == bg.f_vector
    assert spaces.betti_numbers() == bg.betti
    assert fixed_index_sum(cx, t) == bg.lefschetz
    assert lefschetz_cohomological(g, t, spaces) == bg.lefschetz
    for zeta in (zeta_product(orbit_census(cx, t)), zeta_det(g, t, spaces)):
        assert bg.zeta_matches(zeta.num, zeta.den)


def test_zeta_mismatch_is_detected():
    bg = blockgraph.generate(0)
    assert not bg.zeta_matches(bg.zeta_num, bg.zeta_den + (1,))
