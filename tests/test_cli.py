"""End-to-end command-line tests, run in process."""

import io
import json
import os
import sys

import pytest

from lefgraph.cli import _exit_code, main


def run(capsys, *argv):
    """Exit code, stdout and stderr of a run, whether main returns the code
    or argparse exits with it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text("vertices 4\n0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def test_analyze_named_petersen(capsys):
    code, report = run_json(capsys, "analyze", "--named", "petersen")
    assert code == 0
    graph = report["graph"]
    assert graph["n"] == 10 and graph["edge_count"] == 15
    assert graph["f_vector"] == [10, 15]
    assert graph["euler_characteristic"] == -5
    assert graph["betti"] == [1, 6]
    assert graph["star_shaped"] is False
    assert graph["components"] == 1
    assert all(c["passed"] for c in report["checks"])


def test_analyze_graph_file_with_inline_map(capsys, c4_file):
    code, report = run_json(capsys, "analyze", c4_file, "--map", "1,2,3,0")
    assert code == 0
    m = report["map"]
    assert m["kind"] == "automorphism"
    assert m["lefschetz"] == 0
    assert m["fixed_simplices"] == []
    assert m["attractor_size"] == 4
    assert m["zeta"]["text"] == "1"
    assert all(c["passed"] for c in report["checks"])


def test_analyze_with_map_file(capsys, c4_file, tmp_path):
    map_path = tmp_path / "refl.map"
    map_path.write_text("# vertex-fixing reflection\nmap 0 3 2 1\n")
    code, report = run_json(capsys, "analyze", c4_file, "--map", str(map_path))
    assert code == 0
    m = report["map"]
    assert m["image"] == [0, 3, 2, 1]
    assert m["lefschetz"] == 2
    assert [r["simplex"] for r in m["fixed_simplices"]] == [[0], [2]]
    assert all(r["index"] == 1 for r in m["fixed_simplices"])


def test_analyze_endomorphism_reports_attractor(capsys, tmp_path):
    path = tmp_path / "star.graph"
    path.write_text("vertices 4\n0 1\n0 2\n0 3\n")
    code, report = run_json(capsys, "analyze", str(path), "--map", "0,1,1,1")
    assert code == 0
    m = report["map"]
    assert m["kind"] == "endomorphism"
    assert m["attractor_size"] == 2
    assert m["zeta"] is None
    assert m["brouwer_witness"] is not None


def test_identity_on_many_vertices_prints_a_short_det_check(capsys):
    """The det route's zeta prints as factors, not multiplied out: on 3000
    isolated vertices the identity's check line is short, where the
    expanded (1 - z)^3000 took about 2 MB."""
    code, out, err = run(capsys, "analyze", "--named", "discrete:3000",
                         "--map", ",".join(map(str, range(3000))))
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if "zeta_det_equals_product" in line]
    assert lines == ["  PASS zeta_det_equals_product: (1-z)^-3000 vs (1-z)^-3000"]
    assert len(lines[0].encode()) < 100


def test_text_output_has_pass_lines_and_is_stable(capsys):
    code1, out1, err1 = run(capsys, "analyze", "--named", "octahedron")
    code2, out2, err2 = run(capsys, "analyze", "--named", "octahedron")
    assert code1 == code2 == 0
    assert out1 == out2 and err1 == err2 == ""
    assert "PASS d_squared_zero" in out1
    assert "euler_characteristic: 2" in out1


def test_aut_petersen(capsys):
    code, report = run_json(capsys, "aut", "--named", "petersen")
    assert code == 0
    group = report["group"]
    assert group["order"] == 120
    assert group["lefschetz_multiset"] == [[-5, 1], [0, 24], [1, 80], [3, 15]]
    assert group["average_lefschetz"] == 1
    assert len(report["findings"]) == 1
    assert all(c["passed"] for c in report["checks"])


def test_aut_curvature_table(capsys):
    code, report = run_json(capsys, "aut", "--named", "complete:3", "--curvature")
    assert code == 0
    table = {tuple(entry["simplex"]): entry["kappa"]
             for entry in report["curvature"]}
    assert table[(0,)] == {"num": 1, "den": 3}
    assert table[(0, 1)] == 0
    assert table[(0, 1, 2)] == 0


def test_aut_curvature_scans_each_element_once(capsys, monkeypatch):
    import lefgraph.symmetry as symmetry

    scanned = []
    real = symmetry.fixed_simplices

    def counting(cx, t):
        scanned.append(t.image)
        return real(cx, t)

    monkeypatch.setattr(symmetry, "fixed_simplices", counting)
    code, report = run_json(capsys, "aut", "--named", "petersen", "--curvature")
    assert code == 0
    assert len(report["curvature"]) == 25
    assert len(scanned) == len(set(scanned)) == report["group"]["order"] == 120


def _per_map_calls(capsys, monkeypatch, *argv):
    """Run analyze and list the per-map inputs it computed, one entry per
    call of `attractor`, `fixed_simplices` or `orbit_census`."""
    import lefgraph.cli as cli
    import lefgraph.dynamics as dynamics
    import lefgraph.verification as verification
    import lefgraph.zeta as zeta

    calls = []
    for name in ("attractor", "fixed_simplices", "orbit_census"):
        real = getattr(dynamics, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module in (cli, dynamics, verification, zeta):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, report = run_json(capsys, "analyze", *argv)
    assert code == 0
    return report, sorted(calls)


def test_analyze_computes_each_per_map_input_once(capsys, monkeypatch):
    # wheel:5 is connected and star-shaped, so the Brouwer check runs too.
    # The map's fixed simplices come with its orbit census.
    report, calls = _per_map_calls(capsys, monkeypatch,
                                   "--named", "wheel:5", "--map", "1,2,3,4,0,5")
    assert report["map"]["kind"] == "automorphism"
    assert "brouwer_witness" in report["map"]
    # no attractor check: an automorphism is its own attractor
    assert len(report["checks"]) == 9
    assert calls == ["attractor", "orbit_census"]


def test_analyze_scans_an_endomorphism_once(capsys, monkeypatch):
    report, calls = _per_map_calls(capsys, monkeypatch,
                                   "--named", "path:3", "--map", "0,1,0")
    assert report["map"]["kind"] == "endomorphism"
    assert "brouwer_witness" in report["map"]
    assert report["map"]["zeta"] is None
    assert report["map"]["fixed_simplices"] == [
        {"simplex": [0], "dim": 0, "perm_sign": 1, "index": 1},
        {"simplex": [1], "dim": 0, "perm_sign": 1, "index": 1},
        {"simplex": [0, 1], "dim": 1, "perm_sign": 1, "index": -1}]
    assert calls == ["attractor", "orbit_census"]


def test_a_missing_fixed_clique_is_reported_not_raised(capsys, monkeypatch):
    """With the walk patched to find no fixed simplex, the Brouwer check on
    wheel:5 fails as a check: exit 2, its FAIL line, and no traceback."""
    import dataclasses

    import lefgraph.cli as cli
    import lefgraph.dynamics as dynamics

    def no_fixed(cx, t):
        return dataclasses.replace(dynamics.orbit_census(cx, t), fixed=[])

    monkeypatch.setattr(cli, "orbit_census", no_fixed)
    code, out, err = run(capsys, "analyze", "--named", "wheel:5",
                         "--map", "0,1,2,3,4,5")
    assert code == 2
    assert "  FAIL brouwer_fixed_clique_exists: 0 vs > 0" in out.splitlines()
    assert err == ""


def test_aut_orbigraph(capsys):
    code, report = run_json(capsys, "aut", "--named", "petersen", "--orbigraph")
    assert code == 0
    q = report["orbigraph"]
    assert q["classes"] == [list(range(10))]
    assert q["n"] == 1 and q["edge_count"] == 0
    assert q["euler_characteristic"] == 1


def _count_calls(monkeypatch, module, name):
    """Record every call of module.name, through whichever lefgraph module
    imported it."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("lefgraph") and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_aut_reads_the_checked_quotient(capsys, monkeypatch):
    """The report reuses the average and the quotient that the averaging
    check computed: one orbigraph, and complexes of the graph and the
    quotient only."""
    import lefgraph.complexes as complexes
    import lefgraph.symmetry as symmetry

    quotients = _count_calls(monkeypatch, symmetry, "orbigraph")
    complexes_built = _count_calls(monkeypatch, complexes, "build_complex")
    code, report = run_json(capsys, "aut", "--named", "petersen", "--orbigraph")
    assert code == 0
    assert len(quotients) == 1
    assert len(complexes_built) == 2
    assert report["orbigraph"]["euler_characteristic"] == 1
    assert report["group"]["average_lefschetz"] == 1


def test_zeta_single_map(capsys, c4_file):
    code, report = run_json(capsys, "zeta", c4_file, "--map", "0,3,2,1")
    assert code == 0
    zeta = report["zeta"]
    assert zeta["factored"] == [[1, -2, 0], [2, 1, 0]]
    assert zeta["numerator"] == [1, 1]
    assert zeta["denominator"] == [1, -1]
    assert zeta["text"] == "(1-z)^-2 (1-z^2)"
    names = [c["name"] for c in report["checks"]]
    assert "zeta_det_equals_product" in names
    assert "zeta_series_consistent" in names
    assert all(c["passed"] for c in report["checks"])


def test_zeta_series_order_flag(capsys, c4_file):
    """The series is compared on min(2 order(T), 2 |cx|) terms, and no
    flag changes that: the C_4 reflection has order 2, so 4 terms."""
    code, report = run_json(capsys, "zeta", c4_file, "--map", "0,3,2,1")
    assert code == 0
    series = next(c for c in report["checks"]
                  if c["name"] == "zeta_series_consistent")
    assert series["passed"] and series["lhs"] == [2, 0, 2, 0]
    with pytest.raises(SystemExit) as exc:
        main(["zeta", c4_file, "--map", "0,3,2,1", "--series-order", "6"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --series-order" in capsys.readouterr().err


def test_analyze_bounds_the_series_order_of_a_long_rotation(capsys, tmp_path):
    """Cycles of lengths 3, 5, 7, 11, 13 and 17 under their rotation: the
    map has order 255255, the complex 113 simplices, so the default series
    order is 2 * 113, not 2 * 255255."""
    lengths = (3, 5, 7, 11, 13, 17)
    edges, image, offset = [], [], 0
    for n in lengths:
        edges += [(offset + i, offset + (i + 1) % n) for i in range(n)]
        image += [offset + (i + 1) % n for i in range(n)]
        offset += n
    path = tmp_path / "cycles.graph"
    path.write_text(f"vertices {offset}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, report = run_json(capsys, "analyze", str(path),
                            "--map", ",".join(map(str, image)))
    assert code == 0
    assert report["graph"]["f_vector"] == [56, 56, 1]
    series = next(c for c in report["checks"] if c["name"] == "zeta_series_consistent")
    assert series["passed"] and len(series["lhs"]) == 2 * 113


def test_zeta_group(capsys):
    code, report = run_json(capsys, "zeta", "--named", "cycle:5", "--group")
    assert code == 0
    assert report["group"]["order"] == 10
    assert report["zeta"]["text"] == "(1-z)^-5 (1+z)^5"


def test_zeta_rejects_endomorphism(capsys, tmp_path):
    path = tmp_path / "star.graph"
    path.write_text("vertices 4\n0 1\n0 2\n0 3\n")
    code, out, err = run(capsys, "zeta", str(path), "--map", "0,1,1,1")
    assert code == 1
    assert "automorphism" in err


def test_zeta_requires_map_or_group(capsys, c4_file):
    code, _, err = run(capsys, "zeta", c4_file)
    assert code == 1 and "--map" in err
    code, _, err = run(capsys, "zeta", c4_file, "--map", "0,1,2,3", "--group")
    assert code == 1 and "not both" in err


def test_zeta_refuses_a_bad_flag_choice_before_building(capsys, monkeypatch, c4_file):
    import lefgraph.cli as cli

    def refuse(g):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(cli, "build_complex", refuse)
    for extra in ((), ("--map", "0,1,2,3", "--group")):
        code, out, err = run(capsys, "zeta", c4_file, *extra)
        assert code == 1 and out == ""
        assert err.startswith("lefgraph: error: ") and "Traceback" not in err


def test_random_exhaustive(capsys):
    code, report = run_json(capsys, "random", "--n", "3", "--exhaustive")
    assert code == 0
    assert report["graphs"] == 8
    assert report["expected_lefschetz"] == {"num": 11, "den": 8}
    assert report["expected_lefschetz_text"] == "11/8"


def test_random_sampled_is_deterministic(capsys):
    args = ("random", "--n", "4", "--samples", "5", "--p", "1/3", "--seed", "9")
    code1, report1 = run_json(capsys, *args)
    code2, report2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert report1 == report2
    assert report1["mode"] == "sample"
    assert report1["edge_probability"] == {"num": 1, "den": 3}


def test_random_samples_the_complete_graph_at_the_automorphism_cap(capsys):
    """K_12 has 12! automorphisms; a sample's L(G) reads the subspaces of
    H^k fixed by its 66 coset representatives and multiplies out none."""
    code, out, err = run(capsys, "random", "--n", "12", "--samples", "2", "--p", "1")
    assert code == 0 and err == ""
    assert "expected_lefschetz_text: 1" in out.splitlines()


def test_random_needs_a_mode(capsys):
    code, _, err = run(capsys, "random", "--n", "3")
    assert code == 1 and "--exhaustive or --samples" in err
    code, _, err = run(capsys, "random", "--n", "8", "--exhaustive")
    assert code == 1 and "capped" in err
    code, _, err = run(capsys, "random", "--n", "3", "--samples", "2",
                       "--p", "2/0")
    assert code == 1 and "probability" in err


_NOT_A_PLAIN_RATIONAL = "give N, N/D with D > 0, or N.D, in ASCII digits"
_OUT_OF_RANGE = "edge probability must be between 0 and 1"


@pytest.mark.parametrize("text, message", [
    ("1_0/30", _NOT_A_PLAIN_RATIONAL),    # a digit separator
    (" 1/2 ", _NOT_A_PLAIN_RATIONAL),     # surrounding blanks
    ("\u0663/4", _NOT_A_PLAIN_RATIONAL),  # a non-ASCII digit
    ("+1/2", _NOT_A_PLAIN_RATIONAL),      # a plus sign
    ("1e-1", _NOT_A_PLAIN_RATIONAL),      # an exponent
    (".5", _NOT_A_PLAIN_RATIONAL),        # no digit before the point
    ("1/2/3", _NOT_A_PLAIN_RATIONAL),
    ("2/00", _NOT_A_PLAIN_RATIONAL),      # a zero denominator
    ("-1/2", _OUT_OF_RANGE),
    ("1.5", _OUT_OF_RANGE),
])
def test_random_refuses_an_edge_probability_that_is_not_a_plain_rational(
        capsys, text, message):
    code, out, err = run(capsys, "random", "--n", "3", "--samples", "1", f"--p={text}")
    assert code == 1 and out == ""
    assert err.startswith("lefgraph: error: ") and err.endswith(message + "\n")


@pytest.mark.parametrize("text, encoded", [
    ("1/03", {"num": 1, "den": 3}), ("0.25", {"num": 1, "den": 4}), ("1", 1), ("0", 0)])
def test_random_reads_a_plain_rational_edge_probability(capsys, text, encoded):
    code, report = run_json(capsys, "random", "--n", "3", "--samples", "1", f"--p={text}")
    assert code == 0 and report["edge_probability"] == encoded


def test_random_samples_above_the_automorphism_cap_is_an_input_error(capsys, monkeypatch):
    import lefgraph.experiments as experiments

    def refuse(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "random_graph", refuse)
    code, out, err = run(capsys, "random", "--n", "13", "--samples", "1")
    assert code == 1 and out == ""
    assert "capped at 12 vertices (got 13)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("aut", "--named", "complete:10"),
                                  ("zeta", "--named", "complete:10", "--group")])
def test_a_group_above_the_element_cap_is_an_input_error(capsys, monkeypatch, argv):
    """K_10's 10! elements would take hours to walk; both commands refuse
    before multiplying out one: only the 45 coset representatives are
    built."""
    from lefgraph import symmetry

    built = []

    def counted(*args):
        built.append(args)
        return graph_map(*args)

    graph_map = symmetry.GraphMap
    monkeypatch.setattr(symmetry, "GraphMap", counted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == ("lefgraph: error: |Aut| = 3628800 is above 362880, the largest "
                   "group whose elements are walked one by one\n")
    assert len(built) == 45


def test_a_group_at_the_element_cap_is_walked(capsys, monkeypatch):
    """K_9's order is the cap itself, so it is walked; with the cap lowered
    to 5!, K_5 is at it and K_6 above it."""
    from lefgraph import symmetry
    from lefgraph.graphs import complete_graph

    assert symmetry.automorphism_group(complete_graph(9)).order == symmetry.ELEMENT_CAP
    monkeypatch.setattr(symmetry, "ELEMENT_CAP", 120)
    code, out, err = run(capsys, "aut", "--named", "complete:5")
    assert code == 0 and err == "" and "order: 120" in out
    code, out, err = run(capsys, "zeta", "--named", "complete:5", "--group")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "aut", "--named", "complete:6")
    assert code == 1 and out == ""
    assert err == ("lefgraph: error: |Aut| = 720 is above 120, the largest "
                   "group whose elements are walked one by one\n")


def test_verify_corpus(capsys):
    code, report = run_json(capsys, "verify-corpus", "--endomorphisms", "1",
                            "--seed", "1")
    assert code == 0
    assert report["passed"] is True
    assert report["graphs"] == 32
    assert report["failures"] == []


def test_verify_corpus_refuses_a_negative_endomorphism_count(capsys):
    code, out, err = run(capsys, "verify-corpus", "--endomorphisms", "-1")
    assert code == 1 and out == ""
    assert err == ("lefgraph: error: the number of endomorphisms per graph "
                   "must be at least 0 (got -1)\n")


def test_input_errors_exit_1(capsys, tmp_path, c4_file):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.graph"))
    assert code == 1 and "No such file" in err
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices 3\n1 1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "line 2" in err
    code, _, err = run(capsys, "analyze", c4_file, "--map", "0,1")
    assert code == 1 and "4 vertices" in err
    code, _, err = run(capsys, "analyze", "--named", "nonesuch")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--named", "cycle:2")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--named", "cycle:x")
    assert code == 1 and "not an integer" in err
    code, _, err = run(capsys, "analyze", c4_file, "--named", "petersen")
    assert code == 1 and "not both" in err
    code, _, err = run(capsys, "analyze")
    assert code == 1 and "no graph given" in err


def test_huge_vertices_header_exits_1(capsys, tmp_path):
    huge = tmp_path / "huge.graph"
    huge.write_text("vertices 100000000000\n")
    code, _, err = run(capsys, "analyze", str(huge))
    assert code == 1 and "above the limit" in err


def test_huge_named_size_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "--named", "discrete:100000000000")
    assert code == 1 and "above the vertex limit" in err


def test_map_file_errors(capsys, c4_file, tmp_path):
    twice = tmp_path / "twice.map"
    twice.write_text("map 0 1 2 3\nmap 1 2 3 0\n")
    code, _, err = run(capsys, "analyze", c4_file, "--map", str(twice))
    assert code == 1 and "more than one map line" in err
    empty = tmp_path / "empty.map"
    empty.write_text("# nothing\n")
    code, _, err = run(capsys, "analyze", c4_file, "--map", str(empty))
    assert code == 1 and "no 'map' line" in err


# Each place an integer comes from outside, as argv with {x} for the integer
# and the files it reads (name -> text); each takes x = 10.
INTEGER_INPUTS = {
    "header": (["analyze", "g.graph"], {"g.graph": "vertices {x}\n"}),
    "endpoint": (["analyze", "g.graph"], {"g.graph": "vertices 11\n0 {x}\n"}),
    "named size": (["analyze", "--named", "cycle:{x}"], {}),
    "inline map": (["analyze", "--named", "cycle:11", "--map", "1,2,3,4,5,6,7,8,9,{x},0"], {}),
    "map file": (["analyze", "--named", "cycle:11", "--map", "m.map"],
                 {"m.map": "map 1 2 3 4 5 6 7 8 9 {x} 0\n"}),
    "random --n": (["random", "--n", "{x}", "--samples", "1"], {}),
    "random --samples": (["random", "--n", "3", "--samples", "{x}"], {}),
    "random --seed": (["random", "--n", "3", "--samples", "1", "--seed", "{x}"], {}),
    "verify-corpus --endomorphisms": (["verify-corpus", "--endomorphisms", "{x}"], {}),
    "verify-corpus --seed": (["verify-corpus", "--endomorphisms", "0", "--seed", "{x}"], {}),
}
# Spellings of 10 that Python's int() takes but an input should not carry: a
# digit separator, a plus sign, Arabic-Indic and fullwidth digits.  Blanks
# around an integer are separators inside a file, so they are tried on argv
# only.
BAD_TENS = ["1_0", "+10", "\u0661\u0660", "\uff11\uff10"]
BLANK_TENS = [" 10", "10 "]


def _run_integer_input(capsys, monkeypatch, tmp_path, where, x):
    argv, files = INTEGER_INPUTS[where]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text.format(x=x), encoding="utf-8")
    return run(capsys, *(a.format(x=x) for a in argv))


@pytest.mark.parametrize("where", INTEGER_INPUTS)
def test_each_integer_input_takes_ten(capsys, monkeypatch, tmp_path, where):
    code, out, err = _run_integer_input(capsys, monkeypatch, tmp_path, where, "10")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("where, spelling", [
    (where, spelling) for where, (_, files) in INTEGER_INPUTS.items()
    for spelling in BAD_TENS + (BLANK_TENS if not files else [])])
def test_integers_from_outside_are_ascii_digits_only(capsys, monkeypatch, tmp_path,
                                                     where, spelling):
    code, out, err = _run_integer_input(capsys, monkeypatch, tmp_path, where, spelling)
    assert code == 1 and out == ""
    assert "error: " in err and "Traceback" not in err


def test_an_empty_map_is_an_input_error(capsys, c4_file):
    """An empty --map is a map that names no file and no image, not a
    missing one: both commands refuse it as a map."""
    for command in ("analyze", "zeta"):
        code, out, err = run(capsys, command, c4_file, "--map", "")
        assert (code, out) == (1, "")
        assert err == ("lefgraph: error: map '' is neither a readable file "
                       "nor a comma list of integers\n")


def test_the_empty_graph_compares_one_series_term(capsys, tmp_path):
    """The empty map of the empty graph is an automorphism of order 1 on an
    empty complex; its series check still compares L(T) = 0 with the orbit
    product's first term instead of passing on two empty lists."""
    graph, image = tmp_path / "empty.graph", tmp_path / "empty.map"
    graph.write_text("vertices 0\n")
    image.write_text("map\n")
    code, report = run_json(capsys, "analyze", str(graph), "--map", str(image))
    assert code == 0 and report["map"]["kind"] == "automorphism"
    series = next(c for c in report["checks"] if c["name"] == "zeta_series_consistent")
    assert series == {"name": "zeta_series_consistent", "passed": True, "lhs": [0], "rhs": [0]}


def test_an_inline_map_is_not_shadowed_by_a_file(capsys, monkeypatch, tmp_path):
    """An argument that parses as a comma list of integers is an inline
    map, even when a file of that name exists; `./0` reads the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "0").write_text("")
    code, report = run_json(capsys, "analyze", "--named", "complete:1", "--map", "0")
    assert code == 0 and report["map"]["image"] == [0]
    code, _, err = run(capsys, "analyze", "--named", "complete:1", "--map", "./0")
    assert code == 1 and "no 'map' line found" in err
    (tmp_path / "0").write_text("map 0\n")
    code, report = run_json(capsys, "analyze", "--named", "complete:1", "--map", "./0")
    assert code == 0 and report["map"]["image"] == [0]


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonesuch-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--named", "petersen", "--format", "bogus"])
    assert exc.value.code == 1


def test_exit_code_two_flags_failed_checks():
    assert _exit_code([{"passed": True}, {"passed": True}]) == 0
    assert _exit_code([{"passed": True}, {"passed": False}]) == 2


def test_internal_linear_algebra_failure_exits_2(capsys, monkeypatch):
    from lefgraph.cohomology import CochainSpaces
    from lefgraph.linalg import NotInSpanError

    def failing(self, image, k):
        raise NotInSpanError("target is not in the span")

    monkeypatch.setattr(CochainSpaces, "induced_matrix", failing)
    code, out, err = run(capsys, "analyze", "--named", "cycle:5", "--map", "1,2,3,4,0")
    assert code == 2
    assert out == ""
    assert err == "lefgraph: error: target is not in the span\n"


def test_aut_exits_2_when_the_element_mean_differs_from_the_invariant_route(
        capsys, monkeypatch):
    """`aut` computes every element's L(T); a wrong average from the
    representatives' fixed subspaces is caught by their mean."""
    from lefgraph import symmetry

    monkeypatch.setattr(symmetry, "average_lefschetz", lambda spaces, group: 2)
    code, out, err = run(capsys, "aut", "--named", "petersen")
    assert code == 2 and out == ""
    assert err == ("lefgraph: error: the mean of L(T) over the 120 group elements "
                   "is 1, but the subspaces of H^k their generators fix give 2\n")


def _merge_the_first_two_orbits(simplex_orbits_under_group):
    def merged(cx, group):
        orbits = simplex_orbits_under_group(cx, group)
        return [orbits[0] + orbits[1]] + orbits[2:]
    return merged


def _drop_a_quotient_edge(orbigraph):
    from lefgraph.graphs import Graph
    from lefgraph.symmetry import Orbigraph

    def dropped(group):
        quotient = orbigraph(group)
        edges = sorted(quotient.graph.edges)[1:]
        return Orbigraph(Graph(quotient.graph.n, edges), quotient.classes, quotient.projection)
    return dropped


def _lose_a_record_of_the_identity(fixed_simplices):
    def lossy(cx, t):
        fixed = fixed_simplices(cx, t)
        return fixed[:-1] if t.image == tuple(range(len(t.image))) else fixed
    return lossy


@pytest.mark.parametrize("name, fault, line", [
    ("simplex_orbits_under_group", _merge_the_first_two_orbits,
     "FAIL burnside_orbit_count: 3 vs 2"),
    ("orbigraph", _drop_a_quotient_edge,
     "FAIL average_lefschetz_equals_orbigraph_euler: 1 vs 2"),
    ("fixed_simplices", _lose_a_record_of_the_identity,
     "FAIL curvature_sum_equals_average_lefschetz: 3/2 vs 1"),
])
def test_a_planted_fault_fails_its_averaging_check(capsys, monkeypatch, name, fault, line):
    """Each averaging check of `aut` can fail: a fault planted in the
    computation behind one side, never in the check, prints that check's
    FAIL line and exits 2.  On path:3 the swap of the ends has orbits
    {0, 2}, {1} and the two edges, and the quotient is one edge."""
    from lefgraph import symmetry

    monkeypatch.setattr(symmetry, name, fault(getattr(symmetry, name)))
    code, out, err = run(capsys, "aut", "--named", "path:3")
    assert code == 2 and err == ""
    assert f"  {line}" in out.splitlines()


def test_a_census_without_its_even_cycle_marks_fails_the_index_sum(capsys, monkeypatch):
    """The census reads the sign of T^p off the marked vertices of the even
    cycles of T^p.  With no vertex marked, the swap of K_2 keeps the
    orientation of its edge, so the index sum reads -1 against L = 1."""
    from lefgraph import dynamics

    monkeypatch.setattr(dynamics, "_even_cycle_marks", lambda cycles, image, p: frozenset())
    code, out, err = run(capsys, "analyze", "--named", "path:2", "--map", "1,0")
    assert code == 2 and err == ""
    assert "  FAIL lefschetz_cohomological_equals_index_sum: 1 vs -1" in out.splitlines()


def test_a_census_key_table_with_two_positions_swapped_fails_the_corpus(capsys, monkeypatch):
    """Two entries of the edges' key-to-position table of every complex are
    swapped when it is built: the census then walks wrong targets, and the
    corpus reports named FAIL lines and exits 2, with no traceback.  On
    K_3 the identity's census sees the edges (0, 1) and (0, 2) swap."""
    from lefgraph.complexes import CliqueComplex

    real = CliqueComplex.census_tables

    def swapped(cx):
        fresh = cx._census_tables is None
        primes, levels = real(cx)
        if fresh and len(levels) > 1 and len(levels[1][2]) > 1:
            position = levels[1][2]
            a, b = list(position)[:2]
            position[a], position[b] = position[b], position[a]
        return primes, levels

    monkeypatch.setattr(CliqueComplex, "census_tables", swapped)
    code, out, err = run(capsys, "verify-corpus", "--endomorphisms", "1")
    assert code == 2 and err == ""
    assert "K_3 aut (0, 1, 2): FAIL lefschetz_index_sum_equals_chain_trace: 3 vs 1" in out


def _drop_a_fixed_vertex(cycles):
    """P_0's cycle table with one fixed vertex of sign +1 fewer."""
    def dropped(pb):
        weight = cycles(pb)
        if pb.k == 0 and weight.get((1, 1)):
            weight[(1, 1)] -= 1
        return weight
    return dropped


def _one_more_cycle(cycles):
    """P_0's cycle table with one more cycle of its first length above 1."""
    def grown(pb):
        weight = cycles(pb)
        key = next((key for key in weight if key[0] > 1), None)
        if pb.k == 0 and key:
            weight[key] += key[0]
        return weight
    return grown


def _flip_a_sign_of_p1(chain):
    """Each newly built record with the sign of row 0 of P_1 flipped."""
    def flipped(spaces, image):
        before = spaces._chain
        record = chain(spaces, image)
        if record is not before and len(record.pullbacks) > 1:
            record.pullbacks[1].sign[0] *= -1
        return record
    return flipped


@pytest.mark.parametrize("owner, name, fault, argv, line", [
    ("Pullback", "cycles", _drop_a_fixed_vertex,
     ("verify-corpus", "--endomorphisms", "1"),
     "K_1 aut (0,): FAIL lefschetz_index_sum_equals_chain_trace: 1 vs 0"),
    ("Pullback", "cycles", _one_more_cycle,
     ("analyze", "--named", "path:2", "--map", "1,0"),
     "  FAIL zeta_series_consistent: [1, 1, 1, 1] vs [1, 3, 1, 3]\n"),
    ("CochainSpaces", "chain", _flip_a_sign_of_p1,
     ("analyze", "--named", "octahedron", "--map", "3,4,5,0,1,2"),
     "  FAIL chain_map_commutes: d*P vs P*d\n"),
])
def test_a_planted_chain_fault_fails_its_per_map_check(capsys, monkeypatch, owner, name,
                                                       fault, argv, line):
    """Each per-map check on the chain pullbacks can fail: a fault planted
    in a built P_k, never in the check, prints that check's FAIL and exits
    2.  The merged cycle table (`MapChain.cycles`) sums the per-degree
    tables, so a fixed simplex dropped from P_0's reaches the chain trace,
    and one more 2-cycle in P_0's reaches L(T^2), not L(T).  The flipped
    sign is in P_1 of the octahedron, where b_1 = 0, so no induced matrix
    reads it before the chain-map check does."""
    from lefgraph import cohomology

    cls = getattr(cohomology, owner)
    monkeypatch.setattr(cls, name, fault(getattr(cls, name)))
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    assert line in out


def test_zeta_group_checks_the_lefschetz_sum(capsys, monkeypatch):
    """The graph zeta's first log-derivative coefficient is the sum of L(T)
    over the group, checked against |A| times the average: 48 on the
    octahedron.  A product that leaves out the identity's census, whose
    L is chi = 2, fails the check and exits 2."""
    from lefgraph import cli
    from lefgraph.dynamics import OrbitCensus, orbit_census
    from lefgraph.zeta import zeta_product

    code, out, err = run(capsys, "zeta", "--named", "octahedron", "--group")
    assert code == 0 and err == ""
    assert out.endswith("checks:\n  PASS graph_zeta_lefschetz_sum_equals_order_times_average: "
                        "48 vs 48\n")

    def without_the_identity(cx, group):
        combined = OrbitCensus()
        for t in group:
            if t.image != tuple(range(len(t.image))):
                combined = combined.merged(orbit_census(cx, t))
        return zeta_product(combined)

    monkeypatch.setattr(cli, "graph_zeta", without_the_identity)
    code, out, err = run(capsys, "zeta", "--named", "octahedron", "--group")
    assert code == 2 and err == ""
    assert out.endswith("checks:\n  FAIL graph_zeta_lefschetz_sum_equals_order_times_average: "
                        "46 vs 48\n")


def test_a_closed_output_pipe_exits_1_quietly(monkeypatch, capsys):
    """A reader that closes the pipe early (`| head -1`) is not an error:
    nothing goes to stderr, the exit code is 1, and stdout then points at
    the null device so the flush at exit writes nowhere."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["analyze", "--named", "petersen", "--format", "json"])
    quiet = sys.stdout
    assert quiet.name == os.devnull
    quiet.close()
    assert code == 1
    assert capsys.readouterr().err == ""
