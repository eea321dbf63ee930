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
    assert len(report["checks"]) == 10
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


def test_random_needs_a_mode(capsys):
    code, _, err = run(capsys, "random", "--n", "3")
    assert code == 1 and "--exhaustive or --samples" in err
    code, _, err = run(capsys, "random", "--n", "8", "--exhaustive")
    assert code == 1 and "capped" in err
    code, _, err = run(capsys, "random", "--n", "3", "--samples", "2",
                       "--p", "2/0")
    assert code == 1 and "probability" in err


def test_random_samples_above_the_automorphism_cap_is_an_input_error(capsys, monkeypatch):
    import lefgraph.experiments as experiments

    def refuse(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(experiments, "random_graph", refuse)
    code, out, err = run(capsys, "random", "--n", "13", "--samples", "1")
    assert code == 1 and out == ""
    assert "capped at 12 vertices (got 13)" in err
    assert "Traceback" not in err


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
