"""Golden CLI outputs: each command's report must match its file byte for byte.

The files under `golden/` were written by the CLI before the chain level was
reworked for speed, so any change to a reported number, to the order of
entries or to the JSON layout shows here.  To write one again after a change
that is meant to alter the output, run from the repository root, e.g.

    PYTHONPATH=src python -m lefgraph.cli zeta --named octahedron --group \
        --format json > tests/golden/zeta_octahedron_group.json
"""

from pathlib import Path

import pytest

from lefgraph.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "analyze_octahedron_antipode.json":
        ["analyze", "--named", "octahedron", "--map", "3,4,5,0,1,2"],
    "aut_petersen.json":
        ["aut", "--named", "petersen", "--curvature", "--orbigraph"],
    "zeta_octahedron_group.json":
        ["zeta", "--named", "octahedron", "--group"],
    "verify_corpus_e1_s5.json":
        ["verify-corpus", "--endomorphisms", "1", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(capsys, name):
    code = main(CASES[name] + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()
