"""One handle per graph: a function takes the complex `cx` or the cochain
data `spaces`, never both, and a caller's spaces are shared, not rebuilt."""

import importlib
import inspect
import pkgutil

import pytest

import lefgraph
from lefgraph.cli import main
from lefgraph.cohomology import CochainSpaces
from lefgraph.complexes import CliqueComplex, build_complex
from lefgraph.graphs import complete_graph
from lefgraph.verification import run_corpus_suite


def _modules():
    yield lefgraph
    for info in pkgutil.iter_modules(lefgraph.__path__):
        yield importlib.import_module(f"lefgraph.{info.name}")


def _public_callables():
    """(qualified name, function) for every public function of the lefgraph
    modules and every method of their public classes, constructors included."""
    for module in _modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def _handle_violations(fn) -> list[str]:
    params = inspect.signature(fn).parameters
    out = []
    if "cx" in params and "spaces" in params:
        out.append("takes both cx and spaces")
    face_rows = params.get("face_rows")
    if face_rows is not None and face_rows.default is None:
        out.append("defaults face_rows to None")
    return out


def test_the_rule_checker_catches_both_faults():
    def both(g, cx=None, spaces=None):
        pass

    def rebuilt_rows(pullbacks, face_rows=None):
        pass

    def fine(spaces, image, face_rows):
        pass

    assert _handle_violations(both) == ["takes both cx and spaces"]
    assert _handle_violations(rebuilt_rows) == ["defaults face_rows to None"]
    assert _handle_violations(fine) == []


def test_no_public_function_takes_two_handles_to_one_graph():
    checked = dict(_public_callables())
    assert len(checked) > 100
    for name in ("lefgraph.cohomology.verify_chain_map",
                 "lefgraph.cohomology.CochainSpaces.pullback",
                 "lefgraph.verification.zeta_checks",
                 "lefgraph.symmetry.verify_averaging_theorems"):
        assert name in checked
    faults = {name: v for name, fn in checked.items() if (v := _handle_violations(fn))}
    assert faults == {}


def test_the_retired_handles_are_gone():
    assert not hasattr(CochainSpaces, "of")
    assert "spaces" not in CliqueComplex.__slots__
    assert not hasattr(build_complex(complete_graph(3)), "spaces")
    cohomology = importlib.import_module("lefgraph.cohomology")
    assert not hasattr(cohomology, "pullback")
    assert not hasattr(lefgraph, "pullback")


@pytest.fixture
def spaces_built(monkeypatch):
    """The complexes of every CochainSpaces built from now on."""
    built = []
    real = CochainSpaces.__init__

    def counting(self, cx):
        built.append(cx)
        real(self, cx)

    monkeypatch.setattr(CochainSpaces, "__init__", counting)
    return built


def test_corpus_suite_builds_one_spaces_per_graph_and_proper_attractor(spaces_built):
    """32 graphs, plus one for each of the 18 sampled endomorphisms whose
    attractor is smaller than its graph."""
    report = run_corpus_suite(1, 0)
    assert (report.graphs, report.maps, report.checks) == (32, 2062, 10495)
    assert report.passed
    assert len(spaces_built) == 50


@pytest.mark.parametrize("named, image, expected", [
    ("octahedron", "3,4,5,0,1,2", 1),  # an automorphism: its own attractor
    ("star:4", "0,1,1,1,1", 2),        # folds onto the edge (0, 1)
])
def test_analyze_builds_one_spaces_per_graph(spaces_built, capsys, named, image, expected):
    assert main(["analyze", "--named", named, "--map", image]) == 0
    capsys.readouterr()
    assert len(spaces_built) == expected
