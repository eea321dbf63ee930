"""One handle per graph: a function takes the complex `cx` or the cochain
data `spaces`, never both, and a caller's spaces are shared, not rebuilt.

Handles are required: no function takes the graph `g` beside a handle that
carries it, and none defaults a handle to None to build its own.  A module
reaches another only through its public names, so no module imports a
`_private` name from another lefgraph module."""

import ast
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


# Parameters that carry the graph, so `g` beside one of them is redundant.
GRAPH_HANDLES = ("spaces", "cx", "group", "t")
# Parameters a caller must pass: a None default would build the value anew.
REQUIRED = ("spaces", "cx", "group", "fixed", "core", "product", "sweep", "face_rows")
# Knobs that no caller set: a series order, a dimension bound, a search cap.
RETIRED_KNOBS = ("series_order", "max_dim", "cap")
# The benchmark (`bench/run.py`, `bench/tests/test_blockgraph.py`) calls
# these two as (g, t, spaces), so they keep the graph and the None default.
BENCHMARK_CALL_SHAPE = ("lefgraph.dynamics.lefschetz_cohomological",
                        "lefgraph.zeta.zeta_det")


def _handle_violations(fn) -> list[str]:
    params = inspect.signature(fn).parameters
    out = []
    if "cx" in params and "spaces" in params:
        out.append("takes both cx and spaces")
    if "g" in params:
        out += [f"takes g beside {h}" for h in GRAPH_HANDLES if h in params]
    out += [f"defaults {name} to None" for name in REQUIRED
            if name in params and params[name].default is None]
    out += [f"takes {name}" for name in RETIRED_KNOBS if name in params]
    return out


def test_the_rule_checker_catches_both_faults():
    """Both kinds of fault: a second handle to one graph (cx beside spaces,
    or g beside any handle), and an optional input (a handle that defaults
    to None, or a retired knob)."""
    def both(g, cx=None, spaces=None):
        pass

    def rebuilt_rows(pullbacks, face_rows=None):
        pass

    def graph_beside_map(g, t, fixed):
        pass

    def fallback_sweep(spaces, group, sweep=None):
        pass

    def series_knob(spaces, t, product, series_order=None):
        pass

    def fine(spaces, image, face_rows):
        pass

    assert _handle_violations(both) == [
        "takes both cx and spaces", "takes g beside spaces", "takes g beside cx",
        "defaults spaces to None", "defaults cx to None"]
    assert _handle_violations(rebuilt_rows) == ["defaults face_rows to None"]
    assert _handle_violations(graph_beside_map) == ["takes g beside t"]
    assert _handle_violations(fallback_sweep) == ["defaults sweep to None"]
    assert _handle_violations(series_knob) == ["takes series_order"]
    assert _handle_violations(fine) == []


def test_no_public_function_takes_two_handles_to_one_graph():
    checked = dict(_public_callables())
    assert len(checked) > 100
    for name in ("lefgraph.cohomology.verify_chain_map",
                 "lefgraph.cohomology.CochainSpaces.chain",
                 "lefgraph.verification.zeta_checks",
                 "lefgraph.symmetry.verify_averaging_theorems",
                 *BENCHMARK_CALL_SHAPE):
        assert name in checked
    faults = {name: v for name, fn in checked.items() if (v := _handle_violations(fn))}
    assert faults == {name: ["takes g beside spaces", "takes g beside t",
                             "defaults spaces to None"]
                      for name in BENCHMARK_CALL_SHAPE}


def test_the_retired_handles_are_gone():
    assert not hasattr(CochainSpaces, "of")
    assert "spaces" not in CliqueComplex.__slots__
    assert not hasattr(build_complex(complete_graph(3)), "spaces")
    cohomology = importlib.import_module("lefgraph.cohomology")
    assert not hasattr(cohomology, "pullback")
    assert not hasattr(lefgraph, "pullback")


def _private_imports(source: str) -> list[str]:
    """The `_private` names that the module source imports from a lefgraph
    module, by a relative import or by the package name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and \
                (node.level or (node.module or "").split(".")[0] == "lefgraph"):
            out += [alias.name for alias in node.names if alias.name.startswith("_")]
    return out


def test_the_private_import_checker_catches_both_spellings():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .linalg import rank, _eliminate\n"
              "from lefgraph.graphs import _INTEGER\n"
              "from . import _cache\n")
    assert _private_imports(source) == ["_eliminate", "_INTEGER", "_cache"]


def test_no_module_imports_a_private_name_from_another():
    checked = list(_modules())
    assert len(checked) > 10
    faults = {m.__name__: names for m in checked
              if (names := _private_imports(inspect.getsource(m)))}
    assert faults == {}


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
    """32 graphs, plus one for each of the 17 sampled endomorphisms whose
    attractor is smaller than its graph."""
    report = run_corpus_suite(1, 0)
    assert (report.graphs, report.maps, report.checks) == (32, 2062, 10495)
    assert report.passed
    assert len(spaces_built) == 49


@pytest.mark.parametrize("named, image, expected", [
    ("octahedron", "3,4,5,0,1,2", 1),  # an automorphism: its own attractor
    ("star:4", "0,1,1,1,1", 2),        # folds onto the edge (0, 1)
])
def test_analyze_builds_one_spaces_per_graph(spaces_built, capsys, named, image, expected):
    assert main(["analyze", "--named", named, "--map", image]) == 0
    capsys.readouterr()
    assert len(spaces_built) == expected
