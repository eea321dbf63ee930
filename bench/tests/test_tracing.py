"""Tests for the traced-run wrappers and the benchmark's refusal to run
without lefgraph's sources.

    python3 -m pytest bench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import lefgraph.cli  # noqa: E402,F401  (tracing patches every lefgraph module)
import tracing  # noqa: E402
from lefgraph import cohomology, linalg, named_graph  # noqa: E402


def traced_counts(work):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer


def petersen_representatives():
    spaces = cohomology.CochainSpaces(lefgraph.build_complex(named_graph("petersen")))
    return spaces.representatives(1)


@pytest.fixture
def tracer():
    return traced_counts(petersen_representatives)


def test_calls_through_copied_bindings_are_counted(tracer):
    # cohomology reaches rank() only through the name it imported from linalg.
    rank = tracer.names.index("linalg.rank")
    assert tracer.kind.count(rank) > 0
    summary = tracer.summary()
    assert summary["linalg.eliminations"] > tracer.kind.count(rank)
    assert summary["cohomology.spaces_built"] == 1
    assert summary["graphs.built"] == 1


def test_uninstall_restores_every_binding(tracer):
    assert cohomology.rref is linalg.rref
    assert not hasattr(linalg.rref, "__wrapped__")
    assert not hasattr(cohomology.CochainSpaces.__init__, "__wrapped__")
    assert not hasattr(vars(linalg.RationalMatrix)["from_rows"].__func__, "__wrapped__")


def test_self_times_add_up_to_the_root_spans(tracer):
    summary = tracer.summary()
    roots = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    total = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(roots, rel=1e-9)


def test_counts_repeat_exactly():
    first = traced_counts(petersen_representatives).summary()
    second = traced_counts(petersen_representatives).summary()
    for metric, value in first.items():
        if not metric.endswith("_s"):
            assert second[metric] == value, metric


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expectation", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
