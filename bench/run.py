#!/usr/bin/env python3
"""lefgraph benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one client, single-threaded, in-process):

  corpus       lefgraph verify-corpus --endomorphisms 1 --seed SEED
  expectation  expectation_exhaustive(5), which must equal 1319/1024
  large-graph  lefgraph analyze FILE --map MAP --format json, on a seeded
               disjoint union of blocks and an automorphism (blockgraph.py)

A run repeats the workload's call on the same inputs for about --seconds and
checks every pass's exact output.  With --trace 0 it samples a fixed
calibration task all through each pass and prints the end-to-end metrics,
the pass time as a multiple of the calibration task's; with --trace 1 it
makes one untraced pass, then at least two traced passes, and prints the
per-layer metrics (see tracing.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Run from anywhere; lefgraph is imported from `src/` next to this directory,
and scratch files go to `.bench_run/` there.  Without `src/lefgraph` the
run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

CORPUS_ENDOMORPHISMS = 1
# verify-corpus totals for 1 endomorphism per graph.  The corpus graphs and
# their automorphism groups are fixed and every endomorphism gets the same
# checks, so these do not depend on the seed.
CORPUS_TOTALS = {"graphs": 32, "maps": 2062, "checks": 10495}
EXPECTATION_N = 5
EXPECTATION_VALUE = Fraction(1319, 1024)
SETUP_PROBES = 15
CALIBRATION_SEED = 0
CALIBRATION_SIZE = 16
CALIBRATION_VERTICES = 45
CALIBRATION_INTERVAL = 0.1  # seconds of workload between calibration samples


class Outcome:
    """What one pass or reference check contributes to the result line."""

    def __init__(self, ops: int = 1, failed: int = 0, out_bytes: int = 0):
        self.ops = ops              # theorem checks plus one exact-output gate
        self.failed = failed
        self.out_bytes = out_bytes  # CLI report size


def load_lefgraph():
    if not (SRC / "lefgraph" / "__init__.py").is_file():
        sys.exit(f"bench: no lefgraph sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import lefgraph
    import lefgraph.cli
    if Path(lefgraph.__file__).resolve().parent != SRC / "lefgraph":
        sys.exit(f"bench: imported lefgraph from {lefgraph.__file__}, not {SRC}")
    return lefgraph


def run_cli(argv: list[str]) -> tuple[int, str]:
    """lefgraph's command line, in-process; the module attribute is looked up
    at call time so that traced runs reach the wrapper."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["lefgraph.cli"].main(argv)
    return code, buf.getvalue()


class Corpus:
    name = "corpus"

    def __init__(self, seed: int, workdir: Path):
        self.argv = ["verify-corpus", "--endomorphisms", str(CORPUS_ENDOMORPHISMS),
                     "--seed", str(seed), "--format", "json"]

    def references(self) -> list[Outcome]:
        return []

    def call(self):
        return run_cli(self.argv)

    def check(self, raw) -> Outcome:
        code, out = raw
        report = json.loads(out)
        good = code == 0 and report["passed"] is True and not report["failures"] \
            and all(report[k] == v for k, v in CORPUS_TOTALS.items())
        return Outcome(ops=1 + report["checks"], failed=len(report["failures"]) + (not good),
                       out_bytes=len(out.encode()))


class Expectation:
    name = "expectation"

    def __init__(self, seed: int, workdir: Path):
        pass  # the input is fixed by n

    def references(self) -> list[Outcome]:
        return []

    def call(self):
        return sys.modules["lefgraph.experiments"].expectation_exhaustive(EXPECTATION_N)

    def check(self, raw) -> Outcome:
        return Outcome(failed=int(raw != EXPECTATION_VALUE))


class LargeGraph:
    name = "large-graph"

    def __init__(self, seed: int, workdir: Path):
        import blockgraph
        from lefgraph import read_graph, validate_map
        self.expected = blockgraph.generate(seed)
        graph_path, map_path = self.expected.write(workdir)
        self.graph = read_graph(graph_path)
        self.map = validate_map(self.graph, self.expected.image)
        self.argv = ["analyze", str(graph_path), "--map", str(map_path), "--format", "json"]

    def references(self) -> list[Outcome]:
        """The Lefschetz number from the maps induced on cohomology, untimed;
        the report computes it as a sum of fixed-simplex indices."""
        from lefgraph import CochainSpaces, build_complex, lefschetz_cohomological
        spaces = CochainSpaces(build_complex(self.graph))
        value = lefschetz_cohomological(self.graph, self.map, spaces)
        return [Outcome(failed=int(value != self.expected.lefschetz))]

    def call(self):
        return run_cli(self.argv)

    def check(self, raw) -> Outcome:
        code, out = raw
        report = json.loads(out)
        graph, section = report["graph"], report["map"]
        zeta = section["zeta"]
        failed_checks = sum(not c["passed"] for c in report["checks"])
        good = code == 0 \
            and tuple(graph["f_vector"]) == self.expected.f_vector \
            and tuple(graph["betti"]) == self.expected.betti \
            and section["kind"] == "automorphism" \
            and section["lefschetz"] == self.expected.lefschetz \
            and self.expected.zeta_matches(zeta["numerator"], zeta["denominator"])
        return Outcome(ops=1 + len(report["checks"]), failed=failed_checks + (not good),
                       out_bytes=len(out.encode()))


WORKLOADS = {w.name: w for w in (Corpus, Expectation, LargeGraph)}


def _calibration_inputs():
    rng = random.Random(CALIBRATION_SEED)
    matrix = [[Fraction(rng.choice((-1, 0, 0, 1))) for _ in range(CALIBRATION_SIZE)]
              for _ in range(CALIBRATION_SIZE)]
    adjacency = {v: set() for v in range(CALIBRATION_VERTICES)}
    for u, v in itertools.combinations(range(CALIBRATION_VERTICES), 2):
        if rng.random() < 0.35:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return matrix, adjacency


CALIBRATION_INPUTS = _calibration_inputs()


def _eliminate(matrix) -> int:
    m = [row[:] for row in matrix]
    rank = 0
    for c in range(len(m)):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / top[c]
                m[r] = [x - f * y for x, y in zip(m[r], top)]
        rank += 1
    return rank


def _cliques(adjacency) -> int:
    index = {(v,): v for v in adjacency}
    layer = list(index)
    while layer:
        layer = [s + (w,) for s in layer
                 for w in adjacency[s[-1]] if w > s[-1] and all(w in adjacency[u] for u in s)]
        for s in layer:
            index[s] = len(index)
    total = 0
    for s in index:
        if len(s) > 1:
            for k in range(len(s)):
                total += (-1) ** k * index[s[:k] + s[k + 1:]]
    return total


def calibration_task() -> int:
    """Fixed pure-Python work of the kinds lefgraph does, running none of
    lefgraph's code: Gaussian elimination over Q, and clique enumeration
    with boundary lookups in a dict.  Its time measures how fast the host
    runs Python at that moment, whatever commit is measured."""
    matrix, adjacency = CALIBRATION_INPUTS
    return _eliminate(matrix) + _cliques(adjacency)


class Calibrator:
    """Interrupts a pass every CALIBRATION_INTERVAL seconds, from a timer
    signal, to time the calibration task, so that the host's speed is
    sampled all through the pass."""

    def __init__(self):
        self.times = []
        self.active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.active:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL)

    def _sample(self):
        gc.disable()  # a collection here would be of the workload's garbage
        start = time.perf_counter()
        calibration_task()
        self.times.append(time.perf_counter() - start)
        gc.enable()

    def start(self):
        self.times = []
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL)

    def stop(self) -> list[float]:
        """The calibration times since start(), at least one."""
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.times:
            self._sample()
        return self.times


def timed_pass(workload, calibrator=None) -> tuple[float, Outcome]:
    """Wall time of one call and its checked outcome.  With a calibrator,
    the time is of the workload alone, as a multiple of the mean
    calibration time sampled during the call: the host switches between
    speeds about 2x apart every few seconds, so the mean, not the median,
    follows the average speed a long pass runs at."""
    gc.collect()  # each pass starts from the same heap
    if calibrator:
        calibrator.start()
    start = time.perf_counter()
    raised = False
    try:
        raw = workload.call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raised = True
    finally:
        wall = time.perf_counter() - start
        if calibrator:
            samples = calibrator.stop()
            wall = (wall - sum(samples)) / statistics.fmean(samples)
    if raised:
        return wall, Outcome(failed=1)
    try:
        return wall, workload.check(raw)
    except (KeyError, TypeError, ValueError):
        traceback.print_exc(file=sys.stderr)
        return wall, Outcome(failed=1)


def run_passes(workload, seconds: float, on_pass=None, min_passes: int = 1,
               calibrator=None) -> list[tuple[float, Outcome]]:
    """At least `min_passes` passes; another only while it should end within
    `seconds`."""
    began = time.perf_counter()
    results, durations = [], []
    while True:
        results.append(timed_pass(workload, calibrator))
        durations.append(time.perf_counter() - began - sum(durations))
        print(f"bench: pass {len(results)}: {results[-1][0]:.4f} in {durations[-1]:.4f} s",
              file=sys.stderr)
        if on_pass:
            on_pass()
        elapsed = time.perf_counter() - began
        if len(results) >= min_passes and elapsed + statistics.median(durations) > seconds:
            return results


def setup_seconds(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter until the inputs are loaded
    and it has exited."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def end_to_end(workload, args, outcomes: list[Outcome]) -> dict:
    began = time.perf_counter()
    setup = [setup_seconds(args.workload, args.seed)]

    def probe_setup():
        # Spread over the run, so that the median sees the host's speeds in
        # the proportions the whole run does.
        while len(setup) < SETUP_PROBES * (time.perf_counter() - began) / args.seconds:
            setup.append(setup_seconds(args.workload, args.seed))

    # The host's speed drifts by up to 2x, over seconds to minutes.  Timing
    # each pass against the calibration task sampled during it cancels most
    # of that drift, which a statistic over one run's passes cannot.
    results = run_passes(workload, args.seconds, probe_setup, calibrator=Calibrator())
    outcomes += [o for _, o in results]
    ok = sum(o.ops - o.failed for o in outcomes) / sum(o.ops for o in outcomes)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "rel_wall": (statistics.median(w for w, _ in results), "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "pass_ratio": (ok, "1"),
    }


def traced(workload, args, outcomes: list[Outcome]) -> dict:
    import tracing
    wall, outcome = timed_pass(workload)
    outcomes.append(outcome)
    tracer = tracing.Tracer()
    summaries = []

    def collect():
        summaries.append(tracer.summary())
        tracer.clear()

    tracer.install()
    try:
        results = run_passes(workload, max(args.seconds - wall, 0), collect, min_passes=2)
    finally:
        tracer.uninstall()
    outcomes += [o for _, o in results]
    metrics = {}
    for metric, value in summaries[0].items():
        if metric.endswith("_s"):
            metrics[metric] = (statistics.median(s[metric] for s in summaries), "s")
        elif any(s[metric] != value for s in summaries):
            sys.exit(f"bench: {metric} differs between traced passes")
        else:
            metrics[metric] = (value, "count")
    metrics["cli.report_bytes"] = (results[0][1].out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(w for w, _ in results) / wall, "1")
    return metrics


def setup_probe(args):
    load_lefgraph()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        WORKLOADS[args.workload](args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    load_lefgraph()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        outcomes = workload.references()
        metrics = (traced if args.trace else end_to_end)(workload, args, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
