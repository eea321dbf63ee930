"""In-memory tracing of lefgraph's modules for the benchmark's traced runs.

`Tracer.install()` wraps, from outside the package, every public function of
each layer module (every module under `lefgraph` except `reporting`) and the
public methods of its public classes, plus the constructors and operators
named in `EXTRA_METHODS`.  A wrapper is bound wherever a lefgraph module
holds the function by name: `from .linalg import rref` copies the binding
into `cohomology`, so patching `linalg.rref` alone would miss those calls.

Each call is a span (name, start, end, parent) kept in flat arrays; the
counters in `COUNTERS` are bumped at the same boundaries.  `summary()`
turns the spans of one pass into per-layer self time (span time minus the
time of its child spans) and call counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("graphs", "complexes", "cohomology", "linalg", "dynamics", "symmetry",
          "zeta", "verification", "experiments", "cli")

# Non-public methods wrapped as well, because a counter hangs on them.
EXTRA_METHODS = {
    "Graph": ("__init__",),
    "CochainSpaces": ("__init__",),
    "RationalMatrix": ("__mul__",),
    "SpanSolver": ("__init__",),
}

# Accessors called in the innermost loops.  Wrapping them would cost more
# than the work they do; their time counts toward their caller's layer.
UNWRAPPED_METHODS = {
    "Graph": ("adjacent", "degree", "neighbors"),
    "CliqueComplex": ("simplices", "count", "index_of", "contains"),
    "GraphMap": ("image_simplex", "is_identity", "is_automorphism"),
    "RationalMatrix": ("column",),
    "CochainSpaces": ("betti",),
}


def _one(args, result):
    return 1


def _matmul_cells(args, result):
    a, b = args
    return a.rows * a.cols * b.cols


def _elim_cells(args, result):
    return args[0].rows * args[0].cols


# span name -> [(counter, increment from (args, result))]
COUNTERS = {
    "graphs.Graph.__init__": [("graphs.built", _one)],
    "complexes.build_complex": [("complexes.simplices", lambda a, r: len(r))],
    "cohomology.CochainSpaces.__init__": [("cohomology.spaces_built", _one)],
    "cohomology.CochainSpaces.induced_matrix": [("cohomology.induced_matrices", _one)],
    "cohomology.pullback": [("cohomology.pullbacks", _one)],
    "cohomology.verify_chain_map": [("cohomology.chain_map_checks", _one)],
    "linalg.RationalMatrix.__mul__": [("linalg.matmuls", _one),
                                      ("linalg.matmul_cells", _matmul_cells)],
    "linalg.rref": [("linalg.eliminations", _one), ("linalg.elim_cells", _elim_cells)],
    "linalg.rank": [("linalg.eliminations", _one), ("linalg.elim_cells", _elim_cells)],
    "linalg.SpanSolver.__init__": [("linalg.solver_builds", _one)],
    "linalg.SpanSolver.solve": [("linalg.solves", _one)],
    "linalg.solve_in_span": [("linalg.solves", _one)],
    "dynamics.lefschetz_chain": [("dynamics.chain_traces", _one)],
    "dynamics.fixed_simplices": [("dynamics.fixed_scans", _one)],
    "dynamics.attractor": [("dynamics.attractors", _one)],
    "symmetry.automorphism_group": [("symmetry.aut_searches", _one),
                                    ("symmetry.group_elements", lambda a, r: r.order)],
    "zeta.orbit_census": [("zeta.censuses", _one)],
    "experiments.graph_average_lefschetz": [("experiments.graphs", _one)],
}

# metric -> span whose total time it reports (none of these recurse)
SPAN_TIMES = {
    "cohomology.chain_map_s": "cohomology.verify_chain_map",
    "cohomology.representatives_s": "cohomology.CochainSpaces.representatives",
    "zeta.det_s": "zeta.zeta_det",
}

COUNT_METRICS = tuple(dict.fromkeys(c for hooks in COUNTERS.values() for c, _ in hooks))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def clear(self):
        for a in (self.kind, self.parent, self.start, self.end):
            del a[:]
        self.stack.clear()
        self.counts.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hooks = COUNTERS.get(name, ())
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def enter() -> int:
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def leave(i: int):
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's work is not counted.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(i)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(i)
            for counter, size in hooks:
                counts[counter] += size(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls):
        skip = UNWRAPPED_METHODS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            wanted = (not attr.startswith("_") and attr not in skip) \
                or attr in EXTRA_METHODS.get(cls.__name__, ())
            if not wanted:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lefgraph.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "lefgraph" and not modname.startswith("lefgraph."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer self time and calls, span totals and counters of the
        spans recorded since the last `clear()`."""
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name = [0.0] * len(self.names)
        for i, k in enumerate(kind):
            self_s[layer_of[k]] += own[i]
            calls[layer_of[k]] += 1
            by_name[k] += end[i] - start[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for metric, span in SPAN_TIMES.items():
            out[metric] = sum(t for k, t in enumerate(by_name) if self.names[k] == span)
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        return out
