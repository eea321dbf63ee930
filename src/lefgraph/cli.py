"""Command-line interface.

Subcommands: analyze, aut, zeta, random, verify-corpus.  Graphs come from an
edge-list file or from --named; maps from --map (an inline comma list of
integers, else a map file).  Reports render as text (default) or JSON with
exact numbers only.
Exit codes: 0 success, 1 input error, 2 when a verification check failed
or an internal linear-algebra step or count check failed (a bug in lefgraph,
not the input).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .cohomology import CochainSpaces
from .complexes import build_complex
from .dynamics import (
    GraphMap,
    MapError,
    attractor,
    brouwer_check,
    is_star_shaped,
    orbit_census,
)
from .experiments import expectation_exhaustive, expectation_sampled
from .graphs import (
    Graph,
    GraphError,
    connected_components,
    graph_count,
    integer,
    named_graph,
    named_graph_names,
    read_graph,
)
from .linalg import LinearAlgebraError
from .reporting import TheoremCheck, VerificationError
from .symmetry import (
    SymmetryError,
    automorphism_group,
    fixed_simplex_sweep,
    lefschetz_multiset,
    verify_averaging_theorems,
)
from .verification import (
    attractor_checks,
    group_zeta_checks,
    lefschetz_checks,
    run_corpus_suite,
    structural_checks,
    zeta_checks,
)
from .zeta import ZetaError, graph_zeta, zeta_product


# An edge probability as typed: N, N/D with D > 0, or N.D, in ASCII digits,
# with an optional '-' so that a negative one gets the range message.
# Fraction() alone also takes '+', '_' between digits, blanks, exponents and
# non-ASCII digits.
_RATIONAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*|\.[0-9]+)?")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, not 2.

    Exit code 2 is reserved for failed theorem verifications and internal
    failures.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _encode(value):
    """Make a report value JSON-ready with exact numbers."""
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return str(value)


def _check_dict(c: TheoremCheck) -> dict:
    return {"name": c.name, "passed": c.passed,
            "lhs": _encode(c.lhs), "rhs": _encode(c.rhs)}


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _render_text(report: dict, lines: list[str], indent: int = 0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _render_text(value, lines, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict) \
                and "name" in value[0] and "passed" in value[0]:
            lines.append(f"{pad}{key}:")
            for c in value:
                verdict = "PASS" if c["passed"] else "FAIL"
                lines.append(f"{pad}  {verdict} {c['name']}: "
                             f"{_plain(c['lhs'])} vs {_plain(c['rhs'])}")
        else:
            lines.append(f"{pad}{key}: {_plain(value)}")


def _plain(value) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
    if isinstance(value, list):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        lines: list[str] = []
        _render_text(report, lines)
        print("\n".join(lines))


def _load_graph(args) -> Graph:
    if args.named is not None:
        if args.graph is not None:
            raise GraphError("give either a graph file or --named, not both")
        name, _, size = args.named.partition(":")
        if size:
            try:
                k = integer(size)
            except ValueError:
                raise GraphError(f"size parameter {size!r} is not an integer") from None
            return named_graph(name, k)
        return named_graph(name)
    if args.graph is None:
        raise GraphError("no graph given; pass a file or --named <name>[:<k>]")
    return read_graph(args.graph)


def _parse_map_text(text: str) -> list[int]:
    """Parse the map file format: one 'map <i0> <i1> ...' line."""
    payload = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if payload is not None:
            raise MapError(f"line {lineno}: more than one map line")
        parts = line.split()
        if parts[0] != "map":
            raise MapError(f"line {lineno}: expected 'map <i0> <i1> ...'")
        try:
            payload = [integer(x) for x in parts[1:]]
        except ValueError:
            raise MapError(f"line {lineno}: map entries must be integers") from None
    if payload is None:
        raise MapError("no 'map' line found")
    return payload


def _load_map(g: Graph, source: str) -> GraphMap:
    """Inline comma-separated image list, or else a path to a map file.

    A source that parses as a comma list of integers is always inline, so
    a file named like one is read through a path such as `./0`."""
    try:
        image = [integer(x) for x in source.split(",")]
    except ValueError:
        if not os.path.exists(source):
            raise MapError(
                f"map {source!r} is neither a readable file nor a comma list of integers"
            ) from None
        with open(source, "r", encoding="utf-8") as fh:
            image = _parse_map_text(fh.read())
    return GraphMap(g, image)


def _graph_section(spaces: CochainSpaces) -> dict:
    g = spaces.cx.graph
    return {
        "n": g.n,
        "edge_count": g.edge_count,
        "f_vector": list(spaces.cx.f_vector()),
        "euler_characteristic": spaces.cx.euler_characteristic(),
        "betti": list(spaces.betti_numbers()),
        "star_shaped": is_star_shaped(spaces),
        "components": len(connected_components(g)),
    }


def _map_section(spaces: CochainSpaces, t: GraphMap) -> tuple[dict, list[TheoremCheck]]:
    core = attractor(t)
    census = orbit_census(spaces.cx, t)
    checks = lefschetz_checks(spaces, t, census.fixed)
    if not t.is_automorphism():
        checks += attractor_checks(spaces, t, core)
    section = {
        "image": list(t.image),
        "kind": t.kind,
        "attractor_size": core.graph.n,
        "fixed_simplices": [
            {"simplex": list(r.simplex), "dim": r.dim,
             "perm_sign": r.perm_sign, "index": r.index}
            for r in census.fixed],
        "lefschetz": sum(r.index for r in census.fixed),
    }
    br = brouwer_check(spaces, t, census.fixed)
    if br.applicable:
        checks.append(TheoremCheck("brouwer_fixed_clique_exists",
                                   br.fixed_count > 0, br.fixed_count, "> 0"))
        section["brouwer_witness"] = list(br.witness) if br.witness else None
    if t.is_automorphism():
        product = zeta_product(census)
        checks += zeta_checks(spaces, t, product)
        section["zeta"] = product.to_json()
    else:
        section["zeta"] = None
    return section, checks


def _exit_code(all_checks: list[dict]) -> int:
    return 2 if any(not c["passed"] for c in all_checks) else 0


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    spaces = CochainSpaces(build_complex(g))
    checks = structural_checks(spaces)
    report = {"graph": _graph_section(spaces)}
    if args.map is not None:
        t = _load_map(g, args.map)
        section, map_checks = _map_section(spaces, t)
        report["map"] = section
        checks += map_checks
    report["checks"] = [_check_dict(c) for c in checks]
    _emit(report, args.format)
    return _exit_code(report["checks"])


def cmd_aut(args) -> int:
    g = _load_graph(args)
    spaces = CochainSpaces(build_complex(g))
    group = automorphism_group(g)
    multiset = lefschetz_multiset(spaces, group)
    averaging = verify_averaging_theorems(
        spaces, group, fixed_simplex_sweep(spaces.cx, group))
    report = {
        "graph": _graph_section(spaces),
        "group": {
            "order": group.order,
            "lefschetz_multiset": [[value, count] for value, count in multiset.items()],
            "average_lefschetz": averaging.average,
        },
    }
    if args.orbigraph:
        quotient = averaging.quotient
        report["orbigraph"] = {
            "classes": [list(c) for c in quotient.classes],
            "n": quotient.graph.n,
            "edge_count": quotient.graph.edge_count,
            "euler_characteristic": averaging.quotient_chi,
        }
    if args.curvature:
        report["curvature"] = [
            {"simplex": list(x), "kappa": _encode(v)}
            for x, v in averaging.curvature.values.items()]
    report["findings"] = averaging.findings
    report["checks"] = [_check_dict(c) for c in averaging.checks]
    _emit(report, args.format)
    return _exit_code(report["checks"])


def cmd_zeta(args) -> int:
    if args.map is not None and args.group:
        raise GraphError("give either --map or --group, not both")
    if args.map is None and not args.group:
        raise GraphError("zeta needs --map <image> or --group")
    g = _load_graph(args)
    cx = build_complex(g)
    spaces = CochainSpaces(cx)
    report = {"graph": _graph_section(spaces)}
    checks: list[TheoremCheck] = []
    if args.map is not None:
        t = _load_map(g, args.map)
        if not t.is_automorphism():
            raise MapError("zeta functions are defined for automorphisms; "
                           "this map is a non-bijective endomorphism")
        product = zeta_product(orbit_census(cx, t))
        checks += zeta_checks(spaces, t, product)
        report["map"] = {"image": list(t.image), "kind": t.kind}
        report["zeta"] = product.to_json()
    else:
        group = automorphism_group(g)
        zeta = graph_zeta(cx, group)
        checks += group_zeta_checks(spaces, group, zeta)
        report["group"] = {"order": group.order}
        report["zeta"] = zeta.to_json()
    report["checks"] = [_check_dict(c) for c in checks]
    _emit(report, args.format)
    return _exit_code(report["checks"])


def cmd_random(args) -> int:
    if args.exhaustive:
        value = expectation_exhaustive(args.n)
        report = {
            "n": args.n,
            "mode": "exhaustive",
            "graphs": graph_count(args.n),
            "expected_lefschetz": _encode(value),
            "expected_lefschetz_text": _fraction_text(value),
        }
    else:
        if args.samples is None:
            raise GraphError("random needs --exhaustive or --samples")
        if not _RATIONAL.fullmatch(args.p):
            raise GraphError(f"invalid edge probability {args.p!r}: give N, N/D "
                             "with D > 0, or N.D, in ASCII digits")
        p = Fraction(args.p)
        value = expectation_sampled(args.n, p, args.samples, args.seed)
        report = {
            "n": args.n,
            "mode": "sample",
            "samples": args.samples,
            "edge_probability": _encode(p),
            "seed": args.seed,
            "expected_lefschetz": _encode(value),
            "expected_lefschetz_text": _fraction_text(value),
        }
    _emit(report, args.format)
    return 0


def cmd_verify_corpus(args) -> int:
    report = run_corpus_suite(endomorphisms_per_graph=args.endomorphisms,
                              seed=args.seed)
    payload = {
        "graphs": report.graphs,
        "maps": report.maps,
        "checks": report.checks,
        "failures": report.failures,
        "findings": report.findings,
        "passed": report.passed,
    }
    _emit(payload, args.format)
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lefgraph",
                     description="Exact Lefschetz fixed-point invariants of "
                                 "finite simple graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        p.add_argument("graph", nargs="?", help="edge-list file")
        p.add_argument("--named", metavar="NAME[:K]",
                       help="named graph instead of a file; names: "
                            + ", ".join(named_graph_names()))
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="complex, cohomology, and optional map analysis")
    add_graph_source(p)
    p.add_argument("--map", metavar="IMAGE|FILE",
                   help="vertex image list i0,i1,... or a map file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("aut", help="automorphism group and averaging theorems")
    add_graph_source(p)
    p.add_argument("--curvature", action="store_true",
                   help="include the per-simplex curvature table")
    p.add_argument("--orbigraph", action="store_true",
                   help="include the quotient graph")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("zeta", help="zeta function of a map or the whole group")
    add_graph_source(p)
    p.add_argument("--map", metavar="IMAGE|FILE",
                   help="vertex image list i0,i1,... or a map file")
    p.add_argument("--group", action="store_true",
                   help="compute the graph zeta function over Aut(G)")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("random", help="expected Lefschetz number over random graphs")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="average over all labeled graphs on n vertices")
    p.add_argument("--samples", type=integer, default=None,
                   help="number of sampled graphs (sampling mode)")
    p.add_argument("--p", default="1/2",
                   help="edge probability as an exact rational (default 1/2)")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify-corpus", help="run the full invariant suite")
    p.add_argument("--endomorphisms", type=integer, default=25,
                   help="random endomorphisms per corpus graph (default %(default)s)")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (LinearAlgebraError, VerificationError) as exc:
        # Raised by lefgraph's own arithmetic or checks, not by the input.
        print(f"lefgraph: error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, MapError, SymmetryError, ZetaError, ValueError) as exc:
        print(f"lefgraph: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the output early (`| head`): stop quietly, and
        # let the flush at exit write to nowhere.
        sys.stdout = open(os.devnull, "w")
        return 1
    except OSError as exc:
        print(f"lefgraph: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
