"""Command-line workbench. Subcommands: construct, route, check, stats, bench, fixtures.

Exit codes: 0 success, 1 property or fixture failure (including a stuck
route), 2 usage or input errors, 3 internal error (a must-hold invariant
failed, which means a bug in this package).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bench import run_benchmark, specs_from_json
from .categories import membership_dimension, parse_categories, serialize_categories
from .checks import (
    INTERNALLY_CONNECTED,
    SHATTERED,
    is_internally_connected,
    is_shattered,
    verify_all_pairs_routing,
)
from .construct import METHODS, construct_categories
from .errors import GenerationError, InternalCheckError, ParseError, ValidationError
from .fixtures import run_fixtures
from .graph import diameter, parse_edge_list
from .routing import format_trace, greedy_route


def build_parser():
    parser = argparse.ArgumentParser(
        prog="catroute",
        description=(
            "Construct category systems over connected graphs, route greedily "
            "with them, and verify the structural properties that make routing work."
        ),
    )
    parser.add_argument("--version", action="version", version=f"catroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a category system for a graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument(
        "--method",
        default="auto",
        choices=METHODS,
        help="construction to use; auto picks the most specific applicable",
    )
    p.add_argument("--out", help="write the category JSON here (default: stdout)")

    p = sub.add_parser("route", help="greedily route one message")
    p.add_argument("--graph", required=True)
    p.add_argument("--cats", required=True, help="category JSON file")
    p.add_argument("--from", dest="source", required=True, type=int)
    p.add_argument("--to", dest="target", required=True, type=int)
    p.add_argument("--trace", action="store_true", help="print every hop")

    p = sub.add_parser("check", help="verify structural properties")
    p.add_argument("--graph", required=True)
    p.add_argument("--cats", required=True)
    p.add_argument(
        "--props",
        default="internal,shattered,all-pairs",
        help="comma list from: internal, shattered, all-pairs",
    )

    p = sub.add_parser(
        "stats",
        help="print n, m, diam and (with --cats) memdim, the vertex attaining it and its degree",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--cats")

    p = sub.add_parser("bench", help="run generator specs and emit CSV statistics")
    p.add_argument("--spec", required=True, help="JSON list of generator specs")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    sub.add_parser("fixtures", help="re-check the pinned reference instances")
    return parser


def _load_graph(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle)


def _load_categories(path, n):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_categories(handle, n)


def _construct(args):
    text = serialize_categories(construct_categories(_load_graph(args.graph), args.method))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _route(args):
    g = _load_graph(args.graph)
    system = _load_categories(args.cats, g.n)
    trace = greedy_route(g, system, args.source, args.target)
    if args.trace:
        print(format_trace(trace, g))
    elif trace.delivered:
        print(f"DELIVERED in {trace.hops} hops")
    else:
        print(f"STUCK at {g.label(trace.stuck_at)} (d={trace.hop_distances[-1]})")
    return 0 if trace.delivered else 1


def _render_witness(report):
    if report.property_name == INTERNALLY_CONNECTED:
        return f"category {report.witness}"
    if report.property_name == SHATTERED:
        return f"{report.witness}"
    s, t, stuck = report.witness
    return f"({s},{t}) stuck at {stuck}"


def _check(args):
    g = _load_graph(args.graph)
    system = _load_categories(args.cats, g.n)
    # Built per call, so that a check rebound on this module after import (as
    # perfbench/tracer.py does) is the one that runs.
    checkers = {
        "internal": is_internally_connected,
        "shattered": is_shattered,
        "all-pairs": verify_all_pairs_routing,
    }
    requested = [key.strip() for key in args.props.split(",") if key.strip()]
    unknown = [key for key in requested if key not in checkers]
    if unknown:
        raise ValidationError(f"unknown properties: {', '.join(unknown)}")
    failed = False
    for key in requested:
        report = checkers[key](g, system)
        if report.holds:
            print(f"{report.property_name}: OK")
        else:
            failed = True
            print(f"{report.property_name}: FAIL witness={_render_witness(report)}")
    return 1 if failed else 0


def _stats(args):
    g = _load_graph(args.graph)
    print(f"n={g.n}")
    print(f"m={g.num_edges}")
    print(f"diam={diameter(g)}")
    if args.cats:
        system = _load_categories(args.cats, g.n)
        memdim = membership_dimension(system)
        vertex = [m.bit_count() for m in system.vertex_masks].index(memdim)
        print(f"memdim={memdim}")
        print(f"memdim_vertex={vertex}")
        print(f"memdim_degree={g.degree(vertex)}")
    return 0


def _bench(args):
    with open(args.spec, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid bench spec JSON: {exc}") from None
    specs = specs_from_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            run_benchmark(specs, sink=handle)
    else:
        run_benchmark(specs, sink=sys.stdout)
    return 0


def _fixtures(args):
    outcomes = run_fixtures()
    failed = False
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{status} {outcome.name} ({outcome.detail})")
        failed = failed or not outcome.passed
    return 1 if failed else 0


_HANDLERS = {
    "construct": _construct,
    "route": _route,
    "check": _check,
    "stats": _stats,
    "bench": _bench,
    "fixtures": _fixtures,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ValidationError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
