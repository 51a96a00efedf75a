"""Command-line workbench. Subcommands: construct, route, check, stats, bench, fixtures.

Exit codes: 0 success, 1 property or fixture failure (including a stuck
route), 2 usage or input errors, 3 internal error (a must-hold invariant
failed, which means a bug in this package).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .bench import run_benchmark, specs_from_json
from .categories import parse_categories, serialize_categories
from .checks import (
    INTERNALLY_CONNECTED,
    SHATTERED,
    is_internally_connected,
    is_shattered,
    verify_all_pairs_routing,
)
from .construct import _category_masks, _halfspaces
from .errors import GenerationError, InternalCheckError, ParseError, ValidationError
from .fixtures import run_fixtures
from .graph import diameter, parse_edge_list
from .routing import format_trace, greedy_route


@functools.cache
def build_parser():
    """Built once per process; each ``parse_args`` fills a fresh namespace."""
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
        choices=["auto"],
        help="accepted for existing command lines; auto is its only value",
    )
    p.add_argument("--out", help="write the category JSON here (default: stdout)")
    p.set_defaults(handler=_construct)

    p = sub.add_parser("route", help="greedily route one message")
    p.add_argument("--graph", required=True)
    p.add_argument("--cats", required=True, help="category JSON file")
    p.add_argument("--from", dest="source", required=True, type=int)
    p.add_argument("--to", dest="target", required=True, type=int)
    p.add_argument("--trace", action="store_true", help="print every hop")
    p.set_defaults(handler=_route)

    p = sub.add_parser("check", help="verify structural properties")
    p.add_argument("--graph", required=True)
    p.add_argument("--cats", required=True)
    p.add_argument(
        "--props",
        default="internal,shattered,all-pairs",
        help="comma list from: internal, shattered, all-pairs",
    )
    p.set_defaults(handler=_check)

    p = sub.add_parser(
        "stats",
        help="print n, m, diam and (with --cats) the distinct categories, memdim, "
        "the vertex attaining it and its degree",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--cats")
    p.set_defaults(handler=_stats)

    p = sub.add_parser("bench", help="run generator specs and emit CSV statistics")
    p.add_argument("--spec", required=True, help="JSON list of generator specs")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(handler=_bench)

    p = sub.add_parser("fixtures", help="re-check the pinned reference instances")
    p.set_defaults(handler=_fixtures)
    return parser


def _read(path):
    """The text of an input file; a file that is not UTF-8 is a ParseError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _construct(args):
    g = parse_edge_list(_read(args.graph))
    # The file holds the category masks alone, so no system is built.
    return 0, serialize_categories(_category_masks(g))


def _route(args):
    g = parse_edge_list(_read(args.graph))
    system = parse_categories(_read(args.cats), g.n)
    trace = greedy_route(g, system, args.source, args.target)
    text = format_trace(trace)
    if not args.trace:
        # Only the outcome line, DELIVERED or STUCK.
        text = text.rpartition("\n")[2]
    return (0 if trace.delivered else 1), text + "\n"


def _render_witness(report):
    if report.property_name == INTERNALLY_CONNECTED:
        return f"category {report.witness}"
    if report.property_name == SHATTERED:
        return f"{report.witness}"
    s, t, stuck = report.witness
    return f"({s},{t}) stuck at {stuck}"


def _check(args):
    g = parse_edge_list(_read(args.graph))
    system = parse_categories(_read(args.cats), g.n)
    # Built per call, so that a check rebound on this module after import (as
    # perfbench/tracer.py does) is the one that runs.
    checkers = {
        "internal": is_internally_connected,
        "shattered": is_shattered,
        "all-pairs": verify_all_pairs_routing,
    }
    requested = [key.strip() for key in args.props.split(",") if key.strip()]
    if not requested:
        raise ValidationError("the property list is empty")
    unknown = [key for key in requested if key not in checkers]
    if unknown:
        raise ValidationError(f"unknown properties: {', '.join(unknown)}")
    lines = []
    failed = False
    for key in requested:
        report = checkers[key](g, system)
        if report.holds:
            lines.append(f"{report.property_name}: OK\n")
        else:
            failed = True
            lines.append(f"{report.property_name}: FAIL witness={_render_witness(report)}\n")
    return (1 if failed else 0), "".join(lines)


def _stats(args):
    g = parse_edge_list(_read(args.graph))
    # A partial cube with diam(g) Theta classes has two halfspaces per class,
    # and its recognition is faster than the reach sweep. A tree skips it, as
    # in the construction: the centre peel gives its diameter.
    halfspaces = _halfspaces(g) if g.num_edges != g.n - 1 else None
    diam = diameter(g) if halfspaces is None else halfspaces.num_categories // 2
    text = f"n={g.n}\nm={g.num_edges}\ndiam={diam}\n"
    if args.cats:
        system = parse_categories(_read(args.cats), g.n)
        counts = list(map(int.bit_count, system.vertex_masks))
        memdim = max(counts)
        vertex = counts.index(memdim)
        # Duplicate sets in the file collapse on parsing: distinct categories.
        text += f"categories={system.num_categories}\n"
        text += f"memdim={memdim}\nmemdim_vertex={vertex}\nmemdim_degree={g.degree(vertex)}\n"
    return 0, text


def _bench(args):
    text = _read(args.spec)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # as in parse_categories
        raise ParseError(f"invalid bench spec JSON: {exc}") from None
    return 0, run_benchmark(specs_from_json(payload))


def _fixtures(args):
    outcomes = run_fixtures()
    text = "".join(
        f"{'PASS' if outcome.passed else 'FAIL'} {outcome.name} ({outcome.detail})\n"
        for outcome in outcomes
    )
    return (0 if all(outcome.passed for outcome in outcomes) else 1), text


def main(argv=None):
    """Run one subcommand and return its exit code. Each handler returns
    ``(exit code, text)`` and only this function writes, so a call that
    raises writes nothing to stdout and leaves ``--out`` untouched. A usage
    error argparse finds returns 2 (``--help`` and ``--version`` return 0)
    after argparse has written its message."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        code, text = args.handler(args)
        # Only construct and bench have --out. sys.stdout is looked up here,
        # at call time, so that contextlib.redirect_stdout reaches it.
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ParseError, ValidationError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
