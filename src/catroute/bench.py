"""Benchmark harness: generate, construct, verify, and emit one CSV row per spec.

Columns, in order:

    seed,family,n,m,diam,memdim,all_pairs_ok,max_route_len,mean_route_len,construct_millis,ratio

``ratio`` is memdim / (diam + log2 n)^2, the measured counterpart of the
construction's guaranteed growth rate (nan when the denominator is zero, which
only happens at n = 1). Apart from ``construct_millis``, which is wall clock,
the output is byte-stable for a fixed spec list.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

from .categories import CategorySystem, membership_dimension
from .checks import route_statistics
from .construct import _category_masks
from .errors import InternalCheckError, ValidationError
from .generators import GeneratorSpec, generate
from .graph import _root_and_diameter

ALL_PAIRS_CAP = 500


@dataclass(frozen=True)
class BenchRecord:
    """Measured facts about one generated instance and its constructed system."""

    seed: int
    family: str
    n: int
    m: int
    diam: int
    memdim: int
    all_pairs_ok: bool
    max_route_len: int
    mean_route_len: float = field(metadata={"format": ".4f"})
    construct_millis: int
    ratio: float = field(metadata={"format": ".6f"})

    def csv_row(self):
        """The cells in ``CSV_HEADER`` order: a bool as ``true`` or
        ``false``, any other value through its field's format spec, if any."""
        cells = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(format(value, f.metadata.get("format", "")))
        return ",".join(cells)


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def bench_one(spec):
    """Generate one instance, construct its categories, verify all pairs.

    Specs with more than ``ALL_PAIRS_CAP`` vertices are rejected before
    anything is generated. The categories come from ``graph_categories``'
    rule. Should the halfspaces not apply, its BFS tree's root (the lowest
    vertex of minimum eccentricity, as ``choose_root`` picks it) and the
    diameter come from one pass of ``_root_and_diameter`` (the centre peel
    alone on a tree, the reach sweep otherwise). Should they apply, as on a
    path, a grid or an even cycle, no pass runs: the graph has diam(g) Theta
    classes and every vertex lies in one halfspace of each, so the diameter
    is the membership dimension.
    """
    if spec.n > ALL_PAIRS_CAP:
        raise ValidationError(
            f"n={spec.n} exceeds the all-pairs verification cap of {ALL_PAIRS_CAP}"
        )
    g = generate(spec)
    diam = None

    def root_of(g):
        nonlocal diam
        root, diam = _root_and_diameter(g)
        return root

    started = time.perf_counter()
    system = CategorySystem._of(_category_masks(g, root_of))
    construct_millis = int(round((time.perf_counter() - started) * 1000))
    memdim = membership_dimension(system)
    if diam is None:
        diam = memdim
    report, max_len, mean_len = route_statistics(g, system)
    if not report.holds:
        raise InternalCheckError(
            f"constructed system failed to route pair {report.witness[:2]} "
            f"(stuck at {report.witness[2]}) on {spec.family} n={spec.n} seed={spec.seed}"
        )
    denominator = (diam + math.log2(g.n)) ** 2
    ratio = memdim / denominator if denominator > 0 else float("nan")
    return BenchRecord(
        seed=spec.seed,
        family=spec.family,
        n=g.n,
        m=g.num_edges,
        diam=diam,
        memdim=memdim,
        all_pairs_ok=report.holds,
        max_route_len=max_len,
        mean_route_len=mean_len,
        construct_millis=construct_millis,
        ratio=ratio,
    )


def run_benchmark(specs):
    """Run every spec in order and return the CSV text, header first."""
    rows = [CSV_HEADER] + [bench_one(spec).csv_row() for spec in specs]
    return "\n".join(rows) + "\n"


def specs_from_json(payload):
    """Decode a bench spec file: a JSON list of generator spec objects."""
    if not isinstance(payload, list):
        raise ValidationError("bench spec file must be a JSON list of spec objects")
    return [GeneratorSpec.from_dict(entry) for entry in payload]
