"""Per-layer spans around catroute's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every loaded catroute
module that holds it, to a wrapper that times the call; ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited, and an untraced run never
installs a tracer, so it records no spans.

Spans nest. Each span adds its duration to ``<layer>.<function>_s`` and to its
parent's child time; ``construct.fold_s`` is the self time of
``tree_categories``, i.e. the fold and canonicalisation left once the
embedding and the binary construction inside it are taken out. Counts are
derived from arguments and return values after the span has closed, so
computing them is not charged to any layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from statistics import median

TRACED = {
    "graph": ("choose_root", "bfs_spanning_tree", "diameter", "parse_edge_list"),
    "generators": ("generate",),
    "construct": (
        "embed_into_binary",
        "binary_tree_categories",
        "tree_categories",
        "path_categories",
    ),
    "categories": ("serialize_categories", "parse_categories"),
    "checks": (
        "is_internally_connected",
        "is_shattered",
        "verify_all_pairs_routing",
        "route_statistics",
    ),
    "routing": ("greedy_route",),
    "cli": ("main",),
    "bench": ("bench_one",),
}

COUNTS = (
    "construct.placeholders",
    "construct.categories_before_fold",
    "construct.categories_after_fold",
    "construct.memdim_argmax_degree",
    "categories.json_bytes",
    "checks.pairs_routed",
    "checks.hops_walked",
    "routing.hops",
    "routing.neighbors_scanned",
)

TIMES = tuple(
    f"{layer}.{name}_s"
    for layer, names in TRACED.items()
    for name in names
    if name not in ("main", "tree_categories")
) + ("construct.fold_s", "cli.construct_s", "cli.check_s")


def _argmax_degree(system, graph):
    """(memdim, degree of the smallest-id vertex attaining it) of a system."""
    counts = [m.bit_count() for m in system.vertex_masks]
    top = max(counts)
    return top, graph.degree(counts.index(top))


def _count(bucket, name, args, result):
    if name == "embed_into_binary":
        bucket["construct.placeholders"] += result.tree.n - args[0].n
    elif name == "binary_tree_categories":
        bucket["construct.categories_before_fold"] += result.num_categories
    elif name in ("tree_categories", "path_categories"):
        if name == "tree_categories":
            bucket["construct.categories_after_fold"] += result.num_categories
        graph = args[0].graph if name == "tree_categories" else args[0]
        top = _argmax_degree(result, graph)
        if top > bucket["_memdim_argmax"]:
            bucket["_memdim_argmax"] = top
            bucket["construct.memdim_argmax_degree"] = top[1]
    elif name == "serialize_categories":
        bucket["categories.json_bytes"] += len(result)
    elif name == "route_statistics":
        report, _, mean_hops = result
        pairs = args[0].n * (args[0].n - 1)
        bucket["checks.pairs_routed"] += pairs
        if report.holds:
            bucket["checks.hops_walked"] += round(mean_hops * pairs)
    elif name == "greedy_route":
        g = args[0]
        walked = result.path if not result.delivered else result.path[:-1]
        bucket["routing.hops"] += result.hops
        bucket["routing.neighbors_scanned"] += sum(g.degree(v) for v in walked)


class Tracer:
    """Collects span time and counts into the current bucket (one per set-up
    or measured round)."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self.bucket = None
        self.new_bucket()

    def new_bucket(self):
        """Start a fresh bucket and return the one that was being filled."""
        finished = self.bucket
        self.bucket = defaultdict(float)
        self.bucket["_memdim_argmax"] = (-1, 0)
        return finished

    def _wrap(self, layer, name, func):
        tracer = self

        def traced(*args, **kwargs):
            span = f"cli.{args[0][0]}_s" if name == "main" else f"{layer}.{name}_s"
            frame = [0.0]
            tracer._stack.append(frame)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._stack.pop()
                bucket = tracer.bucket
                bucket[span] += elapsed
                if name == "tree_categories":
                    bucket["construct.fold_s"] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            _count(tracer.bucket, name, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "catroute"]
        for layer, names in TRACED.items():
            home = sys.modules[f"catroute.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarise(setup_buckets, round_buckets):
    """Per-layer metrics as {name: (value, unit)}: the median over set-ups
    plus the median over measured rounds, so a layer reads what one set-up and
    one round spend in it (the argmax degree takes the larger of the two). A
    layer the workload never calls reads 0."""
    metrics = {}
    for name in TIMES + COUNTS:
        phases = [
            median(b.get(name, 0) for b in buckets)
            for buckets in (setup_buckets, round_buckets)
            if buckets
        ]
        value = max(phases) if name == "construct.memdim_argmax_degree" else sum(phases)
        if name in TIMES:
            metrics[name] = (float(value), "s")
        else:
            metrics[name] = (round(value), "bytes" if name.endswith("_bytes") else "count")
    return metrics
