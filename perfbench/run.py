#!/usr/bin/env python3
"""catroute benchmark: three workloads, run in one process on one thread.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Each run sets its workload up at least three times (``setup_s`` is the
median), then repeats whole rounds of the workload's operations until the next
round would end past ``--seconds`` (at least one round), with passes of
single routes on fresh seeded pairs over the workload's systems between them
(on route-queries those passes are the rounds), then judges every output
against ``oracle.py``. Times are reference seconds (see
``Clock``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``tracer.py`` with ``--trace 1``.
``--size smoke`` runs the same code on tiny instances. See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque

import oracle
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3  # at least this many set-ups per run,
SETUP_SECONDS = 2.0  # and more until they add up to this long,
SETUP_LIMIT = 500  # but never more than this many.
# Share of the run spent on route passes between the timed rounds, on the
# workloads whose operations are not single routes.
ROUTE_SHARE = 0.15
RANDOM_FAMILIES = ("random-tree", "gnp-connected", "watts-strogatz")
WS = {"k": 4, "beta": 0.2}

# (family, n, params): the all-pairs ladder; bench_one caps n at 500.
LADDER = {
    "full": (
        ("random-tree", 100, {}),
        ("gnp-connected", 100, {"p": 0.06}),
        ("grid", 100, {}),
        ("watts-strogatz", 100, WS),
        ("star", 100, {}),
    ),
    "smoke": (
        ("random-tree", 40, {}),
        ("gnp-connected", 40, {"p": 0.15}),
        ("grid", 36, {}),
        ("watts-strogatz", 40, WS),
        ("star", 40, {}),
    ),
}
# (family, n, params, props passed to `catroute check`).
BUILDS = {
    "full": (
        ("star", 1300, {}, "internal,shattered"),
        ("random-tree", 1000, {}, "internal,shattered"),
        ("path", 400, {}, "internal,shattered"),
        ("cycle", 100, {}, "internal,shattered,all-pairs"),
    ),
    "smoke": (
        ("star", 30, {}, "internal,shattered"),
        ("random-tree", 60, {}, "internal,shattered"),
        ("path", 30, {}, "internal,shattered"),
        ("cycle", 12, {}, "internal,shattered,all-pairs"),
    ),
}
# (family, n, params): the graphs single-message queries are routed on.
QUERY_GRAPHS = {
    "full": (
        ("random-tree", 1000, {}),
        ("grid", 900, {}),
        ("watts-strogatz", 1000, WS),
        ("star", 1000, {}),
        ("cycle", 200, {}),
    ),
    "smoke": (
        ("random-tree", 50, {}),
        ("grid", 36, {}),
        ("watts-strogatz", 50, WS),
        ("star", 40, {}),
        ("cycle", 16, {}),
    ),
}
# Sampled pairs and categories per instance the oracle judges on build-check.
SAMPLES = {"full": 200, "smoke": 10}
# Route pairs per system in one pass of routes. Small passes, spread over the
# run, meet more of the host's fast and slow stretches than a few big ones.
ROUTE_PAIRS = {"full": 100, "smoke": 10}
ROUTE_REPEATS = 3  # timed calls per route pair; its latency is their median
CALIBRATE_EVERY_S = 0.05  # route calls between two runs of the calibration loop


def _calibration_graph():
    """A fixed 40x40 grid and 64 fixed bitmasks for the calibration loop."""
    side = 40
    adj = [[] for _ in range(side * side)]
    for v in range(side * side):
        if v % side:
            adj[v].append(v - 1)
            adj[v - 1].append(v)
        if v >= side:
            adj[v].append(v - side)
            adj[v - side].append(v)
    rng = random.Random(0)
    return adj, [rng.getrandbits(4096) for _ in range(64)]


CALIBRATION = _calibration_graph()
# What the calibration loop takes on the host of README.md's reference
# figures when nothing else slows it.
CALIBRATION_REF_S = 0.004


def calibration_loop():
    """Fixed pure-Python work of the kind catroute does: BFS over adjacency
    lists and popcounts of big-int bitmasks."""
    adj, masks = CALIBRATION
    total = 0
    for source in range(0, 1600, 200):
        dist = [-1] * len(adj)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
        total += sum(dist)
    for a in masks:
        for b in masks[:32]:
            total += (a & ~b).bit_count()
    return total


class Clock:
    """Turns measured seconds into reference seconds.

    The speed of a shared host drifts by up to 1.5x over seconds to minutes,
    for any pure-Python work alike. So every measurement is bracketed by runs
    of a fixed calibration loop, and its seconds are scaled by
    ``CALIBRATION_REF_S`` over the mean of the loop's two times: a reference
    second is a second on a host that runs the loop in ``CALIBRATION_REF_S``.
    ``start`` runs the loop before a measurement; ``scale`` runs it after and
    returns the factor for what was measured since the last run of the loop,
    which is also the first bracket of the next measurement.
    """

    def __init__(self):
        self.last = None
        self.loops = []

    def _loop(self):
        started = time.perf_counter()
        calibration_loop()
        self.last = time.perf_counter() - started
        self.loops.append(self.last)
        return self.last

    def start(self):
        self._loop()

    def scale(self):
        before = self.last
        return CALIBRATION_REF_S * 2 / (before + self._loop())

    def timed(self, times, raw, func, *args):
        """Call ``func(*args)``, appending its reference and measured seconds."""
        started = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - started
        times.append(elapsed * self.scale())
        raw.append(elapsed)
        return result


def load_package():
    """Import catroute from the checkout's ``src``; exit non-zero if absent."""
    if not os.path.isfile(os.path.join(SRC, "catroute", "__init__.py")):
        raise SystemExit(f"error: no catroute sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import catroute
    import catroute.cli  # noqa: F401  (not imported by the package itself)

    return catroute


class Judge:
    """Collects correctness problems; the run is correct when there are none."""

    def __init__(self):
        self.problems = []

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def trace(self, view, trace, s, t, label, whole_walk):
        """Judge one greedy_route trace: a walk along graph edges from s to t
        whose hop distances equal the oracle's and strictly decrease, with
        hops >= BFS distance. With ``whole_walk``, every step must also be the
        oracle's greedy choice."""
        where = f"{label}: route {s}->{t}"
        path = trace.path
        self.expect(trace.delivered and path[0] == s and path[-1] == t, f"{where} not delivered")
        steps = zip(path, path[1:])
        self.expect(all(v in view.neighbours[u] for u, v in steps), f"{where} leaves the graph's edges")
        dists = [oracle.category_distance(view.masks, v, t) for v in path]
        self.expect(list(trace.hop_distances) == dists, f"{where} distances differ from the oracle's")
        self.expect(all(a > b for a, b in zip(dists, dists[1:])), f"{where} distance not decreasing")
        self.expect(trace.hops >= view.distances_to(t)[s], f"{where} shorter than BFS distance")
        if whole_walk:
            walk, _ = oracle.greedy_walk(view.adj, view.masks, s, t)
            self.expect(list(path) == walk, f"{where} differs from the oracle's walk")


class OracleView:
    """The oracle's own picture of one graph and category system."""

    def __init__(self, g, categories):
        self.adj = oracle.adjacency(g.n, g.edges())
        self.neighbours = [set(a) for a in self.adj]
        self.counts, self.masks = oracle.memberships(g.n, categories)
        self._distances = {}

    def distances_to(self, t):
        """BFS hop distances to ``t``, kept per target."""
        if t not in self._distances:
            self._distances[t] = array.array("H", oracle.bfs(self.adj, t))
        return self._distances[t]


def sample_pairs(rng, n, count):
    return [tuple(rng.sample(range(n), 2)) for _ in range(count)]


class Routes:
    """Single greedy_route calls on fresh seeded pairs, each pair timed
    ``ROUTE_REPEATS`` times.

    Every pass draws new pairs. Each repeat routes all the pairs on new
    shallow copies of graphs and systems no call has routed on, so an
    attribute a call leaves on them (a structure built for a target on first
    use, say) does not carry into the next repeat or pass: every repeat pays
    for it again. The calls are timed in blocks of about
    ``CALIBRATE_EVERY_S``, each scaled by the ``Clock`` on its own. A pair's
    latency is the median of its repeats, which drops the one-off stalls of a
    shared host. A pass's traces are judged right after it, untimed; the
    repeats must agree, and the first pass must also match the oracle's
    greedy walk step for step.
    """

    def __init__(self, catroute, rng, per_system, labels, graphs, systems):
        self.cr = catroute
        self.rng = rng
        self.per_system = per_system
        self.systems = [
            (label, g, system, OracleView(g, system.categories))
            for label, g, system in zip(labels, graphs, systems)
        ]
        self.latencies = []
        self.passes = 0

    def run_pass(self, judge, stats, clock):
        """Route ``per_system`` fresh pairs on every system; returns each
        pair's latency in reference seconds and in measured seconds, grouped
        by system."""
        greedy_route = self.cr.routing.greedy_route
        pairs = [
            (k, s, t)
            for k, (_, g, _, _) in enumerate(self.systems)
            for s, t in sample_pairs(self.rng, g.n, self.per_system)
        ]
        # Calls run in a shuffled order, so every calibration block spans
        # all the systems and a block's error in scale is shared among them.
        order = list(range(len(pairs)))
        self.rng.shuffle(order)
        scaled, measured, traces = [], [], []
        for _ in range(ROUTE_REPEATS):
            fresh = [(copy.copy(g), copy.copy(system)) for _, g, system, _ in self.systems]
            repeat_scaled, repeat_measured, routed = [None] * len(pairs), [None] * len(pairs), [None] * len(pairs)
            block, spent = [], 0.0
            clock.start()
            for done, i in enumerate(order, 1):
                k, s, t = pairs[i]
                started = time.perf_counter()
                routed[i] = greedy_route(*fresh[k], s, t)
                elapsed = time.perf_counter() - started
                block.append((i, elapsed))
                spent += elapsed
                if done == len(order) or spent >= CALIBRATE_EVERY_S:
                    scale = clock.scale()
                    for j, took in block:
                        repeat_scaled[j] = took * scale
                        repeat_measured[j] = took
                    block, spent = [], 0.0
            scaled.append(repeat_scaled)
            measured.append(repeat_measured)
            traces.append(routed)
        times = list(map(statistics.median, zip(*scaled)))
        raw = list(map(statistics.median, zip(*measured)))
        for (k, s, t), *repeats in zip(pairs, *traces):
            label, _, _, view = self.systems[k]
            trace = repeats[0]
            judge.expect(all(r == trace for r in repeats), f"{label}: route {s}->{t} differs between repeats")
            judge.trace(view, trace, s, t, label, whole_walk=self.passes == 0)
            stats.route(trace.hops)
        self.passes += 1
        self.latencies.extend(times)
        return times, raw


class VerifyLadder:
    """bench_one over the ladder: generate, construct, diameter, all-pairs."""

    routes_between_rounds = True

    def __init__(self, catroute, seed, size, workdir):
        self.cr = catroute
        rng = random.Random(seed)
        self.specs = []
        for family, n, params in LADDER[size]:
            for _ in range(2 if family in RANDOM_FAMILIES else 1):
                self.specs.append(catroute.GeneratorSpec(family, n, rng.randrange(2**31), dict(params)))
        self.route_rng = random.Random(rng.randrange(2**31))
        self.route_pairs = ROUTE_PAIRS[size]
        self.records = None
        self.rounds_differ = 0
        self.route_stats = Tally()  # hops come from bench_one's all-pairs figures

    def setup(self):
        self.graphs = [self.cr.generators.generate(spec) for spec in self.specs]
        self.systems = [self.cr.construct.graph_categories(g) for g in self.graphs]

    def routes(self):
        labels = [f"{spec.family} n={spec.n} seed={spec.seed}" for spec in self.specs]
        return Routes(self.cr, self.route_rng, self.route_pairs, labels, self.graphs, self.systems)

    def round(self, judge, clock):
        times, raw, records = [], [], []
        clock.start()
        for spec in self.specs:
            records.append(clock.timed(times, raw, self.cr.bench.bench_one, spec))
        records = [dataclasses.replace(r, construct_millis=0) for r in records]
        if self.records is None:
            self.records = records
        self.rounds_differ += records != self.records
        return times, raw

    def check(self, judge, routes):
        judge.expect(self.rounds_differ == 0, "bench_one records differ between rounds")
        stats = Tally()
        for (label, g, system, view), record in zip(routes.systems, self.records):
            diam, mean_dist = oracle.distance_profile(view.adj)
            memdim = max(view.counts)
            pairs = g.n * (g.n - 1)
            judge.expect(record.n == g.n and record.m == g.num_edges, f"{label}: n or m wrong")
            judge.expect(record.diam == diam, f"{label}: diam {record.diam} != BFS {diam}")
            judge.expect(record.all_pairs_ok, f"{label}: all-pairs routing failed")
            judge.expect(record.memdim == memdim, f"{label}: memdim {record.memdim} != {memdim}")
            judge.expect(record.max_route_len >= diam, f"{label}: max route below diam")
            judge.expect(record.mean_route_len >= mean_dist - 1e-9, f"{label}: mean route below mean distance")
            judge.expect(diam <= memdim, f"{label}: memdim below diam")
            stats.system(memdim, len(system.categories), memdim > oracle.cushion(g.n, diam))
            stats.hops_total += record.mean_route_len * pairs
            stats.hop_pairs += pairs
            stats.hops_max = max(stats.hops_max, record.max_route_len)
        return stats


class BuildCheck:
    """`catroute construct` then `catroute check` through cli.main on files."""

    routes_between_rounds = True

    def __init__(self, catroute, seed, size, workdir):
        self.cr = catroute
        rng = random.Random(seed)
        self.instances = []
        for i, (family, n, params, props) in enumerate(BUILDS[size]):
            spec = catroute.GeneratorSpec(family, n, rng.randrange(2**31), dict(params))
            stem = os.path.join(workdir, f"{i}-{family}-{n}")
            self.instances.append((spec, props, stem + ".edges", stem + ".cats.json"))
        self.pairs = [sample_pairs(rng, spec.n, SAMPLES[size]) for spec, *_ in self.instances]
        self.category_rng = random.Random(rng.randrange(2**31))
        self.route_rng = random.Random(rng.randrange(2**31))
        self.samples = SAMPLES[size]
        self.route_pairs = ROUTE_PAIRS[size]
        self.exits = []
        self.outputs = {}
        self.outputs_changed = 0
        self.route_stats = Tally()

    def setup(self):
        self.graphs = []
        for spec, _, edges_path, _ in self.instances:
            g = self.cr.generators.generate(spec)
            with open(edges_path, "w", encoding="utf-8") as handle:
                handle.write(self.cr.graph.serialize_edge_list(g))
            self.graphs.append(g)

    def routes(self):
        """Routes over the systems the first round wrote."""
        labels = [f"{spec.family} n={spec.n}" for spec, *_ in self.instances]
        systems = [
            self.cr.categories.CategorySystem(g.n, json.loads(self.outputs[cats_path])["categories"])
            for (*_, cats_path), g in zip(self.instances, self.graphs)
        ]
        return Routes(self.cr, self.route_rng, self.route_pairs, labels, self.graphs, systems)

    def round(self, judge, clock):
        """Two timed operations per instance: construct, then check."""
        main = self.cr.cli.main
        times, raw = [], []
        clock.start()
        for _, props, edges_path, cats_path in self.instances:
            report = io.StringIO()
            built = clock.timed(times, raw, main, ["construct", "--graph", edges_path, "--method", "auto",
                                                   "--out", cats_path])
            with contextlib.redirect_stdout(report):
                checked = clock.timed(times, raw, main, ["check", "--graph", edges_path, "--cats", cats_path,
                                                         "--props", props])
            self.exits.append((cats_path, built, checked, report.getvalue()))
            with open(cats_path, encoding="utf-8") as handle:
                text = handle.read()
            self.outputs_changed += text != self.outputs.setdefault(cats_path, text)
        return times, raw

    def check(self, judge, routes):
        names = {"internal": "internally-connected", "shattered": "shattered", "all-pairs": "all-pairs-routing"}
        expected = {
            cats_path: "".join(f"{names[p]}: OK\n" for p in props.split(","))
            for _, props, _, cats_path in self.instances
        }
        for cats_path, built, checked, report in self.exits:
            judge.expect(built == 0, f"{cats_path}: construct exited {built}")
            judge.expect(checked == 0 and report == expected[cats_path], f"{cats_path}: check said {report!r}")
        judge.expect(self.outputs_changed == 0, f"{self.outputs_changed} outputs changed between rounds")
        stats = self.route_stats
        for (spec, *_, cats_path), pairs, g in zip(self.instances, self.pairs, self.graphs):
            label = f"{spec.family} n={spec.n}"
            payload = json.loads(self.outputs[cats_path])
            categories = payload["categories"]
            judge.expect(payload["n"] == g.n, f"{label}: JSON n is {payload['n']}")
            problem = oracle.canonical_problem(g.n, categories)
            judge.expect(problem is None, f"{label}: {problem}")
            view = OracleView(g, categories)
            diam = oracle.diameter(view.adj)
            memdim = max(view.counts)
            if spec.family == "path":
                judge.expect(memdim == diam, f"{label}: path memdim {memdim} != diam {diam}")
            # A build over the cushion fails its construct operation.
            stats.system(memdim, len(categories), memdim > oracle.cushion(g.n, diam))
            picked = self.category_rng.sample(range(len(categories)), min(self.samples, len(categories)))
            for index in picked:
                connected = oracle.induces_connected(view.adj, categories[index])
                judge.expect(connected, f"{label}: category {index} not connected")
            for s, t in pairs:
                judge.expect(oracle.pair_shattered(view.adj, view.masks, s, t), f"{label}: ({s},{t}) not shattered")
        return stats


class RouteQueries:
    """Single-message greedy_route calls on systems built during set-up: a
    round is one pass of fresh pairs, each pair an operation."""

    routes_between_rounds = False  # its rounds are route passes

    def __init__(self, catroute, seed, size, workdir):
        self.cr = catroute
        rng = random.Random(seed)
        self.specs = [
            catroute.GeneratorSpec(family, n, rng.randrange(2**31), dict(params))
            for family, n, params in QUERY_GRAPHS[size]
        ]
        self.route_rng = random.Random(rng.randrange(2**31))
        self.route_pairs = ROUTE_PAIRS[size]
        self.route_stats = Tally()
        self.queries = None

    def setup(self):
        self.graphs = [self.cr.generators.generate(spec) for spec in self.specs]
        self.systems = [self.cr.construct.graph_categories(g) for g in self.graphs]

    def routes(self):
        """The queries, over the last set-up's systems."""
        if self.queries is None:
            labels = [f"{spec.family} n={spec.n} seed={spec.seed}" for spec in self.specs]
            self.queries = Routes(self.cr, self.route_rng, self.route_pairs, labels, self.graphs, self.systems)
        return self.queries

    def round(self, judge, clock):
        return self.routes().run_pass(judge, self.route_stats, clock)

    def check(self, judge, routes):
        stats = self.route_stats
        for _, g, system, view in routes.systems:
            # Over the cushion, every query on that system fails.
            over = max(view.counts) > oracle.cushion(g.n, oracle.diameter(view.adj))
            stats.system(max(view.counts), len(system.categories), over * self.route_pairs)
        return stats


@dataclasses.dataclass
class Tally:
    """Figures a workload's check phase gathers for the end-to-end metrics."""

    memdims: list = dataclasses.field(default_factory=list)
    categories: int = 0
    failed: int = 0
    hops_total: float = 0.0
    hop_pairs: int = 0
    hops_max: int = 0

    def system(self, memdim, categories, failed_ops):
        """One instance's system; ``failed_ops`` operations per round failed
        on it."""
        self.memdims.append(memdim)
        self.categories += categories
        self.failed += failed_ops

    def route(self, hops):
        self.hops_total += hops
        self.hop_pairs += 1
        self.hops_max = max(self.hops_max, hops)


WORKLOADS = {
    "verify-ladder": VerifyLadder,
    "build-check": BuildCheck,
    "route-queries": RouteQueries,
}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result object printed as the last line."""
    catroute = load_package()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tracer = tracing.Tracer() if trace else None
    clock = Clock()
    try:
        bench = WORKLOADS[workload](catroute, seed, size, workdir)
        if tracer:
            tracer.install()
        setup_times, setup_raw, setup_buckets = [], [], []
        clock.start()
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_raw) < SETUP_SECONDS and len(setup_times) < SETUP_LIMIT
        ):
            clock.timed(setup_times, setup_raw, bench.setup)
            if tracer:
                setup_buckets.append(tracer.new_bucket())
        judge = Judge()
        round_buckets, rounds, walls = [], [], []
        routes, routing = None, 0.0
        began = time.perf_counter()
        while True:
            started = time.perf_counter()
            rounds.append(bench.round(judge, clock))
            if tracer:
                round_buckets.append(tracer.new_bucket())
            # Route passes go between rounds whenever they have taken at most
            # ROUTE_SHARE of the run so far, so that they meet the host's
            # fast and slow stretches alike. They are not traced.
            if bench.routes_between_rounds and routing <= ROUTE_SHARE * (time.perf_counter() - began):
                if tracer:
                    tracer.uninstall()
                routes = routes or bench.routes()
                passed = time.perf_counter()
                routes.run_pass(judge, bench.route_stats, clock)
                routing += time.perf_counter() - passed
                if tracer:
                    tracer.install()
            ended = time.perf_counter()
            walls.append(ended - started)
            if ended + statistics.median(walls) > began + seconds:
                break
        if tracer:
            tracer.uninstall()
        routes = routes or bench.routes()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stats = bench.check(judge, routes)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    operations = len(rounds[0][0])
    run_s = sum(map(statistics.median, zip(*(times for times, _ in rounds))))
    print(f"# {workload} seed={seed} size={size} trace={trace}: {len(setup_times)} set-ups, "
          f"{len(rounds)} rounds of {operations} operations, {routes.passes} route passes, "
          f"run_s {run_s:.6g} reference seconds")
    print(f"# measured seconds: setup {statistics.median(setup_raw):.6g}, "
          f"run {sum(map(statistics.median, zip(*(raw for _, raw in rounds)))):.6g}; calibration loop "
          f"{len(clock.loops)} times, median {statistics.median(clock.loops):.6g} s "
          f"(reference {CALIBRATION_REF_S} s)")
    print(f"# route latency: {len(routes.latencies)} pairs, each the median of {ROUTE_REPEATS} calls")
    for problem in judge.problems[:20]:
        print(f"# WRONG {problem}")
    if trace:
        layers = tracing.summarise(setup_buckets, round_buckets)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        figures = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "route_ms_p50": (statistics.median(routes.latencies) * 1e3, "ms"),
            "route_ms_p99": (percentile(routes.latencies, 0.99) * 1e3, "ms"),
            "memdim_max": (max(stats.memdims), "categories"),
            "memdim_sum": (sum(stats.memdims), "categories"),
            "categories_sum": (stats.categories, "categories"),
            "hops_mean": (stats.hops_total / stats.hop_pairs, "hops"),
            "hops_max": (stats.hops_max, "hops"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    return {
        "correct": not judge.problems,
        "attempted": operations * len(rounds),
        "failed": stats.failed * len(rounds),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
