"""End-to-end acceptance suite.

Each criterion is one test, run in file order, printing a single PASS line
with its headline numbers (visible with ``pytest -s``). Every route produced
along the way is audited against the strict-decrease contract; the final
criterion asserts the audit saw real traffic and zero violations.
"""

from __future__ import annotations

import math
import time

from catroute import (
    binary_tree_categories,
    category_distance,
    check_implications,
    diameter,
    embed_into_binary,
    generate,
    graph_categories,
    greedy_route,
    impossibility_pair,
    is_internally_connected,
    is_shattered,
    membership_dimension,
    path_categories,
    tree_categories,
    verify_all_pairs_routing,
)
from catroute.checks import iter_all_pair_routes
from catroute.fixtures import counterexample_cycle
from catroute.generators import GeneratorSpec

from conftest import (
    random_binary_tree,
    random_category_system,
    random_connected_graph,
    random_tree,
    seeded,
    tree_height,
)

SEED_BASE = 0x5EED

# Route audit shared across criteria; criterion 9 reads it back.
AUDIT = {"routes": 0, "recomputed": 0, "violations": []}
_RECOMPUTE_EVERY = 16


def _audit_trace(trace, g, system, memdim):
    AUDIT["routes"] += 1
    problems = []
    hops = trace.hop_distances
    if any(a <= b for a, b in zip(hops, hops[1:])):
        problems.append("hop distances not strictly decreasing")
    d0 = category_distance(system, trace.source, trace.target)
    if hops[0] != d0:
        problems.append("recorded initial distance disagrees with a recount")
    if not (trace.hops <= d0 <= memdim):
        problems.append("hop count exceeds the distance or dimension bound")
    for a, b in zip(trace.path, trace.path[1:]):
        if b not in g.adjacency[a]:
            problems.append(f"path step {a}->{b} is not an edge")
            break
    if trace.delivered and (trace.path[-1] != trace.target or hops[-1] != 0):
        problems.append("delivered trace does not end at the target with d=0")
    if AUDIT["routes"] % _RECOMPUTE_EVERY == 0:
        AUDIT["recomputed"] += 1
        for v, d in zip(trace.path, hops):
            if category_distance(system, v, trace.target) != d:
                problems.append("per-hop distance disagrees with a recount")
                break
    if problems:
        AUDIT["violations"].append((trace.source, trace.target, problems))


def _audited_all_pairs(g, system):
    """Sweep every ordered pair, auditing each trace; returns the max hop count
    and the first failing pair (or None)."""
    memdim = membership_dimension(system)
    failure = None
    max_hops = 0
    for trace in iter_all_pair_routes(g, system):
        _audit_trace(trace, g, system, memdim)
        if trace.delivered:
            if trace.hops > max_hops:
                max_hops = trace.hops
        elif failure is None:
            failure = (trace.source, trace.target, trace.stuck_at)
    return max_hops, failure


def _report(number, detail):
    print(f"PASS criterion {number}: {detail}")


def test_criterion_1_cycle_counterexample():
    started = time.perf_counter()
    g, system = counterexample_cycle()
    u, v, w, x = 0, 1, 2, 3
    assert is_internally_connected(g, system).holds
    assert is_shattered(g, system).holds
    trace = greedy_route(g, system, v, x)
    _audit_trace(trace, g, system, membership_dimension(system))
    assert not trace.delivered and trace.stuck_at == v
    distances = tuple(category_distance(system, a, x) for a in (u, v, w))
    assert distances == (2, 2, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"counterexample cycle exact behavior reproduced ({elapsed:.3f}s)")


def test_criterion_2_path_construction_exact():
    started = time.perf_counter()
    for n in (2, 3, 10, 100):
        g = generate(GeneratorSpec("path", n))
        system = path_categories(g)
        assert membership_dimension(system) == diameter(g) == n - 1
        assert is_internally_connected(g, system).holds
        assert is_shattered(g, system).holds
        memdim = membership_dimension(system)
        delivered = 0
        for trace in iter_all_pair_routes(g, system):
            _audit_trace(trace, g, system, memdim)
            assert trace.delivered
            delivered += 1
            step = 1 if trace.target >= trace.source else -1
            expected = tuple(range(trace.source, trace.target + step, step))
            assert trace.path == expected  # the unique shortest path
        assert delivered == n * (n - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, f"paths n in (2, 3, 10, 100): dimension = diameter, all shortest ({elapsed:.2f}s)")


def test_criterion_3_binary_tree_construction():
    started = time.perf_counter()
    rng = seeded(SEED_BASE + 3)
    worst_slack = 0.0
    for _ in range(200):
        tree = random_binary_tree(rng, rng.randint(1, 200))
        system = binary_tree_categories(tree)
        h = tree_height(tree)
        bound = (h + 1) * (2 * h + 3)
        memdim = membership_dimension(system)
        assert memdim <= bound
        worst_slack = max(worst_slack, memdim / bound)
        assert is_internally_connected(tree.graph, system).holds
        assert is_shattered(tree.graph, system).holds
        _, failure = _audited_all_pairs(tree.graph, system)
        assert failure is None
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, f"200 binary trees verified; worst dimension/bound = {worst_slack:.3f} ({elapsed:.1f}s)")


def test_criterion_4_embedding_preserves_ancestry():
    started = time.perf_counter()
    rng = seeded(SEED_BASE + 4)
    placeholder_total = 0
    for index in range(200):
        n = rng.randint(2, 500)
        tree = random_tree(rng, n, skew="hub" if index % 2 else "uniform")
        embedding = embed_into_binary(tree)
        b = embedding.tree
        placeholder_total += b.n - n
        # Exhaustive over ordered original pairs: ancestry is preserved exactly
        # iff every vertex keeps the same set of original ancestors.
        for vertex in range(n):
            original_ancestors = set()
            walk = vertex
            while walk is not None:
                original_ancestors.add(walk)
                walk = tree.parent[walk]
            embedded_ancestors = set()
            walk = vertex
            while walk is not None:
                if walk < n:  # placeholders take the ids from n up
                    embedded_ancestors.add(walk)
                walk = b.parent[walk]
            assert embedded_ancestors == original_ancestors
        bound = 3 * tree_height(tree) + 2 * math.ceil(math.log2(n)) + 3
        assert tree_height(b) <= bound
    elapsed = time.perf_counter() - started
    _report(4, f"200 embeddings exact on ancestry, heights in bound, "
               f"{placeholder_total} placeholders total ({elapsed:.1f}s)")


def _mixed_family_specs():
    sizes = {
        "gnp-connected": (20, 40, 60, 90, 120, 160, 200),
        "random-tree": (10, 30, 60, 100, 150, 200),
        "path": (10, 25, 45, 70, 100),
        "cycle": (12, 30, 60, 100, 140),
        "grid": ((3, 4), (5, 5), (6, 8), (9, 10), (10, 12)),
        "star": (10, 50, 101, 150, 200),
        "complete": (5, 12, 25, 40, 60),
        "watts-strogatz": ((24, 4, 0.1), (60, 4, 0.2), (100, 4, 0.3), (150, 6, 0.2)),
    }
    families = list(sizes)
    specs = []
    for index in range(200):
        family = families[index % len(families)]
        choice = sizes[family][(index // len(families)) % len(sizes[family])]
        seed = SEED_BASE + 500 + index
        if family == "gnp-connected":
            specs.append(GeneratorSpec(family, choice, seed, {"p": 3.0 / choice}))
        elif family == "grid":
            rows, cols = choice
            specs.append(GeneratorSpec(family, rows * cols, seed, {"rows": rows, "cols": cols}))
        elif family == "watts-strogatz":
            n, k, beta = choice
            specs.append(GeneratorSpec(family, n, seed, {"k": k, "beta": beta}))
        else:
            specs.append(GeneratorSpec(family, choice, seed))
    return specs


def test_criterion_5_graph_construction_routes_everything():
    started = time.perf_counter()
    max_ratio = 0.0
    max_ratio_spec = None
    for spec in _mixed_family_specs():
        g = generate(spec)
        system = graph_categories(g)
        diam = diameter(g)
        memdim = membership_dimension(system)
        assert memdim >= diam
        cushion = 16 * (diam + math.ceil(math.log2(g.n)) + 1) ** 2
        assert memdim <= cushion, f"{spec}: memdim {memdim} above {cushion}"
        _, failure = _audited_all_pairs(g, system)
        assert failure is None, f"{spec}: routing failed at {failure}"
        denominator = (diam + math.log2(g.n)) ** 2
        ratio = memdim / denominator
        if ratio > max_ratio:
            max_ratio, max_ratio_spec = ratio, spec
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(5, f"200 mixed graphs all route; max memdim/(diam+log2 n)^2 = "
               f"{max_ratio:.3f} on {max_ratio_spec.family} n={max_ratio_spec.n} ({elapsed:.1f}s)")


def test_criterion_6_unshattered_systems_fail_at_their_witness():
    started = time.perf_counter()
    rng = seeded(SEED_BASE + 6)
    confirmed = 0
    attempts = 0
    while confirmed < 200:
        attempts += 1
        assert attempts < 4000, "random instances kept coming out shattered"
        n = rng.randint(2, 24)
        g = random_connected_graph(rng, n)
        system = random_category_system(rng, n)
        report = is_shattered(g, system)
        if report.holds:
            continue
        source, target = report.witness
        trace = greedy_route(g, system, source, target)
        _audit_trace(trace, g, system, membership_dimension(system))
        assert not trace.delivered
        assert not verify_all_pairs_routing(g, system).holds
        confirmed += 1
    elapsed = time.perf_counter() - started
    _report(6, f"200 unshattered systems fail at their witness pair "
               f"({attempts} draws, {elapsed:.1f}s)")


def test_criterion_7_tree_sufficiency_never_violated():
    started = time.perf_counter()
    rng = seeded(SEED_BASE + 7)
    for index in range(200):
        n = rng.randint(1, 150)
        tree = random_tree(rng, n, skew="hub" if index % 3 == 0 else "uniform")
        system = tree_categories(tree)
        # Raises InternalCheckError on any implication violation.
        report = check_implications(tree.graph, system)
        assert report.is_tree
        assert report.tree_sufficiency_applied
        assert report.routing.holds
        _, failure = _audited_all_pairs(tree.graph, system)
        assert failure is None
    elapsed = time.perf_counter() - started
    _report(7, f"200 trees: connected + shattered construction always routes ({elapsed:.1f}s)")


def test_criterion_8_impossibility_cross_test():
    started = time.perf_counter()
    first, second = impossibility_pair()
    s_mid, u_mid, t = 0, 1, 2

    built_first = graph_categories(first)
    assert verify_all_pairs_routing(first, built_first).holds
    cross = greedy_route(second, built_first, u_mid, t)
    _audit_trace(cross, second, built_first, membership_dimension(built_first))
    assert not cross.delivered

    built_second = graph_categories(second)
    assert verify_all_pairs_routing(second, built_second).holds
    cross = greedy_route(first, built_second, s_mid, t)
    _audit_trace(cross, first, built_second, membership_dimension(built_second))
    assert not cross.delivered

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(8, f"both chain systems verified at home and stuck away ({elapsed:.3f}s)")


def test_criterion_9_route_audit_clean():
    if AUDIT["routes"] == 0:
        # Running this test alone: generate representative traffic first.
        g = generate(GeneratorSpec("random-tree", 40, SEED_BASE))
        _audited_all_pairs(g, graph_categories(g))
    assert AUDIT["routes"] > 0
    assert AUDIT["recomputed"] > 0
    assert AUDIT["violations"] == [], AUDIT["violations"][:5]
    _report(9, f"{AUDIT['routes']} routes audited, {AUDIT['recomputed']} fully "
               f"recomputed, 0 violations")
