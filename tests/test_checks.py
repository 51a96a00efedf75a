import math
from itertools import count

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catroute import (
    CategorySystem,
    GeneratorSpec,
    Graph,
    RootedTree,
    check_implications,
    diameter,
    generate,
    graph_categories,
    greedy_route,
    is_internally_connected,
    is_shattered,
    membership_dimension,
    route_statistics,
    tree_categories,
    verify_all_pairs_routing,
)
from catroute import checks
from catroute.checks import (
    ALL_PAIRS_ROUTING,
    INTERNALLY_CONNECTED,
    SHATTERED,
    PropertyReport,
    _uncertified,
    iter_all_pair_routes,
)
from catroute.errors import InternalCheckError, ValidationError
from catroute.fixtures import counterexample_cycle
from catroute.graph import bfs_spanning_tree

import conftest
from conftest import (
    cycle_graph,
    oracle_all_pairs_routing,
    oracle_internally_connected,
    oracle_lower_bound_violation,
    oracle_shattered,
    oracle_sperner_bound,
    path_graph,
    random_category_system,
    random_connected_graph,
    random_tree,
    seeded,
    star_graph,
)

# Prefix/suffix sets for the path 0-1-2-3-4, enumerated by hand.
PATH5 = path_graph(5)
PATH5_SETS = CategorySystem(
    5,
    [
        (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3),
        (1, 2, 3, 4), (2, 3, 4), (3, 4), (4,),
    ],
)


class TestInternallyConnected:
    def test_counterexample_holds(self):
        g, s = counterexample_cycle()
        report = is_internally_connected(g, s)
        assert report.holds and report.witness is None

    def test_path_endpoints_fail(self):
        g = path_graph(3)
        s = CategorySystem(3, [(0, 2)])
        report = is_internally_connected(g, s)
        assert not report.holds
        assert report.witness == 0
        assert s.categories[report.witness] == (0, 2)

    def test_singletons_hold(self):
        g = path_graph(4)
        s = CategorySystem(4, [(v,) for v in range(4)])
        assert is_internally_connected(g, s).holds

    def test_witness_is_first_in_canonical_order(self):
        g = Graph(4, [(0, 1), (2, 3)])
        s = CategorySystem(4, [(1, 2), (0, 3), (0, 2)])
        report = is_internally_connected(g, s)
        assert not report.holds
        assert report.witness == 0
        assert report.property_name == INTERNALLY_CONNECTED


class TestShattered:
    def test_counterexample_holds(self):
        g, s = counterexample_cycle()
        assert is_shattered(g, s).holds

    def test_no_categories_fails_at_first_pair(self):
        g = Graph(2, [(0, 1)])
        report = is_shattered(g, CategorySystem(2, []))
        assert not report.holds
        assert report.witness == (0, 1)

    def test_path_construction_is_shattered(self):
        assert is_shattered(PATH5, PATH5_SETS).holds

    def test_neighbor_witness_may_be_the_target(self):
        # Only category is {0, 1}: for (s=0, t=1), u must be t itself.
        g = Graph(3, [(0, 1), (1, 2)])
        s = CategorySystem(3, [(1, 2)])
        report = is_shattered(g, s)
        assert oracle_shattered(g, s) == report.witness

    def test_reads_no_member_tuples(self, monkeypatch):
        g = generate(GeneratorSpec("grid", 30, 1))
        s = graph_categories(g)
        monkeypatch.setattr(CategorySystem, "categories", property(lambda self: pytest.fail("member tuples built")))
        assert is_shattered(g, s).holds


class TestVerifyAllPairsRouting:
    def test_counterexample_fails_at_v_to_x(self):
        g, s = counterexample_cycle()
        report = verify_all_pairs_routing(g, s)
        assert not report.holds
        assert report.witness == (1, 3, 1)

    def test_path_construction_routes_everything(self):
        report = verify_all_pairs_routing(PATH5, PATH5_SETS)
        assert report.holds
        assert sum(1 for _ in iter_all_pair_routes(PATH5, PATH5_SETS)) == 20

    def test_single_vertex_is_vacuous(self):
        assert verify_all_pairs_routing(Graph(1), CategorySystem(1, [])).holds

    def test_report_name(self):
        g, s = counterexample_cycle()
        assert verify_all_pairs_routing(g, s).property_name == ALL_PAIRS_ROUTING

    @pytest.mark.parametrize("universe", [2, 4])
    def test_system_over_another_universe_is_rejected(self, universe):
        g = path_graph(3)
        s = CategorySystem(universe, [(0, 1)])
        for check in (is_internally_connected, verify_all_pairs_routing, route_statistics):
            with pytest.raises(ValidationError):
                check(g, s)
        with pytest.raises(ValidationError):
            next(iter_all_pair_routes(g, s))


# Every generator family at a size whose all-pairs sweep is quick.
CONSTRUCTED = [
    ("path", 12, {}),
    ("cycle", 12, {}),
    ("cycle", 13, {}),
    ("grid", 16, {}),
    ("star", 9, {}),
    ("complete", 7, {}),
    ("random-tree", 30, {}),
    ("gnp-connected", 30, {"p": 0.15}),
    ("watts-strogatz", 30, {}),
]


class TestSweepMatchesSingleRoutes:
    def test_every_trace_agrees_with_greedy_route(self):
        g, s = counterexample_cycle()
        for trace in iter_all_pair_routes(g, s):
            single = greedy_route(g, s, trace.source, trace.target)
            assert single == trace

    def test_agreement_on_random_instances(self):
        rng = seeded(97)
        for _ in range(25):
            n = rng.randint(2, 20)
            g = random_connected_graph(rng, n)
            s = random_category_system(rng, n)
            for trace in iter_all_pair_routes(g, s):
                assert greedy_route(g, s, trace.source, trace.target) == trace

    @pytest.mark.parametrize("family, n, params", CONSTRUCTED)
    def test_agreement_on_constructed_systems(self, family, n, params):
        g = generate(GeneratorSpec(family, n, 0, params))
        s = graph_categories(g)
        for trace in iter_all_pair_routes(g, s):
            assert greedy_route(g, s, trace.source, trace.target) == trace

    @pytest.mark.parametrize("family, n, params", CONSTRUCTED)
    def test_agreement_with_a_tenth_of_the_categories_dropped(self, family, n, params):
        g = generate(GeneratorSpec(family, n, 0, params))
        sets = graph_categories(g).categories
        dropped = set(seeded(n).sample(range(len(sets)), max(1, len(sets) // 10)))
        s = CategorySystem(n, [members for i, members in enumerate(sets) if i not in dropped])
        stuck_after_a_hop = 0
        for trace in iter_all_pair_routes(g, s):
            assert greedy_route(g, s, trace.source, trace.target) == trace
            stuck_after_a_hop += not trace.delivered and trace.hops > 0
        assert stuck_after_a_hop

    def test_agreement_when_stuck_at_a_leaf_beside_the_predecessor(self):
        # Toward 3, 1 ties 2 and wins by id, and 1's only neighbour is 0.
        # Dropped constructed categories never strand a route at a leaf:
        # they stay internally connected, so one that holds a leaf and the
        # target holds the leaf's neighbour too.
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        s = CategorySystem(4, [(1, 3), (0, 2), (2, 3)])
        for trace in iter_all_pair_routes(g, s):
            assert greedy_route(g, s, trace.source, trace.target) == trace


class TestCheckImplications:
    def test_unshattered_system_fails_and_branch_applies(self):
        g = Graph(2, [(0, 1)])
        report = check_implications(g, CategorySystem(2, []))
        assert report.failure_necessity_applied
        assert not report.shattered.holds
        assert not report.routing.holds
        assert report.is_tree

    def test_counterexample_violates_nothing(self):
        g, s = counterexample_cycle()
        report = check_implications(g, s)
        assert not report.is_tree
        assert report.internally_connected.holds
        assert report.shattered.holds
        assert not report.routing.holds
        assert not report.failure_necessity_applied
        assert not report.tree_sufficiency_applied

    def test_tree_with_constructed_system_routes_everywhere(self):
        rng = seeded(7)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(1, 40))
            s = tree_categories(tree)
            report = check_implications(tree.graph, s)
            assert report.tree_sufficiency_applied
            assert report.routing.holds

    # The implications always hold, so only a faulty verifier can break
    # one: each of the three tests below fakes one and expects its raise.
    def test_routing_past_an_unshattered_system_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(checks, "verify_all_pairs_routing", lambda g, s: PropertyReport(ALL_PAIRS_ROUTING, True))
        with pytest.raises(InternalCheckError) as err:
            check_implications(Graph(2, [(0, 1)]), CategorySystem(2, []))
        assert str(err.value) == "system is not shattered yet all pairs routed successfully"

    def test_a_shattered_witness_that_routes_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(checks, "is_shattered", lambda g, s: PropertyReport(SHATTERED, False, (0, 4)))
        monkeypatch.setattr(
            checks, "verify_all_pairs_routing", lambda g, s: PropertyReport(ALL_PAIRS_ROUTING, False, (0, 4, 0))
        )
        with pytest.raises(InternalCheckError) as err:
            check_implications(PATH5, PATH5_SETS)
        assert str(err.value) == "shattered witness pair (0, 4) routed successfully"

    def test_a_tree_system_that_fails_to_route_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(
            checks, "verify_all_pairs_routing", lambda g, s: PropertyReport(ALL_PAIRS_ROUTING, False, (1, 3, 2))
        )
        with pytest.raises(InternalCheckError) as err:
            check_implications(PATH5, PATH5_SETS)
        assert str(err.value) == (
            "tree with an internally connected, shattered system failed to route pair (1, 3)"
        )


class TestWitnessRecheck:
    def test_connectivity_witness_reproduces(self):
        g = path_graph(4)
        s = CategorySystem(4, [(0, 3), (1, 2)])
        report = is_internally_connected(g, s)
        assert not report.holds
        assert oracle_internally_connected(g, s) == report.witness

    def test_shattered_witness_reproduces_and_fails_to_route(self):
        g = path_graph(3)
        s = CategorySystem(3, [(0, 1)])
        report = is_shattered(g, s)
        assert not report.holds
        assert oracle_shattered(g, s) == report.witness
        src, dst = report.witness
        assert not greedy_route(g, s, src, dst).delivered

    def test_routing_witness_reproduces(self):
        g, s = counterexample_cycle()
        src, dst, stuck = verify_all_pairs_routing(g, s).witness
        trace = greedy_route(g, s, src, dst)
        assert not trace.delivered
        assert trace.stuck_at == stuck


def _instances():
    return st.builds(
        lambda n, seed: (
            random_connected_graph(seeded(seed), n),
            random_category_system(seeded(seed + 1), n),
        ),
        st.integers(min_value=1, max_value=18),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_shattered_matches_definition_oracle(pair):
    g, s = pair
    report = is_shattered(g, s)
    assert report.witness == oracle_shattered(g, s)
    assert report.holds == (report.witness is None)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_internal_connectivity_matches_definition_oracle(pair):
    g, s = pair
    report = is_internally_connected(g, s)
    assert report.witness == oracle_internally_connected(g, s)


def _hub_instances():
    """Stars and hub-skewed trees whose hub has degree above 8, with the tree
    construction's sets (many hold the hub), some of them with the hub taken
    out (they split apart), and a few random sets."""

    def build(star, n, seed):
        rng = seeded(seed)
        tree = RootedTree([None] + [0] * (n - 1), 0) if star else random_tree(rng, n, "hub")
        hub = max(range(n), key=tree.graph.degree)
        sets = [set(members) for members in tree_categories(tree).categories]
        holding = [members for members in sets if hub in members and len(members) > 2]
        for members in rng.sample(holding, rng.randint(0, min(len(holding), 5))):
            sets.append(members - {hub})
        for _ in range(rng.randint(0, 3)):
            sets.append(set(rng.sample(range(n), rng.randint(2, n))) | {hub})
        return tree.graph, CategorySystem(n, sets)

    return st.builds(
        build,
        st.booleans(),
        st.integers(min_value=2 * 8, max_value=80),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=40, deadline=None)
@given(_hub_instances())
def test_internal_connectivity_on_hubs_matches_definition_oracle(pair):
    g, s = pair
    assume(max(map(g.degree, range(g.n))) > 8)
    report = is_internally_connected(g, s)
    assert report.witness == oracle_internally_connected(g, s)
    assert report.holds == (report.witness is None)


def _assert_internal_matches_oracle(g, s):
    report = is_internally_connected(g, s)
    assert report.witness == oracle_internally_connected(g, s)
    assert report.holds == (report.witness is None)


def _loose_instances():
    """Random graphs, most with cycles and many disconnected, with random
    sets, so categories go past the forest certificate to the search."""

    def build(n, p, seed):
        rng = seeded(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        return Graph(n, edges), random_category_system(rng, n, max_sets=12)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=18),
        st.sampled_from([0.1, 0.2, 0.35, 0.6]),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=80, deadline=None)
@given(_loose_instances())
def test_internal_connectivity_on_loose_graphs_matches_definition_oracle(pair):
    _assert_internal_matches_oracle(*pair)


def _disconnected_instances():
    """Two or three random connected pieces side by side, with random sets
    (which may span pieces) and sets drawn inside one piece."""

    def build(sizes, seed):
        rng = seeded(seed)
        edges, pieces, offset = [], [], 0
        for size in sizes:
            piece = random_connected_graph(rng, size)
            edges.extend((u + offset, v + offset) for u, v in piece.edges())
            pieces.append(range(offset, offset + size))
            offset += size
        sets = [set(members) for members in random_category_system(rng, offset).categories]
        for piece in pieces:
            for _ in range(rng.randint(0, 4)):
                sets.append(set(rng.sample(piece, rng.randint(1, len(piece)))))
        return Graph(offset, edges), CategorySystem(offset, sets)

    return st.builds(
        build,
        st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=3),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=80, deadline=None)
@given(_disconnected_instances())
def test_internal_connectivity_on_disconnected_graphs_matches_definition_oracle(pair):
    _assert_internal_matches_oracle(*pair)


class TestForestCertificate:
    """``is_internally_connected`` first certifies the categories with one top
    member on a BFS spanning forest, then searches the rest."""

    def test_set_inside_a_later_component_is_searched(self):
        # Components {0, 1} and the path 2-3-4: {2, 4} has a top member at
        # each end, and only a forest that reaches the second component
        # sees them.
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        s = CategorySystem(5, [(0, 1), (2, 4)])
        report = is_internally_connected(g, s)
        assert not report.holds and report.witness == 1

    def test_set_spanning_components_fails(self):
        g = Graph(4, [(0, 1), (2, 3)])
        s = CategorySystem(4, [(0, 1), (1, 2), (2, 3)])
        assert is_internally_connected(g, s).witness == 1

    def test_set_joined_only_by_a_non_tree_edge_holds(self):
        # On the 4-cycle the forest from 0 has edges 0-1, 0-3 and 1-2, so
        # {2, 3} has two top members and is joined by the edge 2-3 alone.
        g = cycle_graph(4)
        s = CategorySystem(4, [(2, 3), (1, 2, 3)])
        assert _uncertified(g, s.vertex_masks) == 0b11
        assert is_internally_connected(g, s).holds

    def test_first_failing_category_is_the_witness(self):
        # Three sets split apart; the second one is connected.
        g = path_graph(6)
        s = CategorySystem(6, [(0, 2), (1, 2, 3), (1, 4), (3, 5)])
        assert is_internally_connected(g, s).witness == 0
        s = CategorySystem(6, [(1, 2, 3), (1, 4), (3, 5)])
        assert is_internally_connected(g, s).witness == 1

    @pytest.mark.parametrize(
        "g, s",
        [
            (Graph(0), CategorySystem(0, [])),
            (Graph(1), CategorySystem(1, [])),
            (Graph(1), CategorySystem(1, [(0,)])),
            (path_graph(4), CategorySystem(4, [])),
            (Graph(3), CategorySystem(3, [])),
        ],
    )
    def test_degenerate_instances_hold(self, g, s):
        assert is_internally_connected(g, s) == PropertyReport(INTERNALLY_CONNECTED, True)
        assert oracle_internally_connected(g, s) is None
        assert _uncertified(g, s.vertex_masks) == 0

    def test_on_a_tree_only_disconnected_categories_are_uncertified(self):
        rng = seeded(41)
        for _ in range(60):
            n = rng.randint(1, 30)
            tree = random_tree(rng, n, rng.choice(["uniform", "hub"]))
            sets = [members for members in tree_categories(tree).categories if rng.random() < 0.3]
            sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))]
            s = CategorySystem(n, sets)
            split = sum(
                1 << i
                for i, members in enumerate(s.categories)
                if oracle_internally_connected(tree.graph, CategorySystem(n, [members])) is not None
            )
            assert _uncertified(tree.graph, s.vertex_masks) == split

    def test_certified_categories_are_connected(self):
        rng = seeded(43)
        for _ in range(60):
            n = rng.randint(1, 16)
            g = random_connected_graph(rng, n)
            s = random_category_system(rng, n, max_sets=12)
            uncertified = _uncertified(g, s.vertex_masks)
            for i, members in enumerate(s.categories):
                if not uncertified >> i & 1:
                    assert oracle_internally_connected(g, CategorySystem(n, [members])) is None


def _constructed_cycle_and_grid_instances():
    """Cycles and grids with ``graph_categories`` sets: the BFS tree they are
    built on is not the check's forest, so connected sets go to the search.
    Some sets lose a member, which may split them."""

    def build(family, n, seed, drop):
        rng = seeded(seed)
        g = generate(GeneratorSpec(family, n, seed))
        sets = [set(members) for members in graph_categories(g).categories]
        for members in sets:
            if len(members) > 2 and rng.random() < drop:
                members.discard(rng.choice(sorted(members)))
        return g, CategorySystem(n, sets)

    return st.builds(
        build,
        st.sampled_from(["cycle", "grid"]),
        st.integers(min_value=3, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.05, 0.3]),
    )


@settings(max_examples=40, deadline=None)
@given(_constructed_cycle_and_grid_instances())
def test_internal_connectivity_on_constructed_cycles_and_grids_matches_oracle(pair):
    _assert_internal_matches_oracle(*pair)


@pytest.mark.parametrize("family, n", [("cycle", 40), ("grid", 49), ("grid", 60)])
def test_constructed_cycles_and_grids_are_internally_connected(family, n):
    g = generate(GeneratorSpec(family, n, 1))
    s = graph_categories(g)
    assert is_internally_connected(g, s).holds
    assert oracle_internally_connected(g, s) is None


def _tree_construction_instances():
    """Stars and hub-skewed trees with the tree construction's sets, and
    graphs with cycles, dense ones among them, with ``graph_categories``
    sets; all shattered as built, with some sets dropped so the verdict can
    fail."""
    drops = st.sampled_from([0.0, 0.02, 0.1, 0.4])
    seeds = st.integers(min_value=0, max_value=10_000)

    def build(star, n, seed, drop):
        rng = seeded(seed)
        tree = RootedTree([None] + [0] * (n - 1), 0) if star else random_tree(rng, n, "hub")
        sets = [members for members in tree_categories(tree).categories if rng.random() >= drop]
        return tree.graph, CategorySystem(n, sets)

    def build_on_graph(family, n, seed, drop):
        rng = seeded(seed)
        g = generate(GeneratorSpec(family, n, seed, {"p": 0.3} if family == "gnp-connected" else {}))
        sets = [members for members in graph_categories(g).categories if rng.random() >= drop]
        return g, CategorySystem(n, sets)

    families = st.sampled_from(["gnp-connected", "grid", "watts-strogatz", "complete"])
    return st.one_of(
        st.builds(build, st.booleans(), st.integers(min_value=2, max_value=28), seeds, drops),
        st.builds(build_on_graph, families, st.integers(min_value=5, max_value=30), seeds, drops),
    )


@settings(max_examples=120, deadline=None)
@given(_tree_construction_instances())
def test_shattered_on_tree_constructions_matches_definition_oracle(pair):
    g, s = pair
    report = is_shattered(g, s)
    assert report.witness == oracle_shattered(g, s)
    assert report.holds == (report.witness is None)


def _assert_sweep_matches_walk_oracle(g, s):
    witness, max_hops, mean_hops = oracle_all_pairs_routing(g, s)
    report, got_max, got_mean = route_statistics(g, s)
    assert report.witness == witness
    assert report.holds == (witness is None)
    assert (got_max, got_mean) == (max_hops, mean_hops)
    assert verify_all_pairs_routing(g, s) == report
    # The traces read off the same kernel, trace by trace, in their order.
    assert list(iter_all_pair_routes(g, s)) == [
        greedy_route(g, s, src, t) for t in range(g.n) for src in range(g.n) if src != t
    ]


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_all_pairs_sweep_matches_per_pair_walk_oracle(pair):
    g, s = pair
    _assert_sweep_matches_walk_oracle(g, s)


def test_sweep_matches_walk_oracle_on_one_vertex():
    _assert_sweep_matches_walk_oracle(Graph(1), CategorySystem(1, []))


def test_sweep_matches_walk_oracle_without_categories():
    g = Graph(2, [(0, 1)])
    _assert_sweep_matches_walk_oracle(g, CategorySystem(2, []))
    assert verify_all_pairs_routing(g, CategorySystem(2, [])).witness == (0, 1, 0)


def _field_width_instance(universe, drop):
    """Vertex 0 holds every subset of the universe that contains it but the
    first ``drop`` in mask order, so memdim is 2^(universe - 1) - drop, and
    the rest hold 2^(universe - 2) each. On the one edge 0-1 the only
    delivered pair is (1, 0), and its hop compares vertex 0's full count."""
    rooted_at_zero = list(range(1, 1 << universe, 2))[drop:]
    return Graph(universe, [(0, 1)]), CategorySystem.from_masks(universe, rooted_at_zero)


@pytest.mark.parametrize(
    "universe, drop, memdim", [(8, 1, 127), (8, 0, 128), (16, 1, 32767), (16, 0, 32768)]
)
def test_sweep_matches_walk_oracle_on_both_sides_of_a_field_width(universe, drop, memdim):
    g, s = _field_width_instance(universe, drop)
    assert membership_dimension(s) == memdim
    _assert_sweep_matches_walk_oracle(g, s)
    assert route_statistics(g, s)[1:] == (1, 1.0)


@pytest.mark.parametrize("drop", [0, 1])
def test_sweep_matches_walk_oracle_on_random_graphs_at_the_first_field_width(drop):
    # Counts up to 127 or 128, on random graphs with random sets mixed in.
    rng = seeded(61 + drop)
    for _ in range(20):
        g = random_connected_graph(rng, 8)
        extra = random_category_system(rng, 8).category_masks
        s = CategorySystem.from_masks(8, [*range(1, 1 << 8, 2)][drop:] + list(extra))
        _assert_sweep_matches_walk_oracle(g, s)


def test_sweep_matches_walk_oracle_on_the_empty_graph():
    _assert_sweep_matches_walk_oracle(Graph(0), CategorySystem(0, []))


def test_sweep_matches_walk_oracle_with_isolated_vertices():
    _assert_sweep_matches_walk_oracle(Graph(4), CategorySystem(4, [(0, 1), (2,)]))
    rng = seeded(67)
    for _ in range(30):
        n = rng.randint(2, 14)
        core = rng.sample(range(n), rng.randint(1, n))
        edges = [(core[rng.randrange(i)], core[i]) for i in range(1, len(core))]
        _assert_sweep_matches_walk_oracle(Graph(n, edges), random_category_system(rng, n))


def test_sweep_matches_walk_oracle_across_two_blocks_of_targets():
    # Targets are settled 512 at a time. The path 500-505-...-520 crosses
    # from the first block into the second; it routes on its prefix and
    # suffix sets, so hop counts of 1 to 4 arrive in both blocks. The other
    # vertices are isolated.
    path = [500, 505, 510, 515, 520]
    sets = [path[:i] for i in range(1, 6)] + [path[i:] for i in range(1, 5)]
    g = Graph(521, zip(path, path[1:]))
    assert checks._BLOCK < g.n
    _assert_sweep_matches_walk_oracle(g, CategorySystem(521, sets))


@settings(max_examples=80, deadline=None)
@given(_instances(), st.integers(min_value=1, max_value=7))
@example((path_graph(3), CategorySystem(3, [(1,)])), 1)
def test_sweep_matches_walk_oracle_in_small_blocks_of_targets(pair, block):
    # Several blocks on small instances: the first failing pair has the
    # smallest source, whichever block its target is in. In the example,
    # (0, 2) fails first, while the block of target 0 has the failing pair
    # (1, 0).
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_BLOCK", block)
        _assert_sweep_matches_walk_oracle(*pair)


def test_a_cycle_of_next_hops_is_an_internal_error():
    # 0 and 1 name each other as the next hop toward target 0, so the pair
    # (0, 0) arrives again two levels on; without the check the levels
    # would never end.
    with pytest.raises(InternalCheckError):
        checks._reached([[(1, 0b1)], [(0, 0b1)]], 0, 1)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_unshattered_implies_routing_fails(pair):
    g, s = pair
    # Raises InternalCheckError on any violation of either implication.
    report = check_implications(g, s)
    if not report.shattered.holds:
        assert not report.routing.holds


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_routing_success_forces_dimension_at_least_diameter(n, seed):
    g = random_connected_graph(seeded(seed), n)
    s = tree_categories(bfs_spanning_tree(g, 0))
    if verify_all_pairs_routing(g, s).holds:
        assert membership_dimension(s) >= diameter(g)


class TestLowerBoundOracle:
    def test_a_vertex_in_fewer_categories_than_its_eccentricity(self):
        # On 0-1-2, vertex 0 lies in one category but is 2 hops from 2.
        system = CategorySystem(3, [(1, 2), (0, 1)])
        assert oracle_lower_bound_violation(path_graph(3), system) == ("ecc", 0, 1, 2)
        assert not verify_all_pairs_routing(path_graph(3), system).holds

    def test_a_hub_below_the_sperner_bound(self):
        # Three leaves need their hub in m(3) = 3 categories; here it lies
        # in 2, and every vertex still meets its eccentricity.
        g = star_graph(4)
        system = CategorySystem(4, [(0, 1, 2), (0, 3), (1,), (2, 3)])
        assert oracle_lower_bound_violation(g, system) == ("sperner", 0, 2, 3)
        assert not verify_all_pairs_routing(g, system).holds

    def test_m_of_k_from_the_first_layer_fails_a_routing_star(self, monkeypatch):
        # With C(m, 1) in place of C(m, floor(m/2)), m(9) would be 9: the
        # hub of a routing star on 9 leaves lies in m(9) = 5 categories.
        g = star_graph(10)
        system = graph_categories(g)
        assert oracle_sperner_bound(9) == 5
        assert oracle_lower_bound_violation(g, system) is None
        monkeypatch.setattr(conftest, "oracle_sperner_bound", lambda k: next(m for m in count() if math.comb(m, 1) >= k))
        assert oracle_lower_bound_violation(g, system) == ("sperner", 0, 5, 9)
