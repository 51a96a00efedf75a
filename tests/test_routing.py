import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catroute import (
    CategorySystem,
    GeneratorSpec,
    Graph,
    RootedTree,
    ValidationError,
    category_distance,
    format_trace,
    generate,
    graph_categories,
    greedy_route,
    greedy_step,
    membership_dimension,
    tree_categories,
)
from catroute.fixtures import counterexample_cycle

from conftest import (
    oracle_cat,
    oracle_distance,
    oracle_greedy_step,
    oracle_greedy_walk,
    path_graph,
    random_category_system,
    random_connected_graph,
    random_tree,
    seeded,
)

# Categories for the rooted binary tree r(a, b) with r=0, a=1, b=2,
# enumerated by hand: each subtree, plus {r, far child} for each side.
TINY_TREE = Graph(3, [(0, 1), (0, 2)])
TINY_TREE_SETS = CategorySystem(3, [(0, 1, 2), (1,), (2,), (0, 2), (0, 1)])

# Prefix/suffix sets for the path 0-1-2, enumerated by hand.
PATH3 = path_graph(3)
PATH3_SETS = CategorySystem(3, [(0,), (0, 1), (1, 2), (2,)])


class TestGreedyStep:
    def test_counterexample_has_no_improving_neighbor(self):
        g, s = counterexample_cycle()
        assert greedy_step(g, s, 1, 3) is None

    def test_path_moves_toward_target(self):
        assert category_distance(PATH3_SETS, 1, 2) == 1
        assert category_distance(PATH3_SETS, 0, 2) == 2
        assert greedy_step(PATH3, PATH3_SETS, 0, 2) == 1

    def test_tiny_tree_routes_through_the_root(self):
        assert category_distance(TINY_TREE_SETS, 0, 2) == 1
        assert category_distance(TINY_TREE_SETS, 1, 2) == 2
        assert greedy_step(TINY_TREE, TINY_TREE_SETS, 1, 2) == 0

    def test_already_at_target_is_an_error(self):
        with pytest.raises(ValidationError):
            greedy_step(PATH3, PATH3_SETS, 1, 1)

    def test_tie_breaks_to_smallest_id(self):
        # Both neighbors of 1 improve equally toward 3; 0 wins by id.
        g = Graph(4, [(1, 0), (1, 2), (0, 3), (2, 3)])
        s = CategorySystem(4, [(0, 3), (2, 3), (3,)])
        assert category_distance(s, 0, 3) == category_distance(s, 2, 3)
        assert greedy_step(g, s, 1, 3) == 0


class TestGreedyRoute:
    def test_counterexample_sticks_immediately(self):
        g, s = counterexample_cycle()
        trace = greedy_route(g, s, 1, 3)
        assert not trace.delivered
        assert trace.stuck_at == 1
        assert trace.path == (1,)
        assert trace.hop_distances == (2,)

    def test_self_delivery(self):
        trace = greedy_route(PATH3, PATH3_SETS, 1, 1)
        assert trace.delivered
        assert trace.path == (1,)
        assert trace.hop_distances == (0,)

    def test_tiny_tree_full_route(self):
        trace = greedy_route(TINY_TREE, TINY_TREE_SETS, 1, 2)
        assert trace.delivered
        assert trace.path == (1, 0, 2)
        assert trace.hop_distances == (2, 1, 0)

    def test_determinism(self):
        g, s = counterexample_cycle()
        runs = {greedy_route(g, s, a, b) for a in range(4) for b in range(4)}
        again = {greedy_route(g, s, a, b) for a in range(4) for b in range(4)}
        assert runs == again

    def test_vertex_out_of_range(self):
        with pytest.raises(ValidationError):
            greedy_route(PATH3, PATH3_SETS, 0, 7)

    def test_mismatched_universe(self):
        with pytest.raises(ValidationError):
            greedy_route(PATH3, CategorySystem(5, [(0,)]), 0, 2)


class TestFullShare:
    """A hop stops reading neighbours at the first improving one that holds
    every category of the target; these pin that the choice is the one the
    full scan makes."""

    # Hub 0 with leaves 1..4; 2 and 3 hold all of cat(4), 1 only part of it,
    # and 0 holds one category of its own.
    HUB = Graph(5, [(0, v) for v in range(1, 5)])
    HUB_SETS = CategorySystem(5, [(1, 2, 3, 4), (2, 3, 4), (0,)])

    def test_neighbor_below_the_target_with_a_full_share_wins(self):
        # 1 holds both of 3's categories and comes before 3 itself.
        g = Graph(4, [(0, v) for v in range(1, 4)])
        s = CategorySystem(4, [(1, 3), (1, 2, 3)])
        assert greedy_step(g, s, 0, 3) == 1
        trace = greedy_route(g, s, 0, 3)
        assert trace.path == (0, 1)
        assert trace.hop_distances == (2, 0)
        assert not trace.delivered

    def test_two_full_shares_go_to_the_smaller_id(self):
        assert greedy_step(self.HUB, self.HUB_SETS, 0, 4) == 2
        assert greedy_route(self.HUB, self.HUB_SETS, 0, 4).path == (0, 2)

    def test_a_partial_share_does_not_end_the_scan(self):
        # 1 shares one of the target's two categories, as many as the hub
        # holds; the target itself, read later, shares both.
        g = Graph(3, [(0, 1), (0, 2)])
        s = CategorySystem(3, [(1, 2), (2,), (0,)])
        assert greedy_step(g, s, 0, 2) == 2
        trace = greedy_route(g, s, 0, 2)
        assert trace.path == (0, 2)
        assert trace.hop_distances == (2, 0)
        assert trace.delivered

    def test_target_without_categories(self):
        g = Graph(3, [(0, 1), (0, 2)])
        s = CategorySystem(3, [(0, 1)])
        assert greedy_step(g, s, 0, 2) is None
        trace = greedy_route(g, s, 0, 2)
        assert trace.path == (0,)
        assert trace.hop_distances == (0,)
        assert not trace.delivered

    def test_source_holding_every_category_of_the_target_is_stuck(self):
        s = CategorySystem(3, [(0, 1, 2), (0,)])
        assert greedy_step(PATH3, s, 0, 2) is None
        trace = greedy_route(PATH3, s, 0, 2)
        assert trace.path == (0,)
        assert trace.hop_distances == (0,)
        assert not trace.delivered



def _hub_star(n, hub):
    """A star on ``n`` vertices whose hub has id ``hub``."""
    return Graph(n, ((hub, v) for v in range(n) if v != hub))


def _copied(system, pairs):
    """``system`` with ``c`` added to every category holding ``t``, for each
    ``(t, c)`` in ``pairs``: c then holds all of cat(t), so the system is no
    longer shattered."""
    sets = [set(members) for members in system.categories]
    for t, c in pairs:
        for members in sets:
            if t in members:
                members.add(c)
    return CategorySystem(system.n, sets)


class _CountedReads(tuple):
    """A vertex-mask table that counts how many masks are read from it."""

    def __new__(cls, masks):
        table = super().__new__(cls, masks)
        table.reads = 0
        return table

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


class _Counted:
    """``system`` seen through a vertex-mask table that counts its reads."""

    def __init__(self, system):
        self.n = system.n
        self.category_masks = system.category_masks
        self.vertex_masks = _CountedReads(system.vertex_masks)


def _assert_walks_like_the_oracle(g, s, pairs):
    for source, target in pairs:
        trace = greedy_route(g, s, source, target)
        assert (trace.delivered, trace.path) == oracle_greedy_walk(g, s, source, target)
        assert trace.hop_distances == tuple(oracle_distance(s, v, target) for v in trace.path)
        if source != target:
            assert greedy_step(g, s, source, target) == oracle_greedy_step(g, s, source, target)


class TestHubHops:
    """A hop from a hub onto an adjacent target settles it by bisection and
    the target's category masks; these pin it to the definition walk on
    construction-built stars and on hub systems where it must fall back to
    the scan."""

    def test_star_of_50_matches_the_walk_on_every_pair(self):
        g = generate(GeneratorSpec("star", 50))
        s = graph_categories(g)
        _assert_walks_like_the_oracle(g, s, ((u, t) for u in range(50) for t in range(50)))

    @pytest.mark.parametrize("n", [300, 1300])
    def test_large_stars_match_the_walk_on_sampled_pairs(self, n):
        g = generate(GeneratorSpec("star", n))
        s = graph_categories(g)
        rng = seeded(n)
        leaves = [1, 2, n // 2, n - 2, n - 1] + rng.sample(range(1, n), 20)
        pairs = [(0, t) for t in leaves] + [(t, 0) for t in leaves]
        pairs += [tuple(rng.sample(range(1, n), 2)) for _ in range(30)]
        _assert_walks_like_the_oracle(g, s, pairs)

    def test_a_hub_hop_onto_an_adjacent_target_reads_one_neighbor(self):
        g = generate(GeneratorSpec("star", 1300))
        s = graph_categories(g)
        for target in (1, 650, 1299):
            counted = _Counted(s)
            assert greedy_route(g, counted, 0, target).path == (0, target)
            # The target's mask, the hub's, and at most one neighbour's.
            assert counted.vertex_masks.reads <= 3

    def test_a_leaf_below_the_target_holding_its_categories_takes_the_hop(self):
        g = _hub_star(12, 0)
        singletons = [(v,) for v in range(12) if v != 9]
        # 3 holds both categories of 9 and comes first; the hub holds neither.
        s = CategorySystem(12, singletons + [(3, 9), (3, 5, 9)])
        trace = greedy_route(g, s, 0, 9)
        assert trace.path == (0, 3)
        assert not trace.delivered
        _assert_walks_like_the_oracle(g, s, [(0, 9), (5, 9), (9, 3)])

    def test_a_leaf_above_the_target_holding_its_categories_does_not(self):
        g = _hub_star(12, 0)
        singletons = [(v,) for v in range(12) if v != 9]
        s = CategorySystem(12, singletons + [(9, 10), (5, 9, 10)])
        assert greedy_route(g, s, 0, 9).path == (0, 9)
        _assert_walks_like_the_oracle(g, s, [(0, 9), (5, 9), (10, 9)])

    def test_a_hub_holding_every_category_of_the_target_is_stuck(self):
        # The hub has the highest id, so no vertex below the target holds
        # all of its categories, yet the hub shares all of them already.
        g = _hub_star(12, 11)
        s = _copied(graph_categories(g), [(4, 11)])
        trace = greedy_route(g, s, 11, 4)
        assert trace.path == (11,)
        assert trace.hop_distances == (0,)
        assert not trace.delivered
        assert greedy_step(g, s, 11, 4) is None
        assert oracle_greedy_step(g, s, 11, 4) is None

    def test_a_target_past_every_neighbor_of_the_hub(self):
        # A broom: hub 0 with leaves 1..24, and a tail 24-25-26. From the
        # hub, 25 and 26 sort after every neighbour and are not adjacent.
        g = Graph(27, [(0, v) for v in range(1, 25)] + [(24, 25), (25, 26)])
        s = graph_categories(g)
        _assert_walks_like_the_oracle(g, s, ((u, t) for u in range(27) for t in range(27)))

    @pytest.mark.parametrize("seed", range(12))
    def test_hub_systems_with_copied_categories_match_the_walk(self, seed):
        rng = seeded(seed)
        n = rng.randint(12, 40)
        hub = rng.randrange(n)
        g = _hub_star(n, hub)
        copies = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
        s = _copied(graph_categories(g), copies)
        pairs = [(hub, t) for t in range(n)] + [(t, hub) for t in range(n)]
        pairs += [(c, t) for t, c in copies] + [(t, c) for t, c in copies]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(40)]
        _assert_walks_like_the_oracle(g, s, pairs)


class TestVerticesWithoutNeighbors:
    def test_isolated_source_is_stuck(self):
        g = Graph(2, [])
        s = CategorySystem(2, [(0,), (1,)])
        assert greedy_step(g, s, 0, 1) is None
        trace = greedy_route(g, s, 0, 1)
        assert not trace.delivered
        assert trace.stuck_at == 0
        assert trace.path == (0,)
        assert trace.hop_distances == (1,)

    def test_single_vertex_delivers_to_itself(self):
        g = Graph(1)
        s = CategorySystem(1, [(0,)])
        trace = greedy_route(g, s, 0, 0)
        assert trace.delivered
        assert trace.path == (0,)
        assert trace.hop_distances == (0,)
        with pytest.raises(ValidationError):
            greedy_step(g, s, 0, 0)
        with pytest.raises(ValidationError):
            greedy_step(g, s, 0, 1)


class TestFormatTrace:
    def test_delivered_rendering(self):
        trace = greedy_route(TINY_TREE, TINY_TREE_SETS, 1, 2)
        assert format_trace(trace) == "1 -(d=1)-> 0\n0 -(d=0)-> 2\nDELIVERED in 2 hops"

    def test_stuck_rendering_uses_ids(self):
        g, s = counterexample_cycle()
        trace = greedy_route(g, s, 1, 3)
        assert format_trace(trace) == "STUCK at 1 (d=2)"


def _instances():
    return st.builds(
        lambda n, seed: (
            random_connected_graph(seeded(seed), n),
            random_category_system(seeded(seed + 1), n),
        ),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=60, deadline=None)
@given(_instances(), st.data())
def test_route_invariants_hold_on_arbitrary_systems(pair, data):
    g, s = pair
    source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    target = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    trace = greedy_route(g, s, source, target)
    # Strictly decreasing per-hop distances.
    assert all(a > b for a, b in zip(trace.hop_distances, trace.hop_distances[1:]))
    # Hop count bounded by the initial distance, itself bounded by the
    # target's membership count and the membership dimension.
    d0 = category_distance(s, source, target)
    assert trace.hop_distances[0] == d0
    assert trace.hops <= d0 <= len(oracle_cat(s, target)) <= membership_dimension(s)
    # Consecutive path vertices are adjacent; endpoints are as declared.
    for a, b in zip(trace.path, trace.path[1:]):
        assert b in g.adjacency[a]
    assert trace.path[0] == source
    if trace.delivered:
        assert trace.path[-1] == target
        assert trace.hop_distances[-1] == 0
    else:
        assert trace.stuck_at == trace.path[-1]


def _differential_instances():
    """Random connected graphs with random systems, where ties and stuck
    routes are common; and stars and hub-skewed trees with the tree
    construction's sets, some dropped so routes can get stuck, plus a few
    random sets."""

    def arbitrary(n, seed):
        return random_connected_graph(seeded(seed), n), random_category_system(seeded(seed + 1), n)

    def hub(star, n, seed, drop):
        rng = seeded(seed)
        tree = RootedTree([None] + [0] * (n - 1), 0) if star else random_tree(rng, n, "hub")
        sets = [members for members in tree_categories(tree).categories if rng.random() >= drop]
        sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 2))]
        return tree.graph, CategorySystem(n, sets)

    return st.one_of(
        st.builds(
            arbitrary,
            st.integers(min_value=1, max_value=14),
            st.integers(min_value=0, max_value=10_000),
        ),
        st.builds(
            hub,
            st.booleans(),
            st.integers(min_value=2, max_value=14),
            st.integers(min_value=0, max_value=10_000),
            st.sampled_from([0.0, 0.1, 0.4]),
        ),
    )


@settings(max_examples=80, deadline=None)
@given(_differential_instances())
def test_every_pair_matches_the_definition_walk(pair):
    g, s = pair
    _assert_walks_like_the_oracle(g, s, ((u, t) for u in range(g.n) for t in range(g.n)))
