import math
from itertools import combinations, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catroute import (
    CategorySystem,
    GeneratorSpec,
    Graph,
    RootedTree,
    ValidationError,
    bfs_distances,
    binary_tree_categories,
    bfs_spanning_tree,
    choose_root,
    construct,
    diameter,
    embed_into_binary,
    generate,
    graph_categories,
    greedy_route,
    impossibility_pair,
    is_connected,
    is_internally_connected,
    is_path,
    is_shattered,
    membership_dimension,
    path_categories,
    route_statistics,
    tree_categories,
    verify_all_pairs_routing,
)
from catroute.construct import _halfspaces, _masks
from catroute.errors import DisconnectedGraphError

from conftest import (
    complete_graph,
    cycle_graph,
    oracle_binary_tree_sets,
    oracle_code_family_sets,
    oracle_embedding_parents,
    oracle_halfspaces,
    oracle_is_ancestor,
    oracle_memberships,
    oracle_per_class_halfspaces,
    oracle_theta_classes,
    path_graph,
    random_binary_tree,
    random_connected_graph,
    random_tree,
    seeded,
    star_graph,
    tree_height,
)


def assert_construction_contract(g, system):
    """Every construction output must satisfy all three properties on its graph."""
    assert is_internally_connected(g, system).holds
    assert is_shattered(g, system).holds
    assert verify_all_pairs_routing(g, system).holds


class TestPathCategories:
    def test_three_vertex_path_exact_sets(self):
        s = path_categories(path_graph(3))
        assert s.categories == ((0,), (0, 1), (1, 2), (2,))
        assert membership_dimension(s) == 2

    def test_two_vertex_path(self):
        s = path_categories(path_graph(2))
        assert s.categories == ((0,), (1,))
        assert membership_dimension(s) == 1 == diameter(path_graph(2))

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    def test_dimension_equals_diameter_exactly(self, n):
        g = path_graph(n)
        s = path_categories(g)
        assert membership_dimension(s) == diameter(g) == n - 1
        assert_construction_contract(g, s)

    def test_scrambled_vertex_ids(self):
        # Path 2-0-1: the sides of edge 2-0 and of edge 0-1.
        g = Graph(3, [(2, 0), (0, 1)])
        s = path_categories(g)
        assert s.categories == ((0, 1), (0, 2), (1,), (2,))
        assert_construction_contract(g, s)

    def test_non_path_rejected(self):
        with pytest.raises(ValidationError):
            path_categories(cycle_graph(4))
        with pytest.raises(ValidationError):
            path_categories(star_graph(4))
        with pytest.raises(ValidationError):
            path_categories(Graph(1))

    def test_path_rejects_a_non_path(self):
        with pytest.raises(ValidationError, match="not a path"):
            path_categories(cycle_graph(5))

    @pytest.mark.parametrize(
        "n, edges, pair",
        [
            (4, [(0, 1), (1, 2), (2, 0)], (0, 3)),
            (4, [(1, 2), (2, 3), (3, 1)], (0, 1)),
            (5, [(0, 1), (2, 3), (3, 4), (4, 2)], (0, 2)),
        ],
        ids=["triangle-then-isolated", "isolated-then-triangle", "edge-beside-triangle"],
    )
    def test_a_path_shaped_graph_that_is_not_connected_fails_in_the_bfs(self, n, edges, pair):
        # n - 1 edges and no degree above 2, yet a cycle beside a path: the
        # guard lets it through and the one BFS from 0 names the first vertex
        # it misses. The construction rule reaches the same error.
        g = Graph(n, edges)
        for build in (path_categories, graph_categories):
            with pytest.raises(DisconnectedGraphError) as err:
                build(g)
            assert err.value.unreachable_pair == pair

    def test_routes_follow_the_unique_shortest_path(self):
        g = path_graph(6)
        s = path_categories(g)
        for src in range(6):
            for dst in range(6):
                trace = greedy_route(g, s, src, dst)
                assert trace.delivered
                step = 1 if dst >= src else -1
                assert trace.path == tuple(range(src, dst + step, step))


class TestBinaryTreeCategories:
    def test_root_with_two_leaves_exact_sets(self):
        tree = RootedTree([None, 0, 0], 0)
        s = binary_tree_categories(tree)
        assert set(s.categories) == {(1,), (2,), (0, 2), (0, 1)}
        assert membership_dimension(s) == 2

    def test_single_vertex(self):
        tree = RootedTree([None], 0)
        s = binary_tree_categories(tree)
        assert s.categories == ()
        assert membership_dimension(s) == 0

    def test_left_only_chain(self):
        tree = RootedTree([None, 0, 1], 0)
        s = binary_tree_categories(tree)
        assert_construction_contract(tree.graph, s)

    def test_random_trees_meet_contract_and_bound(self):
        rng = seeded(11)
        for _ in range(20):
            tree = random_binary_tree(rng, rng.randint(1, 60))
            s = binary_tree_categories(tree)
            h = tree_height(tree)
            assert membership_dimension(s) <= (h + 1) * (2 * h + 3) - 1
            assert_construction_contract(tree.graph, s)

    def test_three_children_rejected(self):
        with pytest.raises(ValidationError, match="vertex 1 has more than two children"):
            binary_tree_categories(RootedTree([None, 0, 1, 1, 1], 0))

    def test_binary_tree_rejects_a_vertex_with_three_children(self):
        # Rooted at a leaf, the star's hub keeps three children.
        with pytest.raises(ValidationError, match="more than two children"):
            binary_tree_categories(bfs_spanning_tree(star_graph(5), 1))

    def test_random_binary_trees_match_the_oracle(self):
        # binary_tree_categories and tree_categories against one definition.
        rng = seeded(47)
        for _ in range(200):
            tree = random_binary_tree(rng, rng.randint(1, 150))
            expected = oracle_binary_tree_sets(tree)
            assert binary_tree_categories(tree).categories == expected
            assert tree_categories(tree).categories == expected


class TestEmbedIntoBinary:
    def test_star_gets_two_placeholders(self):
        tree = bfs_spanning_tree(star_graph(5), 0)
        emb = embed_into_binary(tree)
        b = emb.tree
        assert b.n == 7  # 5 originals + 2 placeholders
        assert set(b.children[0]) == {5, 6}
        depth = bfs_distances(b.graph, b.root)
        for leaf in (1, 2, 3, 4):
            assert depth[leaf] == 2

    def test_already_binary_is_identity(self):
        rng = seeded(3)
        tree = random_binary_tree(rng, 25)
        emb = embed_into_binary(tree)
        assert emb.tree.n == tree.n
        assert set(emb.tree.graph.edges()) == set(tree.graph.edges())

    def test_path_shape_is_identity(self):
        tree = bfs_spanning_tree(path_graph(6), 0)
        emb = embed_into_binary(tree)
        assert emb.tree.n == 6
        assert tree_height(emb.tree) == tree_height(tree)

    def test_heavy_child_stays_shallow(self):
        # Root has 3 children; one carries a chain of 6, the others are leaves.
        parents = [None, 0, 0, 0, 3, 4, 5, 6, 7]
        tree = RootedTree(parents, 0)
        emb = embed_into_binary(tree)
        b = emb.tree
        assert bfs_distances(b.graph, b.root)[3] <= 2

    def test_origin_mapping_is_injective_identity(self):
        # Original vertices keep their ids: the closest original ancestor of
        # each one is its parent in the input. Placeholders take the ids from
        # 40 up and each holds two parts.
        rng = seeded(5)
        tree = random_tree(rng, 40, skew="hub")
        b = embed_into_binary(tree).tree
        for v in range(40):
            walk = b.parent[v]
            while walk is not None and walk >= 40:
                walk = b.parent[walk]
            assert walk == tree.parent[v]
        assert b.n > 40
        for v in range(40, b.n):
            assert len(b.children[v]) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["uniform", "hub"]),
)
def test_embedding_preserves_ancestry_and_height_bound(n, seed, skew):
    tree = random_tree(seeded(seed), n, skew)
    emb = embed_into_binary(tree)
    b = emb.tree
    for a in range(n):
        for c in range(n):
            assert oracle_is_ancestor(tree, a, c) == oracle_is_ancestor(b, a, c)
    bound = 3 * tree_height(tree) + 2 * math.ceil(math.log2(n)) + 3
    assert tree_height(b) <= bound


def _broom(weights):
    """Root 0 with one child per weight, in id order 1..d; child i carries a
    chain below it so that its subtree holds ``weights[i - 1]`` vertices."""
    parents = [None] + [0] * len(weights)
    for child, weight in enumerate(weights, start=1):
        below = child
        for _ in range(weight - 1):
            parents.append(below)
            below = len(parents) - 1
    return RootedTree(parents, 0)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        # Few distinct weights, so equal sides and tied cuts are common.
        st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=24),
        st.lists(st.integers(min_value=1, max_value=12), min_size=3, max_size=24),
    )
)
def test_embedding_splits_match_the_linear_midpoint(weights):
    tree = _broom(weights)
    assert list(embed_into_binary(tree).tree.parent) == oracle_embedding_parents(tree)


@pytest.mark.parametrize("shape", ["star", "hub", "uniform"])
def test_embedding_matches_the_linear_midpoint_on_trees(shape):
    rng = seeded(19)
    for n in list(range(1, 40)) + [97, 300]:
        tree = RootedTree([None] + [0] * (n - 1), 0) if shape == "star" else random_tree(rng, n, shape)
        assert list(embed_into_binary(tree).tree.parent) == oracle_embedding_parents(tree)


class TestTreeCategories:
    def test_star_with_four_leaves_routes_all_pairs(self):
        g = star_graph(5)
        tree = bfs_spanning_tree(g, 0)
        s = tree_categories(tree)
        assert_construction_contract(g, s)
        embedded = binary_tree_categories(embed_into_binary(tree).tree)
        assert membership_dimension(s) <= membership_dimension(embedded)

    def test_path_input_routes_all_pairs(self):
        g = path_graph(7)
        s = tree_categories(bfs_spanning_tree(g, 0))
        assert_construction_contract(g, s)

    def test_single_vertex(self):
        s = tree_categories(RootedTree([None], 0))
        assert s.categories == ()

    def test_high_degree_trees_meet_contract(self):
        rng = seeded(23)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(2, 50), skew="hub")
            assert_construction_contract(tree.graph, tree_categories(tree))


class TestCodeFamilies:
    def test_random_trees_match_the_oracle(self):
        # Any root, leaves included, so roots with one child occur too.
        rng = seeded(53)
        for i in range(150):
            n = rng.randint(3, 70)
            g = random_tree(rng, n, skew="hub" if i % 2 else "uniform").graph
            tree = bfs_spanning_tree(g, rng.randrange(n))
            assert tree_categories(tree).categories == oracle_code_family_sets(tree)

    @pytest.mark.parametrize("n", [4, 5, 9, 50])
    def test_a_root_with_one_child_keeps_its_family(self, n):
        # Rooted at a leaf, the star's hub is the root's only child. A route
        # from another leaf to the root needs a set that holds the root and
        # the hub but not the leaf: only the root's family has one.
        g = star_graph(n)
        tree = bfs_spanning_tree(g, 1)
        assert tree.children[1] == (0,)
        assert_construction_contract(g, tree_categories(tree))

    @pytest.mark.parametrize("n", [4, 5, 8, 50, 300, 1300])
    def test_a_star_hub_sits_on_the_sperner_bound(self, n):
        # k pendant leaves need their hub in m(k) categories, m(k) the least
        # m with C(m, floor(m/2)) >= k, and the hub holds exactly its m(k)
        # families.
        k = n - 1
        m = next(m for m in range(1, k + 1) if math.comb(m, m // 2) >= k)
        system = graph_categories(star_graph(n))
        assert system.vertex_masks[0].bit_count() == membership_dimension(system) == m

    def test_membership_stays_within_the_bound(self):
        # At most h + M (h + 1)^2, M the most code bits at any vertex.
        rng = seeded(59)
        for i in range(40):
            tree = random_tree(rng, rng.randint(2, 300), skew="hub" if i % 2 else "uniform")
            h = tree_height(tree)
            most = max(next(m for m in range(len(kids) + 1) if math.comb(m, m // 2) >= len(kids))
                       for kids in tree.children)
            assert membership_dimension(tree_categories(tree)) <= h + max(most, 1) * (h + 1) ** 2


def _route_identity_graphs():
    rng = seeded(71)
    graphs = {f"tree-{n}": random_tree(rng, n).graph for n in (2, 3, 40, 300)}
    graphs.update({f"hub-tree-{n}": random_tree(rng, n, skew="hub").graph for n in (40, 300)})
    graphs.update({f"star-{n}": star_graph(n) for n in (3, 50, 300)})
    for n, p in ((40, 0.2), (300, 0.02)):
        graphs[f"gnp-{n}"] = generate(GeneratorSpec("gnp-connected", n, n, {"p": p}))
        graphs[f"watts-strogatz-{n}"] = generate(GeneratorSpec("watts-strogatz", n, n, {"k": 4, "beta": 0.2}))
    return graphs


ROUTE_IDENTITY_GRAPHS = _route_identity_graphs()


@pytest.mark.parametrize("name", ROUTE_IDENTITY_GRAPHS)
def test_the_set_of_all_vertices_changes_no_route(name):
    # The set of all vertices adds 0 to every |cat(t) \ cat(s)| and
    # witnesses no pair: put back, it costs every vertex one membership and
    # changes no hop.
    g = ROUTE_IDENTITY_GRAPHS[name]
    system = graph_categories(g)
    full = CategorySystem.from_masks(g.n, [*system.category_masks, (1 << g.n) - 1])
    assert full.num_categories == system.num_categories + 1
    assert [m.bit_count() for m in full.vertex_masks] == [m.bit_count() + 1 for m in system.vertex_masks]
    assert membership_dimension(full) == membership_dimension(system) + 1
    statistics = route_statistics(g, system)
    assert statistics[0].holds
    assert route_statistics(g, full) == statistics
    rng = seeded(g.n)
    for _ in range(200):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        assert greedy_route(g, full, s, t) == greedy_route(g, system, s, t)


def _prefix_suffix_sets(order):
    """A path's halfspaces from its vertices listed end to end: every proper
    prefix and every proper suffix."""
    cuts = range(1, len(order))
    return [order[:i] for i in cuts] + [order[i:] for i in cuts]


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
def test_a_path_gets_its_halfspaces_at_every_root(shuffled):
    # A non-root vertex of a path has at most one child: it gets no family,
    # and its subtree set is one side of its parent edge. The root's family
    # slices are the other sides.
    rng = seeded(67)
    for n in range(2, 41):
        order = list(range(n))
        if shuffled:
            rng.shuffle(order)
        g = Graph(n, zip(order, order[1:]))
        expected = CategorySystem(n, _prefix_suffix_sets(order))
        assert path_categories(g) == expected
        for root in range(n):
            tree = bfs_spanning_tree(g, root)
            assert tree_categories(tree) == expected
            assert binary_tree_categories(tree) == expected


class TestGraphCategories:
    def test_four_cycle_routes_all_twelve_pairs(self):
        g = cycle_graph(4)
        s = graph_categories(g)
        report = verify_all_pairs_routing(g, s)
        assert report.holds

    def test_complete_graph(self):
        g = complete_graph(5)
        s = graph_categories(g)
        assert verify_all_pairs_routing(g, s).holds
        assert membership_dimension(s) >= diameter(g) == 1

    def test_random_graphs_route_and_bound_dimension_below(self):
        rng = seeded(31)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(1, 40))
            s = graph_categories(g)
            assert verify_all_pairs_routing(g, s).holds
            assert membership_dimension(s) >= diameter(g)

    def test_disconnected_input_rejected(self):
        with pytest.raises(ValidationError):
            graph_categories(Graph(3, [(0, 1)]))


@pytest.mark.parametrize("n", [5, 50, 300, 1300, 4000])
@pytest.mark.parametrize("shape", ["star", "hub"])
def test_hubs_stay_under_the_cushion(shape, n):
    # The code families charge a hub about log2 of its degree families: a
    # star on 1300 vertices stays far below its cushion.
    tree = bfs_spanning_tree(star_graph(n), 0) if shape == "star" else random_tree(seeded(n), n, skew="hub")
    g = tree.graph
    system = tree_categories(tree)
    memdim = membership_dimension(system)
    assert memdim <= 16 * (diameter(g) + math.ceil(math.log2(n)) + 1) ** 2
    b = embed_into_binary(tree).tree
    h = tree_height(b)
    assert memdim <= (h + 1) * (2 * h + 3)
    assert is_shattered(g, system).holds
    assert is_internally_connected(g, system).holds
    if n <= 500:
        assert verify_all_pairs_routing(g, system).holds


HUB_TREE = random_tree(seeded(41), 30, skew="hub").graph


def _code_families(tree):
    return CategorySystem.from_masks(tree.n, _masks(tree))


class TestOneRule:
    """graph_categories, bench_one and `catroute construct` share one rule:
    the halfspaces when the graph is a partial cube with diam(g) classes
    (``path_categories`` on a path), else the code families of the BFS tree
    from the chosen root, which are the tree's halfspaces when it is a
    path."""

    @pytest.mark.parametrize(
        "g",
        [path_graph(2), path_graph(6), Graph(5, [(3, 0), (0, 4), (4, 1), (1, 2)])],
        ids=["two", "six", "scrambled"],
    )
    def test_a_path_gets_the_path_construction(self, g):
        assert graph_categories(g) == path_categories(g)

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_cycle_gets_the_path_construction_on_its_bfs_tree(self, n):
        # Odd cycles only: they have no halfspaces.
        g = cycle_graph(n)
        tree = bfs_spanning_tree(g, choose_root(g))
        system = graph_categories(g)
        assert system == path_categories(tree.graph)
        assert membership_dimension(system) == n - 1

    @pytest.mark.parametrize("n", [4, 10])
    def test_an_even_cycle_gets_its_arcs_of_half_its_length(self, n):
        # Each halfspace of an even cycle is an arc of n/2 consecutive
        # vertices, and there are n of them.
        system = graph_categories(cycle_graph(n))
        arcs = {tuple(sorted((i + j) % n for j in range(n // 2))) for i in range(n)}
        assert set(system.categories) == arcs and system.num_categories == n
        assert membership_dimension(system) == n // 2

    def test_a_hub_tree_gets_the_level_builder(self):
        tree = bfs_spanning_tree(HUB_TREE, choose_root(HUB_TREE))
        assert not is_path(tree.graph)
        assert graph_categories(HUB_TREE) == _code_families(tree)

    def test_the_rule_on_random_graphs(self):
        rng = seeded(43)
        graphs = [random_connected_graph(rng, rng.randint(1, 30)) for _ in range(20)]
        graphs += [path_graph(n) for n in (2, 3, 9)] + [random_tree(rng, 25).graph]
        graphs += [cycle_graph(n) for n in (6, 7, 12)] + [generate(GeneratorSpec("grid", n)) for n in (12, 30)]
        graphs += [_hypercube(3), K23, K24]
        for g in graphs:
            classes = oracle_theta_classes(g) if g.n >= 2 else None
            if classes is not None and len(classes) == diameter(g):
                expected = CategorySystem(g.n, oracle_halfspaces(g, classes))
            else:
                expected = _code_families(bfs_spanning_tree(g, choose_root(g)))
            assert graph_categories(g) == expected


def _hypercube(d):
    return Graph(1 << d, ((v, v ^ 1 << i) for v in range(1 << d) for i in range(d)))


def _grid(rows, cols):
    return generate(GeneratorSpec("grid", rows * cols, params={"rows": rows, "cols": cols}))


def _relabelled(g, ids):
    """``g`` with vertex v renamed ``ids[v]``."""
    return Graph(g.n, ((ids[u], ids[v]) for u, v in g.edges()))


def _shuffled(g, rng):
    ids = list(range(g.n))
    rng.shuffle(ids)
    return _relabelled(g, ids)


# Bipartite, with two Theta classes and diam 2, but no partial cube: 0, 1
# and 2 share one label in the halfspace system.
K23 = Graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
K24 = Graph(6, [(u, v) for u in range(4) for v in (4, 5)])


def _connected_labelled_graphs(max_n):
    """Every connected graph on 2..max_n vertices, one per edge set."""
    for n in range(2, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, compress(pairs, [bits >> i & 1 for i in range(len(pairs))]))
            if is_connected(g):
                yield g


def _has_odd_cycle(g):
    depth = bfs_distances(g, 0)
    return any(depth[u] % 2 == depth[v] % 2 for u, v in g.edges())


def _assert_shortest_routes(g, system):
    """|cat(t) \\ cat(s)| is the BFS distance for every pair, and greedy routing
    takes exactly that many hops."""
    owned = oracle_memberships(system)
    for s in range(g.n):
        dist = bfs_distances(g, s)
        for t in range(g.n):
            assert len(owned[t] - owned[s]) == dist[t]
            if s != t:
                trace = greedy_route(g, system, s, t)
                assert trace.delivered and trace.hops == dist[t]


@pytest.fixture
def root_passes(monkeypatch):
    """The argument tuples of the ``construct._root_pass`` calls made while
    the test runs."""
    calls = []
    root_pass = construct._root_pass
    monkeypatch.setattr(construct, "_root_pass", lambda *args: calls.append(args) or root_pass(*args))
    return calls


class TestHalfspaces:
    def test_every_small_graph_against_the_theta_oracle(self, root_passes):
        # _halfspaces accepts exactly the partial cubes with diam(g) classes
        # among all 27,475 connected graphs on 2 to 6 labelled vertices, and
        # a graph with an odd cycle is turned away before any root pass.
        seen = accepted = 0
        for g in _connected_labelled_graphs(6):
            seen += 1
            root_passes.clear()
            classes = oracle_theta_classes(g)
            system = _halfspaces(g)
            expected = classes is not None and len(classes) == diameter(g)
            assert (system is not None) == expected, sorted(g.edges())
            if _has_odd_cycle(g):
                assert not root_passes, sorted(g.edges())
            if system is not None:
                accepted += 1
                assert system == CategorySystem(g.n, oracle_halfspaces(g, classes))
                assert graph_categories(g) == system
                _assert_shortest_routes(g, system)
        assert (seen, accepted) == (27475, 1279)

    def _assert_matches_the_per_class_oracle(self, g):
        system, expected = _halfspaces(g), oracle_per_class_halfspaces(g)
        assert (system is None) == (expected is None), sorted(g.edges())
        if system is not None:
            assert system == expected and system.vertex_masks == expected.vertex_masks

    def test_grids_against_the_per_class_oracle(self):
        rng = seeded(67)
        for rows, cols in [(2, 2), (2, 9), (3, 3), (4, 7), (5, 5), (6, 11), (10, 10), (8, 30), (17, 23), (30, 30)]:
            g = _grid(rows, cols)
            self._assert_matches_the_per_class_oracle(g)
            self._assert_matches_the_per_class_oracle(_shuffled(g, rng))
        # Vertex 0 at the centre of a 9x9 grid: 16 classes, 2 ecc(0) = 16.
        ids = list(range(81))
        ids[0], ids[40] = 40, 0
        assert _halfspaces(_relabelled(_grid(9, 9), ids)).num_categories == 32

    def test_cycles_against_the_per_class_oracle(self):
        rng = seeded(71)
        for n in [3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 33, 34, 99, 100, 199, 200]:
            self._assert_matches_the_per_class_oracle(cycle_graph(n))
            self._assert_matches_the_per_class_oracle(_shuffled(cycle_graph(n), rng))

    def test_hypercubes_against_the_per_class_oracle(self):
        # Q_9 and Q_10 have more than 8 classes at the first root.
        rng = seeded(73)
        for d in range(1, 11):
            g = _shuffled(_hypercube(d), rng) if d % 2 else _hypercube(d)
            self._assert_matches_the_per_class_oracle(g)
            assert _halfspaces(g).num_categories == 2 * d

    @pytest.mark.parametrize("g", [K23, K24], ids=["K23", "K24"])
    def test_complete_bipartite_graphs_against_the_per_class_oracle(self, g):
        self._assert_matches_the_per_class_oracle(g)

    def test_random_bipartite_graphs_against_the_per_class_oracle(self):
        rng = seeded(79)
        tried = accepted = 0
        while tried < 300:
            n = rng.randint(2, 14)
            left = rng.randint(1, n - 1)
            p = rng.choice((0.15, 0.25, 0.4, 0.6))
            g = Graph(n, [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p])
            if not is_connected(g):
                continue
            g = _shuffled(g, rng)
            tried += 1
            self._assert_matches_the_per_class_oracle(g)
            accepted += _halfspaces(g) is not None
        assert accepted

    def test_random_trees_against_the_per_class_oracle(self):
        rng = seeded(83)
        for _ in range(100):
            tree = random_tree(rng, rng.randint(2, 40), rng.choice(("uniform", "hub")))
            self._assert_matches_the_per_class_oracle(_shuffled(tree.graph, rng))

    @pytest.mark.parametrize(
        ("g", "passes"),
        [(_grid(30, 30), 15), (cycle_graph(200), 50), (_hypercube(8), 1), (_hypercube(10), 2)],
        ids=["grid900", "cycle200", "Q8", "Q10"],
    )
    def test_one_pass_settles_every_class_at_its_root(self, root_passes, g, passes):
        # Each pass roots at a vertex with the most unclassified edges and
        # cuts up to 8 of them, whatever the vertex ids.
        rng = seeded(89)
        for h in (g, _shuffled(g, rng), _shuffled(g, rng)):
            root_passes.clear()
            assert _halfspaces(h) is not None
            assert len(root_passes) == passes

    def test_more_classes_than_the_cap_run_no_pass(self, root_passes):
        # A star's hub 0 has ecc 1, so its 3 classes exceed 2 ecc(0) = 2
        # before any pass; with 2 leaves the path fits the cap.
        assert _halfspaces(star_graph(4)) is None and not root_passes
        assert _halfspaces(star_graph(3)) == path_categories(star_graph(3)) and len(root_passes) == 1

    def test_random_bipartite_graphs_against_the_theta_oracle(self):
        rng = seeded(59)
        tried = 0
        while tried < 300:
            n = rng.randint(7, 10)
            left = rng.randint(1, n - 1)
            p = rng.choice((0.2, 0.3, 0.5))
            g = Graph(n, [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p])
            if not is_connected(g):
                continue
            tried += 1
            classes = oracle_theta_classes(g)
            system = _halfspaces(g)
            assert (system is not None) == (classes is not None and len(classes) == diameter(g))
            if system is not None:
                _assert_shortest_routes(g, system)

    @pytest.mark.parametrize("g", [K23, K24], ids=["K23", "K24"])
    def test_complete_bipartite_graphs_fall_through_to_the_tree(self, g):
        # Bipartition, cuts and the class count alone would accept these;
        # the certificate turns them away.
        assert _halfspaces(g) is None
        tree = bfs_spanning_tree(g, choose_root(g))
        system = graph_categories(g)
        assert system == _code_families(tree)
        assert_construction_contract(g, system)

    def test_the_halfspaces_of_k23_get_stuck(self):
        # K_{2,3}'s halfspace system itself cannot route: 1 and 2 lie in
        # the same categories, so a message from 0 to 2 reaches 1, at
        # distance 0, and is stuck there.
        classes = oracle_theta_classes(K23)
        assert classes is None
        sets = [(0, 4), (1, 2, 3), (0, 3), (1, 2, 4)]
        report = verify_all_pairs_routing(K23, CategorySystem(5, sets))
        assert not report.holds and report.witness == (0, 2, 1)

    def test_random_non_path_trees_do_not_take_halfspaces(self):
        # A tree has n - 1 classes, more than its diameter unless it is a
        # path: the antipode test turns it away.
        rng = seeded(61)
        for _ in range(200):
            tree = random_tree(rng, rng.randint(4, 12))
            g = tree.graph
            if not is_path(g):
                assert _halfspaces(g) is None

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
    def test_a_path_gets_the_same_halfspaces_either_way(self, n):
        g = path_graph(n)
        assert _halfspaces(g) == path_categories(g)

    @pytest.mark.parametrize("spec", [GeneratorSpec("grid", 100), GeneratorSpec("cycle", 60), GeneratorSpec("grid", 90)])
    def test_grids_and_even_cycles_route_along_shortest_paths(self, spec):
        g = generate(spec)
        system = graph_categories(g)
        assert membership_dimension(system) == diameter(g)
        report, max_hops, _ = route_statistics(g, system)
        assert report.holds and max_hops == diameter(g)
        _assert_shortest_routes(g, system)
        assert is_internally_connected(g, system).holds

    def test_the_hypercube(self):
        g = _hypercube(5)
        system = graph_categories(g)
        assert membership_dimension(system) == 5 and system.num_categories == 10
        _assert_shortest_routes(g, system)

    @pytest.mark.parametrize("g", [Graph(0), Graph(1), Graph(4, [(0, 1), (2, 3)])], ids=["empty", "one", "split"])
    def test_degenerate_graphs_are_not_partial_cubes_here(self, g):
        assert _halfspaces(g) is None


class TestImpossibilityPair:
    def test_first_direction(self):
        first, second = impossibility_pair()
        s = graph_categories(first)
        assert verify_all_pairs_routing(first, s).holds
        assert not greedy_route(second, s, 1, 2).delivered

    def test_second_direction(self):
        first, second = impossibility_pair()
        s = graph_categories(second)
        assert verify_all_pairs_routing(second, s).holds
        assert not greedy_route(first, s, 0, 2).delivered

    def test_empty_system_fails_on_both(self):
        first, second = impossibility_pair()
        empty = CategorySystem(3, [])
        assert not verify_all_pairs_routing(first, empty).holds
        assert not verify_all_pairs_routing(second, empty).holds

    def test_no_system_can_serve_both(self):
        # The structural reason: s -> t on the first chain forces
        # d(u, t) < d(s, t); u -> t on the second forces the reverse.
        first, second = impossibility_pair()
        for sets in ([(1, 2)], [(0, 2)], [(0, 1, 2), (2,)]):
            s = CategorySystem(3, sets)
            ok_first = greedy_route(first, s, 0, 2).delivered
            ok_second = greedy_route(second, s, 1, 2).delivered
            assert not (ok_first and ok_second)
