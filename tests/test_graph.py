import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catroute import (
    DisconnectedGraphError,
    Graph,
    ParseError,
    RootedTree,
    ValidationError,
    bfs_distances,
    bfs_spanning_tree,
    choose_root,
    diameter,
    is_connected,
    is_path,
    is_tree,
    parse_edge_list,
    serialize_edge_list,
)
from catroute import graph as graph_module
from catroute.generators import GeneratorSpec, generate

from conftest import (
    complete_graph,
    cycle_graph,
    oracle_eccentricity,
    path_graph,
    random_connected_graph,
    seeded,
    star_graph,
)


class TestGraphType:
    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 1)])
        assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))
        for u in range(g.n):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 5)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValidationError):
            Graph(-1)

    def test_vertex_count_above_cap_fails_before_the_edges_are_read(self, monkeypatch):
        def edges():
            raise AssertionError("edges read past the vertex cap")
            yield

        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        with pytest.raises(ValidationError) as err:
            Graph(11, edges())
        assert str(err.value) == "vertex count 11 is above the cap of 10"
        assert Graph(10, [(0, 9)]).n == 10


class TestParseEdgeList:
    def test_smallest_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicates_and_reversals_collapse(self):
        g = parse_edge_list("0 1\n0 1\n1 0")
        assert g.n == 2
        assert g.num_edges == 1

    def test_self_loop_is_an_error(self):
        with pytest.raises(ValidationError):
            parse_edge_list("0 0")

    def test_header_declares_vertex_count(self):
        g = parse_edge_list("n 5\n0 1\n")
        assert g.n == 5
        assert g.num_edges == 1

    def test_comments_and_blank_lines_ignored(self):
        g = parse_edge_list("# a comment\n\n0 1\n# another\n1 2\n")
        assert g.n == 3

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\n0 x\n")
        assert err.value.line == 2

    def test_wrong_arity_reports_line(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 2\n")

    def test_negative_id_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_edge_list("-1 0\n")

    @pytest.mark.parametrize("text", ["n 1 2\n", "# count\nn x\n", "\n\nn -1\n"])
    def test_bad_header_reports_line(self, text):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line == text.count("\n")

    def test_header_must_come_first(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1\nn 4\n")

    def test_id_beyond_declared_count(self):
        with pytest.raises(ValidationError):
            parse_edge_list("n 2\n0 5\n")

    def test_default_vertex_cap(self):
        assert graph_module.MAX_VERTICES == 1_000_000

    @pytest.mark.parametrize(
        "text, line",
        [("n 11\n0 1\n", 1), ("0 1\n3 10\n", 2), ("# ids\n10 2\n", 2)],
    )
    def test_vertex_count_above_cap_fails_before_the_graph_is_built(
        self, monkeypatch, text, line
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("Graph built past the vertex cap")

        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        monkeypatch.setattr(graph_module, "Graph", refuse)
        with pytest.raises(ValidationError) as err:
            parse_edge_list(text)
        assert str(err.value).startswith(f"line {line}: ")
        assert "cap of 10" in str(err.value)

    @pytest.mark.parametrize("text", ["n 10\n0 9\n", "0 9\n"])
    def test_vertex_count_at_cap_is_accepted(self, monkeypatch, text):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 10)
        g = parse_edge_list(text)
        assert g.n == 10 and list(g.edges()) == [(0, 9)]

    def test_empty_input_gives_empty_graph(self):
        assert parse_edge_list("").n == 0

    def test_roundtrip_is_identity_on_canonical_form(self):
        g = Graph(6, [(4, 1), (0, 3), (3, 4)])
        text = serialize_edge_list(g)
        again = parse_edge_list(text)
        assert again == g
        assert serialize_edge_list(again) == text


class TestBfsDistances:
    def test_line_graph(self):
        assert bfs_distances(path_graph(3), 0) == [0, 1, 2]

    def test_cycle_symmetry(self):
        assert bfs_distances(cycle_graph(4), 0) == [0, 1, 2, 1]

    def test_unreachable_vertex_is_none(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, None]

    def test_source_out_of_range(self):
        with pytest.raises(ValidationError):
            bfs_distances(path_graph(2), 5)


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(3)) == 2

    def test_cycle(self):
        assert diameter(cycle_graph(4)) == 2

    def test_clique(self):
        assert diameter(complete_graph(4)) == 1

    def test_single_vertex(self):
        assert diameter(Graph(1)) == 0

    def test_disconnected_graph_names_unreachable_pair(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError) as err:
            diameter(g)
        u, v = err.value.unreachable_pair
        assert bfs_distances(g, u)[v] is None

    def test_empty_graph(self):
        with pytest.raises(ValidationError):
            diameter(Graph(0))


class TestChooseRoot:
    def test_path_center(self):
        assert choose_root(path_graph(3)) == 1

    def test_cycle_ties_break_to_smallest_id(self):
        assert choose_root(cycle_graph(4)) == 0

    def test_disconnected_input(self):
        with pytest.raises(DisconnectedGraphError):
            choose_root(Graph(3, [(0, 1)]))


class TestBfsSpanningTree:
    def test_four_cycle_parent_tie_breaks(self):
        tree = bfs_spanning_tree(cycle_graph(4), 0)
        assert set(tree.graph.edges()) == {(0, 1), (0, 3), (1, 2)}

    def test_tree_input_is_its_own_spanning_tree(self):
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        tree = bfs_spanning_tree(g, 2)
        assert set(tree.graph.edges()) == set(g.edges())

    def test_clique_becomes_a_star(self):
        tree = bfs_spanning_tree(complete_graph(4), 0)
        assert set(tree.graph.edges()) == {(0, 1), (0, 2), (0, 3)}
        assert diameter(tree.graph) == 2

    def test_depth_and_height_bookkeeping(self):
        tree = bfs_spanning_tree(cycle_graph(4), 0)
        assert bfs_distances(tree.graph, tree.root) == [0, 1, 2, 1]
        assert tree.height == (2, 1, 0, 0)
        assert tree.children == ((1, 3), (2,), (), ())

    def test_disconnected_input(self):
        with pytest.raises(DisconnectedGraphError):
            bfs_spanning_tree(Graph(3, [(0, 1)]), 0)


class TestRootedTree:
    def test_root_with_a_parent_rejected(self):
        with pytest.raises(ValidationError, match="root must have no parent"):
            RootedTree([1, None, 1], 0)

    @pytest.mark.parametrize("bad", [3, -1, None])
    def test_parent_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError, match="vertex 2 has invalid parent"):
            RootedTree([None, 0, bad], 0)

    def test_parent_cycle_rejected(self):
        # 2 and 3 point at each other, so neither is reached from the root.
        with pytest.raises(ValidationError, match="does not form a tree"):
            RootedTree([None, 0, 3, 2], 0)


class TestShapePredicates:
    def test_is_path(self):
        assert is_path(path_graph(2))
        assert is_path(path_graph(7))
        assert not is_path(Graph(1))
        assert not is_path(cycle_graph(4))
        assert not is_path(star_graph(4))
        assert not is_path(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("n", range(6))
    def test_is_path_on_every_labelled_graph(self, n):
        # Oracle from the definition: some order of the vertices makes the
        # edges exactly its consecutive pairs.
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            edges = {pair for pair, keep in zip(pairs, chosen) if keep}
            expected = n >= 2 and any(
                edges == {tuple(sorted(step)) for step in zip(order, order[1:])}
                for order in itertools.permutations(range(n))
            )
            assert is_path(Graph(n, edges)) == expected, (n, sorted(edges))

    def test_is_tree(self):
        assert is_tree(Graph(1))
        assert is_tree(star_graph(5))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))

    def test_is_connected(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))


def _graphs():
    specs = st.sampled_from(["gnp-connected", "random-tree", "cycle", "grid", "star"])
    return st.builds(
        lambda family, n, seed: generate(
            GeneratorSpec(
                family,
                max(n, 3),
                seed=seed,
                params={"p": 0.15} if family == "gnp-connected" else {},
            )
        ),
        specs,
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=40, deadline=None)
@given(_graphs(), st.integers(min_value=0, max_value=10_000))
def test_spanning_tree_depth_matches_bfs_distance(g, pick):
    root = pick % g.n
    tree = bfs_spanning_tree(g, root)
    assert bfs_distances(tree.graph, root) == bfs_distances(g, root)


@settings(max_examples=40, deadline=None)
@given(_graphs(), st.integers(min_value=0, max_value=10_000))
def test_spanning_tree_diameter_at_most_twice_graph_diameter(g, pick):
    tree = bfs_spanning_tree(g, pick % g.n)
    assert diameter(tree.graph) <= 2 * diameter(g)


@settings(max_examples=40, deadline=None)
@given(_graphs())
def test_serialize_parse_roundtrip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def _sweep_graphs():
    """Generated graphs plus long paths and cycles, whose reach sweeps run the
    most levels, and random graphs down to one vertex."""
    return st.one_of(
        _graphs(),
        st.builds(path_graph, st.integers(min_value=1, max_value=150)),
        st.builds(cycle_graph, st.integers(min_value=3, max_value=150)),
        st.builds(
            lambda n, seed: random_connected_graph(seeded(seed), n),
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=0, max_value=10_000),
        ),
    )


@settings(max_examples=80, deadline=None)
@given(_sweep_graphs())
@example(Graph(1))
@example(path_graph(2))
def test_chosen_root_has_minimum_eccentricity(g):
    # The reach sweep behind choose_root and diameter against one BFS per vertex.
    eccentricities = [oracle_eccentricity(g, v) for v in range(g.n)]
    assert diameter(g) == max(eccentricities)
    assert choose_root(g) == min(range(g.n), key=lambda v: (eccentricities[v], v))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_disconnected_input_names_first_vertex_unreachable_from_zero(n, seed):
    # A random forest: each vertex joins an earlier one with probability 0.7,
    # except one, which starts a component of its own.
    rng = seeded(seed)
    loner = rng.randrange(1, n)
    g = Graph(n, [(rng.randrange(v), v) for v in range(1, n) if v != loner and rng.random() < 0.7])
    dist = bfs_distances(g, 0)
    first = min(v for v in range(n) if dist[v] is None)
    for call in (diameter, choose_root):
        with pytest.raises(DisconnectedGraphError) as err:
            call(g)
        assert err.value.unreachable_pair == (0, first)
