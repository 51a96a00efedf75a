import itertools
import sys

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
from catroute.generators import FAMILIES, GeneratorSpec, generate

from conftest import (
    complete_graph,
    cycle_graph,
    oracle_eccentricity,
    oracle_parse_edge_list,
    oracle_spanning_parents,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1_0\n", "line 1: non-integer vertex id in '0 1_0'"),
            ("+0 1\n", "line 1: non-integer vertex id in '+0 1'"),
            ("0 \u0663\n", "line 1: non-integer vertex id in '0 \u0663'"),
            ("n 1_0\n", "line 1: bad vertex count '1_0'"),
        ],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "header-underscore"],
    )
    def test_only_ascii_digits_spell_an_id(self, text, message):
        # int() reads each of these spellings; the format does not.
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert (str(err.value), err.value.line) == (message, 1)

    def test_a_signed_zero_is_a_negative_id(self):
        with pytest.raises(ParseError, match="line 2: negative vertex id in '-0 1'"):
            parse_edge_list("0 1\n-0 1\n")
        with pytest.raises(ParseError, match="line 1: vertex count must be non-negative"):
            parse_edge_list("n -0\n")

    def test_more_digits_than_int_reads_is_not_an_id(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() here reads any number of digits")
        big = "9" * (limit + 1)
        with pytest.raises(ParseError, match="line 1: non-integer vertex id"):
            parse_edge_list(f"0 {big}\n")
        with pytest.raises(ParseError, match="line 1: bad vertex count"):
            parse_edge_list(f"n {big}\n")

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

    def test_depth_and_children_bookkeeping(self):
        tree = bfs_spanning_tree(cycle_graph(4), 0)
        assert bfs_distances(tree.graph, tree.root) == [0, 1, 2, 1]
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

    @pytest.mark.parametrize(
        "parent, root, message",
        [
            ([None], 1, "root 1 out of range for n=1"),
            ([1, None, 1], 0, "root must have no parent"),
            ([None, 0, 3], 0, "vertex 2 has invalid parent 3"),
            ([None, None, 0], 0, "vertex 1 has invalid parent None"),
            ([None, 0, 3, 2], 0, "parent array does not form a tree on all vertices"),
        ],
    )
    def test_validation_messages(self, parent, root, message):
        with pytest.raises(ValidationError) as err:
            RootedTree(parent, root)
        assert str(err.value) == message


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


def _relabelled(rng, n, edges):
    """The graph on ``edges`` with its vertex ids shuffled."""
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph(n, ((ids[u], ids[v]) for u, v in edges))


def _shuffled_tree(n, seed):
    rng = seeded(seed)
    return _relabelled(rng, n, [(rng.randrange(v), v) for v in range(1, n)])


def _star_with_hub(n, seed):
    hub = seeded(seed).randrange(n)
    return Graph(n, ((hub, v) for v in range(n) if v != hub))


def _caterpillar(spine, legs, seed):
    """A path of ``spine`` vertices with ``legs`` leaves hung on random spine
    vertices, ids shuffled."""
    rng = seeded(seed)
    edges = [(v - 1, v) for v in range(1, spine)]
    edges += [(rng.randrange(spine), spine + leg) for leg in range(legs)]
    return _relabelled(rng, spine + legs, edges)


def _sweep_graphs():
    """Generated graphs plus long paths and cycles, whose reach sweeps run the
    most levels, random graphs down to one vertex, and trees of every shape
    the centre peel meets: shuffled random trees, stars with the hub at any
    id, caterpillars, and paths of odd and even length (one centre or two)."""
    sizes = st.integers(min_value=1, max_value=40)
    seeds = st.integers(min_value=0, max_value=10_000)
    return st.one_of(
        _graphs(),
        st.builds(path_graph, st.integers(min_value=1, max_value=150)),
        st.builds(cycle_graph, st.integers(min_value=3, max_value=150)),
        st.builds(
            lambda n, seed: random_connected_graph(seeded(seed), n),
            st.integers(min_value=1, max_value=30),
            seeds,
        ),
        st.builds(_shuffled_tree, sizes, seeds),
        st.builds(_star_with_hub, sizes, seeds),
        st.builds(_caterpillar, sizes, st.integers(min_value=0, max_value=30), seeds),
        st.builds(
            lambda n, seed: _relabelled(seeded(seed), n, [(v - 1, v) for v in range(1, n)]),
            sizes,
            seeds,
        ),
    )


@st.composite
def _spanning_cases(draw):
    """A generated graph of any family with its ids shuffled, often with
    some edges dropped so that it falls apart, and a root."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=5 if family == "watts-strogatz" else 3 if family == "cycle" else 1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    g = generate(GeneratorSpec(family, n, seed, {"p": 0.15} if family == "gnp-connected" else {}))
    rng = seeded(seed)
    edges = list(g.edges())
    if draw(st.booleans()):
        edges = [e for e in edges if rng.random() < 0.8]
    return _relabelled(rng, n, edges), draw(st.integers(min_value=0, max_value=n - 1))


@settings(max_examples=300, deadline=None)
@given(_spanning_cases())
# Level 2 is reached as 3 (via 1), then 2 (via 4); 5's parent is 2.
@example((Graph(6, [(0, 1), (0, 4), (1, 3), (4, 2), (2, 5), (3, 5)]), 0))
@example((Graph(5, [(0, 4), (1, 3)]), 1))
def test_spanning_tree_matches_the_two_pass_definition(case):
    # One BFS that takes each level in ascending id order against a BFS for
    # the distances and then a scan of each vertex's neighbours.
    g, root = case
    parent, dist = oracle_spanning_parents(g, root)
    unreachable = [v for v, d in enumerate(dist) if d is None]
    if unreachable:
        with pytest.raises(DisconnectedGraphError) as err:
            bfs_spanning_tree(g, root)
        assert err.value.unreachable_pair == (root, unreachable[0])
    else:
        tree = bfs_spanning_tree(g, root)
        assert (tree.root, tree.parent) == (root, tuple(parent))
        derived = RootedTree(parent, root)
        assert (tree.children, tree.order) == (derived.children, derived.order)


def _oracle_levels(g):
    eccentricities = [oracle_eccentricity(g, v) for v in range(g.n)]
    return [
        (k, [v for v in range(g.n) if eccentricities[v] == k])
        for k in sorted(set(eccentricities))
    ]


@settings(max_examples=200, deadline=None)
@given(_sweep_graphs())
@example(Graph(1))
@example(path_graph(2))
@example(path_graph(5))
@example(path_graph(6))
# 0-2-1-3 peels to its centres 2 and 1 in that order; the root is 1.
@example(Graph(4, [(0, 2), (2, 1), (1, 3)]))
def test_chosen_root_has_minimum_eccentricity(g):
    # The peel and the reach sweep behind choose_root and diameter against
    # one BFS per vertex: the lowest vertex of the lowest level, then the
    # highest level.
    levels = _oracle_levels(g)
    assert list(graph_module._root_and_diameter(g)) == [levels[0][1][0], levels[-1][0]]
    assert diameter(g) == levels[-1][0]
    assert choose_root(g) == levels[0][1][0]


def test_tree_edge_count_with_a_cycle_is_disconnected():
    # A triangle plus one isolated vertex has n - 1 edges but is no tree.
    g = parse_edge_list("n 4\n0 1\n1 2\n2 0\n")
    for call in (diameter, choose_root):
        with pytest.raises(DisconnectedGraphError) as err:
            call(g)
        assert err.value.unreachable_pair == (0, 3)


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


@st.composite
def _well_formed_edge_lists(draw):
    """``(text, graph)``: an edge list with comments, blank lines, CRLF or
    LF endings, stray spaces and tabs, leading zeros, repeated and reversed
    edges and an optional header, and the graph it describes."""
    n = draw(st.integers(min_value=0, max_value=25))
    edges = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, max_size=40))
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=5))] if edges else []
    declared = draw(st.one_of(st.none(), st.integers(min_value=n, max_value=n + 3)))
    pad = st.sampled_from(("", " ", "  ", "\t", " \t"))
    lines = [f"{draw(pad)}{draw(st.sampled_from(('', '0', '00')))}{u}{draw(pad)} {v}{draw(pad)}" for u, v in edges]
    filler = st.sampled_from(("", "   ", "# a comment", "  # 0 1", "#n 5", "\t"))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(filler))
    if declared is not None:
        # Comments and blank lines may come before the header, edges not.
        first = next((i for i, line in enumerate(lines) if line.strip() and line.strip()[0] != "#"), len(lines))
        lines.insert(draw(st.integers(min_value=0, max_value=first)), f"n {declared}{draw(pad)}")
    end = draw(st.sampled_from(("\n", "\r\n")))
    text = end.join(lines) + draw(st.sampled_from(("", end)))
    size = declared if declared is not None else 1 + max((max(e) for e in edges), default=-1)
    return text, Graph(size, edges)


@settings(max_examples=300, deadline=None)
@given(_well_formed_edge_lists())
@example(("# edges\r\n\r\nn 4\r\n0 1 \r\n1 0\r\n\r\n", Graph(4, [(0, 1)])))
def test_parse_matches_the_line_oracle_on_well_formed_input(case):
    text, g = case
    assert parse_edge_list(text) == oracle_parse_edge_list(text) == g


def _outcome(parse, text):
    """The graph ``parse`` returns, or the type, text and line of its error."""
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


_TOKENS = (
    "0", "1", "2", "3", "4", "7", "9", "10", "11", "12", "007", "99", "n",
    "x", "-1", "-0", "+0", "1_0", "\u0663", "1.0", "0x1", "\u00b2",
)


@st.composite
def _malformed_edge_lists(draw):
    """Lines of one to three tokens, good and bad, headers anywhere, and
    comments, blank lines and either line ending."""
    token = st.sampled_from(_TOKENS)
    pair = st.tuples(token, token).map(" ".join)
    line = st.one_of(
        pair,
        pair,
        st.lists(token, min_size=1, max_size=3).map(" ".join),
        token.map("n {}".format),
        st.sampled_from(("", "  ", "# comment", "0 1", "1 2", "2 3", "3 3")),
    )
    lines = draw(st.lists(line, min_size=1, max_size=8))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines)


@settings(max_examples=500, deadline=None)
@given(_malformed_edge_lists(), st.sampled_from((4, 10, 12, 1_000_000)))
@example("0 1\n0 x\n", 1_000_000)
@example("n 11\n0 1\n", 10)
@example("0 1\n3 10\n", 10)
@example("n 5\n0 1\nn 4\n", 10)
@example("0 1 2\n-1 0\n", 10)
def test_parse_matches_the_line_oracle_on_malformed_input(text, cap):
    # The error, its message and its line, with the vertex cap rebound, as
    # the oracle that checks each line in full before the next gives them.
    saved = graph_module.MAX_VERTICES
    graph_module.MAX_VERTICES = cap
    try:
        assert _outcome(parse_edge_list, text) == _outcome(oracle_parse_edge_list, text)
    finally:
        graph_module.MAX_VERTICES = saved


@pytest.mark.parametrize("family", FAMILIES)
def test_spanning_tree_hands_over_what_rooted_tree_derives(family):
    # bfs_spanning_tree builds the sorted children itself; the tree must be
    # the one RootedTree derives from the parent array, field for field.
    g = generate(GeneratorSpec(family, 30, 7, {"p": 0.15} if family == "gnp-connected" else {}))
    for root in sorted({0, choose_root(g), g.n - 1}):
        tree = bfs_spanning_tree(g, root)
        derived = RootedTree(tree.parent, root)
        assert (tree.root, tree.parent, tree.children, tree.order) == (
            derived.root, derived.parent, derived.children, derived.order
        )
        assert all(type(kids) is tuple for kids in tree.children)
