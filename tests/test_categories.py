import copy
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catroute import (
    CategorySystem,
    GeneratorSpec,
    ParseError,
    ValidationError,
    category_distance,
    generate,
    graph_categories,
    greedy_route,
    is_internally_connected,
    membership_dimension,
    parse_categories,
    route_statistics,
    serialize_categories,
    verify_all_pairs_routing,
)
from catroute import categories
from catroute.categories import _member_lists, _members
from catroute.construct import _category_masks
from catroute.fixtures import counterexample_cycle

from conftest import (
    oracle_canonical,
    oracle_cat,
    oracle_distance,
    oracle_membership_dimension,
    random_category_system,
    reference_category_system,
    reference_parse_categories,
    seeded,
)

# Six-element universe u..z as ids 0..5 with five interleaved categories;
# every vertex sits in exactly three of them.
SIX_ELEMENT_SETS = [
    (0, 1, 2),      # u v w
    (3, 4, 5),      # x y z
    (0, 2, 3, 5),   # u w x z
    (0, 1, 4, 5),   # u v y z
    (1, 2, 3, 4),   # v w x y
]


class TestCat:
    def test_six_element_example(self):
        s = CategorySystem(6, SIX_ELEMENT_SETS)
        u = 0
        member_sets = {s.categories[i] for i in _members(s.vertex_masks[u])}
        assert member_sets == {(0, 1, 2), (0, 2, 3, 5), (0, 1, 4, 5)}
        assert len(_members(s.vertex_masks[u])) == 3

    def test_empty_system(self):
        s = CategorySystem(3, [])
        assert all(_members(s.vertex_masks[v]) == () for v in range(3))

    def test_singleton(self):
        s = CategorySystem(2, [(0,)])
        assert _members(s.vertex_masks[0]) == (0,)
        assert _members(s.vertex_masks[1]) == ()


class TestMembershipDimension:
    def test_six_element_example_is_three(self):
        s = CategorySystem(6, SIX_ELEMENT_SETS)
        assert membership_dimension(s) == 3

    def test_empty_system_is_zero(self):
        assert membership_dimension(CategorySystem(4, [])) == 0
        assert membership_dimension(CategorySystem(0, [])) == 0

    def test_three_vertex_path_construction_sets(self):
        # Prefix/suffix sets for a path on 3 vertices, enumerated by hand.
        s = CategorySystem(3, [(0,), (0, 1), (1, 2), (2,)])
        assert membership_dimension(s) == 2


class TestCategoryDistance:
    def test_counterexample_distance(self):
        _, s = counterexample_cycle()
        x = 3
        assert {s.categories[i] for i in oracle_cat(s, x)} == {
            (0, 1, 3),
            (1, 2, 3),
            (2, 3),
            (0, 3),
        }
        assert category_distance(s, 1, x) == 2

    def test_self_distance_is_zero(self):
        s = CategorySystem(6, SIX_ELEMENT_SETS)
        assert all(category_distance(s, v, v) == 0 for v in range(6))

    def test_asymmetry(self):
        shared = CategorySystem(2, [(0, 1)])
        assert category_distance(shared, 0, 1) == 0
        assert category_distance(shared, 1, 0) == 0
        lonely = CategorySystem(2, [(1,)])
        assert category_distance(lonely, 0, 1) == 1
        assert category_distance(lonely, 1, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            category_distance(CategorySystem(2, [(0,)]), 0, 9)


class TestConstruction:
    def test_duplicates_collapse(self):
        s = CategorySystem(3, [(0, 1), (1, 0)])
        assert s.num_categories == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            CategorySystem(3, [()])

    def test_member_out_of_range(self):
        with pytest.raises(ValidationError):
            CategorySystem(2, [(5,)])

    def test_canonical_order(self):
        s = CategorySystem(3, [(2,), (0, 2), (0, 1, 2), (0, 1)])
        assert s.categories == ((0, 1), (0, 1, 2), (0, 2), (2,))

    def test_negative_universe_rejected(self):
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            CategorySystem(-1, [])
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            CategorySystem.from_masks(-1, [])
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            parse_categories('{"n":-1,"categories":[]}', -1)
        # The size is checked before any member is range-checked against it.
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            CategorySystem(-1, [[0]])
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            CategorySystem.from_masks(-1, [1])
        with pytest.raises(ValidationError, match="universe size must be non-negative"):
            parse_categories('{"n":-1,"categories":[[0]]}', -1)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="empty categories are not allowed"):
            CategorySystem.from_masks(3, [1, 0])

    def test_out_of_range_names_first_offending_member_in_input_order(self):
        # Sorted, -2 would come first; in input order 9 does.
        with pytest.raises(ValidationError, match=r"^category member 9 out of range for n=5$"):
            CategorySystem(5, [(0, 1), (4, 9, -2, 7)])
        # The first offending set wins, even where an empty set comes earlier.
        with pytest.raises(ValidationError, match=r"^category member 6 out of range for n=5$"):
            CategorySystem(5, [(), (6,), (7,)])

    def test_negative_ids_are_out_of_range(self):
        # The scatter's tables would read a negative id from their end.
        with pytest.raises(ValidationError, match=r"^category member -1 out of range for n=5$"):
            CategorySystem(5, [(0, 4), (3, -1, 9)])
        with pytest.raises(ValidationError, match=r"^category member -5 out of range for n=5$"):
            CategorySystem(5, [(-5,)])

    def test_out_of_range_message_from_one_shot_members(self):
        with pytest.raises(ValidationError, match=r"^category member 8 out of range for n=3$"):
            CategorySystem(3, [iter([2, 8, -1])])

    def test_bool_members_become_plain_ints(self):
        s = CategorySystem(2, [(True, 1, False)])
        assert s.categories == ((0, 1),)
        assert all(type(v) is int for v in s.categories[0])

    def test_from_masks_reads_a_one_shot_iterable(self):
        s = CategorySystem.from_masks(3, (m for m in [1, 3, 6]))
        assert s.num_categories == 3
        assert s == CategorySystem.from_masks(3, [1, 3, 6])
        assert s.categories == ((0,), (0, 1), (1, 2))

    def test_from_masks_out_of_range(self):
        for masks in ([1, 8], [-1]):
            with pytest.raises(ValidationError, match=r"^category mask out of range for n=3$"):
                CategorySystem.from_masks(3, masks)

    def test_membership_index_matches_categories(self):
        s = CategorySystem(6, SIX_ELEMENT_SETS)
        for v in range(6):
            assert set(_members(s.vertex_masks[v])) == {
                i for i, members in enumerate(s.categories) if v in members
            }


class TestParseAndSerialize:
    def test_two_categories(self):
        s = parse_categories('{"n":3,"categories":[[0,1],[2]]}', 3)
        assert s.num_categories == 2

    def test_set_semantics_dedup(self):
        s = parse_categories('{"n":3,"categories":[[0,1],[1,0]]}', 3)
        assert s.num_categories == 1

    def test_member_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_categories('{"n":2,"categories":[[5]]}', 2)

    def test_declared_n_must_match(self):
        with pytest.raises(ValidationError):
            parse_categories('{"n":3,"categories":[]}', 4)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            parse_categories('{"n":3,"categories":[[]]}', 3)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_categories("{not json", 3)

    @pytest.mark.parametrize("member", ["true", "1.0", '"1"', "null", "[1]"])
    def test_non_integer_member_rejected(self, member):
        with pytest.raises(ParseError, match="each category must be a list of integer vertex ids"):
            parse_categories(f'{{"n":3,"categories":[[0],[2,{member}]]}}', 3)

    def test_member_type_checked_before_range(self):
        for rows in ("[[7],[true]]", "[[0],[2,1.5]]", "[[7],[2,1.5]]", "[[-1],[1.5]]"):
            with pytest.raises(ParseError):
                parse_categories(f'{{"n":3,"categories":{rows}}}', 3)

    def test_out_of_range_names_first_offending_member_in_input_order(self):
        with pytest.raises(ValidationError, match=r"^category member 7 out of range for n=5$"):
            parse_categories('{"n":5,"categories":[[0],[3,7,-1,9]]}', 5)

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"n":"3","categories":[]}', '"n" must be an integer'),
            ('{"n":true,"categories":[]}', '"n" must be an integer'),
            ('{"n":3.0,"categories":[]}', '"n" must be an integer'),
            ('{"n":3,"categories":{"0":[0]}}', '"categories" must be a list of member lists'),
        ],
        ids=["n-string", "n-bool", "n-float", "categories-object"],
    )
    def test_misshapen_values_are_named(self, text, error):
        with pytest.raises(ParseError) as err:
            parse_categories(text, 3)
        assert str(err.value) == error

    def test_wrong_shape(self):
        with pytest.raises(ParseError):
            parse_categories('{"n":3}', 3)
        with pytest.raises(ParseError):
            parse_categories('{"n":3,"categories":[["a"]]}', 3)

    def test_serialized_bytes(self):
        s = CategorySystem(300, [(299, 0), (257, 1, 1), (5,), (0, 299)])
        assert serialize_categories(s) == '{"n":300,"categories":[[0,299],[1,257],[5]]}\n'

    def test_roundtrip_is_identity_on_canonical_form(self):
        s = CategorySystem(5, [(4, 0), (1,), (2, 3, 4)])
        text = serialize_categories(s)
        again = parse_categories(text, 5)
        assert again == s
        assert serialize_categories(again) == text


def _systems():
    return st.builds(
        lambda n, seed: (n, random_category_system(seeded(seed), n)),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=50, deadline=None)
@given(_systems(), st.data())
def test_distance_plus_shared_equals_target_membership(pair, data):
    n, s = pair
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    shared = len(oracle_cat(s, a) & oracle_cat(s, b))
    assert category_distance(s, a, b) + shared == len(oracle_cat(s, b))
    assert category_distance(s, a, b) == oracle_distance(s, a, b)


@settings(max_examples=50, deadline=None)
@given(_systems())
def test_membership_dimension_matches_naive_recount(pair):
    _, s = pair
    assert membership_dimension(s) == oracle_membership_dimension(s)


@settings(max_examples=50, deadline=None)
@given(_systems())
def test_adding_a_present_category_changes_nothing(pair):
    n, s = pair
    if s.num_categories == 0:
        return
    again = CategorySystem(n, list(s.categories) + [s.categories[0]])
    assert again == s
    assert membership_dimension(again) == membership_dimension(s)


@settings(max_examples=50, deadline=None)
@given(_systems())
def test_serialize_parse_roundtrip(pair):
    n, s = pair
    assert parse_categories(serialize_categories(s), n) == s


def _row_list_json(system):
    """The serialized form with every row copied into a list."""
    payload = {"n": system.n, "categories": [list(c) for c in system.categories]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


@st.composite
def _raw_sets(draw):
    """Raw member lists: unordered, with repeated members and repeated sets,
    over universes of 0 or 1 vertices, small ones, and ones with ids above
    256 (where ints stop being cached), plus a few dense runs of ids."""
    n = draw(st.one_of(st.integers(0, 1), st.integers(2, 40), st.integers(250, 700)))
    if n == 0:
        return n, []
    member = st.integers(0, n - 1)
    sets = draw(st.lists(st.lists(member, min_size=1, max_size=10), max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(member)
        sets.append(list(range(start, draw(st.integers(start + 1, n)))))
    if sets:
        for members in draw(st.lists(st.sampled_from(sets), max_size=4)):
            sets.append(members[::-1] + members)
    return n, draw(st.permutations(sets))


def _assert_matches_oracle(system, n, expected):
    categories, category_masks, vertex_masks, memdim = expected
    assert system.n == n
    assert system.categories == categories
    assert all(type(v) is int for members in system.categories for v in members)
    assert system.category_masks == category_masks
    assert system.vertex_masks == vertex_masks
    assert membership_dimension(system) == memdim


@settings(max_examples=150, deadline=None)
@given(_raw_sets())
def test_constructors_match_canonical_oracle(raw):
    n, sets = raw
    expected = oracle_canonical(n, sets)
    _assert_matches_oracle(CategorySystem(n, sets), n, expected)
    masks = [sum(1 << v for v in set(members)) for members in sets]
    _assert_matches_oracle(CategorySystem.from_masks(n, masks), n, expected)
    _assert_matches_oracle(CategorySystem.from_masks(n, iter(masks)), n, expected)
    parsed = parse_categories(json.dumps({"n": n, "categories": sets}), n)
    _assert_matches_oracle(parsed, n, expected)
    assert serialize_categories(parsed) == _row_list_json(parsed)


# SHA-256 of serialize_categories(graph_categories(g)) for one seeded graph
# per generator family: (family, n, seed, params, digest). Any change to the
# canonical bytes fails here.
GOLDEN_BYTES = (
    ("gnp-connected", 60, 100, {"p": 0.1}, "b453b036b7123fcd4c7373f22dfc0b9c58a096f16b85583740bc4d0a372be7b4"),
    ("random-tree", 60, 101, {}, "f1c31a3c43d66334084bd7996b803e53eb0245211c7c9399fc9e7e3c477afef7"),
    ("path", 60, 102, {}, "85e9cf814431bb08e1e94803aa733a908a89aae2ba4f358a0a8739c626ee0de9"),
    ("cycle", 60, 103, {}, "69845f49153cc6803be0549d6ce964b7f334def4ae2284b03bc2d489f160840d"),
    ("grid", 60, 104, {}, "5f30ca4a1787d3cf2ce5f5ab4ef8466507462b7d891ade518dae9c880f2d74b9"),
    ("star", 60, 105, {}, "3a9d5a3b81d39a803a06891450ef2380f22aaf9096d2e7bc079c7dbfb78805f7"),
    ("complete", 16, 106, {}, "73a001c54632a2f69f15b1888e8ff36de70749a2d600f3f6e9c4bca5b7d558ee"),
    ("watts-strogatz", 60, 107, {}, "1196fa1e1ea99504c6f5126ee0160698ba349e03af2f1ec8ade9d9a3bfbbe244"),
)


@pytest.mark.parametrize("family, n, seed, params, digest", GOLDEN_BYTES, ids=[row[0] for row in GOLDEN_BYTES])
def test_canonical_bytes_are_pinned(family, n, seed, params, digest):
    system = graph_categories(generate(GeneratorSpec(family, n, seed, params)))
    text = serialize_categories(system)
    assert text == _row_list_json(system)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _member_tuple(mask, n):
    return tuple(v for v in range(n) if mask >> v & 1)


@st.composite
def _labelled_masks(draw):
    """Masks below 2**n with one distinct string label per vertex, n often
    not a multiple of 8."""
    n = draw(st.sampled_from((0, 1, 3, 7, 8, 9, 13, 15, 17, 63, 65, 300)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if n:
        masks += [(1 << n) - 1, 1 << (n - 1)]
    return n, [f"v{v}" for v in range(n)], masks


@settings(max_examples=100, deadline=None)
@given(_labelled_masks())
def test_member_tuples_pick_labels_off_the_masks(case):
    n, labels, masks = case
    expected = [_member_tuple(mask, n) for mask in masks]
    assert list(_member_lists(masks, labels)) == [[labels[v] for v in members] for members in expected]
    assert list(map(tuple, _member_lists(masks, range(n)))) == expected
    assert [_members(mask) for mask in masks] == expected


@st.composite
def _mask_families(draw):
    """Distinct masks, the empty one included, in a drawn order over small
    universes on both sides of a byte and a 64-bit word: random sets, prefix
    chains (runs 0..j-1 and the prefixes of drawn sets' member tuples) and
    nested sets (drawn sets with one member added)."""
    n = draw(st.sampled_from((0, 1, 7, 8, 9, 63, 64, 65)))
    sets = [frozenset()]
    if n:
        member = st.integers(0, n - 1)
        sets += draw(st.lists(st.frozensets(member, min_size=1, max_size=n), max_size=10))
        sets += [frozenset(range(j)) for j in draw(st.lists(st.integers(1, n), max_size=4))]
        for members in draw(st.lists(st.sampled_from(sets), max_size=3)):
            row = sorted(members)
            sets += [frozenset(row[:i]) for i in range(1, len(row))]
        for members in draw(st.lists(st.sampled_from(sets), max_size=4)):
            sets.append(members | {draw(member)})
    masks = sorted({sum(1 << v for v in members) for members in sets})
    return n, draw(st.permutations(masks))


@settings(max_examples=200, deadline=None)
@given(_mask_families())
@example((9, [0b111, 0b11, 0b1, 0]))
@example((65, [1 << 64 | 1, 1 << 64, 1, 0b11]))
def test_order_key_matches_member_tuple_order(family):
    n, masks = family
    ordered = categories._canonical_order(n, masks)
    assert ordered == sorted(masks, key=lambda mask: _member_tuple(mask, n))


@st.composite
def _many_sets(draw):
    """Up to 40 raw member lists, so that the distinct count is often not a
    multiple of 8 and spans several groups of 8."""
    n = draw(st.one_of(st.integers(1, 20), st.sampled_from((63, 64, 65)), st.integers(250, 300)))
    member = st.integers(0, n - 1)
    return n, draw(st.lists(st.lists(member, min_size=1, max_size=8), min_size=1, max_size=40))


@settings(max_examples=100, deadline=None)
@given(_many_sets(), st.integers(min_value=1, max_value=3))
@example((9, [[v % 9, (3 * v) % 9] for v in range(13)]), 1)
def test_transpose_matches_oracle_over_several_tiles(raw, tile):
    # With tiles of 1 to 3 groups of 8, small systems run several tiles,
    # the last one often short.
    n, sets = raw
    expected = oracle_canonical(n, sets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(categories, "_TILE", tile)
        _assert_matches_oracle(CategorySystem(n, sets), n, expected)
        masks = [sum(1 << v for v in set(members)) for members in sets]
        _assert_matches_oracle(CategorySystem.from_masks(n, masks), n, expected)


def test_member_tuples_are_built_on_first_read():
    g = generate(GeneratorSpec("random-tree", 60, 3))
    system, twin = graph_categories(g), graph_categories(g)
    assert system.num_categories == twin.num_categories > 0
    assert system == twin
    assert membership_dimension(system) > 0
    assert greedy_route(g, system, 0, g.n - 1).delivered
    assert is_internally_connected(g, system).holds
    assert verify_all_pairs_routing(g, system).holds
    assert system._categories is None and twin._categories is None
    text = serialize_categories(system)
    assert system._categories is None
    assert parse_categories(text, g.n)._categories is None
    early = copy.copy(system)
    assert early._categories is None and early == system
    built = system.categories
    assert system._categories is built
    late = copy.copy(system)
    assert late.categories is built
    assert early.categories == built
    assert greedy_route(g, late, 0, g.n - 1).delivered


def _refuse_transpose(n, masks):
    raise AssertionError("vertex masks transposed after construction")


@pytest.mark.parametrize("family, n, seed, params", [row[:4] for row in GOLDEN_BYTES], ids=[row[0] for row in GOLDEN_BYTES])
def test_public_constructors_transpose_at_once(family, n, seed, params, monkeypatch):
    # A caller copies a system and then routes on the copy; the transpose
    # must not move into the copy's first route.
    g = generate(GeneratorSpec(family, n, seed, params))
    system = graph_categories(g)
    text = serialize_categories(system)
    masks = list(system.category_masks)
    built = [
        system,
        parse_categories(text, n),
        CategorySystem(n, json.loads(text)["categories"]),
        CategorySystem.from_masks(n, masks),
    ]
    expected = route_statistics(g, system)
    monkeypatch.setattr(categories, "_transpose", _refuse_transpose)
    for each in built:
        # A plain CategorySystem reads its attributes without a hook.
        assert type(each) is CategorySystem
        twin = copy.copy(each)
        assert twin.vertex_masks == system.vertex_masks
        assert greedy_route(g, twin, 0, n - 1).delivered
        assert route_statistics(g, twin) == expected


@pytest.mark.parametrize("family, n, seed, params", [row[:4] for row in GOLDEN_BYTES], ids=[row[0] for row in GOLDEN_BYTES])
def test_category_side_systems_transpose_on_first_read(family, n, seed, params, monkeypatch):
    # The dispatch gives the category side alone: `catroute construct`
    # serializes it as it is, and a system built from it transposes once.
    g = generate(GeneratorSpec(family, n, seed, params))
    eager = graph_categories(g)
    transposed = []
    real = categories._transpose
    monkeypatch.setattr(categories, "_transpose", lambda n, masks: transposed.append(n) or real(n, masks))
    side = _category_masks(g)
    # A path goes through the public path_categories and the halfspaces
    # through a system for their antipode test; both transpose once and hand
    # their vertex masks on. The tree branch transposes nothing.
    handed = family in ("path", "cycle", "grid")
    assert transposed == ([g.n] if handed else [])
    assert side.vertex_masks == (eager.vertex_masks if handed else None)
    assert side[:2] == (g.n, eager.category_masks) and type(side.category_masks) is tuple
    assert serialize_categories(side) == serialize_categories(eager)
    transposed.clear()
    system = CategorySystem._of(side)
    assert transposed == ([] if handed else [g.n])
    assert type(system) is CategorySystem and system == eager
    assert copy.copy(system).vertex_masks == eager.vertex_masks
    assert membership_dimension(system) == membership_dimension(eager)


def test_serialize_reads_no_member_tuples(monkeypatch):
    systems = [graph_categories(generate(GeneratorSpec(*row[:4]))) for row in GOLDEN_BYTES]
    monkeypatch.setattr(CategorySystem, "categories", property(lambda self: pytest.fail("member tuples built")))
    for system, row in zip(systems, GOLDEN_BYTES):
        assert hashlib.sha256(serialize_categories(system).encode()).hexdigest() == row[4]


@st.composite
def _non_canonical_files(draw):
    """Category files in a drawn non-canonical form, with the raw rows they
    hold: the rows shuffled or in reversed canonical order, some rows
    repeated, and members repeated and out of order within a row."""
    n = draw(st.one_of(st.integers(1, 20), st.sampled_from((63, 64, 65)), st.integers(250, 300)))
    member = st.integers(0, n - 1)
    canonical = sorted({tuple(sorted(members)) for members in draw(
        st.lists(st.frozensets(member, min_size=1, max_size=12), max_size=12))})
    rows = [list(members) for members in canonical]
    if draw(st.booleans()):
        rows.reverse()
    else:
        rows = draw(st.permutations(rows))
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    for row in rows:
        row += draw(st.lists(st.sampled_from(row), max_size=3))
        row[:] = draw(st.permutations(row))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(_non_canonical_files())
@example((9, [[8, 0], [0], [1, 0, 1]]))
@example((17, [[16], [9, 8], [0, 16, 0], [9, 8]]))
def test_parse_matches_canonical_oracle_on_non_canonical_files(case):
    n, rows = case
    expected = oracle_canonical(n, rows)
    parsed = parse_categories(json.dumps({"n": n, "categories": rows}), n)
    _assert_matches_oracle(parsed, n, expected)
    assert serialize_categories(parsed) == _row_list_json(parsed)


# Member tokens that a plain file cannot hold (a bool, null, a minus sign,
# NaN) or that it can but that are no vertex id (a float in exponent form, a
# string, a list, an int past any index); n itself is added per file.
_MEMBER_TOKENS = ("true", "false", "null", "-3", "-0", "1.5", "1e0", "NaN", '"cat"', "[1]", str(10**30))
# Rows that are no list of members, two of which iterate as empty.
_ROW_TOKENS = ('""', "{}", "7", '"cat"', "[]")


def _render(n, rows, pretty, escaped):
    """A category file from its rows, each a list of member tokens or a raw
    row token, compact as the serializer writes it or pretty-printed as
    ``json.dumps`` with ``indent=1`` would, with the "n" key spelled as
    ``\\u006e`` when ``escaped``."""
    key = '"\\u006e"' if escaped else '"n"'
    texts = [row if isinstance(row, str) else "[%s]" % (", " if pretty else ",").join(row) for row in rows]
    if pretty:
        return '{\n %s: %d,\n "categories": [\n  %s\n ]\n}\n' % (key, n, ",\n  ".join(texts))
    return '{%s:%d,"categories":[%s]}\n' % (key, n, ",".join(texts))


@st.composite
def _mutated_files(draw):
    """A canonical category file with one drawn token inserted once or twice
    into its rows or between them, sometimes one more token, then drawn as
    compact or pretty-printed text, the "n" key now and then escaped. One
    kind of token per file, mostly, so that a token a plain file can hold is
    not hidden behind one that sends the file to the validator."""
    n = draw(st.one_of(st.integers(1, 20), st.sampled_from((63, 64, 65)), st.integers(250, 300)))
    sets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=10), min_size=1, max_size=8))
    rows = [list(map(str, members)) for members in oracle_canonical(n, sets)[0]]
    choices = [(True, token) for token in _MEMBER_TOKENS + (str(n),)] + [(False, token) for token in _ROW_TOKENS]
    first = draw(st.sampled_from(choices + [None]))
    inserts = [first] * draw(st.integers(1, 2)) if first else []
    if draw(st.integers(0, 3)) == 0:
        inserts.append(draw(st.sampled_from(choices)))
    for in_row, token in inserts:
        if in_row:
            row = draw(st.sampled_from([row for row in rows if isinstance(row, list)]))
            row.insert(draw(st.integers(0, len(row))), token)
        else:
            rows.insert(draw(st.integers(0, len(rows))), token)
    return n, _render(n, rows, draw(st.booleans()), draw(st.integers(0, 3)) == 0)


def _outcome(parse, text, n):
    """``parse(text, n)``'s system with its vertex masks, or its error's type
    and message."""
    try:
        system = parse(text, n)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return system, system.vertex_masks


@settings(max_examples=400, deadline=None)
@given(_mutated_files())
@example((5, '{"n":5,"categories":[[0,-3],[1]]}'))
@example((5, '{"n":5,"categories":[[0,-0],[1]]}'))
@example((5, '{"n":5,"categories":[[0,true],[1]]}'))
@example((5, '{"n":5,"categories":[[0,"cat"],[1]]}'))
@example((5, '{"n":5,"categories":[[0,1e0],[1]]}'))
@example((5, '{"n":5,"categories":[[0],[1,5]]}'))
@example((5, '{"n":5,"categories":[[0],[1,5],[1e0]]}'))
@example((5, '{"n":5,"categories":[[0],"",[1]]}'))
@example((5, '{\n "n": 5,\n "categories": [\n  [0, 4],\n  [1]\n ]\n}\n'))
def test_parse_matches_the_reference_on_mutated_files(case):
    n, text = case
    assert _outcome(parse_categories, text, n) == _outcome(reference_parse_categories, text, n)


@pytest.mark.parametrize("family, n, seed, params", [row[:4] for row in GOLDEN_BYTES], ids=[row[0] for row in GOLDEN_BYTES])
def test_plain_files_skip_the_validator(family, n, seed, params, monkeypatch):
    # A constructed file and its indent=1 copy are plain: the scatter alone
    # validates them. A -0 member makes the copy not plain; it parses to the
    # same system through the validator.
    system = graph_categories(generate(GeneratorSpec(family, n, seed, params)))
    text = serialize_categories(system)
    negative_zero = text.replace("[0,", "[-0,", 1)
    assert negative_zero != text
    assert parse_categories(negative_zero, n) == system
    pretty = json.dumps(json.loads(text), indent=1)
    monkeypatch.setattr(categories, "_checked_masks", lambda n, rows: pytest.fail("validator run"))
    assert parse_categories(text, n) == parse_categories(pretty, n) == system


class _IntLike:
    """No int, but an int to ``operator.index``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# How a drawn row reaches the constructor: a list, a tuple, a one-shot
# iterator over its members, or a range as drawn.
_ROW_MAKERS = {"list": list, "tuple": tuple, "iter": iter, "range": lambda members: members}


@st.composite
def _constructor_inputs(draw):
    """A universe size, negative now and then, and rows of members that mix
    valid ids with up to two kinds of member that is no vertex id or no int,
    each row as ``(how it is made, its members)``, and whether the outer
    sets come as a one-shot iterator. Half the cases draw at least one such
    kind, so that a negative size often meets a member that
    ``operator.index`` rejects."""
    n = draw(st.one_of(st.integers(0, 12), st.sampled_from((-2, -1, 63, 64, 65))))
    odd = {
        "bool": st.booleans(),
        "negative": st.integers(-5, -1),
        "n": st.just(n),
        "huge": st.just(10**30),
        "int-like": st.integers(-1, max(n, 0)).map(_IntLike),
        "float": st.sampled_from((0.0, 1.5)),
        "string": st.sampled_from(("0", "cat")),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(odd)), min_size=draw(st.integers(0, 1)), max_size=2, unique=True))
    ids = st.integers(0, max(n - 1, 0))
    members = st.one_of(ids, *(odd[kind] for kind in kinds))
    listed = st.tuples(st.sampled_from(("list", "tuple", "iter")), st.lists(members, min_size=1, max_size=6))
    ranged = st.builds(range, st.integers(-2, n + 1), st.integers(-1, n + 2), st.sampled_from((1, 2, -1)))
    rows = draw(st.lists(st.one_of(listed, ranged.map(lambda r: ("range", r))), max_size=6))
    return n, rows, draw(st.booleans())


def _constructed(make, case):
    """``make(n, sets)``'s system with its vertex masks, or its error's type
    and message, with every row made afresh, the outer sets a generator when
    the case asks for one."""
    n, rows, lazy = case
    sets = [_ROW_MAKERS[how](members) for how, members in rows]
    try:
        system = make(n, iter(sets) if lazy else sets)
    except (ParseError, ValidationError, TypeError) as exc:
        return type(exc), str(exc)
    return system, system.vertex_masks


@settings(max_examples=400, deadline=None)
@given(_constructor_inputs())
@example((5, [("list", [0, True]), ("tuple", [1])], False))
@example((5, [("tuple", [0, 4]), ("iter", [3, -1, 9])], False))
@example((5, [("list", [0]), ("list", [1, 5]), ("list", [1.5])], True))
@example((5, [("list", [_IntLike(2), 10**30])], False))
@example((-1, [("list", [1.5])], False))
@example((3, [("range", range(0, 4))], False))
@example((3, [("iter", [2, 8, -1])], True))
def test_constructor_matches_the_reference(case):
    assert _constructed(CategorySystem, case) == _constructed(reference_category_system, case)
