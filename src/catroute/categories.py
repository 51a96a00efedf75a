"""Category systems: finite families of distinct vertex subsets.

Each category is stored as a bitmask over the vertex universe, and each vertex
carries a bitmask over category indices, so the routing distance (a set
difference size) is a single popcount either way.

Both constructors share one canonicalisation. Duplicate sets collapse before
any per-member work; each distinct category's ascending member tuple is made
once (from the mask, a step per non-zero byte and per member; from a member
list, one C-level sort) and the ``(members, mask)`` pairs are sorted by member
tuple. The vertex masks are the transpose: every category index is scattered
into one byte row per vertex, and each row becomes an int once, so no k-bit
int is rebuilt per membership.

Interchange format, shared by the CLI subcommands:

    {"n": <universe size>, "categories": [[members ascending], ...]}

with the outer list in canonical order (lexicographic by member list).
"""

from __future__ import annotations

import json
from itertools import compress, count
from operator import index

from .errors import ParseError, ValidationError


# The set bit positions of each byte value, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _members(mask):
    """Ascending member tuple of a non-negative mask: one step per non-zero
    byte and one per member, with the zero bytes skipped in C."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return tuple([8 * j + i for j in compress(count(), data) for i in _BYTE_BITS[data[j]]])


def _check_size(n):
    if n < 0:
        raise ValidationError("universe size must be non-negative")


def _pairs(n, sets):
    """``(members, mask)`` of each distinct input set, members ascending.

    Sets are range-checked in input order; an out-of-range message names the
    set's first offending member in input order, so ``sets`` must yield
    re-iterable member collections.
    """
    rows = set()
    for members in sets:
        row = tuple(sorted(set(members)))
        if row and (row[0] < 0 or row[-1] >= n):
            bad = next(v for v in members if not 0 <= v < n)
            raise ValidationError(f"category member {bad} out of range for n={n}")
        rows.add(row)
    pairs = []
    for row in rows:
        mask = 0
        for v in row:
            mask |= 1 << v
        pairs.append((row, mask))
    return pairs


class CategorySystem:
    """An immutable set of distinct non-empty vertex subsets over 0..n-1.

    Duplicate input sets collapse silently (the family is a set of sets);
    empty sets are invalid. Categories are kept in canonical order so indices,
    witnesses and serializations are stable.
    """

    __slots__ = ("n", "categories", "category_masks", "vertex_masks", "_memdim")

    def __init__(self, n, sets=()):
        # operator.index turns bools and other int-likes into plain ints, and
        # the tuples keep one-shot member iterables readable for the range
        # check's message.
        self._setup(n, _pairs(n, (tuple(map(index, members)) for members in sets)))

    @classmethod
    def from_masks(cls, n, masks):
        """Build from vertex bitmasks directly (must fit in n bits, none zero)."""
        _check_size(n)
        self = cls.__new__(cls)
        limit = 1 << n
        unique = set(masks)
        if unique and (min(unique) < 0 or max(unique) >= limit):
            raise ValidationError(f"category mask out of range for n={n}")
        self._setup(n, [(_members(mask), mask) for mask in unique])
        return self

    def _setup(self, n, pairs):
        """Canonical order, member tuples, masks and the vertex-side transpose
        from the ``(members, mask)`` pairs of distinct sets."""
        _check_size(n)
        # Member tuples are distinct, so the sort never compares masks, and
        # an empty set, if any, sorts first.
        pairs.sort()
        if pairs and not pairs[0][0]:
            raise ValidationError("empty categories are not allowed")
        self.n = n
        self.categories = tuple(members for members, _ in pairs)
        self.category_masks = tuple(mask for _, mask in pairs)
        rows = [bytearray((len(pairs) + 7) >> 3) for _ in range(n)]
        for i, members in enumerate(self.categories):
            byte = i >> 3
            bit = 1 << (i & 7)
            for v in members:
                rows[v][byte] |= bit
        # Popped from the back, each row is freed once its int is made.
        rows.reverse()
        self.vertex_masks = tuple([int.from_bytes(rows.pop(), "little") for _ in range(n)])
        self._memdim = max(map(int.bit_count, self.vertex_masks), default=0)

    @property
    def num_categories(self):
        return len(self.categories)

    def __eq__(self, other):
        if not isinstance(other, CategorySystem):
            return NotImplemented
        return self.n == other.n and self.categories == other.categories

    def __repr__(self):
        return f"CategorySystem(n={self.n}, categories={self.num_categories})"


def cat(system, u):
    """Indices of the categories containing vertex ``u``, ascending."""
    if not (0 <= u < system.n):
        raise ValidationError(f"vertex {u} out of range for n={system.n}")
    return _members(system.vertex_masks[u])


def membership_dimension(system):
    """Maximum number of categories any one vertex belongs to (0 if none)."""
    return system._memdim


def category_distance(system, a, b):
    """Number of categories containing ``b`` but not ``a``.

    Not necessarily symmetric; this is the quantity greedy forwarding
    decreases.
    """
    vm = system.vertex_masks
    if not (0 <= a < system.n and 0 <= b < system.n):
        raise ValidationError(f"vertex out of range for n={system.n}")
    return (vm[b] & ~vm[a]).bit_count()


def parse_categories(text, n):
    """Parse the JSON category format for a universe of size ``n``.

    The file's own "n" must match; members must be in range; duplicate sets
    collapse and empty sets are rejected.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or set(payload) != {"n", "categories"}:
        raise ParseError('expected an object with exactly "n" and "categories"')
    if not isinstance(payload["n"], int) or isinstance(payload["n"], bool):
        raise ParseError('"n" must be an integer')
    if payload["n"] != n:
        raise ValidationError(f'category file declares n={payload["n"]}, expected n={n}')
    sets = payload["categories"]
    if not isinstance(sets, list):
        raise ParseError('"categories" must be a list of member lists')
    for members in sets:
        # JSON numbers decode to exactly int or float; bools are their own type.
        if not isinstance(members, list) or not set(map(type, members)) <= {int}:
            raise ParseError("each category must be a list of integer vertex ids")
    system = CategorySystem.__new__(CategorySystem)
    system._setup(n, _pairs(n, sets))
    return system


def serialize_categories(system):
    """Canonical JSON form; parse -> serialize -> parse is the identity."""
    payload = {"n": system.n, "categories": system.categories}
    return json.dumps(payload, separators=(",", ":")) + "\n"
