"""Category systems: finite families of distinct vertex subsets.

Each category is stored as a bitmask over the vertex universe, and each vertex
carries a bitmask over category indices, so the routing distance (a set
difference size) is a single popcount either way.

All three constructors reduce their input to the distinct category masks and
share one canonicalisation that works on masks alone:

* **Order.** A mask m with h = m.bit_length() sorts by the key
  ``(R(m ^ (2^h - 1)), h)``, R reversing the bits over the universe's
  ``8 * ceil(n / 8)`` bits (the mask's little-endian bytes, each byte
  bit-reversed, read as a big-endian byte string). The lowest bit where two
  masks differ decides: the set holding it sorts first unless the other set
  has no member above it. That is the lexicographic order of the ascending
  member tuples, a prefix first; the empty mask gets the least key.
* **Transpose.** The vertex masks come from 8x8 bit-matrix transposes:
  each group of 8 sorted masks is interleaved byte by byte into 8-byte lanes,
  three delta swaps transpose every lane of a tile of groups on one int, and
  byte v of the result is vertex v's byte for that group. This costs
  O(k * n / 8) byte operations for k categories, all in C, where a
  per-membership scatter costs one Python step per membership. Every
  constructor transposes at once. A caller that needs the category masks
  alone, as ``catroute construct`` does to serialize them, takes the
  ``_CanonicalMasks`` of the construction and builds no system.
* **Member tuples on first read.** ``categories`` is built from the masks
  when first read, so construction, routing and the membership dimension
  never make one Python int per membership. Serialization builds none:
  it picks each member's name string straight off the masks.
* **Validation by exception.** A member reaches its mask through two tables
  indexed by vertex id, so the scatter itself raises ``IndexError`` for an
  id of n or more and ``TypeError`` for a float, a string or a list. What
  it cannot see is a negative id, which indexes from the tables' end, or a
  bool, which indexes as 0 or 1. ``parse_categories`` rules both out with
  one C-level test on the text: every byte is an ASCII digit, one of
  ``,[]{}:"``, JSON whitespace or a letter of the keys ``n`` and
  ``categories``, and such text spells no bool, null, minus sign, NaN or
  escape. A file that fails the test, or whose scatter raises, gets a type
  scan of its rows and members in ``parse_categories``, the one place a
  type error is written. It then goes, as every ``CategorySystem(n, sets)``
  does, through the in-order validator, the one place a range error is
  written. So type comes before size before range, and the first
  offending member in input order is named. The constructor's rows are
  ``operator.index`` results, exact ints, so it needs no type scan.

Interchange format, shared by the CLI subcommands:

    {"n": <universe size>, "categories": [[members ascending], ...]}

with the outer list in canonical order (lexicographic by member list).
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from operator import index
from typing import NamedTuple

from .errors import ParseError, ValidationError


# The set bit positions of each byte value, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
# Each byte value with its bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# _BIT[j] reads a byte string as binary digits, 1 where bit j of the byte is
# set; _BIT[0] reads bytes of 0 and 1.
_BIT = [bytes(b"01"[b >> j & 1] for b in range(256)) for j in range(8)]
# The delta swaps (shift, lane mask) that transpose an 8x8 bit matrix held in
# a 64-bit lane, row r in byte r.
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
# Groups of 8 categories transposed together on one int. Each vertex's bytes
# of a tile are one strided slice, so a smaller tile keeps the slices' cache
# lines warm from one vertex to the next, and holds less memory at once; a
# larger one takes fewer slices per vertex.
_TILE = 128
# The bytes of a plain category file: ASCII digits, the punctuation of an
# object of lists of lists, JSON whitespace and the letters of the keys "n"
# and "categories". They spell no true, false, null, minus sign, NaN,
# Infinity or backslash escape.
_PLAIN = b'0123456789,[]{}:" \t\n\rncategories'


def _member_lists(masks, labels):
    """Each non-negative mask below ``2**len(labels)`` as the ascending list
    of its members' labels, bit v standing for ``labels[v]``, one at a time.

    Only non-zero bytes and members take Python steps: ``compress`` skips the
    zero bytes in C over one table of each byte's 8 labels, and one
    ``translate`` that deletes the zeros yields the non-zero byte values. The
    lists share the table's label objects, one per vertex.
    """
    octets = [tuple(labels[j:j + 8]) for j in range(0, len(labels), 8)]
    bits = _BYTE_BITS
    for mask in masks:
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        nonzero = data.translate(None, b"\0")
        yield [ids[i] for ids, b in zip(compress(octets, data), nonzero) for i in bits[b]]


def _members(mask):
    """Ascending member tuple of a non-negative mask."""
    return tuple(next(_member_lists((mask,), range(mask.bit_length()))))


def _check_size(n):
    if n < 0:
        raise ValidationError("universe size must be non-negative")


def _plain(text):
    """Whether ``text`` is a str of ``_PLAIN`` bytes alone: one C-level
    deletion over one ASCII copy of it."""
    return isinstance(text, str) and text.isascii() and not text.encode("ascii").translate(None, _PLAIN)


def _scatter(n, rows):
    """The distinct masks of ``rows``, in order of first appearance, n >= 0.

    A member is scattered through two tables indexed by vertex id, its byte
    offset and its bit value, so a member that is no vertex id raises there:
    ``IndexError`` at n or above, ``TypeError`` for a float, a string or a
    list, and for a row that is not iterable. A negative id would index from
    the tables' end and a bool as 0 or 1, so callers rule those out. Kept in
    input order, the masks of a canonical file reach ``_canonical_order``'s
    sort as one sorted run.
    """
    masks = {}
    width = (n + 7) >> 3
    byte = [v >> 3 for v in range(n)]
    bit = [1 << (v & 7) for v in range(n)]
    for members in rows:
        row = bytearray(width)
        for v in members:
            row[byte[v]] |= bit[v]
        masks[int.from_bytes(row, "little")] = None
    return masks


def _checked_masks(n, rows):
    """``_scatter(n, rows)`` after validation in input order, for rows of
    exact ints: a negative size, then a member out of range, the first such
    member in input order. The one place a member range error is written.
    Types are the caller's: ``CategorySystem(n, sets)`` passes
    ``operator.index`` results, and ``parse_categories`` scans a file's rows
    and members before it calls this."""
    _check_size(n)
    bad = next((v for v in chain.from_iterable(rows) if not 0 <= v < n), None)
    if bad is not None:
        raise ValidationError(f"category member {bad} out of range for n={n}")
    return _scatter(n, rows)


def _canonical_order(n, masks):
    """The masks sorted into the lexicographic order of their member tuples."""
    width = (n + 7) >> 3
    h_width = (n.bit_length() + 7) >> 3

    def key(mask):
        h = mask.bit_length()
        # Equal-length byte strings compare as big-endian numbers, so the
        # fixed-width h after the fixed-width body breaks ties as a second
        # tuple field would, in one comparison.
        body = (mask ^ ((1 << h) - 1)).to_bytes(width, "little").translate(_REVERSED)
        return body + h.to_bytes(h_width, "big")

    return sorted(masks, key=key)


class _CanonicalMasks(NamedTuple):
    """A system's distinct non-empty category masks in canonical order, all
    ``serialize_categories`` reads, and its vertex masks if already built."""

    n: int
    category_masks: tuple
    vertex_masks: tuple = None


def _canonical(n, masks):
    """The distinct ``masks`` as ``_CanonicalMasks``; an empty one raises."""
    masks = _canonical_order(n, masks)
    if masks and not masks[0]:
        raise ValidationError("empty categories are not allowed")
    return _CanonicalMasks(n, tuple(masks))


def _transpose_tile(tile, width, swaps):
    """Each group of 8 masks in ``tile`` (``width`` bytes each) transposed.

    Byte b of mask 8q + s goes to byte s of the 8-byte lane b of group q,
    byte 8 * (q * width + b) + s of one int. The delta ``swaps`` then
    transpose every lane as an 8x8 bit matrix at once, so byte
    8 * (q * width + b) + i comes to hold bit 8b + i of the group's 8 masks.
    """
    lanes = bytearray(len(tile) * width)
    for s in range(8):
        lanes[s::8] = b"".join(map(int.to_bytes, tile[s::8], repeat(width), repeat("little")))
    x = int.from_bytes(lanes, "little")
    del lanes
    for shift, swap in swaps:
        t = (x ^ (x >> shift)) & swap
        x ^= t ^ (t << shift)
    return x.to_bytes(len(tile) * width, "little")


def _transpose(n, masks):
    """Vertex masks of the category ``masks``: bit i of vertex v's mask is set
    when ``masks[i]`` holds v."""
    width = (n + 7) >> 3
    lane = 8 * width  # bytes of one group of 8 masks, interleaved
    # Empty masks pad the last group; their bits land above bit k - 1.
    masks = [*masks, *repeat(0, -len(masks) % 8)]
    groups = len(masks) >> 3
    rows = [bytearray(groups) for _ in range(n)]
    # Lane masks for the largest tile; ANDed with a shorter int they still
    # select only its own lanes.
    tile_lanes = width * min(groups, _TILE)
    swaps = [(shift, int.from_bytes(mask.to_bytes(8, "little") * tile_lanes, "little")) for shift, mask in _SWAPS]
    for first in range(0, groups, _TILE):
        tile = masks[8 * first:8 * (first + _TILE)]
        # Byte q * lane + v is vertex v's byte for group first + q.
        out = _transpose_tile(tile, width, swaps)
        end = first + (len(tile) >> 3)
        for v, row in enumerate(rows):
            row[first:end] = out[v::lane]
    # Popped from the back, each row is freed once its int is made.
    rows.reverse()
    return tuple([int.from_bytes(rows.pop(), "little") for _ in range(n)])


class CategorySystem:
    """An immutable set of distinct non-empty vertex subsets over 0..n-1.

    Duplicate input sets collapse silently (the family is a set of sets);
    empty sets are invalid. Categories are kept in canonical order so indices,
    witnesses and serializations are stable.
    """

    __slots__ = ("n", "category_masks", "vertex_masks", "_categories")

    def __init__(self, n, sets=()):
        # The size is checked before any set is read. operator.index turns
        # bools and other int-likes into plain ints, and the tuples keep
        # one-shot member iterables readable for the range check's message.
        _check_size(n)
        rows = [tuple(map(index, members)) for members in sets]
        self._adopt(_canonical(n, _checked_masks(n, rows)))

    @classmethod
    def from_masks(cls, n, masks):
        """Build from vertex bitmasks directly (must fit in n bits, none zero)."""
        _check_size(n)
        unique = set(masks)
        if unique and (min(unique) < 0 or max(unique) >= 1 << n):
            raise ValidationError(f"category mask out of range for n={n}")
        return cls._of(_canonical(n, unique))

    @classmethod
    def _of(cls, side):
        """The system whose category side is ``side``, a ``_CanonicalMasks``."""
        self = cls.__new__(cls)
        self._adopt(side)
        return self

    def _adopt(self, side):
        """Take ``side``'s masks; transpose them unless it has vertex masks."""
        self.n, self.category_masks, self.vertex_masks = side
        if self.vertex_masks is None:
            self.vertex_masks = _transpose(self.n, self.category_masks)
        self._categories = None

    @property
    def categories(self):
        """Each category's ascending member tuple, built on first read."""
        if self._categories is None:
            self._categories = tuple(map(tuple, _member_lists(self.category_masks, range(self.n))))
        return self._categories

    @property
    def num_categories(self):
        return len(self.category_masks)

    def __eq__(self, other):
        if not isinstance(other, CategorySystem):
            return NotImplemented
        return self.n == other.n and self.category_masks == other.category_masks

    def __repr__(self):
        return f"CategorySystem(n={self.n}, categories={self.num_categories})"


def membership_dimension(system):
    """Maximum number of categories any one vertex belongs to (0 if none)."""
    return max(map(int.bit_count, system.vertex_masks), default=0)


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

    Validation rule: a plain file, one whose bytes are all ``_PLAIN`` and
    whose rows are all lists, goes straight to the scatter, which raises on
    any member that is not a vertex id, so no pass over the members only
    validates. A file that is not plain, such as one with ``-0`` members or
    a key spelled with a ``\\u`` escape, and a plain one whose scatter
    raises, take the slow path: a type scan here (rows are lists, members
    exact ints), then the in-order validator that ``CategorySystem(n,
    sets)`` always runs. It gives the same system or the same error as if
    every file took it: types before the range, and the first offending
    member in input order.
    """
    # Before json.loads, so that the text's ASCII copy is freed first.
    plain = _plain(text)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Also a number longer than int() converts, or nesting past the stack.
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
    # An empty string or object as a row would scatter to an empty mask and
    # raise the wrong error, so rows that are not lists skip the scatter.
    lists = set(map(type, sets)) <= {list}
    try:
        masks = _scatter(n, sets) if plain and lists else None
    except (IndexError, TypeError):
        masks = None
    if masks is None:
        # JSON numbers decode to exactly int or float; bools are their own
        # type. The rows are checked first, so the members' scan reads lists.
        if not lists or not set(map(type, chain.from_iterable(sets))) <= {int}:
            raise ParseError("each category must be a list of integer vertex ids")
        masks = _checked_masks(n, sets)
    return CategorySystem._of(_canonical(n, masks))


def serialize_categories(system):
    """Canonical JSON form; parse -> serialize -> parse is the identity.

    ``system`` may be a ``_CanonicalMasks``. The text is that of ``json.dumps``
    with compact separators, joined from one string per vertex id picked
    straight off the masks, so a member costs no int-to-text conversion and
    no member tuple is built.
    """
    names = list(map(str, range(system.n)))
    rows = ",".join(["[%s]" % ",".join(members) for members in _member_lists(system.category_masks, names)])
    return '{"n":%d,"categories":[%s]}\n' % (system.n, rows)
