"""Brute-force verifiers for the structural properties, with concrete witnesses.

Every check is exhaustive over its quantifiers, and every failed check comes
back with a witness that can be re-verified in isolation: a disconnected
category's index, or the first ordered vertex pair, in lexicographic order,
for which the property breaks. The same sweeps serve the CLI's ``check`` and
the benchmark, whose ``bench_one`` takes its hop statistics from
``route_statistics``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_

from .categories import _BYTE_BITS, _members, membership_dimension
from .errors import InternalCheckError
from .graph import is_tree
from .routing import RouteTrace, _check_universe, greedy_route

INTERNALLY_CONNECTED = "internally-connected"
SHATTERED = "shattered"
ALL_PAIRS_ROUTING = "all-pairs-routing"

# Targets settled together by one pass of the all-pairs sweep.
_BLOCK = 512
# Field widths of the sweep's packed shared counts, narrowest first.
_WIDTHS = (8, 16, 32, 64)
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class PropertyReport:
    """Verdict for one structural property.

    ``witness`` is None when the property holds; otherwise it is a category
    index (connectivity), an ordered pair ``(s, t)`` (shattered), or a triple
    ``(s, t, stuck_at)`` (routing).
    """

    property_name: str
    holds: bool
    witness: object = None


def _uncertified(g, vertex_masks):
    """Mask of the categories with two or more top members on a BFS forest.

    The forest grows each component from its smallest unvisited vertex, in
    ascending id order. A vertex is a top member of a category it holds but
    its forest parent does not (a root tops all of its categories). Each
    member of a category walks up the forest inside the category until it
    reaches a top member, so a category with exactly one top is connected on
    the forest, and therefore on ``g``. One pass folds every vertex's tops
    into ``once`` and ``twice`` with k-bit ANDs and ORs, k the number of
    categories, whatever the number of memberships.
    """
    adjacency = g.adjacency
    seen = bytearray(g.n)
    once = twice = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = 1
        top = vertex_masks[root]
        twice |= once & top
        once |= top
        queue = [root]
        for u in queue:
            outside = ~vertex_masks[u]
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = 1
                    queue.append(v)
                    top = vertex_masks[v] & outside
                    twice |= once & top
                    once |= top
    return twice


def is_internally_connected(g, system):
    """Does every category induce a connected subgraph of ``g``?

    The witness is the index of the first category (in canonical order) whose
    induced subgraph falls apart. The categories that ``_uncertified`` cannot
    certify at once, those with two or more top members on one BFS spanning
    forest, are then searched in ascending index order, each from its
    smallest member with its unseen and its reached-but-unexpanded members
    kept as masks: expanding the lowest pending vertex finds its unseen
    neighbours in the category with one n-bit AND, and no member list is
    built. The certificate costs O(n + m) steps plus O(n) ANDs and ORs of
    k-bit ints; on a tree, the forest is ``g`` itself, so only the
    disconnected categories are searched. The n-bit neighbour masks of the
    search are built only when some category is left uncertified.
    """
    _check_universe(g, system)
    uncertified = _uncertified(g, system.vertex_masks)
    if not uncertified:
        return PropertyReport(INTERNALLY_CONNECTED, True)
    neighbor_masks = []
    for nbrs in g.adjacency:
        row = 0
        for v in nbrs:
            row |= 1 << v
        neighbor_masks.append(row)
    category_masks = system.category_masks
    for index in _members(uncertified):
        mask = category_masks[index]
        pending = mask & -mask
        unseen = mask ^ pending
        while pending and unseen:
            low = pending & -pending
            pending ^= low
            found = neighbor_masks[low.bit_length() - 1] & unseen
            unseen ^= found
            pending |= found
        if unseen:
            return PropertyReport(INTERNALLY_CONNECTED, False, index)
    return PropertyReport(INTERNALLY_CONNECTED, True)


def is_shattered(g, system):
    """For every ordered pair (s, t), s != t, does some neighbor u of s share a
    category with t that excludes s?

    The neighbor may be t itself. The witness is the first failing pair in
    lexicographic order. The check runs by source, on the masks alone: the
    categories a neighbor of s holds and s lacks are
    ``A_s = (OR of vertex_masks[u] over u adjacent to s) & ~vertex_masks[s]``,
    and s covers ``t`` exactly when t is s or a member of some category in
    ``A_s``. The sources are taken in ascending order, and the first whose
    cover misses a vertex fails at its lowest missing target. The bits of
    ``A_s`` are walked over a table of 8 category masks per byte, its zero
    bytes skipped in C by ``compress``, and the walk stops at the first byte
    after which s covers every vertex; no member tuple is built.

    Cost: O(m) ORs of k-bit ints, k the number of categories, plus, over all
    categories C, the sum of |N(C) - C| ORs of n-bit ints, N(C) the vertices
    with a neighbor in C. On sparse graphs that is well below the
    memberships; on dense ones (complete graphs, small categories) it is far
    above them, and the check is slower there than one that walks each
    category's members.
    """
    _check_universe(g, system)
    full = (1 << g.n) - 1
    vertex_masks = system.vertex_masks
    masks = system.category_masks
    groups = [masks[j:j + 8] for j in range(0, len(masks), 8)]
    bits = _BYTE_BITS
    for s, neighbors in enumerate(g.adjacency):
        held = 0
        for u in neighbors:
            held |= vertex_masks[u]
        held &= ~vertex_masks[s]
        data = held.to_bytes((held.bit_length() + 7) >> 3, "little")
        cover = 1 << s
        for group, b in zip(compress(groups, data), data.translate(None, b"\0")):
            for i in bits[b]:
                cover |= group[i]
            if cover == full:
                break
        if cover != full:
            missing = full ^ cover
            return PropertyReport(SHATTERED, False, (s, (missing & -missing).bit_length() - 1))
    return PropertyReport(SHATTERED, True)


def _packed_counts(vertex_masks, lo, hi, code):
    """Per vertex v, |cat(t) ∩ cat(v)| for every target t in [lo, hi), packed
    little-endian into one int with field t - lo of the array ``code``'s
    width. The block's own rows are symmetric, so only half of them are
    popcounted."""
    targets = vertex_masks[lo:hi]
    size = hi - lo
    square = array(code, bytes(size * size * array(code).itemsize))
    for i, m in enumerate(targets):
        row = array(code, list(map(int.bit_count, map(and_, repeat(m), targets[i:]))))
        square[i * size + i:(i + 1) * size] = row
        square[i * size + i::size] = row
    packed = []
    for v, m in enumerate(vertex_masks):
        if lo <= v < hi:
            row = square[(v - lo) * size:(v - lo + 1) * size]
        else:
            row = array(code, list(map(int.bit_count, map(and_, repeat(m), targets))))
        if sys.byteorder == "big":
            row.byteswap()
        packed.append(int.from_bytes(row, "little"))
    return packed


def _next_hops(adjacency, packed, size, width):
    """``into[v]``: the ``(u, mask)`` pairs in which ``mask`` holds the targets
    (bit t - lo) whose next hop from ``u`` is ``v``.

    The step rule of ``routing.greedy_route`` runs for all targets at once.
    Each field holds a count below 2^(width-1), so its top bit is a free
    guard: ``((c_v | guard) - ones - best) & guard`` fires exactly the fields
    in which ``v`` shares strictly more than the best so far, with no borrow
    between fields, and those fields of ``best`` take ``v``'s count.
    Adjacency is sorted, so the last neighbour to fire for a target is its
    first strict maximum, the smallest id among ties.
    """
    ones = ((1 << size * width) - 1) // ((1 << width) - 1)
    shift = width - 1
    guard = ones << shift
    nbytes = size * width // 8
    step = width // 8
    raised = [(c | guard) - ones for c in packed]
    into = [[] for _ in packed]
    for u, neighbors in enumerate(adjacency):
        best = packed[u]
        fired = []
        for v in neighbors:
            gt = (raised[v] - best) & guard
            if gt:
                best ^= (best ^ packed[v]) & (gt - (gt >> shift))
                fired.append((v, gt))
        taken = 0
        for v, gt in reversed(fired):
            own = gt & ~taken
            if own:
                taken |= gt
                # The low byte of each field, 0 or 1, highest field first,
                # read as binary digits.
                digits = (own >> shift).to_bytes(nbytes, "big")[step - 1::step]
                into[v].append((u, int(digits.translate(_BINARY_DIGITS), 2)))
    return into


def _blocks(g, system):
    """Yield ``(lo, hi, into)`` for each block of ``_BLOCK`` targets [lo, hi):
    ``into`` is ``_next_hops``' table toward the block, from every vertex's
    shared counts with the block packed into fields wide enough for the
    membership dimension. Checks the universe on the first ``next()``."""
    _check_universe(g, system)
    vm = system.vertex_masks
    memdim = membership_dimension(system)
    width = next(w for w in _WIDTHS if memdim < 1 << (w - 1))
    code = next(c for c in "BHILQ" if array(c).itemsize * 8 == width)
    for lo in range(0, g.n, _BLOCK):
        hi = min(g.n, lo + _BLOCK)
        yield lo, hi, _next_hops(g.adjacency, _packed_counts(vm, lo, hi, code), hi - lo, width)


def _reached(into, lo, hi):
    """Route every vertex to the targets in [lo, hi) level by level.

    Returns ``(reached, arrivals)``: the targets (bit t - lo) each vertex's
    route delivers to, itself included, and the number of pairs delivered in
    exactly h hops at index h - 1. A route takes h + 1 hops iff its next hop's
    takes h, so a level pushes only the pairs that arrived at the level
    before, one AND per next-hop mask into a vertex with fresh arrivals.
    Each pair arrives once, since a next hop shares strictly more; a pair
    arriving twice would mean a cycle of next hops, and raises
    ``InternalCheckError`` instead of looping.
    """
    reached = [0] * len(into)
    fresh = []
    for t in range(lo, hi):
        reached[t] = 1 << (t - lo)
        fresh.append((t, reached[t]))
    arrived = [0] * len(into)
    arrivals = []
    while True:
        touched = []
        for v, f in fresh:
            for u, mask in into[v]:
                x = mask & f
                if x:
                    if not arrived[u]:
                        touched.append(u)
                    arrived[u] |= x
        if not touched:
            return reached, arrivals
        fresh = []
        count = 0
        for u in touched:
            x = arrived[u]
            if x & reached[u]:
                raise InternalCheckError(f"vertex {u} reached a target twice in the sweep")
            arrived[u] = 0
            reached[u] |= x
            count += x.bit_count()
            fresh.append((u, x))
        arrivals.append(count)


def _sweep(g, system):
    """Routing report, max hops and mean hops over all ordered pairs.

    Each block of targets from ``_blocks`` is routed from all sources level
    by level. A route's hop count is its level, and the first failing pair is
    the smallest source with a missing target, merged over blocks by source
    first.
    """
    first = None
    max_hops = total_hops = delivered = 0
    for lo, hi, into in _blocks(g, system):
        reached, arrivals = _reached(into, lo, hi)
        for hops, count in enumerate(arrivals, 1):
            total_hops += hops * count
            delivered += count
        max_hops = max(max_hops, len(arrivals))
        full = (1 << (hi - lo)) - 1
        source = next((v for v, r in enumerate(reached) if r != full), None)
        if source is not None:
            missing = full & ~reached[source]
            pair = (source, lo + (missing & -missing).bit_length() - 1)
            if first is None or pair < first:
                first = pair
    if first is None:
        report = PropertyReport(ALL_PAIRS_ROUTING, True)
    else:
        stuck = greedy_route(g, system, *first).stuck_at
        report = PropertyReport(ALL_PAIRS_ROUTING, False, (*first, stuck))
    mean_hops = total_hops / delivered if delivered else 0.0
    return report, max_hops, mean_hops


def verify_all_pairs_routing(g, system):
    """Route every ordered pair; hold iff all are delivered.

    The witness is the lexicographically first failing ``(s, t)`` together
    with the vertex the message got stuck at. Same sweep as
    ``route_statistics``.
    """
    return _sweep(g, system)[0]


def route_statistics(g, system):
    """One sweep over all ordered pairs: the routing report plus hop stats.

    Returns ``(report, max_hops, mean_hops)``; the stats cover delivered
    routes and are what the benchmark records. The sweep settles ``_BLOCK``
    targets at a time (see ``_blocks`` and ``_sweep``): n^2 popcounts, plus
    O(m) operations on packed ints of ``_BLOCK`` fields per block, plus
    O(levels * m) operations on ``_BLOCK``-bit masks. Beyond the inputs it
    holds two packed ints per vertex and at most one ``_BLOCK``-bit mask per
    directed edge.
    """
    return _sweep(g, system)


def iter_all_pair_routes(g, system):
    """Yield the greedy route trace for every ordered pair, targets ascending,
    then sources ascending.

    The next hops come from the sweep's kernel (``_blocks``): each
    ``(u, mask)`` in ``into[v]`` sets ``v`` as ``u``'s next hop toward every
    target in ``mask``, one table of n entries per target of the block, and
    every route is read off by following those pointers. Beyond the sweep's
    cost, a block holds ``_BLOCK * n`` next-hop entries, and a full run costs
    n^2 popcounts for the distances plus the length of the traces it yields.
    The traces equal ``greedy_route``'s.
    """
    vm = system.vertex_masks
    n = g.n
    for lo, hi, into in _blocks(g, system):
        hops = [[None] * n for _ in range(lo, hi)]
        for v, pairs in enumerate(into):
            for u, mask in pairs:
                while mask:
                    low = mask & -mask
                    hops[low.bit_length() - 1][u] = v
                    mask ^= low
        for t in range(lo, hi):
            nxt = hops[t - lo]
            vt = vm[t]
            total = vt.bit_count()
            dist = [total - (vt & m).bit_count() for m in vm]
            for source in range(n):
                if source == t:
                    continue
                path = [source]
                current = nxt[source]
                while current is not None:
                    path.append(current)
                    current = nxt[current]
                yield RouteTrace(
                    source, t, tuple(path), tuple(map(dist.__getitem__, path)), path[-1] == t
                )


@dataclass(frozen=True)
class ImplicationReport:
    """All property verdicts for one instance plus which cross-checks applied.

    Two relationships between the properties always hold, so a violation is
    raised as an internal error rather than reported: a system that is not
    shattered cannot route every pair (and must fail at the witness pair
    itself), and on a tree, internal connectivity plus shattering force
    routing to succeed everywhere.
    """

    is_tree: bool
    internally_connected: PropertyReport
    shattered: PropertyReport
    routing: PropertyReport
    failure_necessity_applied: bool
    tree_sufficiency_applied: bool


def check_implications(g, system):
    """Evaluate all three properties plus tree-ness and cross-check them.

    Raises :class:`InternalCheckError` if either implication is violated,
    since that can only mean a bug in this package.
    """
    tree = is_tree(g)
    internal = is_internally_connected(g, system)
    shattered = is_shattered(g, system)
    routing = verify_all_pairs_routing(g, system)

    necessity_applied = not shattered.holds
    if necessity_applied:
        if routing.holds:
            raise InternalCheckError(
                "system is not shattered yet all pairs routed successfully"
            )
        s, t = shattered.witness
        trace = greedy_route(g, system, s, t)
        if trace.delivered:
            raise InternalCheckError(
                f"shattered witness pair ({s}, {t}) routed successfully"
            )

    sufficiency_applied = tree and internal.holds and shattered.holds
    if sufficiency_applied and not routing.holds:
        raise InternalCheckError(
            "tree with an internally connected, shattered system failed to route "
            f"pair {routing.witness[:2]}"
        )

    return ImplicationReport(
        is_tree=tree,
        internally_connected=internal,
        shattered=shattered,
        routing=routing,
        failure_necessity_applied=necessity_applied,
        tree_sufficiency_applied=sufficiency_applied,
    )
