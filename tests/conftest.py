"""Shared builders and independent reference oracles for the test suite.

The oracles here deliberately re-derive properties from their definitions
with plain data structures (no bitmasks, no per-target tables) so they stay
independent of the implementation paths they check.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from itertools import chain
from operator import index

from catroute import CategorySystem, Graph, RootedTree, bfs_distances
from catroute import graph as graph_module
from catroute.categories import _canonical, _check_size
from catroute.errors import ParseError, ValidationError


def path_graph(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def star_graph(n):
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_graph(n):
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def random_tree(rng, n, skew="uniform"):
    """Attachment tree; 'hub' skew concentrates parents near the root."""
    parents = [None]
    for v in range(1, n):
        if skew == "hub":
            parents.append(int(v * rng.random() ** 4))
        else:
            parents.append(rng.randrange(v))
    return RootedTree(parents, 0)


def random_binary_tree(rng, n):
    """Grow by attaching each new vertex to a uniformly random free slot (each
    vertex has two), so no vertex gets more than two children."""
    parent = [None] * n
    slots = [0, 0]
    for v in range(1, n):
        index = rng.randrange(len(slots))
        slots[index], slots[-1] = slots[-1], slots[index]
        parent[v] = slots.pop()
        slots.append(v)
        slots.append(v)
    return RootedTree(parent, 0)


def random_category_system(rng, n, max_sets=8):
    """A handful of arbitrary non-empty subsets of the universe."""
    sets = []
    for _ in range(rng.randint(0, max_sets)):
        size = rng.randint(1, n)
        sets.append(rng.sample(range(n), size))
    return CategorySystem(n, sets)


def random_connected_graph(rng, n, extra_edges=None):
    """A random spanning tree plus a few extra random edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------

def oracle_eccentricity(g, v):
    """Max hop distance from v to any vertex, by one BFS. Requires a connected
    graph; the reach sweep behind ``diameter`` and ``choose_root`` is tested
    against it."""
    return max(bfs_distances(g, v))


def _oracle_int(token):
    """``int(token)`` for ASCII decimal digits alone; a minus sign before
    digits reads as a negative id (``-0`` too); any other token, and digits
    that ``int`` refuses, raise ``ValueError``."""
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(token)
    value = int(token)
    return -1 if token[0] == "-" else value


def oracle_parse_edge_list(text):
    """The edge-list parser as one loop over the lines, each line checked in
    full before the next is read; ``_oracle_int`` reads the ids. It reads
    ``MAX_VERTICES`` at call time, as the package does."""
    cap = graph_module.MAX_VERTICES
    declared_n = None
    edges = []
    max_id = -1
    seen_effective_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if seen_effective_line:
                raise ParseError("vertex-count header must be the first line", lineno)
            if len(tokens) != 2:
                raise ParseError("vertex-count header must be 'n <count>'", lineno)
            try:
                declared_n = _oracle_int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if declared_n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            if declared_n > cap:
                raise ValidationError(f"line {lineno}: vertex count {declared_n} is above the cap of {cap}")
            seen_effective_line = True
            continue
        seen_effective_line = True
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = _oracle_int(tokens[0]), _oracle_int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise ValidationError(f"line {lineno}: vertex id exceeds declared count n={declared_n}")
        max_id = max(max_id, u, v)
        if max_id >= cap:
            raise ValidationError(f"line {lineno}: vertex id {max_id} needs more than the cap of {cap} vertices")
        edges.append((u, v))
    return Graph(declared_n if declared_n is not None else max_id + 1, edges)


def oracle_spanning_parents(g, root):
    """``(parent, dist)``: the BFS tree's parents by their definition, in two
    passes, BFS distances from ``root`` and then, for each reachable
    non-root vertex, its smallest-id neighbour one level closer to ``root``.
    The root and unreachable vertices get None in both lists."""
    dist = bfs_distances(g, root)
    parent = [
        None if v == root or d is None else min(w for w in g.adjacency[v] if dist[w] == d - 1)
        for v, d in enumerate(dist)
    ]
    return parent, dist


def _reference_set_masks(n, sets):
    """The distinct masks of ``sets``, in order of first appearance.

    The size is checked before any set is read. Sets are range-checked in
    input order; an out-of-range message names the set's first offending
    member in input order, so ``sets`` must yield re-iterable member
    collections. A member is scattered through two tables indexed by vertex
    id, its byte offset and its bit value. Kept in input order, the masks of
    a canonical file reach ``_canonical_order``'s sort as one sorted run.
    """
    _check_size(n)
    masks = {}
    width = (n + 7) >> 3
    byte = [v >> 3 for v in range(n)]
    bit = [1 << (v & 7) for v in range(n)]
    for members in sets:
        if members and (min(members) < 0 or max(members) >= n):
            bad = next(v for v in members if not 0 <= v < n)
            raise ValidationError(f"category member {bad} out of range for n={n}")
        row = bytearray(width)
        for v in members:
            row[byte[v]] |= bit[v]
        masks[int.from_bytes(row, "little")] = None
    return masks


def reference_category_system(n, sets):
    """``CategorySystem(n, sets)`` by its rule, written out: the size check
    before any set is read, each set's members through ``operator.index``
    into a tuple, then ``_reference_set_masks``'s per-set range checks."""
    _check_size(n)
    rows = [tuple(map(index, members)) for members in sets]
    return CategorySystem._of(_canonical(n, _reference_set_masks(n, rows)))


def reference_parse_categories(text, n):
    """Parse the JSON category format for a universe of size ``n``.

    The file's own "n" must match; members must be in range; duplicate sets
    collapse and empty sets are rejected.

    The parse that type-scans every member and range-checks every row before
    the scatter, kept verbatim as the reference for ``parse_categories``'s
    results and error messages.
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
    # JSON numbers decode to exactly int or float; bools are their own type.
    # The rows are checked first, so the members' scan reads only lists.
    if not set(map(type, sets)) <= {list} or not set(map(type, chain.from_iterable(sets))) <= {int}:
        raise ParseError("each category must be a list of integer vertex ids")
    return CategorySystem._of(_canonical(n, _reference_set_masks(n, sets)))


def oracle_sets(system):
    return [set(members) for members in system.categories]


def oracle_cat(system, u):
    return {i for i, members in enumerate(system.categories) if u in members}


def oracle_distance(system, a, b):
    return len(oracle_cat(system, b) - oracle_cat(system, a))


def oracle_memberships(system):
    """Each vertex's set of category indices, read off the member tuples."""
    owned = [set() for _ in range(system.n)]
    for index, members in enumerate(system.categories):
        for v in members:
            owned[v].add(index)
    return owned


def oracle_membership_dimension(system):
    return max(map(len, oracle_memberships(system)), default=0)


def oracle_canonical(n, sets):
    """Canonical form of raw member lists, re-derived set by set: the distinct
    sets as sorted member tuples in lexicographic order, each one's vertex
    mask, each vertex's category mask built by one OR per membership, and the
    membership dimension."""
    categories = sorted({tuple(sorted(set(members))) for members in sets})
    category_masks = [sum(1 << v for v in members) for members in categories]
    vertex_masks = [0] * n
    for i, members in enumerate(categories):
        for v in members:
            vertex_masks[v] |= 1 << i
    memdim = max((bin(mask).count("1") for mask in vertex_masks), default=0)
    return tuple(categories), tuple(category_masks), tuple(vertex_masks), memdim


def oracle_shattered(g, system):
    """Direct quantifier sweep over the definition; returns first failing pair."""
    sets = oracle_sets(system)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            found = False
            for u in g.adjacency[s]:
                for members in sets:
                    if u in members and t in members and s not in members:
                        found = True
                        break
                if found:
                    break
            if not found:
                return (s, t)
    return None


def _oracle_step(g, owned, u, t):
    """The greedy step over each vertex's category set ``owned``."""
    here = len(owned[t] - owned[u])
    closer = [(len(owned[t] - owned[v]), v) for v in g.adjacency[u] if len(owned[t] - owned[v]) < here]
    return min(closer)[1] if closer else None


def _oracle_walk(g, owned, s, t):
    path = [s]
    while path[-1] != t:
        nxt = _oracle_step(g, owned, path[-1], t)
        if nxt is None:
            return False, tuple(path)
        path.append(nxt)
    return True, tuple(path)


def oracle_greedy_step(g, system, u, t):
    """The neighbor of u strictly closer to t at minimum distance, smallest id
    among ties, or None; every distance taken from the definition."""
    return _oracle_step(g, oracle_memberships(system), u, t)


def oracle_greedy_walk(g, system, s, t):
    """Forward one message from s by the greedy rule, every distance taken from
    the definition; returns (delivered, vertex path)."""
    return _oracle_walk(g, oracle_memberships(system), s, t)


def oracle_all_pairs_routing(g, system):
    """Walk every ordered pair on its own, in lexicographic order; returns
    (first failing (s, t, stuck_at) or None, max hops, mean hops), the hop
    stats over delivered pairs."""
    owned = oracle_memberships(system)
    witness = None
    hop_counts = []
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            delivered, path = _oracle_walk(g, owned, s, t)
            if delivered:
                hop_counts.append(len(path) - 1)
            elif witness is None:
                witness = (s, t, path[-1])
    if not hop_counts:
        return witness, 0, 0.0
    return witness, max(hop_counts), sum(hop_counts) / len(hop_counts)


def oracle_internally_connected(g, system):
    """Union-find over each category's induced edges; first failing index."""
    for index, members in enumerate(system.categories):
        parent = {v: v for v in members}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        inside = set(members)
        for u in members:
            for v in g.adjacency[u]:
                if v in inside:
                    parent[find(u)] = find(v)
        roots = {find(v) for v in members}
        if len(roots) > 1:
            return index
    return None


def oracle_sperner_bound(k):
    """m(k), the least m with C(m, floor(m/2)) >= k: by Sperner's theorem
    the fewest categories a routing system can put a vertex with k >= 2
    pendant neighbours in, since the pendants' traces on its categories
    must form an antichain."""
    m = 0
    while math.comb(m, m // 2) < k:
        m += 1
    return m


def oracle_lower_bound_violation(g, system):
    """The first vertex of the connected graph ``g`` at which ``system``
    breaks a lower bound that every system routing all pairs on ``g``
    meets, else None. ``("ecc", t, |cat(t)|, ecc(t))``: a greedy route from
    s to t takes at most |cat(t) \\ cat(s)| hops and at least dist(s, t), so
    |cat(t)| >= ecc(t). ``("sperner", v, |cat(v)|, m(k))``: v has k >= 2
    pendant neighbours but lies in fewer than m(k) categories. One BFS per
    vertex, memberships read off the member tuples."""
    owned = oracle_memberships(system)
    for t in range(g.n):
        have = len(owned[t])
        eccentricity = max(bfs_distances(g, t))
        if have < eccentricity:
            return ("ecc", t, have, eccentricity)
        pendants = sum(g.degree(u) == 1 for u in g.adjacency[t])
        if pendants >= 2 and have < oracle_sperner_bound(pendants):
            return ("sperner", t, have, oracle_sperner_bound(pendants))
    return None


def oracle_is_ancestor(tree, a, b):
    """Is a an ancestor of b (inclusive) by walking parents?"""
    node = b
    while node is not None:
        if node == a:
            return True
        node = tree.parent[node]
    return False


def tree_height(tree):
    """Length of the longest downward path from the root of a ``RootedTree``:
    its deepest depth, filling depths top-down along ``order``."""
    depth = [0] * tree.n
    for v in tree.order[1:]:
        depth[v] = depth[tree.parent[v]] + 1
    return max(depth)


def oracle_binary_tree_sets(tree):
    """The sets ``binary_tree_categories``' docstring defines, re-derived as
    member tuples: per vertex v other than the root with at most one child
    its descendants (v included) and, for each child c of v when v has two
    children or is the root, one set per depth i from depth(v) up to
    depth(v) plus c's height, holding v, the members of c's subtree at depth
    at most i, and the whole subtree of v's other child, if any. Depths come
    from a BFS from the root and descendants from walking parents. Returns
    the distinct sets in lexicographic order, as
    ``CategorySystem.categories`` lists them."""
    depth = bfs_distances(tree.graph, tree.root)
    below = [[] for _ in range(tree.n)]
    for x in range(tree.n):
        walk = x
        while walk is not None:
            below[walk].append(x)
            walk = tree.parent[walk]
    sets = set()
    for v in range(tree.n):
        kids = [x for x in range(tree.n) if tree.parent[x] == v]
        if v != tree.root and len(kids) <= 1:
            sets.add(tuple(below[v]))
        if len(kids) == 1 and v != tree.root:
            continue
        for c in kids:
            other = [x for k in kids if k != c for x in below[k]]
            height = max(depth[x] for x in below[c]) - depth[c]
            for i in range(depth[v], depth[v] + height + 1):
                sliced = [x for x in below[c] if depth[x] <= i]
                sets.add(tuple(sorted([v, *sliced, *other])))
    return tuple(sorted(sets))


def oracle_code_family_sets(tree):
    """The sets of ``tree_categories``, as the construct module docstring
    defines them, re-derived as member tuples: per vertex v other than the
    root with at most one child its descendants, and per vertex with k >= 2
    children (or the root with one) m families, m the least with
    C(m, floor(m/2)) >= k (at least 1). The children, tallest first and
    ties by id, take the floor(m/2)-subsets of range(m) in lexicographic
    order. Family j holds v and the subtrees of the children whose code has
    j, plus the other children's members at depth at most i, for i from
    depth(v) to depth(v) plus the tallest of those children's heights."""
    depth = bfs_distances(tree.graph, tree.root)
    below = [[] for _ in range(tree.n)]
    for x in range(tree.n):
        walk = x
        while walk is not None:
            below[walk].append(x)
            walk = tree.parent[walk]
    height = [max(depth[x] for x in below[v]) - depth[v] for v in range(tree.n)]
    child_count = [sum(tree.parent[x] == v for x in range(tree.n)) for v in range(tree.n)]
    sets = {tuple(below[v]) for v in range(tree.n) if v != tree.root and child_count[v] <= 1}
    for v in range(tree.n):
        kids = sorted((x for x in range(tree.n) if tree.parent[x] == v), key=lambda c: (-height[c], c))
        if not kids or (len(kids) == 1 and v != tree.root):
            continue
        m = max(oracle_sperner_bound(len(kids)), 1)
        codes = list(itertools.combinations(range(m), m // 2))
        for j in range(m):
            held = [c for c, code in zip(kids, codes) if j in code]
            missed = [c for c, code in zip(kids, codes) if j not in code]
            if not missed:
                continue
            for i in range(depth[v], depth[v] + max(height[c] for c in missed) + 1):
                members = [v, *(x for c in held for x in below[c])]
                members += [x for c in missed for x in below[c] if depth[x] <= i]
                sets.add(tuple(sorted(members)))
    return tuple(sorted(sets))


def oracle_weight_midpoint(seq, sizes):
    """Split index of ``seq`` minimizing |left weight - right weight| by a
    linear scan over every cut, ties leftmost; weights are ``sizes[c]``."""
    total = sum(sizes[c] for c in seq)
    best_cut = 1
    best_diff = None
    running = 0
    for cut in range(1, len(seq)):
        running += sizes[seq[cut - 1]]
        diff = abs(2 * running - total)
        if best_diff is None or diff < best_diff:
            best_diff = diff
            best_cut = cut
    return best_cut


def oracle_embedding_parents(tree):
    """The parent list ``embed_into_binary``'s docstring defines, split by
    ``oracle_weight_midpoint`` on explicit child lists, with subtree sizes
    from walking parents. Placeholders take the ids from n up as they are
    made, and the part made last is split next."""
    n = tree.n
    sizes = [0] * n
    for x in range(n):
        walk = x
        while walk is not None:
            sizes[walk] += 1
            walk = tree.parent[walk]
    parent = list(tree.parent)
    for u in range(n):
        kids = [x for x in range(n) if tree.parent[x] == u]
        if len(kids) <= 2:
            continue
        pending = [(u, kids)]
        while pending:
            host, seq = pending.pop()
            cut = oracle_weight_midpoint(seq, sizes)
            for part in (seq[:cut], seq[cut:]):
                if len(part) == 1:
                    parent[part[0]] = host
                else:
                    parent.append(host)
                    pending.append((len(parent) - 1, part))
    return parent


def seeded(seed):
    return random.Random(seed)


def oracle_theta_classes(g):
    """The Djokovic-Winkler classes of a connected graph, or None when it is
    not a partial cube.

    Edges xy and uv are in relation Theta when d(x, u) + d(y, v) differs
    from d(x, v) + d(y, u), with every distance from its own BFS. A
    connected graph is a partial cube iff it is bipartite and Theta is
    transitive (Winkler, DAM 1984); its classes are then the classes of
    Theta. Returns a list of edge lists.
    """
    dist = [bfs_distances(g, v) for v in range(g.n)]
    edges = list(g.edges())
    if any(dist[0][x] % 2 == dist[0][y] % 2 for x, y in edges):
        return None
    rows = [
        tuple(dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u] for (u, v) in edges)
        for (x, y) in edges
    ]
    # Theta is reflexive and symmetric; it is transitive iff related edges
    # have equal rows, and each distinct row is then one class.
    if any(rows[j] != row for row in rows for j, related in enumerate(row) if related):
        return None
    return [[e for e, related in zip(edges, row) if related] for row in dict.fromkeys(rows)]


def oracle_halfspaces(g, classes):
    """W_ab = {x : d(x, a) < d(x, b)} and W_ba for one edge ab of each class,
    as member tuples."""
    sets = []
    for (a, b), *_ in classes:
        da, db = bfs_distances(g, a), bfs_distances(g, b)
        sets.append(tuple(x for x in range(g.n) if da[x] < db[x]))
        sets.append(tuple(x for x in range(g.n) if db[x] < da[x]))
    return sets


def oracle_per_class_halfspaces(g):
    """Halfspace recognition one Theta class at a time: the system of all
    halfspaces of ``g`` when it is a connected partial cube with exactly
    diam(g) classes, else None, as ``construct._halfspaces`` defines it.

    A BFS from vertex 0 rules out odd cycles and disconnected graphs and caps
    the class count at 2 ecc(0). Then each BFS-tree edge ab no class has cut
    yet gets its own BFS from a and b at once: a vertex takes the side of the
    end that reaches it first, and every edge across the two sides joins the
    class, unless an earlier class cut it already. Last come the certificate
    (the AND of a vertex's own halfspaces over the classes of its edges is
    the vertex alone) and the antipode test (some label's complement is a
    label).
    """
    n = g.n
    if n < 2:
        return None
    depth = [-1] * n
    depth[0] = 0
    parent = [0] * n
    order = [0]
    for u in order:
        for v in g.adjacency[u]:
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                parent[v] = u
                order.append(v)
            elif depth[v] == depth[u]:
                return None
    if len(order) < n:
        return None
    cap = 2 * depth[order[-1]]
    crossed = set()
    sides = []
    own = [set() for _ in range(n)]  # the halfspaces of the classes at each vertex
    for v in order[1:]:
        a = parent[v]
        if (a, v) in crossed:
            continue
        if len(sides) == 2 * cap:
            return None
        side = [0] * n
        side[a], side[v] = 1, 2
        queue = [a, v]
        cut = []
        for x in queue:
            for y in g.adjacency[x]:
                if not side[y]:
                    side[y] = side[x]
                    queue.append(y)
                elif side[y] != side[x]:
                    if (x, y) in crossed:
                        return None
                    cut.append((x, y))
        halves = (None, frozenset(x for x in range(n) if side[x] == 1), frozenset(x for x in range(n) if side[x] == 2))
        crossed.update(cut)
        for x, _ in cut:
            own[x].add(halves[side[x]])
        sides += halves[1:]
    if any(frozenset.intersection(*own[s]) != {s} for s in range(n)):
        return None
    system = CategorySystem(n, map(sorted, sides))
    labels = [frozenset(i for i, members in enumerate(sides) if s in members) for s in range(n)]
    if not any(frozenset(range(len(sides))) - label in labels for label in labels):
        return None
    return system
