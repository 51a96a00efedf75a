"""Shared builders and independent reference oracles for the test suite.

The oracles here deliberately re-derive properties from their definitions
with plain data structures (no bitmasks, no per-target tables) so they stay
independent of the implementation paths they check.
"""

from __future__ import annotations

import random

from catroute import CategorySystem, Graph, RootedTree, bfs_distances


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
    current = s
    hops = 0
    while current != t:
        nxt = _oracle_step(g, owned, current, t)
        if nxt is None:
            return False, hops, current
        current = nxt
        hops += 1
    return True, hops, current


def oracle_greedy_step(g, system, u, t):
    """The neighbor of u strictly closer to t at minimum distance, smallest id
    among ties, or None; every distance taken from the definition."""
    return _oracle_step(g, oracle_memberships(system), u, t)


def oracle_greedy_walk(g, system, s, t):
    """Forward one message from s by the greedy rule, every distance taken from
    the definition; returns (delivered, hops, last vertex)."""
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
            delivered, hops, last = _oracle_walk(g, owned, s, t)
            if delivered:
                hop_counts.append(hops)
            elif witness is None:
                witness = (s, t, last)
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


def oracle_is_ancestor(tree, a, b):
    """Is a an ancestor of b (inclusive) by walking parents?"""
    node = b
    while node is not None:
        if node == a:
            return True
        node = tree.parent[node]
    return False


def seeded(seed):
    return random.Random(seed)
