"""Undirected simple graphs on dense integer ids, BFS machinery, rooted tree views.

Vertices are always 0..n-1. Adjacency lists are kept sorted and every
tie-break is by smallest id, so traversals, root choices and derived trees are
reproducible run to run.
"""

from __future__ import annotations

from collections import deque

from .errors import DisconnectedGraphError, ParseError, ValidationError

# The most vertices a ``Graph``, ``parse_edge_list`` or ``generate`` accepts.
# A ``Graph`` holds a set and a neighbour mask per vertex, so a larger count,
# header or vertex id is refused before anything of that size is built.
# Rebind it to change the cap.
MAX_VERTICES = 1_000_000


class Graph:
    """Immutable undirected simple graph.

    Duplicate edges collapse silently; self-loops are rejected, and so is a
    vertex count above ``MAX_VERTICES``.
    """

    __slots__ = ("n", "adjacency", "neighbor_masks")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValidationError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValidationError(f"vertex count {n} is above the cap of {MAX_VERTICES}")
        neighbor_sets = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for v in nbrs:
                m |= 1 << v
            masks.append(m)
        self.neighbor_masks = tuple(masks)

    @property
    def num_edges(self):
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v):
        return len(self.adjacency[v])

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def parse_edge_list(text):
    """Parse the edge-list text format into a Graph.

    Lines hold ``u v`` integer pairs; blank lines and lines starting with
    ``#`` are ignored. An optional first effective line ``n <count>`` declares
    the vertex count; otherwise n is one more than the largest id seen.
    Duplicate edges collapse; self-loops are rejected. A vertex count above
    ``MAX_VERTICES``, declared or implied by a vertex id, raises
    ``ValidationError`` as soon as its line is read.
    """
    cap = MAX_VERTICES
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
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if declared_n < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            if declared_n > cap:
                raise ValidationError(
                    f"line {lineno}: vertex count {declared_n} is above the cap of {cap}"
                )
            seen_effective_line = True
            continue
        seen_effective_line = True
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise ValidationError(
                f"line {lineno}: vertex id exceeds declared count n={declared_n}"
            )
        max_id = max(max_id, u, v)
        if max_id >= cap:
            raise ValidationError(
                f"line {lineno}: vertex id {max_id} needs more than the cap of {cap} vertices"
            )
        edges.append((u, v))
    n = declared_n if declared_n is not None else max_id + 1
    return Graph(n, edges)


def serialize_edge_list(g):
    """Canonical text form: ``n <count>`` header, then ``u v`` lines with u < v,
    sorted, newline-terminated. parse -> serialize -> parse is the identity."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def bfs_distances(g, source):
    """Hop counts from ``source`` to every vertex; None where unreachable."""
    if not (0 <= source < g.n):
        raise ValidationError(f"source vertex {source} out of range for n={g.n}")
    dist = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] is None:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g):
    return g.n <= 1 or None not in bfs_distances(g, 0)


def is_tree(g):
    return g.n >= 1 and g.num_edges == g.n - 1 and is_connected(g)


def is_path(g):
    """True for a simple path on at least two vertices: a tree of maximum
    degree 2. The degree test runs first, so most graphs need no BFS."""
    return g.n >= 2 and all(len(a) <= 2 for a in g.adjacency) and is_tree(g)


def _eccentricity_levels(g):
    """Yield ``(k, vertices of eccentricity k)`` for increasing k, ids ascending.

    A bit-parallel BFS from all sources at once (the reach sweep of Akiba,
    Iwata and Yoshida, SIGMOD 2013). At level k each vertex holds its ball of
    radius k as a vertex bitmask, and its ball of radius k + 1 is the OR of
    its own and its neighbours' balls of radius k. A vertex's eccentricity is
    the level at which its ball becomes the whole vertex set, and it then
    leaves the sweep. A level costs one n-bit OR per adjacency entry of a
    vertex still in the sweep, so the sweep runs O(diam * m) big-int ORs, and
    its two lists of balls hold about 2 * n^2 / 8 bytes at peak. Requires
    n >= 1. On a connected graph vertex 0's ball grows at every level until
    some vertex is full, so a level at which it stops growing while no vertex
    is full raises ``DisconnectedGraphError(0, v)``, v the lowest vertex
    missing from the ball, that is the lowest vertex unreachable from 0.
    """
    n = g.n
    full = (1 << n) - 1
    if n == 1:
        yield 0, [0]
        return
    adjacency = g.adjacency
    prev = [1 << v for v in range(n)]
    cur = prev[:]
    active = range(n)
    k = 0
    while active:
        k += 1
        done = []
        still = []
        for v in active:
            r = prev[v]
            for u in adjacency[v]:
                r |= prev[u]
            cur[v] = r
            if r == full:
                done.append(v)
            else:
                still.append(v)
        if len(still) == n and cur[0] == prev[0]:
            missing = full ^ cur[0]
            raise DisconnectedGraphError(0, (missing & -missing).bit_length() - 1)
        # The lists swap roles, so from level k + 2 on a vertex full at level
        # k has a stale ball in the list being read. Only its neighbours read
        # it, and they are full by level k + 1 and out of the sweep.
        prev, cur = cur, prev
        active = still
        if done:
            yield k, done


def diameter(g):
    """Max shortest-path distance over all pairs: the last level of one reach
    sweep over all sources (see ``_eccentricity_levels`` for its cost)."""
    if g.n == 0:
        raise ValidationError("diameter of an empty graph is undefined")
    return max(k for k, _ in _eccentricity_levels(g))


def choose_root(g):
    """Deterministic root choice: minimum eccentricity, ties by smallest id.

    Requires a connected graph. The reach sweep (see ``_eccentricity_levels``)
    stops at its first level, where the lowest full vertex is the root, so it
    runs radius levels rather than diameter levels.
    """
    if g.n == 0:
        raise ValidationError("cannot choose a root in an empty graph")
    return next(_eccentricity_levels(g))[1][0]


class RootedTree:
    """A tree with a distinguished root and derived per-vertex structure.

    ``parent[root]`` is None; ``children`` lists are sorted; ``height`` is the
    longest downward path length; ``order`` lists the vertices top-down in BFS
    order, root first.
    """

    __slots__ = ("root", "parent", "children", "height", "order")

    def __init__(self, parent, root):
        parent = list(parent)
        n = len(parent)
        if not (0 <= root < n):
            raise ValidationError(f"root {root} out of range for n={n}")
        if parent[root] is not None:
            raise ValidationError("root must have no parent")
        children = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v == root:
                continue
            if p is None or not (0 <= p < n):
                raise ValidationError(f"vertex {v} has invalid parent {p}")
            children[p].append(v)
        order = [root]
        for u in order:
            order.extend(children[u])
        if len(order) != n:
            raise ValidationError("parent array does not form a tree on all vertices")
        height = [0] * n
        for u in reversed(order):
            if children[u]:
                height[u] = 1 + max(height[c] for c in children[u])
        self.root = root
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        self.height = tuple(height)
        self.order = tuple(order)

    @property
    def n(self):
        return len(self.parent)

    @property
    def graph(self):
        """The tree's edges as a ``Graph``, built anew on each access."""
        return Graph(self.n, ((v, p) for v, p in enumerate(self.parent) if p is not None))

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root})"


def bfs_spanning_tree(g, root):
    """BFS tree rooted at ``root``; each non-root vertex takes its smallest-id
    neighbor one level closer to the root as parent.

    Depth in the tree equals the BFS distance in ``g``, so the tree diameter is
    at most twice the graph diameter.
    """
    if not (0 <= root < g.n):
        raise ValidationError(f"root {root} out of range for n={g.n}")
    dist = bfs_distances(g, root)
    for v, d in enumerate(dist):
        if d is None:
            raise DisconnectedGraphError(root, v)
    parent = [None] * g.n
    for v in range(g.n):
        if v == root:
            continue
        want = dist[v] - 1
        parent[v] = next(w for w in g.adjacency[v] if dist[w] == want)
    return RootedTree(parent, root)
