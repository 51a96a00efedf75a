"""Undirected simple graphs on dense integer ids, BFS machinery, rooted tree views.

Vertices are always 0..n-1. Adjacency lists are kept sorted and every
tie-break is by smallest id, so traversals, root choices and derived trees are
reproducible run to run.
"""

from __future__ import annotations

from collections import deque

from .errors import DisconnectedGraphError, ParseError, ValidationError

# The most vertices a ``Graph``, ``parse_edge_list`` or ``generate`` accepts.
# A ``Graph`` holds a sorted adjacency tuple per vertex, so a larger count,
# header or vertex id is refused before anything of that size is built.
# Rebind it to change the cap.
MAX_VERTICES = 1_000_000


class Graph:
    """Immutable undirected simple graph.

    Duplicate edges collapse silently; self-loops are rejected, and so is a
    vertex count above ``MAX_VERTICES``.
    """

    __slots__ = ("n", "adjacency")

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
        self.adjacency = tuple(map(tuple, map(sorted, neighbor_sets)))

    @property
    def num_edges(self):
        return sum(map(len, self.adjacency)) // 2

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

    Lines hold ``u v`` pairs of vertex ids in ASCII decimal digits; blank
    lines and lines starting with ``#`` are ignored. An optional first
    effective line ``n <count>`` declares the vertex count; otherwise n is one
    more than the largest id seen. Duplicate edges collapse; self-loops are
    rejected. A vertex count above ``MAX_VERTICES``, declared or implied by a
    vertex id, raises ``ValidationError`` as soon as its line is read.
    """
    cap = MAX_VERTICES
    declared_n = None
    limit = cap  # ids must stay below this: the declared count, else the cap
    edges = []
    max_id = -1
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        tokens = line.split()
        if tokens[0] == "n":
            # Each effective line before this one left a header or an edge.
            if declared_n is not None or edges:
                raise ParseError("vertex-count header must be the first line", lineno)
            if len(tokens) != 2:
                raise ParseError("vertex-count header must be 'n <count>'", lineno)
            declared_n = _vertex_id(tokens[1])
            if declared_n is None:
                if _vertex_id(tokens[1].removeprefix("-")) is not None:
                    raise ParseError("vertex count must be non-negative", lineno)
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno)
            if declared_n > cap:
                raise ValidationError(f"line {lineno}: vertex count {declared_n} is above the cap of {cap}")
            limit = declared_n
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        u, v = _vertex_id(tokens[0]), _vertex_id(tokens[1])
        if u is None or v is None:
            # A minus sign before digits makes an id negative, not malformed.
            if None in (_vertex_id(token.removeprefix("-")) for token in tokens):
                raise ParseError(f"non-integer vertex id in {line!r}", lineno)
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop at vertex {u}")
        top = u if u > v else v
        if top >= limit:
            if declared_n is not None:
                raise ValidationError(f"line {lineno}: vertex id exceeds declared count n={declared_n}")
            raise ValidationError(f"line {lineno}: vertex id {top} needs more than the cap of {cap} vertices")
        if top > max_id:
            max_id = top
        edges.append((u, v))
    return Graph(declared_n if declared_n is not None else max_id + 1, edges)


def _vertex_id(token):
    """``int(token)`` if ``token`` is ASCII decimal digits alone, else None:
    ``int`` also reads a sign, underscores and other scripts' digits."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


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
    """True for a simple path on at least two vertices: a connected graph
    that is ``_path_shaped``. The shape test runs first, so most graphs need
    no BFS."""
    return _path_shaped(g) and is_connected(g)


def _path_shaped(g):
    """At least two vertices, n - 1 edges and no degree above 2: a path if
    connected. Two C-level passes over the adjacency and no BFS; the
    construction dispatch reads it without ``is_path``'s BFS, since the path
    construction's own BFS finds a disconnected graph."""
    return g.n >= 2 and g.num_edges == g.n - 1 and max(map(len, g.adjacency)) <= 2


def _root_and_diameter(g):
    """Yield the lowest vertex of minimum eccentricity, then the diameter.

    Requires n >= 1. A graph with n - 1 edges is first peeled to its centre
    C (``_peel_to_centre``). If it is a tree of radius r, the centres are
    its vertices of eccentricity r, so the root is min(C), and a longest
    path has C as its middle vertex or middle edge, so the diameter is 2r
    for one centre and 2r - 1 for two: 2r - |C| + 1, 0 on a lone vertex.
    Both come from the peel alone, O(n) steps and memory, with no BFS.

    Every other graph runs a bit-parallel BFS from all sources at once (the
    reach sweep of Akiba, Iwata and Yoshida, SIGMOD 2013). At level k each
    vertex holds its ball of radius k as a vertex bitmask, and its ball of
    radius k + 1 is the OR of its own and its neighbours' balls of radius k.
    A vertex's eccentricity is the level at which its ball becomes the whole
    vertex set, and it then leaves the sweep. The sweep visits vertices in
    ascending order, so the first full vertex is the root; the level at
    which the last one fills is the diameter. A level costs one n-bit OR per
    adjacency entry of a vertex still in the sweep, so the sweep runs
    O(diam * m) big-int ORs, and its two lists of balls hold about
    2 * n^2 / 8 bytes at peak. On a connected graph vertex 0's ball grows at
    every level until some vertex is full, so a level at which it stops
    growing while no vertex is full raises ``DisconnectedGraphError(0, v)``,
    v the lowest vertex missing from the ball, that is the lowest vertex
    unreachable from 0. A graph with n - 1 edges that is not a tree has a
    cycle and is disconnected, and reaches that error through the sweep. A
    graph with fewer than n - 1 edges cannot be connected: one BFS from 0
    raises the same error before the sweep allocates its n balls.
    """
    n = g.n
    m = g.num_edges
    if m < n - 1:
        raise DisconnectedGraphError(0, bfs_distances(g, 0).index(None))
    peeled = _peel_to_centre(g) if m == n - 1 else None
    if peeled is not None:
        radius, centre = peeled
        yield min(centre)
        yield 2 * radius - len(centre) + 1
        return
    adjacency = g.adjacency
    full = (1 << n) - 1
    prev = [1 << v for v in range(n)]
    cur = prev[:]
    active = range(n)
    root = None
    k = 0
    while active:
        k += 1
        still = []
        for v in active:
            r = prev[v]
            for u in adjacency[v]:
                r |= prev[u]
            cur[v] = r
            if r != full:
                still.append(v)
            elif root is None:
                root = v
                yield root
        if len(still) == n and cur[0] == prev[0]:
            missing = full ^ cur[0]
            raise DisconnectedGraphError(0, (missing & -missing).bit_length() - 1)
        # The lists swap roles, so from level k + 2 on a vertex full at level
        # k has a stale ball in the list being read. Only its neighbours read
        # it, and they are full by level k + 1 and out of the sweep.
        prev, cur = cur, prev
        active = still
    yield k


def _peel_to_centre(g):
    """``(radius, centres)`` of ``g``, a graph on n >= 1 vertices with
    n - 1 edges, if it is a tree, else None.

    Removes all current leaves at once, layer by layer, tracking degrees,
    until at most two vertices are left: the centre, one vertex or two
    adjacent ones. The first layer takes the vertices of degree 0 too: a
    lone vertex is its own centre, and no larger tree has one. A tree with
    more than two vertices always has leaves, so a layer that comes up empty
    first means a cycle, whose three or more vertices never become leaves.
    After t layers one centre has eccentricity t, and two centres t + 1.
    O(n + m) steps.
    """
    adjacency = g.adjacency
    degree = [len(nbrs) for nbrs in adjacency]
    layer = [v for v, d in enumerate(degree) if d <= 1]
    left = g.n
    layers = 0
    while left > 2:
        if not layer:
            return None
        left -= len(layer)
        layers += 1
        nxt = []
        for v in layer:
            # A neighbour removed in an earlier layer drops from degree 1 to
            # 0 here, so it is never queued again.
            for u in adjacency[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return (layers if left == 1 else layers + 1), layer


def diameter(g):
    """Max shortest-path distance over all pairs, the second value of
    ``_root_and_diameter``: on a tree 2r - |C| + 1 from the centre peel, with
    no BFS, O(n) steps and memory; on any other graph, the whole reach
    sweep."""
    if g.n == 0:
        raise ValidationError("diameter of an empty graph is undefined")
    _, diam = _root_and_diameter(g)
    return diam


def choose_root(g):
    """Deterministic root choice: minimum eccentricity, ties by smallest id.

    Requires a connected graph. The root is the first value of
    ``_root_and_diameter``: on a tree the smaller centre, straight from the
    peel; on any other graph the lowest vertex whose ball fills first in the
    reach sweep, so the sweep stops within its first full level, after
    radius levels rather than diameter levels.
    """
    if g.n == 0:
        raise ValidationError("cannot choose a root in an empty graph")
    return next(_root_and_diameter(g))


class RootedTree:
    """A tree with a distinguished root and derived per-vertex structure.

    ``parent[root]`` is None; ``children`` lists are sorted; ``order`` lists
    the vertices top-down in BFS order, root first.
    """

    __slots__ = ("root", "parent", "children", "order")

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
        self._adopt(parent, root, children)
        if len(self.order) != n:
            raise ValidationError("parent array does not form a tree on all vertices")

    def _adopt(self, parent, root, children):
        """Take ``parent`` and the sorted ``children``; derive ``order``."""
        order = [root]
        for u in order:
            order.extend(children[u])
        self.root, self.parent = root, tuple(parent)
        self.children, self.order = tuple(map(tuple, children)), tuple(order)

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
    at most twice the graph diameter. The BFS lists the children as well, so
    the tree skips ``RootedTree``'s checks and child pass.
    """
    n = g.n
    if not (0 <= root < n):
        raise ValidationError(f"root {root} out of range for n={n}")
    adjacency = g.adjacency
    parent = [None] * n
    children = [[] for _ in range(n)]
    seen = bytearray(n)
    seen[root] = 1
    level = [root]
    while level:
        # Each level is expanded in ascending id order, so the first vertex
        # to reach v, its parent, is its smallest-id neighbour one level up.
        nxt = []
        for u in level:
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = 1
                    parent[v] = u
                    children[u].append(v)
                    nxt.append(v)
        nxt.sort()
        level = nxt
    missing = seen.find(0)
    if missing >= 0:
        raise DisconnectedGraphError(root, missing)
    # The children came in ascending order from the sorted adjacency.
    tree = RootedTree.__new__(RootedTree)
    tree._adopt(parent, root, children)
    return tree
