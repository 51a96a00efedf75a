"""Reference computations the benchmark judges catroute's outputs with.

Everything here is written from the definitions alone and imports nothing from
catroute, so a fault in the package's routing or verifiers cannot hide itself:

* BFS hop distances over an adjacency list;
* category distance d(u, t) = |cats(t) \\ cats(u)|, with cats(v) held as a
  bitmask over category indices;
* the greedy walk: move to the neighbour of least distance among those strictly
  closer to the target, ties to the smallest id, until the target is reached
  or no neighbour is closer;
* per-vertex membership counts read straight from the category JSON.
"""

from __future__ import annotations

from collections import deque


def adjacency(n, edges):
    """Sorted neighbour lists of the undirected graph on 0..n-1."""
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return [sorted(s) for s in neighbours]


def bfs(adj, source):
    """Hop distance from ``source`` to every vertex (-1 where unreachable)."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def diameter(adj):
    """Exact diameter of a connected graph: two BFS sweeps on a tree, a BFS
    from every vertex otherwise."""
    n = len(adj)
    if sum(len(a) for a in adj) == 2 * (n - 1):
        first = bfs(adj, 0)
        far = max(range(n), key=first.__getitem__)
        return max(bfs(adj, far))
    return max(max(bfs(adj, v)) for v in range(n))


def distance_profile(adj):
    """(diameter, mean hop distance over ordered pairs) by BFS from every vertex."""
    n = len(adj)
    worst = 0
    total = 0
    for v in range(n):
        dist = bfs(adj, v)
        worst = max(worst, max(dist))
        total += sum(dist)
    return worst, total / (n * (n - 1))


def cushion(n, diam):
    """The advertised membership bound 16 (diam + ceil(log2 n) + 1)^2."""
    return 16 * (diam + (n - 1).bit_length() + 1) ** 2


def memberships(n, categories):
    """Per-vertex (membership count, bitmask over category indices)."""
    owned = [[] for _ in range(n)]
    for index, members in enumerate(categories):
        for v in members:
            owned[v].append(index)
    width = (len(categories) + 7) // 8
    counts = []
    masks = []
    for indices in owned:
        buf = bytearray(width)
        for i in indices:
            buf[i >> 3] |= 1 << (i & 7)
        counts.append(len(indices))
        masks.append(int.from_bytes(buf, "little"))
    return counts, masks


def category_distance(masks, u, t):
    """|cats(t) \\ cats(u)|."""
    return (masks[t] & ~masks[u]).bit_count()


def greedy_walk(adj, masks, source, target):
    """The greedy route from ``source`` to ``target``: (path, distances)."""
    u = source
    du = category_distance(masks, u, target)
    path = [u]
    dists = [du]
    while u != target:
        best = None
        best_d = du
        for v in adj[u]:
            dv = category_distance(masks, v, target)
            if dv < best_d:
                best, best_d = v, dv
        if best is None:
            break
        u, du = best, best_d
        path.append(u)
        dists.append(du)
    return path, dists


def induces_connected(adj, members):
    """Does the vertex set ``members`` induce a connected subgraph?"""
    inside = set(members)
    start = members[0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in inside and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(inside)


def pair_shattered(adj, masks, s, t):
    """Does some neighbour u of s (t itself allowed) share with t a category
    that excludes s?"""
    want = masks[t] & ~masks[s]
    return any(want & masks[u] for u in adj[s])


def canonical_problem(n, categories):
    """None if the category list is canonical (members strictly ascending and
    in range, sets non-empty, list strictly increasing in lexicographic order,
    hence distinct); otherwise a description of the first violation."""
    previous = None
    for index, members in enumerate(categories):
        if not members:
            return f"category {index} is empty"
        if any(not isinstance(v, int) or not 0 <= v < n for v in members):
            return f"category {index} has a member out of range"
        if any(a >= b for a, b in zip(members, members[1:])):
            return f"category {index} is not strictly ascending"
        if previous is not None and not previous < members:
            return f"category {index} is out of order or a duplicate"
        previous = members
    return None
