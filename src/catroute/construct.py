"""Constructions that equip a connected graph with categories greedy routing can use.

One rule picks the construction. ``graph_categories``, ``bench_one`` and
``catroute construct`` all go through it:

* if g is a partial cube with exactly diam(g) Theta classes, g gets its
  halfspaces (below): memdim = diam, and every route is a shortest path.
  Among trees only paths qualify, and ``_category_masks`` asks that
  question itself: a graph with n - 1 edges and no degree above 2 goes to
  ``path_categories``;
* otherwise ``tree_categories`` runs on the BFS tree T from a center vertex,
  and T gets its code families:

  Every vertex v other than the root with at most one child gets its
  subtree set, the set of its descendants. (The root's would hold every
  vertex: it adds 0 to every |cat(t) \\ cat(s)| and separates no pair. A
  vertex with two or more children needs none: the first slice of one of
  its families separates the same pairs, see below.) A vertex with k >= 2
  children gets m(k) families, m(k) the fewest bits m with
  C(m, floor(m/2)) >= k: each child c takes its own floor(m/2)-subset
  code(c) of the m bits, the tallest children the first subsets in
  lexicographic order. Family j has as its base v plus the
  subtrees of the children whose code holds j; the subtrees of the other
  children, its near side, are added one depth at a time, from none of them
  to all but their deepest vertices. A vertex with one child gets no family,
  except the root, whose one child is the near side of one family with base
  {root}. On a tree whose vertices have at most two children the two
  children of a vertex take the codes {0} and {1}, and these are the sets of
  ``binary_tree_categories``.

Paths. On a path the code families are its halfspaces, one prefix and one
suffix per edge, whatever the root. A non-root vertex has at most one child,
so it gets no family, and its subtree set is the side of its parent edge
away from the root. The root's family slices are the sides toward the root:
with one child, its one family grows from {root} to all but the deepest
vertex; with two, family j holds the root and the child whose code is {j}
with all below it, and grows the same way down the other child's side. So
``path_categories`` is ``tree_categories`` on a BFS tree of the path, and a
BFS tree that is a path, as on an odd cycle, gets its halfspaces too:
memdim is its length.

Halfspaces. A partial cube is a graph whose vertices can be labelled with
bit strings so that graph distance equals Hamming distance (Djokovic, JCTB
1973; Winkler, DAM 1984). Each bit is one Theta class of edges, and for any
edge ab of a class, the class splits the vertices into the halfspaces
W_ab = {x : d(x, a) < d(x, b)} and W_ba. The system of all halfspaces puts
every vertex in one halfspace per class, so memdim is the class count, and
|cat(t) \\ cat(s)| counts the classes that separate s and t, which is
dist(s, t). So every greedy hop moves one step along a shortest path, and
since any system that routes has memdim >= diam, a class count equal to
diam(g) is optimal. Paths, even cycles, grids and hypercubes qualify; a
tree is a partial cube whose classes are its edges, so among trees only
paths do. Where the rule gives g its halfspaces, their class count is
diam(g): ``_diameter``, which ``catroute stats`` calls, reads it off the
recognition there and runs the reach sweep only on the other graphs.

Recognition (``_halfspaces``) runs no all-sources sweep:

* one BFS from vertex 0 finds an odd cycle if there is one, and ecc(0).
  diam <= 2 ecc(0), so more than 2 ecc(0) classes rule the graph out;
* root passes (``_root_pass``) cut the classes, each pass one BFS from a
  root a: the vertex with the most edges no class has cut yet, ties to the
  one the BFS from 0 reached first. In a bipartite graph d(x, b) is
  d(x, a) - 1 or d(x, a) + 1 for an edge ab, so W_ba is the set of x with
  b on a shortest a-x path, and one BFS from a decides the class of every
  edge at a. The pass takes up to 8 unclassified neighbours b_0, b_1, ...
  of a and gives every vertex a byte whose bit j says b_j lies on a
  shortest path from a; a vertex ORs in the bytes of all its BFS parents,
  since its shortest paths from a run through them. Every edge joins a
  parent to a child, and the edges whose ends differ in bit j are the cut
  of class j. An edge whose ends differ in two bits, or that an earlier
  class cut already, rules the graph out;
* the certificate: for every vertex s, the AND of s's own halfspaces over
  the classes of its edges must be {s} alone;
* the antipode test: some vertex's label complement must be another
  vertex's label.

Why the certificate suffices. Every edge is cut by exactly its own class:
one class at least, since a pair of adjacent vertices that no class
separates would both lie in all of s's halfspaces, and no second class,
since that cut would cross a classified edge. So the Hamming distance
H(s, t) of the labels is at most dist(s, t). Conversely, for t != s the
certificate gives an edge su whose class puts t on u's side; stepping to u
flips only that class, so H(u, t) = H(s, t) - 1, and induction gives a
path of H(s, t) edges: dist(s, t) <= H(s, t). With H = dist, diam is the
largest Hamming distance, which equals the class count exactly when two
labels differ in every class: the antipode test. The certificate is
required: without it, K_{2,3} passes the other tests with 2 classes and
diam 2, yet its halfspaces leave two vertices with one label, and a route
between them gets stuck.

Cost. A pass cuts every unclassified edge at its root, up to 8 of them,
and at least one class, so there are at most as many passes as classes,
and no more than 2 ecc(0) of them. Each pass is one BFS of O(n + m) steps
plus one O(n) byte translation per class it cuts, and the root choice is
one O(n) scan; the certificate takes one n-bit AND per cut edge end.
O(ecc(0) (n + m)) steps in all. On a grid the pass count falls to about a
quarter of the class count (15 passes for the 58 classes of the 30x30
grid), on Q_d to ceil(d / 8), and on an even cycle, whose vertices have two
edges, to half. ``graph_categories`` reaches the recognition only on graphs
with a cycle; a path goes straight to ``path_categories`` and any other
tree to ``tree_categories``.

Why greedy routing delivers on the code families. Every set is connected
on T: every member of one of v's sets other than v has its T-parent in the
set too. Take a source s and a target t != s; the next vertex u on the tree
path from s to t is strictly closer to t than s:

* every set that holds t and s is connected on T, so it holds u as well;
* if u is a child of s with at most one child, u's subtree set holds t and
  u but not s. If u has k >= 2 children, take j in the code of u's child
  toward t, or of any child if t = u. Fewer than k codes hold j, since
  C(m - 1, floor(m/2) - 1) <= C(m - 1, floor((m - 1)/2)) < k by the
  minimality of m, so some child misses j and family j of u is emitted. Its
  first slice is its base, which holds u and t but not s;
* otherwise u is s's parent. Let w be the lowest common ancestor of s and
  t in T, and a the child of w that s is or lies below. If t lies below
  another child b, the codes of a and b are distinct sets of one size, so
  some bit j is in code(b) and not in code(a): family j of w has t in its
  base and a on its near side, and its slice just above s's depth holds u
  (u is w, or lies above s on the near side) but not s. If t is w, take
  the lowest ancestor-or-self x of w with a family whose near side holds
  the child of x toward s: a vertex with two or more children has one,
  since a code of floor(m/2) of m bits misses a bit, and so does the root.
  That family's slice just above s's depth holds u and t, which lie on the
  tree path from x down to s above s, but not s.

So d(u, t) < d(s, t) on T, and on any graph containing T's edges greedy
forwarding has a strictly closer neighbour at every step.

Membership cost. A vertex x lies in one subtree set per ancestor-or-self
other than the root that has at most one child, at most h of them, and in
at most h_v + 1 sets of each family of an ancestor-or-self v, h_v the
height of v: at most h + M (h + 1)^2 sets, h the tree's height and M the
largest m(k). No routing system puts a vertex with k pendant neighbours in
fewer than m(k) categories (Sperner's theorem). A star's hub lies in its
m(k) families alone, and a leaf in its own set and floor(m/2) families, so
on a star of k >= 2 leaves memdim is m(k), the optimum. And
m(k) <= 2 ceil(log2 k), the families a binary split of the k children into
halves, quarters and so on would need.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb
from operator import or_

from .categories import _BIT, CategorySystem, _canonical, _CanonicalMasks
from .errors import ValidationError
from .graph import RootedTree, _path_shaped, bfs_spanning_tree, choose_root, diameter


def path_categories(g):
    """The halfspaces of a path graph: per edge, the vertices on either side
    of it, a prefix and a suffix of the path.

    A path on n vertices yields 2(n-1) sets and every vertex lands in exactly
    n-1 of them: the membership dimension equals the diameter, and greedy
    routing follows the unique shortest path. A path is the tree whose class
    count n - 1 equals its diameter, so this is the halfspace system of the
    module docstring, and on a path those are the code families at any root:
    this is ``tree_categories`` on the BFS tree from vertex 0, O(n) big-int
    ORs where the recognition would run one BFS per two edges. A graph that
    is not ``graph._path_shaped`` raises ``ValidationError``, and one that
    is but is not connected the BFS's ``DisconnectedGraphError``.
    """
    if not _path_shaped(g):
        raise ValidationError("input graph is not a path")
    return tree_categories(bfs_spanning_tree(g, 0))


def _root_pass(adjacency, n, a, picks, crossed):
    """One BFS from ``a`` that cuts the classes of the edges from ``a`` to
    ``picks``, at most 8 neighbours of ``a``: a list of ``(W_ba as a vertex
    mask, the cut edges' ends on b's side, their ends on a's side)``, one
    per pick b, or None if some edge is cut twice, by two picks or by one
    pick and a class in ``crossed``.

    Bit j of ``bits[x]`` is set when picks[j] lies on a shortest a-x path,
    which in a bipartite graph is when d(x, picks[j]) < d(x, a): x is in
    W_ba for b = picks[j]. A child ORs in the bits of every parent. A
    neighbour already expanded is a parent, since a BFS expands one level
    in full before the next; so every edge is met once as child to parent,
    and it is cut by class j when the two bytes differ in bit j. Each cut
    edge enters ``crossed`` in both directions as ``u * n + v``.
    """
    state = bytearray(n)  # 0 unseen, 1 queued, 2 expanded
    bits = bytearray(n)
    for j, b in enumerate(picks):
        bits[b] = 1 << j
    state[a] = 1
    ends = [([], []) for _ in picks]
    queue = [a]
    for u in queue:
        state[u] = 2
        bu = bits[u]
        for v in adjacency[u]:
            if state[v] == 2:
                cut = bu ^ bits[v]
                if cut:
                    key = u * n + v
                    if cut & (cut - 1) or key in crossed:
                        return None
                    crossed.add(key)
                    crossed.add(v * n + u)
                    near_ends, far_ends = ends[cut.bit_length() - 1]
                    near_ends.append(u)
                    far_ends.append(v)
            else:
                if not state[v]:
                    state[v] = 1
                    queue.append(v)
                bits[v] |= bu
    return [(int(bits.translate(_BIT[j])[::-1], 2), *ends[j]) for j in range(len(picks))]


def _halfspaces(g):
    """The system of all halfspaces of ``g`` when ``g`` is a connected
    partial cube with exactly diam(g) Theta classes, else None.

    Follows the recognition of the module docstring: a BFS from vertex 0
    (no odd cycle, ecc(0)), at most 2 ecc(0) classes cut by ``_root_pass``
    BFS from the roots with the most edges left unclassified, then the
    certificate and the antipode test. None on fewer than two vertices, and
    on a disconnected graph.
    """
    n = g.n
    if n < 2:
        return None
    adjacency = g.adjacency
    dist = [-1] * n
    dist[0] = 0
    order = [0]
    for u in order:
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                order.append(v)
            elif dist[v] == du:
                return None  # an edge within a level closes an odd cycle
    if len(order) < n:
        return None
    cap = 2 * dist[order[-1]]  # diam <= 2 ecc(0)
    full = (1 << n) - 1
    certificate = [full] * n
    crossed = set()
    masks = []
    unknown = list(map(len, adjacency))  # edges at each vertex no class cuts yet
    while True:
        # Ties go to the vertex the BFS from 0 reached first.
        a = max(order, key=unknown.__getitem__)
        if not unknown[a]:
            break
        picks = [b for b in adjacency[a] if a * n + b not in crossed][:8]
        if len(masks) + 2 * len(picks) > 2 * cap:
            return None  # more classes than diam can reach
        cuts = _root_pass(adjacency, n, a, picks, crossed)
        if cuts is None:
            return None
        for near, near_ends, far_ends in cuts:
            far = full ^ near
            masks += (near, far)
            for s in near_ends:
                certificate[s] &= near
                unknown[s] -= 1
            for s in far_ends:
                certificate[s] &= far
                unknown[s] -= 1
    # Each AND keeps s itself, so the certificate holds iff each is {s}.
    if sum(map(int.bit_count, certificate)) != n:
        return None
    system = CategorySystem.from_masks(n, masks)
    # Each vertex lies in one halfspace per class, so a label's complement
    # over all the categories is the label of a vertex every class separates
    # from it.
    labels = set(system.vertex_masks)
    top = (1 << len(masks)) - 1
    if not any(top ^ label in labels for label in labels):
        return None
    return system


def binary_tree_categories(tree):
    """``tree_categories`` behind a check: a vertex of ``tree`` with three
    or more children raises ``ValidationError``.

    With at most two children per vertex, the two children of a vertex take
    the codes {0} and {1} (module docstring): each non-root vertex with at
    most one child has its subtree set, and each child c of a vertex v with
    two children or of the root has one set per depth down c's subtree,
    holding v, that slice of c's subtree and v's other subtree whole. Each
    vertex lies in at most (h+1)(2h+3) - 1 sets, h the tree height: at most
    one subtree set per ancestor-or-self but the root, and at most h+1
    graded sets per side of each.
    """
    for v, kids in enumerate(tree.children):
        if len(kids) > 2:
            raise ValidationError(f"vertex {v} has more than two children")
    return tree_categories(tree)


@dataclass(frozen=True)
class EmbeddingMap:
    """A tree reshaped to binary form: original vertices keep their ids
    0..n-1 in ``tree`` and the placeholders take ids n, n+1, ..."""

    tree: RootedTree


def embed_into_binary(tree):
    """Reshape a rooted tree so every vertex has at most two children.

    No construction calls it: the code families need no placeholders. It
    stays a public helper.

    A vertex with three or more children has its id-ordered child list split
    recursively at the weight midpoint (weight of a child = its subtree size;
    ties take the smaller left part), introducing one placeholder vertex per
    part of two or more children. Heavy children therefore sit near the top
    of their gadget, which keeps the reshaped height within
    3 * height + 2 * ceil(log2 n) + 3 and preserves the ancestor-descendant
    relation between original vertices.

    Parts are index ranges into the child list, and each cut is found by
    bisection on the child list's prefix sums of weight, so a hub with d
    children costs O(d) steps for the sums and O(log d) per cut.
    """
    n = tree.n
    sizes = [1] * n
    for v in reversed(tree.order):
        if v != tree.root:
            sizes[tree.parent[v]] += sizes[v]

    parent = list(tree.parent)
    for u in range(n):
        kids = tree.children[u]
        if len(kids) <= 2:
            continue
        # prefix[i] is the weight of the first i children.
        prefix = list(accumulate([sizes[c] for c in kids], initial=0))
        pending = [(u, 0, len(kids))]
        while pending:
            host, lo, hi = pending.pop()
            # Cutting at i leaves |2 * prefix[i] - middle| between the sides.
            # Weights are positive, so the best cut is the first i whose
            # left side reaches half the part, or the one before it when
            # that is as close (ties take the smaller left part).
            middle = prefix[lo] + prefix[hi]
            cut = bisect_left(prefix, (middle + 1) >> 1, lo + 1, hi - 1)
            if cut - 1 > lo and middle - 2 * prefix[cut - 1] <= abs(2 * prefix[cut] - middle):
                cut -= 1
            for a, b in ((lo, cut), (cut, hi)):
                if b - a == 1:
                    parent[kids[a]] = host
                else:
                    parent.append(host)
                    pending.append((len(parent) - 1, a, b))
    return EmbeddingMap(tree=RootedTree(parent, tree.root))


def tree_categories(tree):
    """Categories for an arbitrary rooted tree: the subtree sets of its
    non-root vertices with at most one child and its code families (see the
    module docstring). On a path these are its halfspaces, at any root. The
    result is internally connected and shattered on the tree, so greedy
    routing delivers every pair on it and on any graph that contains its
    edges."""
    return CategorySystem.from_masks(tree.n, _masks(tree))


def graph_categories(g):
    """Categories for an arbitrary connected graph, by the rule of the module
    docstring: its halfspaces when it is a partial cube with diam(g) classes,
    else ``tree_categories`` on the BFS spanning tree rooted at a
    minimum-eccentricity vertex (its diameter is at most twice the
    graph's). Greedy routing then works on the graph itself: every tree step
    is still available, extra edges only add options, and strict decrease
    rules out cycles.
    """
    return CategorySystem._of(_category_masks(g))


def _category_masks(g, root_of=None):
    """The one construction rule as ``_CanonicalMasks``, which ``catroute
    construct`` serializes and ``graph_categories`` and ``bench_one`` make a
    system of. ``root_of(g)``, the BFS tree's root, is called on the tree
    branch alone; by default it is ``choose_root``, looked up then, so that
    a rebinding after import (as perfbench/tracer.py makes) runs. A graph
    ``_recognised`` gives no halfspaces goes to ``path_categories`` if it is
    path-shaped. The halfspace and path branches hand on the vertex masks
    their systems have transposed; the tree branch transposes nothing.
    """
    system = _recognised(g)
    if system is None and _path_shaped(g):
        system = path_categories(g)
    if system is not None:
        return _CanonicalMasks(g.n, system.category_masks, system.vertex_masks)
    return _canonical(g.n, set(_masks(bfs_spanning_tree(g, (root_of or choose_root)(g)))))


def _recognised(g):
    """``_halfspaces(g)``, or None without running it on a graph with
    n - 1 edges: if connected that is a tree, whose halfspaces apply exactly
    when it is a path, and ``path_categories`` builds those in O(n) ORs."""
    return _halfspaces(g) if g.num_edges != g.n - 1 else None


def _diameter(g):
    """diam(g), for ``catroute stats``. A graph the dispatch gives its
    halfspaces has diam(g) Theta classes, two halfspaces each, so the
    recognition, faster than the reach sweep, gives it. Every other graph
    takes ``graph.diameter``, a tree its centre peel."""
    system = _recognised(g)
    return diameter(g) if system is None else system.num_categories // 2


def _code_bits(k):
    """m(k): the fewest code bits whose middle layer, the floor(m/2)-subsets
    of m bits, has at least k members."""
    m = 0
    while comb(m, m // 2) < k:
        m += 1
    return m


def _masks(tree):
    """The subtree sets of the non-root vertices of ``tree`` with at most
    one child and the code families of every vertex (see the module
    docstring), as vertex masks."""
    n = tree.n
    order, parent, children = tree.order, tree.parent, tree.children
    bit = [1 << v for v in range(n)]
    subtree = bit[:]
    height, depth = [0] * n, [0] * n
    for v in reversed(order[1:]):
        p = parent[v]
        subtree[p] |= subtree[v]
        height[p] = max(height[p], height[v] + 1)
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    # upto[d] holds the vertices of depth at most d.
    levels = [0] * (height[tree.root] + 1)
    for v in range(n):
        levels[depth[v]] |= bit[v]
    upto = list(accumulate(levels, or_))
    # A vertex with two or more children needs no subtree set: the first
    # slice of a family of its own separates the same pairs.
    masks = [subtree[v] for v in order[1:] if len(children[v]) < 2]
    for v in order:
        kids = children[v]
        m = _code_bits(len(kids))
        if v == tree.root and kids:
            m = max(m, 1)  # a root with one child still needs its family
        if not m:
            continue
        # Tallest first, ties by id: the first codes share their low bits, so
        # few families get a tall near side.
        kids = sorted(kids, key=height.__getitem__, reverse=True)
        base, tall = [bit[v]] * m, [0] * m
        # Bits no code so far misses; the first child whose code misses j is
        # the tallest on family j's near side.
        unmissed = set(range(m))
        for c, code in zip(kids, combinations(range(m), m // 2)):
            for j in code:
                base[j] |= subtree[c]
            if unmissed:
                for j in unmissed.difference(code):
                    tall[j] = height[c]
                unmissed.intersection_update(code)
        for j in range(m):
            near = subtree[v] ^ base[j]
            if near:
                masks += [base[j] | near & upto[d] for d in range(depth[v], depth[v] + tall[j] + 1)]
    return masks
