"""Constructions that equip a connected graph with categories greedy routing can use.

One rule picks the construction, from the shape of a rooted spanning tree T
(``tree_categories``; ``graph_categories`` takes T as the BFS tree from a
center vertex):

* if T is a path, every vertex gets one prefix set and one suffix set along
  it, which is exact: the membership dimension equals the path's length;
* otherwise T is reshaped to binary form by ``embed_into_binary``: the child
  list of a vertex with three or more children is split recursively at its
  weight midpoint, and each part of two or more children hangs from a
  placeholder vertex. An original vertex v and the placeholders under it
  form v's gadget. Its levels are v itself (level 0), then the placeholders
  under v, one gadget depth at a time; the parts of a level all sit at one
  embedded depth. A vertex with at most two children has one level.

  Every original vertex v gets the set of its descendants and, per level of
  its gadget and per side (the first or the second child of each part, in
  the embedded tree's sorted child order), one graded family. The family's
  base is v plus the other side's subtrees of every part on the level; this
  side's subtrees are added one embedded depth at a time, from none of them
  to all but their deepest vertices. Placeholders get no sets of their own.
  On a tree whose vertices have at most two children every vertex is its
  own level-0 part, and these are the sets of ``binary_tree_categories``.

Why greedy routing delivers. Every set is connected on T: the T-parent of
an original vertex is its closest original ancestor in the embedded tree,
so every member of one of v's sets other than v has its T-parent in the set
too. Take a source s and a target t != s; the next vertex u on the tree path
from s to t is strictly closer to t than s:

* every set that holds t and s is connected on T, so it holds u as well;
* if u is a child of s, u's subtree set holds t and u but not s;
* otherwise u is s's parent. Let v be the lowest common ancestor of s and t
  in T: s lies below a child a of v, and t is v or lies below another
  child b. The gadget paths to a and b split at one part (take the part
  just above a if t is v), and s lies on its side σ. The family of that
  part's level and side σ has t in its base, and its slice just above s's
  embedded depth holds u (u is v, or u lies above s on the near side) but
  not s.

So d(u, t) < d(s, t) on T, and on any graph containing T's edges greedy
forwarding has a strictly closer neighbour at every step.

Membership cost. A vertex x lies in one subtree set per original
ancestor-or-self, and in two families of at most h + 1 sets each per gadget
level that is x's own or lies above x, h the embedded tree's height. These
levels sit at distinct embedded depths, so there are at most h of them, and
x lies in at most (h+1)(2h+3) sets, with h <= 3 * height + 2 * ceil(log2 n)
+ 3. A hub with k children pays about 2 * ceil(log2 k) * (h + 1) for its own
gadget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .categories import CategorySystem
from .errors import ValidationError
from .graph import (
    RootedTree,
    bfs_distances,
    bfs_spanning_tree,
    choose_root,
    is_path,
)


def path_categories(g):
    """Prefix/suffix interval categories for a path graph.

    Vertices are ranked by distance from the smaller-id endpoint; each rank i
    contributes the set of vertices before it and the set after it. Empty
    sets drop out, so a path on n vertices yields 2(n-1) sets and every vertex
    lands in exactly n-1 of them: the membership dimension equals the
    diameter, and greedy routing follows the unique shortest path.
    """
    if not is_path(g):
        raise ValidationError("input graph is not a path")
    start = min(v for v in range(g.n) if g.degree(v) == 1)
    rank = bfs_distances(g, start)
    by_rank = [None] * g.n
    for v, r in enumerate(rank):
        by_rank[r] = v
    masks = []
    prefix = 0
    for i in range(g.n - 1):
        prefix |= 1 << by_rank[i]
        masks.append(prefix)  # the set before rank i+1
    suffix = 0
    for i in range(g.n - 1, 0, -1):
        suffix |= 1 << by_rank[i]
        masks.append(suffix)  # the set after rank i-1
    return CategorySystem.from_masks(g.n, masks)


def binary_tree_categories(tree):
    """Subtree plus graded-slice categories for a rooted tree in which every
    vertex has at most two children.

    Per vertex v: the set of v's descendants (v included); and, for each child
    c of v, one set per depth i from depth(v) up to depth(v) plus c's height,
    holding v, c's subtree cut off at depth i, and the whole subtree of v's
    other child, if any. Which child is which does not matter: both take
    their turn as the sliced one.

    The result is shattered and internally connected on the tree's graph, and
    each vertex lies in at most (h+1)(2h+3) sets, h the tree height: for each
    of its at most h+1 ancestors-or-self it picks up one subtree set and at
    most h+1 graded sets per side. A vertex with three or more children
    raises ``ValidationError``.
    """
    for v, kids in enumerate(tree.children):
        if len(kids) > 2:
            raise ValidationError(f"vertex {v} has more than two children")
    return CategorySystem.from_masks(tree.n, _masks(tree))


@dataclass(frozen=True)
class EmbeddingMap:
    """A tree reshaped to binary form: original vertices keep their ids
    0..n-1 in ``tree`` and the placeholders take ids n, n+1, ..."""

    tree: RootedTree


def embed_into_binary(tree):
    """Reshape a rooted tree so every vertex has at most two children.

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
    """Categories for an arbitrary rooted tree: the path construction on the
    tree's graph when the tree is a path, else the level families of its
    binary embedding (see the module docstring). The result is internally
    connected and shattered on the tree, so greedy routing delivers every
    pair on it and on any graph that contains its edges."""
    # A vertex with three or more children rules out a path without
    # building the tree's graph.
    if max(map(len, tree.children)) <= 2:
        g = tree.graph
        if is_path(g):
            return path_categories(g)
    return CategorySystem.from_masks(tree.n, _masks(tree))


def graph_categories(g):
    """Categories for an arbitrary connected graph.

    Takes the BFS spanning tree rooted at a minimum-eccentricity vertex (its
    diameter is at most twice the graph's) and applies ``tree_categories``.
    Greedy routing then works on the graph itself: every tree step is still
    available, extra edges only add options, and strict decrease rules out
    cycles.
    """
    root = choose_root(g)
    return tree_categories(bfs_spanning_tree(g, root))


def _masks(tree):
    """The subtree sets and level families of every original vertex, built on
    the binary embedding of ``tree``, as vertex masks."""
    n = tree.n
    b = embed_into_binary(tree).tree
    children = b.children
    bit = [1 << v if v < n else 0 for v in range(b.n)]
    subtree = [0] * b.n
    for v in reversed(b.order):
        mask = bit[v]
        for c in children[v]:
            mask |= subtree[c]
        subtree[v] = mask
    masks = subtree[:n]
    for v in range(n):
        # The child tuples of the parts on one level of v's gadget. Level 0
        # is v alone; deeper parts are placeholders with two children each,
        # so every part of a level has as many sides.
        level = [children[v]] if children[v] else []
        while level:
            for side in range(len(level[0])):
                base, near = bit[v], []
                for pair in level:
                    near.append(pair[side])
                    if len(pair) == 2:
                        base |= subtree[pair[1 - side]]
                sliced = 0
                while near:  # every depth but the deepest of the near side
                    masks.append(base | sliced)
                    deeper = []
                    for x in near:
                        sliced |= bit[x]
                        deeper += children[x]
                    near = deeper
            level = [children[c] for pair in level for c in pair if c >= n]
    return masks

