"""Constructions that equip a connected graph with categories greedy routing can use.

Three layers, from special to general:

* a path gets one prefix set and one suffix set per vertex, which is exact:
  the membership dimension equals the diameter;
* a rooted binary tree gets, per vertex, its own subtree plus graded sets
  that pair one child's subtree, sliced depth by depth, with the other
  child's subtree taken whole. Walking down toward a target gains the
  subtree sets of each child passed; crossing between subtrees gains a
  graded set one slice above the current vertex;
* an arbitrary tree is first reshaped: every vertex with three or more
  children has its child list expanded into a weight-balanced binary gadget
  of placeholder vertices (recursive weight-midpoint splitting, so heavy
  subtrees stay shallow), the binary construction runs on the reshaped tree,
  and the resulting sets are mapped back by folding each placeholder into
  its closest ancestor that is an original vertex. Folding, rather than
  deleting, keeps every mapped set connected on the original tree and keeps
  the neighbor witnesses alive, which is what makes routing go through.

An arbitrary connected graph takes a BFS spanning tree from a center vertex
and reuses the tree construction; greedy forwarding on the full graph only
ever has more options than on the tree, and strict distance decrease still
guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import CategorySystem, iter_bits
from .errors import ValidationError
from .graph import (
    Graph,
    RootedBinaryTree,
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
    """Subtree plus graded-slice categories for a rooted binary tree.

    Per vertex v: the set of v's descendants (v included); and, when v has a
    left child, one set per depth i from depth(v) up to depth(v) plus the
    left child's height, holding v, the left subtree cut off at depth i, and
    the whole right subtree. Symmetrically with the roles swapped when v has
    a right child. Absent children contribute nothing.

    The result is shattered and internally connected on the tree's graph, and
    each vertex lies in at most (h+1)(2h+3) sets, h the tree height: for each
    of its at most h+1 ancestors-or-self it picks up one subtree set and at
    most h+1 graded sets per side.
    """
    if not isinstance(tree, RootedBinaryTree):
        raise ValidationError("binary_tree_categories needs a RootedBinaryTree")
    n = tree.n
    children = tree.children
    order = _by_depth(tree)
    subtree = [0] * n
    for v in reversed(order):
        mask = 1 << v
        for c in children[v]:
            mask |= subtree[c]
        subtree[v] = mask
    masks = list(subtree)
    for v in range(n):
        for near, far in ((tree.left[v], tree.right[v]), (tree.right[v], tree.left[v])):
            if near is None:
                continue
            base = (1 << v) | (subtree[far] if far is not None else 0)
            masks.append(base)  # slice at depth(v): nothing of the near side yet
            sliced = 0
            frontier = [near]
            for _ in range(tree.height[near]):
                for x in frontier:
                    sliced |= 1 << x
                masks.append(base | sliced)
                frontier = [c for x in frontier for c in children[x]]
    return CategorySystem.from_masks(n, masks)


@dataclass(frozen=True)
class EmbeddingMap:
    """A tree reshaped to binary form, with the bookkeeping to map back.

    Original vertices keep their ids in the binary tree; ``tree.origin`` is
    None exactly on the placeholder vertices; ``nearest_original`` folds every
    embedded vertex, placeholder or not, to its closest original ancestor.
    """

    tree: RootedBinaryTree
    original: RootedTree
    nearest_original: tuple


def embed_into_binary(tree):
    """Reshape a rooted tree so every vertex has at most two children.

    A vertex with three or more children has its id-ordered child list split
    recursively at the weight midpoint (weight of a child = its subtree size;
    ties take the smaller left side), introducing one placeholder vertex per
    split. Heavy children therefore sit near the top of their gadget, which
    keeps the reshaped height within 3 * height + 2 * ceil(log2 n) + 3 and
    preserves the ancestor-descendant relation between original vertices.
    """
    n = tree.n
    sizes = [1] * n
    order = _by_depth(tree)
    for v in reversed(order):
        for c in tree.children[v]:
            sizes[v] += sizes[c]

    parent = list(tree.parent)
    left = [None] * n
    right = [None] * n
    origin = list(range(n))

    def new_placeholder(host):
        parent.append(host)
        left.append(None)
        right.append(None)
        origin.append(None)
        return len(parent) - 1

    def set_child(host, side, child):
        parent[child] = host
        if side == 0:
            left[host] = child
        else:
            right[host] = child

    for u in range(n):
        kids = tree.children[u]
        if len(kids) <= 2:
            for side, c in enumerate(kids):
                set_child(u, side, c)
            continue
        pending = [(u, kids)]
        while pending:
            host, seq = pending.pop()
            cut = _weight_midpoint(seq, sizes)
            for side, part in enumerate((seq[:cut], seq[cut:])):
                if len(part) == 1:
                    set_child(host, side, part[0])
                else:
                    d = new_placeholder(host)
                    set_child(host, side, d)
                    pending.append((d, part))

    embedded = RootedBinaryTree(parent, tree.root, left, right, origin)
    nearest = [None] * embedded.n
    for v in _by_depth(embedded):
        if embedded.origin[v] is not None:
            nearest[v] = embedded.origin[v]
        else:
            nearest[v] = nearest[embedded.parent[v]]
    return EmbeddingMap(
        tree=embedded,
        original=tree,
        nearest_original=tuple(nearest),
    )


def tree_categories(tree):
    """Categories for an arbitrary rooted tree, via the binary embedding.

    Runs the binary construction on the reshaped tree, then folds every
    placeholder vertex in every set into its closest original ancestor and
    collapses duplicates. The folded system is internally connected and
    shattered on the original tree, so greedy routing delivers every pair.
    """
    embedding = embed_into_binary(tree)
    embedded_system = binary_tree_categories(embedding.tree)
    fold = embedding.nearest_original
    masks = []
    for mask in embedded_system.category_masks:
        folded = 0
        for b in iter_bits(mask):
            folded |= 1 << fold[b]
        masks.append(folded)
    return CategorySystem.from_masks(tree.n, masks)


def graph_categories(g):
    """Categories for an arbitrary connected graph.

    Takes the BFS spanning tree rooted at a minimum-eccentricity vertex (its
    diameter is at most twice the graph's) and applies the tree construction.
    Greedy routing then works on the graph itself: every tree step is still
    available, extra edges only add options, and strict decrease rules out
    cycles.
    """
    root = choose_root(g)
    return tree_categories(bfs_spanning_tree(g, root))


def impossibility_pair():
    """Two three-vertex chains over the same universe {s, u, t} = {0, 1, 2}
    that no single category system can serve.

    The first chains s-u-t, the second u-s-t. Routing s to t in the first
    needs u strictly closer to t than s; routing u to t in the second needs
    the opposite; so any system delivering all pairs on one is stuck on the
    other.
    """
    labels = ("s", "u", "t")
    first = Graph(3, [(0, 1), (1, 2)], labels=labels)
    second = Graph(3, [(1, 0), (0, 2)], labels=labels)
    return first, second


def _by_depth(tree):
    """Vertices ordered root first, then by increasing depth."""
    buckets = {}
    for v in range(tree.n):
        buckets.setdefault(tree.depth[v], []).append(v)
    order = []
    for d in sorted(buckets):
        order.extend(buckets[d])
    return order


def _weight_midpoint(seq, sizes):
    """Split index minimizing |left weight - right weight|, ties leftmost."""
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
