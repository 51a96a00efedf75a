"""Constructions that equip a connected graph with categories greedy routing can use.

Three layers, from special to general:

* a path gets one prefix set and one suffix set per vertex, which is exact:
  the membership dimension equals the diameter;
* a rooted tree in which every vertex has at most two children gets, per
  vertex, its own subtree plus graded sets that pair one child's subtree,
  sliced depth by depth, with the other child's subtree taken whole. Walking
  down toward a target gains the subtree sets of each child passed; crossing
  between subtrees gains a graded set one slice above the current vertex;
* an arbitrary tree is first reshaped: every vertex with three or more
  children has its child list expanded into a weight-balanced binary gadget
  of placeholder vertices (recursive weight-midpoint splitting, so heavy
  subtrees stay shallow), and the binary construction runs on the reshaped
  tree with every placeholder folded into its closest ancestor that is an
  original vertex while the sets are built. Folding, rather than deleting,
  keeps every set connected on the original tree and keeps the neighbor
  witnesses alive, which is what makes routing go through.

An arbitrary connected graph takes a BFS spanning tree from a center vertex
and reuses the tree construction; greedy forwarding on the full graph only
ever has more options than on the tree, and strict distance decrease still
guarantees termination. ``construct_categories`` picks the construction
from the shape of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .categories import CategorySystem
from .errors import ValidationError
from .graph import (
    Graph,
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
    return CategorySystem.from_masks(tree.n, _masks(tree, [1 << v for v in range(tree.n)]))


@dataclass(frozen=True)
class EmbeddingMap:
    """A tree reshaped to binary form, with the map back to the original.

    Original vertices keep their ids 0..n-1 in the reshaped tree and the
    placeholders take ids n, n+1, ...; ``nearest_original`` folds every
    reshaped vertex, placeholder or not, to its closest original ancestor.
    """

    tree: RootedTree
    nearest_original: tuple


def embed_into_binary(tree):
    """Reshape a rooted tree so every vertex has at most two children.

    A vertex with three or more children has its id-ordered child list split
    recursively at the weight midpoint (weight of a child = its subtree size;
    ties take the smaller left part), introducing one placeholder vertex per
    part of two or more children. Heavy children therefore sit near the top
    of their gadget, which keeps the reshaped height within
    3 * height + 2 * ceil(log2 n) + 3 and preserves the ancestor-descendant
    relation between original vertices.
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
        pending = [(u, kids)]
        while pending:
            host, seq = pending.pop()
            cut = _weight_midpoint(seq, sizes)
            for part in (seq[:cut], seq[cut:]):
                if len(part) == 1:
                    parent[part[0]] = host
                else:
                    parent.append(host)
                    pending.append((len(parent) - 1, part))

    embedded = RootedTree(parent, tree.root)
    nearest = list(range(embedded.n))
    for v in embedded.order:
        if v >= n:
            nearest[v] = nearest[parent[v]]
    return EmbeddingMap(tree=embedded, nearest_original=tuple(nearest))


def tree_categories(tree):
    """Categories for an arbitrary rooted tree, via the binary embedding.

    Runs the binary construction on the reshaped tree with every placeholder
    vertex folded into its closest original ancestor as the sets are built,
    and collapses duplicates. Folding maps unions to unions, so this gives
    exactly the binary construction's sets folded afterwards. The folded
    system is internally connected and shattered on the original tree, so
    greedy routing delivers every pair.
    """
    embedding = embed_into_binary(tree)
    bit = [1 << v for v in embedding.nearest_original]
    return CategorySystem.from_masks(tree.n, _masks(embedding.tree, bit))


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


def construct_categories(g):
    """Categories for a connected graph ``g``: the exact path construction on a
    path (membership dimension equal to the diameter), the tree construction
    on a BFS spanning tree everywhere else."""
    return path_categories(g) if is_path(g) else graph_categories(g)


def impossibility_pair():
    """Two three-vertex chains over the same universe {s, u, t} = {0, 1, 2}
    that no single category system can serve.

    The first chains s-u-t, the second u-s-t. Routing s to t in the first
    needs u strictly closer to t than s; routing u to t in the second needs
    the opposite; so any system delivering all pairs on one is stuck on the
    other.
    """
    return Graph(3, [(0, 1), (1, 2)]), Graph(3, [(1, 0), (0, 2)])


def _masks(tree, bit):
    """The binary construction's sets on a tree with at most two children per
    vertex, as masks in which vertex v contributes ``bit[v]``."""
    children = tree.children
    subtree = [0] * tree.n
    for v in reversed(tree.order):
        mask = bit[v]
        for c in children[v]:
            mask |= subtree[c]
        subtree[v] = mask
    masks = list(subtree)
    for v, kids in enumerate(children):
        for near in kids:
            base = bit[v]
            for far in kids:
                if far != near:
                    base |= subtree[far]
            masks.append(base)  # slice at depth(v): nothing of the near side yet
            sliced = 0
            frontier = [near]
            for _ in range(tree.height[near]):
                for x in frontier:
                    sliced |= bit[x]
                masks.append(base | sliced)
                frontier = [c for x in frontier for c in children[x]]
    return masks


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
