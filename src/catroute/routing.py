"""Greedy category-based forwarding with verifiable traces.

A message at ``u`` headed for ``t`` moves to a neighbor strictly closer to the
target under the category distance; with several improving neighbors the one
at minimum distance wins, ties by smallest id. Getting stuck is an ordinary,
reportable outcome, not an exception: whole families of instances are supposed
to fail, and the verifiers in :mod:`catroute.checks` reason about where.

The distance is d(v, t) = |cat(t)| - |cat(t) & cat(v)|, so for a fixed target
the nearest neighbor is the one sharing the most of t's categories. A hop
therefore costs one AND and one popcount per neighbor read on the vertex
masks, and a route validates its endpoints once, not once per hop.

A hop reads the neighbors in id order only up to the first improving one that
holds all of cat(t): no later neighbor can share more than all of them, so none
can be strictly better, and the first maximum, the smallest id among ties, is
the one already found.

A hub hop onto an adjacent target reads one neighbor. When u has more
neighbors than t has categories, and u lacks one of them, the hop bisects u's
sorted adjacency for t. If t is there, it ANDs the masks of t's categories
into the set of vertices below t, stopping once that set is empty. An empty
set means no vertex below t holds all of cat(t), so t itself, sharing all of
them, is the scan's first maximum, and the hop goes there without reading
any other neighbor. Otherwise the scan runs as above. In a shattered system
the set is always empty: a vertex s != t holding all of cat(t) would leave no
category that holds t without s. The guard keeps the added work, one
bisection and at most |cat(t)| ANDs, within what the scan would cost.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import ValidationError


class RouteTrace(NamedTuple):
    """One routing attempt: the vertex path, per-hop distances, and outcome.

    ``hop_distances[i]`` is the category distance from ``path[i]`` to the
    target; it is strictly decreasing, which also bounds the hop count by the
    initial distance. A named tuple, because the all-pairs route iterator
    builds one per ordered pair; it compares equal to a plain tuple of its
    fields.
    """

    source: int
    target: int
    path: tuple
    hop_distances: tuple
    delivered: bool

    @property
    def stuck_at(self):
        return None if self.delivered else self.path[-1]

    @property
    def hops(self):
        return len(self.path) - 1


def _check_universe(g, system):
    if system.n != g.n:
        raise ValidationError(f"category system is over n={system.n}, graph has n={g.n}")


def _check_pair(g, system, u, t):
    _check_universe(g, system)
    if not (0 <= u < g.n and 0 <= t < g.n):
        raise ValidationError(f"vertex out of range for n={g.n}")


def greedy_step(g, system, u, t):
    """Best next hop from ``u`` toward ``t``, or None if no neighbor improves.

    The answer depends only on u's neighborhood and the membership of u, t
    and those neighbors; there is no global distance oracle. It walks the
    route from ``u`` and returns its second vertex, so the step rule is
    written once, in ``greedy_route``.
    """
    if u == t:
        raise ValidationError("nothing to forward: already at the target")
    path = greedy_route(g, system, u, t).path
    return path[1] if len(path) > 1 else None


def greedy_route(g, system, source, target):
    """Forward greedily from ``source`` until ``target`` is reached or no
    neighbor improves, returning the full trace.

    No hop cap is needed: each hop goes to a neighbor sharing strictly more of
    the target's categories, a count that never exceeds |cat(t)| <= memdim,
    so a route ends within d(source, target) hops. A hop reads the neighbors
    only up to the first that holds all of cat(t), and a hub hop onto an
    adjacent target reads only the target (see the module docstring).
    Adjacency is sorted, so the first maximum is the smallest id.
    """
    _check_pair(g, system, source, target)
    adjacency = g.adjacency
    vm = system.vertex_masks
    cm = system.category_masks
    vt = vm[target]
    total = vt.bit_count()
    current = source
    shared = (vt & vm[current]).bit_count()
    path = [current]
    hop_distances = [total - shared]
    while current != target:
        neighbors = adjacency[current]
        best = None
        if len(neighbors) > total > shared:
            # A target next to a hub: it is the first maximum unless a
            # vertex below it holds all of cat(t).
            i = bisect_left(neighbors, target)
            if i < len(neighbors) and neighbors[i] == target:
                below = (1 << target) - 1
                rest = vt
                while rest and below:
                    low = rest & -rest
                    below &= cm[low.bit_length() - 1]
                    rest ^= low
                if not below:
                    best, shared = target, total
        if best is None:
            for v in neighbors:
                sv = (vt & vm[v]).bit_count()
                if sv > shared:
                    best, shared = v, sv
                    if sv == total:
                        break
            if best is None:
                return RouteTrace(source, target, tuple(path), tuple(hop_distances), False)
        current = best
        path.append(current)
        hop_distances.append(total - shared)
    return RouteTrace(source, target, tuple(path), tuple(hop_distances), True)


def format_trace(trace):
    """Render a trace as text, one line per hop plus a final outcome line."""
    path = trace.path
    lines = [
        f"{path[i]} -(d={trace.hop_distances[i + 1]})-> {path[i + 1]}"
        for i in range(trace.hops)
    ]
    if trace.delivered:
        lines.append(f"DELIVERED in {trace.hops} hops")
    else:
        lines.append(f"STUCK at {trace.stuck_at} (d={trace.hop_distances[-1]})")
    return "\n".join(lines)
