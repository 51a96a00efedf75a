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
the one already found. A hub hop thus reads its neighbors up to that one,
at the latest t itself when t is adjacent, instead of all of them.
"""

from __future__ import annotations

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


def _step(neighbors, vm, vt, total, shared):
    """Next hop and its shared count toward the target whose vertex mask is
    ``vt``, with ``total`` categories, from a vertex sharing ``shared`` of
    them; None for the hop when no neighbor shares more. Adjacency is sorted,
    so the first maximum is the smallest id. The scan stops at the first
    improving neighbor that shares all ``total``: a later one can at most tie
    it, and ties go to the smaller id."""
    best = None
    for v in neighbors:
        sv = (vt & vm[v]).bit_count()
        if sv > shared:
            best, shared = v, sv
            if sv == total:
                break
    return best, shared


def greedy_step(g, system, u, t):
    """Best next hop from ``u`` toward ``t``, or None if no neighbor improves.

    Only looks at u's neighborhood and the membership of u, t and those
    neighbors; there is no global distance oracle.
    """
    _check_pair(g, system, u, t)
    if u == t:
        raise ValidationError("nothing to forward: already at the target")
    vm = system.vertex_masks
    vt = vm[t]
    return _step(g.adjacency[u], vm, vt, vt.bit_count(), (vt & vm[u]).bit_count())[0]


def greedy_route(g, system, source, target):
    """Forward greedily from ``source`` until ``target`` is reached or no
    neighbor improves, returning the full trace.

    No hop cap is needed: each hop goes to a neighbor sharing strictly more of
    the target's categories, a count that never exceeds |cat(t)| <= memdim,
    so a route ends within d(source, target) hops. Each hop reads the
    neighbors only up to the first that holds all of cat(t) (see ``_step``).
    """
    _check_pair(g, system, source, target)
    adjacency = g.adjacency
    vm = system.vertex_masks
    vt = vm[target]
    total = vt.bit_count()
    current = source
    shared = (vt & vm[current]).bit_count()
    path = [current]
    hop_distances = [total - shared]
    while current != target:
        current, shared = _step(adjacency[current], vm, vt, total, shared)
        if current is None:
            return RouteTrace(source, target, tuple(path), tuple(hop_distances), False)
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
