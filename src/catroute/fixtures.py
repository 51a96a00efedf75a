"""Reference instances with exactly known behavior, runnable as a self-check."""

from __future__ import annotations

from dataclasses import dataclass

from .categories import CategorySystem, category_distance
from .checks import is_internally_connected, is_shattered, verify_all_pairs_routing
from .construct import graph_categories
from .graph import Graph
from .routing import greedy_route


def counterexample_cycle():
    """A four-cycle whose system is internally connected and shattered, yet one
    pair cannot be routed.

    Vertices u, v, w, x (ids 0..3) form a cycle; the six categories give u, v
    and w the same distance 2 to x, so a message at v for x has no strictly
    closer neighbor. This is the standard demonstration that the two
    structural properties guarantee delivery only on trees.
    """
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    system = CategorySystem(
        4,
        [
            (0, 1, 3),  # u v x
            (1, 2, 3),  # v w x
            (0, 1),     # u v
            (1, 2),     # v w
            (2, 3),     # w x
            (0, 3),     # u x
        ],
    )
    return g, system


def impossibility_pair():
    """Two three-vertex chains over the same universe {s, u, t} = {0, 1, 2}
    that no single category system can serve.

    The first chains s-u-t, the second u-s-t. Routing s to t in the first
    needs u strictly closer to t than s; routing u to t in the second needs
    the opposite; so any system delivering all pairs on one is stuck on the
    other.
    """
    return Graph(3, [(0, 1), (1, 2)]), Graph(3, [(1, 0), (0, 2)])


@dataclass(frozen=True)
class FixtureOutcome:
    name: str
    passed: bool
    detail: str


def run_fixtures():
    """Re-derive every pinned fact about the reference instances.

    Returns one outcome per assertion group; all must pass on a healthy build.
    """
    outcomes = []

    g, system = counterexample_cycle()
    u, v, w, x = 0, 1, 2, 3
    internal = is_internally_connected(g, system)
    outcomes.append(
        FixtureOutcome(
            "cycle-counterexample: internally connected",
            internal.holds,
            f"witness={internal.witness}" if not internal.holds else "every category induces a connected subgraph",
        )
    )
    shattered = is_shattered(g, system)
    outcomes.append(
        FixtureOutcome(
            "cycle-counterexample: shattered",
            shattered.holds,
            f"witness={shattered.witness}" if not shattered.holds else "every ordered pair has a neighbor witness",
        )
    )
    distances = tuple(category_distance(system, a, x) for a in (u, v, w))
    outcomes.append(
        FixtureOutcome(
            "cycle-counterexample: distances to x",
            distances == (2, 2, 2),
            f"d(u,x), d(v,x), d(w,x) = {distances}, expected (2, 2, 2)",
        )
    )
    trace = greedy_route(g, system, v, x)
    outcomes.append(
        FixtureOutcome(
            "cycle-counterexample: v to x gets stuck at v",
            (not trace.delivered) and trace.stuck_at == v and trace.path == (v,),
            f"delivered={trace.delivered} path={trace.path}",
        )
    )

    first, second = impossibility_pair()
    s, u_mid, t = 0, 1, 2
    for built_on, built_for, other, bad_source in (
        ("first", first, second, u_mid),
        ("second", second, first, s),
    ):
        system_g = graph_categories(built_for)
        own = verify_all_pairs_routing(built_for, system_g)
        outcomes.append(
            FixtureOutcome(
                f"impossibility: system built for the {built_on} chain works there",
                own.holds,
                f"witness={own.witness}" if not own.holds else "all 6 ordered pairs delivered",
            )
        )
        cross = greedy_route(other, system_g, bad_source, t)
        outcomes.append(
            FixtureOutcome(
                f"impossibility: same system is stuck on the other chain",
                not cross.delivered,
                f"route {bad_source} -> {t} delivered={cross.delivered} path={cross.path}",
            )
        )

    return outcomes
