"""Seeded random instance generators for the workbench.

Every family yields a connected graph and the same spec always yields the same
graph. Random families that can come out disconnected (gnp, watts-strogatz)
are resampled up to 100 times and then, as a last resort, patched together by
random inter-component edges; that patching is a distribution caveat, not an
error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import graph
from .errors import GenerationError
from .graph import Graph

# The params each family reads; any other key is a GenerationError.
_PARAMS = {"gnp-connected": {"p"}, "watts-strogatz": {"k", "beta"}, "grid": {"rows", "cols"}}

_RESAMPLE_LIMIT = 100


@dataclass(frozen=True)
class GeneratorSpec:
    """One graph to generate: family, size, family parameters, seed."""

    family: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise GenerationError("generator spec must be an object")
        unknown = set(payload) - {"family", "n", "seed", "params"}
        if unknown:
            raise GenerationError(f"unknown generator spec keys: {sorted(unknown)}")
        try:
            family, n = payload["family"], payload["n"]
        except KeyError as exc:
            raise GenerationError(f"generator spec missing {exc}") from None
        if not isinstance(family, str):
            raise GenerationError(f"family must be a string, got {family!r}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise GenerationError(f"params must be an object, got {params!r}")
        seed = _integer(payload.get("seed", 0), "seed")
        return cls(family, _integer(n, "n"), seed, dict(params))


def generate(spec):
    """Build the connected graph a spec describes. Deterministic in the seed.

    A spec above ``graph.MAX_VERTICES`` vertices is refused before any edge
    is drawn, and so is a param the family does not read."""
    if spec.family not in FAMILIES:
        raise GenerationError(f"unknown family {spec.family!r}")
    if spec.n < 1:
        raise GenerationError("n must be at least 1")
    if spec.n > graph.MAX_VERTICES:
        raise GenerationError(f"n={spec.n} is above the cap of {graph.MAX_VERTICES} vertices")
    unknown = set(spec.params) - _PARAMS.get(spec.family, set())
    if unknown:
        raise GenerationError(f"unknown {spec.family} params: {sorted(unknown)}")
    rng = random.Random(spec.seed)
    builder = _BUILDERS[spec.family]
    return builder(spec, rng)


def _build_path(spec, rng):
    return Graph(spec.n, ((i, i + 1) for i in range(spec.n - 1)))


def _build_cycle(spec, rng):
    if spec.n < 3:
        raise GenerationError("a cycle needs at least 3 vertices")
    return Graph(spec.n, ((i, (i + 1) % spec.n) for i in range(spec.n)))


def _build_star(spec, rng):
    return Graph(spec.n, ((0, i) for i in range(1, spec.n)))


def _build_complete(spec, rng):
    return Graph(spec.n, ((u, v) for u in range(spec.n) for v in range(u + 1, spec.n)))


def _build_grid(spec, rng):
    rows = spec.params.get("rows")
    cols = spec.params.get("cols")
    if rows is None and cols is None:
        rows = _largest_divisor_at_most_sqrt(spec.n)
        cols = spec.n // rows
    elif rows is None or cols is None:
        raise GenerationError("grid needs both rows and cols (or neither)")
    elif _integer(rows, "rows") < 1 or _integer(cols, "cols") < 1:
        raise GenerationError(f"grid dims {rows}x{cols} must be at least 1")
    if rows * cols != spec.n:
        raise GenerationError(f"grid dims {rows}x{cols} do not match n={spec.n}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(spec.n, edges)


def _build_random_tree(spec, rng):
    edges = [(rng.randrange(v), v) for v in range(1, spec.n)]
    return Graph(spec.n, edges)


def _build_gnp(spec, rng):
    p = spec.params.get("p")
    if p is None:
        raise GenerationError("gnp-connected needs params.p")
    _probability(p, "edge probability")

    def sample():
        return [
            (u, v)
            for u in range(spec.n)
            for v in range(u + 1, spec.n)
            if rng.random() < p
        ]

    return _connected_sample(spec.n, rng, sample)


def _build_watts_strogatz(spec, rng):
    k = _integer(spec.params.get("k", 4), "ring degree k")
    beta = _probability(spec.params.get("beta", 0.1), "rewiring probability")
    if k % 2 != 0 or k < 2:
        raise GenerationError(f"ring degree k={k} must be even and at least 2")
    if k >= spec.n:
        raise GenerationError(f"ring degree k={k} must be below n={spec.n}")

    def sample():
        present = set()
        for j in range(1, k // 2 + 1):
            for u in range(spec.n):
                present.add(_norm(u, (u + j) % spec.n))
        for j in range(1, k // 2 + 1):
            for u in range(spec.n):
                edge = _norm(u, (u + j) % spec.n)
                if edge not in present or rng.random() >= beta:
                    continue
                for _ in range(2 * spec.n):
                    w = rng.randrange(spec.n)
                    candidate = _norm(u, w)
                    if w != u and candidate not in present:
                        present.remove(edge)
                        present.add(candidate)
                        break
        return sorted(present)

    return _connected_sample(spec.n, rng, sample)


def _integer(value, name):
    """``value`` if it is an integer (a bool is not), else GenerationError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GenerationError(f"{name} must be an integer, got {value!r}")
    return value


def _probability(value, name):
    """``value`` if it is a real number (a bool is not) in [0, 1], else
    GenerationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise GenerationError(f"{name} {value!r} is not a number in [0, 1]")
    return value


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _largest_divisor_at_most_sqrt(n):
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            best = d
        d += 1
    return best


def _components(n, edges):
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    components = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        component = []
        while stack:
            u = stack.pop()
            component.append(u)
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(component)
    return components


def _connected_sample(n, rng, sample):
    """Resample until connected, then patch components together if need be."""
    edges = None
    for _ in range(_RESAMPLE_LIMIT):
        edges = sample()
        if len(_components(n, edges)) == 1:
            return Graph(n, edges)
    parts = _components(n, edges)
    glued = list(edges)
    absorbed = parts[0]
    for part in parts[1:]:
        glued.append((rng.choice(absorbed), rng.choice(part)))
        absorbed = absorbed + part
    return Graph(n, glued)


_BUILDERS = {
    "gnp-connected": _build_gnp,
    "random-tree": _build_random_tree,
    "path": _build_path,
    "cycle": _build_cycle,
    "grid": _build_grid,
    "star": _build_star,
    "complete": _build_complete,
    "watts-strogatz": _build_watts_strogatz,
}

FAMILIES = tuple(_BUILDERS)
