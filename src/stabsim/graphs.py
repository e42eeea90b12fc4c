"""Immutable network representation and exact graph metrics.

The same adjacency structure serves two purposes: algorithms query it for
1-hop neighborhoods only, while verdict code uses the global metrics
(distances, induced diameters, k-balls) as ground truth.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

INF = math.inf

MAX_ID = 2**32 - 1


class GraphError(ValueError):
    """Raised for malformed graph definitions or unknown vertices."""


@dataclass(frozen=True)
class Graph:
    """Connected undirected network with unique integer process identifiers."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]  # normalized (u, v) with u < v
    adj: dict[int, tuple[int, ...]] = field(compare=False, repr=False)
    # hop distances from each source `dist` was asked about, one BFS each
    _rows: dict[int, dict[int, int]] = field(
        init=False, compare=False, repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors_of(self, v: int) -> tuple[int, ...]:
        try:
            return self.adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def make_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and freeze a graph: connected, n >= 2, simple, 32-bit ids."""
    vlist = list(vertices)
    vset = frozenset(vlist)
    if len(vlist) != len(vset):
        raise GraphError("duplicate vertex identifiers")
    if len(vset) < 2:
        raise GraphError("need at least two processes")
    for v in vset:
        if not _is_int(v) or not (0 <= v <= MAX_ID):
            raise GraphError(f"identifier {v!r} is not a 32-bit non-negative integer")
    norm = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at {u}")
        if u not in vset or v not in vset:
            raise GraphError(f"edge ({u},{v}) references unknown vertex")
        e = (u, v) if u < v else (v, u)
        if e in norm:
            raise GraphError(f"duplicate edge {e}")
        norm.add(e)
    adj_sets: dict[int, set[int]] = {v: set() for v in vset}
    for u, v in norm:
        adj_sets[u].add(v)
        adj_sets[v].add(u)
    adj = {v: tuple(sorted(adj_sets[v])) for v in vset}
    g = Graph(vset, frozenset(norm), adj)
    if len(_bfs_levels(g.adj, next(iter(g.vertices)))) != g.n:
        raise GraphError("graph is not connected")
    return g


def _bfs_levels(adj, source, allowed=None, cutoff=None):
    levels = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = levels[v]
        if cutoff is not None and d >= cutoff:
            continue
        for u in adj[v]:
            if u in levels:
                continue
            if allowed is not None and u not in allowed:
                continue
            levels[u] = d + 1
            queue.append(u)
    return levels


def dist(g: Graph, u: int, v: int) -> int | float:
    """Hop distance between u and v (INF if unreachable)."""
    if u not in g.vertices:
        raise GraphError(f"unknown vertex {u}")
    if v not in g.vertices:
        raise GraphError(f"unknown vertex {v}")
    if u == v:
        return 0
    row = g._rows.get(u)
    if row is None:
        row = g._rows[u] = _bfs_levels(g.adj, u)
    return row.get(v, INF)


def induced_diameter(g: Graph, s: Iterable[int]) -> int | float:
    """Diameter of the subgraph induced by s; INF if that subgraph is disconnected."""
    sub = frozenset(s)
    if not sub:
        raise GraphError("induced_diameter of empty set")
    for v in sub:
        if v not in g.vertices:
            raise GraphError(f"unknown vertex {v}")
    best = 0
    for v in sub:
        levels = _bfs_levels(g.adj, v, allowed=sub)
        if len(levels) != len(sub):
            return INF
        ecc = max(levels.values())
        if ecc > best:
            best = ecc
    return best


def k_neighborhood(g: Graph, v: int, i: int) -> set[int]:
    """The i-ball around v (includes v)."""
    if v not in g.vertices:
        raise GraphError(f"unknown vertex {v}")
    if i < 0:
        raise GraphError("radius must be non-negative")
    return set(_bfs_levels(g.adj, v, cutoff=i))


def diameter(g: Graph) -> int:
    d = induced_diameter(g, g.vertices)
    assert d is not INF  # connectivity validated at construction
    return int(d)


# ---------------------------------------------------------------------------
# loading / saving

def _malformed(path: str, fault) -> GraphError:
    return GraphError(f"malformed graph file {path}: {fault}")


def load_graph_json(path: str) -> Graph:
    """A graph from a JSON object {"vertices": [ids], "edges": [[u, v], ...]};
    any fault in the file is a GraphError naming the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise _malformed(path, f"not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise _malformed(path, "not a JSON object")
    vertices, edges = payload.get("vertices"), payload.get("edges")
    if not (isinstance(vertices, list) and all(map(_is_int, vertices))):
        raise _malformed(path, f"'vertices' must be a list of integers, got {vertices!r}")
    if not isinstance(edges, list):
        raise _malformed(path, f"'edges' must be a list of pairs, got {edges!r}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise _malformed(path, f"edge {e!r} is not a pair of integers")
    try:
        return make_graph(vertices, [tuple(e) for e in edges])
    except GraphError as exc:
        raise _malformed(path, exc) from exc


def load_graph_edgelist(path: str) -> Graph:
    """One `u v` pair per line; vertex set inferred from endpoints."""
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise _malformed(path, f"not UTF-8 ({exc})") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _malformed(path, f"line {lineno}: expected 'u v': {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise _malformed(path, f"line {lineno}: non-integer endpoint: {line!r}") from exc
        edges.append((u, v))
    vertices = {u for e in edges for u in e}
    try:
        return make_graph(vertices, edges)
    except GraphError as exc:
        raise _malformed(path, exc) from exc


def load_graph(path: str) -> Graph:
    if path.endswith(".json"):
        return load_graph_json(path)
    return load_graph_edgelist(path)


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
    }


# ---------------------------------------------------------------------------
# instance families for experiments

def path_graph(n: int) -> Graph:
    return make_graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return make_graph(range(1, n + 1), edges)


def grid_graph(rows: int, cols: int) -> Graph:
    def pid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((pid(r, c), pid(r, c + 1)))
            if r + 1 < rows:
                edges.append((pid(r, c), pid(r + 1, c)))
    return make_graph(range(1, rows * cols + 1), edges)


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random spanning tree plus each remaining pair independently with prob p."""
    rng = random.Random(seed)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        a, b = ids[i], ids[j]
        edges.add((min(a, b), max(a, b)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < p:
                edges.add((i, j))
    return make_graph(range(1, n + 1), edges)
