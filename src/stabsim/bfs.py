"""Silent self-stabilizing BFS spanning tree with min-identifier root.

Provides the `parent` backbone (and the derived Par/Chi views) that the
composition layer and the grouping payload build on.  The construction fuses
root election, level computation, and fake-root flushing into one corrective
action: each process computes the state it ought to have from its neighbors'
claims and rewrites itself whenever it differs.  Claims of a root smaller
than the process's own id are only adoptable up to level n-1, which starves
fabricated root identifiers out of the network.
"""

from __future__ import annotations

from .graphs import Graph, dist
from .runtime import (
    BOT, ID, NEIGHBOR, PARENT, Action, AlgorithmSpec, Configuration, Eval, Var,
)

ROOT = "root"
LEVEL = "level"

# Levels reach n-1 in a legal tree; random states also hold n and n+1.
VARS = (
    Var(ROOT, "scalar", ID),
    Var(LEVEL, "scalar", lambda n, k: range(n + 2)),
    Var(PARENT, "scalar", NEIGHBOR, bot=True),
)


def bfs_actions(graph: Graph) -> AlgorithmSpec:
    """Action table for the spanning-tree layer (needs the network size)."""
    n = graph.n

    def correct(ev: Eval):
        desired = _desired_state(ev, n)
        store = ev.store
        if (store.get(ROOT), store.get(LEVEL), store.get(PARENT)) == desired:
            return None
        return {ROOT: desired[0], LEVEL: desired[1], PARENT: desired[2]}

    names = frozenset(var.name for var in VARS)
    action = Action(label="B1", evaluate=correct, reads=names, writes=names)
    return AlgorithmSpec("bfs", (action,))


def _desired_state(ev: Eval, n: int):
    """Best locally justified (root, level, parent) triple.

    Adoption candidates are neighbors claiming a root smaller than our own
    id with a level that still fits under the flush bound; ties on
    (root, level) go to the smallest neighbor id.  Falling back to being a
    root of our own beats any claim that is not strictly better.
    """
    pid = ev.pid
    best = None  # (root, level, parent)
    for u in ev.nbr_ids:  # sorted, so first strict win is the min-id parent
        s = ev.nbr(u)
        r, l = s.get(ROOT), s.get(LEVEL)
        if r is BOT or l is BOT:
            continue
        if r >= pid or l + 1 > n - 1:
            continue
        if best is None or (r, l + 1) < (best[0], best[1]):
            best = (r, l + 1, u)
    if best is not None and (best[0], best[1]) < (pid, 0):
        return best
    return (pid, 0, BOT)


def par(cfg: Configuration, v: int) -> set[int]:
    """Par(v): singleton parent set; the null pointer reads as the empty set."""
    p = cfg[v].get(PARENT, BOT)
    return set() if p is BOT else {p}


def chi(cfg: Configuration, v: int, graph: Graph) -> set[int]:
    """Chi(v): neighbors whose parent pointer designates v."""
    return {u for u in graph.neighbors_of(v) if cfg[u].get(PARENT) == v}


def check_tree(cfg: Configuration, graph: Graph) -> list[str]:
    """Violations of the spanning-tree legitimacy predicate (empty if legal)."""
    problems = []
    r = min(graph.vertices)
    for v in sorted(graph.vertices):
        store = cfg[v]
        if store.get(ROOT) != r:
            problems.append(f"{v}: root claim {store.get(ROOT)} != {r}")
        want_level = dist(graph, r, v)
        if store.get(LEVEL) != want_level:
            problems.append(f"{v}: level {store.get(LEVEL)} != {want_level}")
        p = store.get(PARENT)
        if v == r:
            if p is not BOT:
                problems.append(f"{v}: root has parent {p}")
        else:
            if p is BOT:
                problems.append(f"{v}: missing parent")
            elif p not in graph.neighbors_of(v):
                problems.append(f"{v}: parent {p} is not a neighbor")
            elif cfg[p].get(LEVEL) != want_level - 1:
                problems.append(f"{v}: parent {p} not one level up")
    return problems
