"""Silent self-stabilizing BFS spanning tree with min-identifier root.

Provides the `parent` backbone (read through `parent` and `children`) that
the composition layer and the grouping payload build on.  The construction
fuses root election, level computation, and fake-root flushing into one
corrective action: each process computes the state it ought to have from
its neighbors' claims and rewrites itself whenever it differs.  Claims of a
root smaller than the process's own id are only adoptable up to level n-1,
which starves fabricated root identifiers out of the network.  The tree's
legitimacy predicate is the oracle's (`oracle.check_tree`).
"""

from __future__ import annotations

from .graphs import Graph
from .runtime import BOT, ID, NEIGHBOR, Action, AlgorithmSpec, Eval, Var

ROOT = "root"
LEVEL = "level"
PARENT = "parent"

# Levels reach n-1 in a legal tree; random states also hold n and n+1.
VARS = (
    Var(ROOT, "scalar", ID),
    Var(LEVEL, "scalar", lambda n, k: range(n + 2)),
    Var(PARENT, "scalar", NEIGHBOR, bot=True),
)


def parent(ev: Eval):
    """The owner's parent pointer: a neighbor, or BOT at a root."""
    return ev.store.get(PARENT, BOT)


def _children(ev: Eval) -> tuple[int, ...]:
    return tuple(u for u in ev.nbr_ids if ev.cfg[u].get(PARENT) == ev.pid)


# The children relation, a cached view: the neighbors whose parent pointer
# is the owner.  A run drops it only where a parent pointer of the closed
# neighborhood changes.
CHILDREN = Action("children", _children, frozenset((PARENT,)))


def children(ev: Eval) -> tuple[int, ...]:
    return ev.cached(CHILDREN)


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
    action = Action(label="B1", evaluate=correct, reads=names, writes=names,
                    nbr_reads=frozenset((ROOT, LEVEL)))
    return AlgorithmSpec((action,))


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
        s = ev.cfg[u]
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
