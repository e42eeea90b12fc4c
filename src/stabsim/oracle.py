"""Every ground-truth predicate, computed from exact graph metrics: the
tree, the domains, the pairwise group relations, the grouping, the
potential and stamp soundness.  The oracle imports only variable names from
the algorithm modules, which import no graph metric, so a passing verdict
is independent evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .bfs import LEVEL, PARENT, ROOT
from .graphs import Graph, dist, induced_diameter, k_neighborhood
from .kgrouping import DOMAIN, GROUP, IN_GROUP, IN_PRIOR, IN_STAMP_ON
from .runtime import BOT, Configuration


class OracleError(ValueError):
    pass


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
        elif p is BOT:
            problems.append(f"{v}: missing parent")
        elif p not in graph.neighbors_of(v):
            problems.append(f"{v}: parent {p} is not a neighbor")
        elif cfg[p].get(LEVEL) != want_level - 1:
            problems.append(f"{v}: parent {p} not one level up")
    return problems


def ball_violations(cfg: Configuration, graph: Graph, k: int) -> list[str]:
    """Processes whose domain is not their (k+1)-ball (empty if none)."""
    problems = []
    for v in sorted(graph.vertices):
        domain, ball = cfg[v][DOMAIN], k_neighborhood(graph, v, k + 1)
        if domain != ball:
            problems.append(f"process {v}: domain has extra "
                            f"{sorted(domain - ball)}, misses {sorted(ball - domain)}")
    return problems


def near(g1, g2, graph: Graph, k: int) -> bool:
    """Adjacent groups whose members are pairwise within k hops in the full
    network (necessary but not sufficient for a merge)."""
    a, b = frozenset(g1), frozenset(g2)
    _check_pair(a, b)
    return (any(v in graph.neighbors_of(u) for u in a for v in b)
            and all(dist(graph, u, v) <= k for u in a for v in b))


def mergeable(g1, g2, graph: Graph, k: int) -> bool:
    """The union's induced subgraph stays within the diameter bound."""
    a, b = frozenset(g1), frozenset(g2)
    _check_pair(a, b)
    return induced_diameter(graph, a | b) <= k


def _check_pair(a, b) -> None:
    if not a or not b:
        raise ValueError("groups must be non-empty")
    if a & b:
        raise ValueError(f"groups overlap: {sorted(a & b)}")


@dataclass
class GroupingReport:
    groups: dict[int, frozenset[int]]
    per_group_diameter: dict[int, float]
    mergeable_pairs: set[tuple[int, int]]
    group_count: int
    verdict: bool
    violations: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "group_count": self.group_count,
            "groups": {str(g): sorted(m) for g, m in sorted(self.groups.items())},
            "per_group_diameter": {
                str(g): (d if d != float("inf") else "inf")
                for g, d in sorted(self.per_group_diameter.items())
            },
            "mergeable_pairs": sorted(list(p) for p in self.mergeable_pairs),
            "violations": self.violations,
        }


def groups_from(cfg: Configuration, var: str = GROUP) -> dict:
    """Partition the processes by their current value of `var`."""
    groups: dict = {}
    for v, store in cfg.items():
        groups.setdefault(store.get(var, BOT), set()).add(v)
    return {g: frozenset(m) for g, m in groups.items()}


def check_Lk(cfg: Configuration, graph: Graph, k: int) -> GroupingReport:
    """Is the `group` assignment a minimal diameter-k partition?

    Violations are reported, never raised: a report with verdict False and a
    readable findings list is the useful failure mode.
    """
    violations: list[str] = []
    raw = groups_from(cfg, GROUP)
    groups: dict[int, frozenset[int]] = {}
    for gid, members in raw.items():
        if gid is BOT:
            violations.append(f"processes {sorted(members)} have a null group")
        elif gid not in graph.vertices:
            violations.append(
                f"group id {gid} is not a process id (members {sorted(members)})"
            )
        else:
            groups[gid] = members

    diameters = {g: induced_diameter(graph, m) for g, m in groups.items()}
    for g, d in sorted(diameters.items()):
        if d > k:
            violations.append(f"group {g} has induced diameter {d} > {k}")

    mergeable_pairs: set[tuple[int, int]] = set()
    for g1, g2 in combinations(sorted(groups), 2):
        if mergeable(groups[g1], groups[g2], graph, k):
            mergeable_pairs.add((g1, g2))
            violations.append(f"groups {g1} and {g2} are mergeable")

    return GroupingReport(
        groups=groups,
        per_group_diameter=diameters,
        mergeable_pairs=mergeable_pairs,
        group_count=len(raw),
        verdict=not violations,
        violations=violations,
    )


EXHAUSTIVE_MAX_N = 10  # the largest graph exhaustive_min_groups enumerates


def exhaustive_min_groups(graph: Graph, k: int) -> int:
    """Minimum part count over all diameter-k partitions, by enumeration.

    Branch-and-bound over set partitions.  While a partition is being built a
    part may legitimately pass through a disconnected (infinite-diameter)
    state that a later vertex repairs, so the only sound prune is pairwise
    full-graph distance (a lower bound on any final induced distance); the
    real diameter condition is checked on complete partitions.
    """
    n = graph.n
    if n > EXHAUSTIVE_MAX_N:
        raise OracleError(f"exhaustive search limited to n <= {EXHAUSTIVE_MAX_N}, got {n}")
    order = sorted(graph.vertices)
    gdist = {
        u: {v: dist(graph, u, v) for v in order} for u in order
    }
    best = n  # one singleton per process always works

    def extend(idx: int, parts: list[set[int]]):
        nonlocal best
        if len(parts) >= best:
            return
        if idx == len(order):
            if all(induced_diameter(graph, part) <= k for part in parts):
                best = len(parts)
            return
        v = order[idx]
        dv = gdist[v]
        for part in parts:
            if all(dv[u] <= k for u in part):
                part.add(v)
                extend(idx + 1, parts)
                part.remove(v)
        parts.append({v})
        extend(idx + 1, parts)
        parts.pop()

    extend(0, [])
    return best


def _flag(store, name: str, u) -> bool:
    """Entry u of the boolean array `name`, false outside the owner's domain."""
    return u in (store.get(DOMAIN) or ()) and bool((store.get(name) or {}).get(u))


def potential(cfg: Configuration, graph: Graph, k: int) -> tuple[int, int, int, int]:
    """(group count, prior count, black count, 2g + p + b) on the shifted view.

    A group is prior when its name-giving process flags itself; it is black
    when neither it nor some candidate of it is prior.  A candidate of g is a
    near group that no active stamp at g's process masks.  Group ids that are
    not live processes contribute to the group count only.
    """
    groups = groups_from(cfg, IN_GROUP)
    n_groups = len(groups)
    live = {g: m for g, m in groups.items() if g is not BOT and g in graph.vertices}
    prior_flags = {g: _flag(cfg[g], IN_PRIOR, g) for g in live}
    n_prior = sum(prior_flags.values())
    n_black = 0
    for g, members in live.items():
        if not prior_flags[g] and any(
                not prior_flags[c] and not _flag(cfg[g], IN_STAMP_ON, c)
                and near(members, others, graph, k)
                for c, others in live.items() if c != g):
            n_black += 1
    return n_groups, n_prior, n_black, 2 * n_groups + n_prior + n_black


def stamp_soundness_violations(cfg: Configuration, graph: Graph, k: int) -> list[str]:
    """Active stamps between near groups must certify non-mergeability."""
    problems = []
    groups = groups_from(cfg, IN_GROUP)
    live = {g: m for g, m in groups.items() if g is not BOT and g in graph.vertices}
    for g1, g2 in combinations(sorted(live), 2):
        if not near(live[g1], live[g2], graph, k):
            continue
        stamped = any(
            _flag(cfg[v], IN_STAMP_ON, other)
            for a, other in ((g1, g2), (g2, g1))
            for v in live[a]
        )
        if stamped and mergeable(live[g1], live[g2], graph, k):
            problems.append(f"near groups {g1},{g2} carry a stamp but are mergeable")
    return problems
