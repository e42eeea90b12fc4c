"""Ground-truth verdicts computed from exact graph metrics.

The oracle reads only declared outputs of the algorithm (the `group`
variable, plus shifted copies for the stamp and potential checks); it never
looks at working variables, so a passing verdict is independent evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, dist, induced_diameter
from .kgrouping import (
    GROUP,
    IN_GROUP,
    IN_PRIOR,
    IN_STAMP_ON,
    _entry,
    mergeable,
    near,
)
from .runtime import BOT, Configuration


class OracleError(ValueError):
    pass


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


def candidate_groups(cfg: Configuration, graph: Graph, k: int, gid: int, groups: dict):
    """Near groups of g(gid) not masked by an active stamp at gid's process."""
    result = set()
    for other, members in groups.items():
        if other == gid:
            continue
        if near(groups[gid], members, graph, k) and not _entry(
            cfg[gid], IN_STAMP_ON, other
        ):
            result.add(other)
    return result


def potential(cfg: Configuration, graph: Graph, k: int) -> tuple[int, int, int, int]:
    """(group count, prior count, black count, 2g + p + b) on the shifted view.

    A group is prior when its name-giving process flags itself; it is black
    when neither it nor some candidate of it is prior.  Group ids that are not
    live processes contribute to the group count only.
    """
    groups = groups_from(cfg, IN_GROUP)
    n_groups = len(groups)
    live = {g: m for g, m in groups.items() if g is not BOT and g in graph.vertices}
    prior_flags = {g: bool(_entry(cfg[g], IN_PRIOR, g)) for g in live}
    n_prior = sum(prior_flags.values())
    n_black = 0
    for g in live:
        if prior_flags[g]:
            continue
        cands = candidate_groups(cfg, graph, k, g, live)
        if any(not prior_flags[c] for c in cands):
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
            _entry(cfg[v], IN_STAMP_ON, other)
            for a, other in ((g1, g2), (g2, g1))
            for v in live[a]
        )
        if stamped and mergeable(live[g1], live[g2], graph, k):
            problems.append(
                f"near groups {g1},{g2} carry a stamp but are mergeable"
            )
    return problems
