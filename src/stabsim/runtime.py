"""Guarded-command execution engine for the locally-shared-memory model.

Composite atomicity: in one step every selected process evaluates its guards
and applies the statement of its smallest enabled action, all against the
same pre-step snapshot of the configuration.  Only a process's own variables
are ever written; guards may read the 1-neighborhood.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .graphs import Graph

# Null value for algorithm variables.  Distinct from the INF distance verdict
# in graphs.py: BOT is a storable value, INF is a metric result.
BOT = None

Store = dict  # variable name -> value; array variables map pid -> value
Configuration = dict  # pid -> Store

# The tree layer's parent pointer, read by Eval.parent and Eval.children.
PARENT = "parent"

# Value ranges that depend on more than the network size and k (see Var).
ID = "id"  # any identifier, real or false
NEIGHBOR = "neighbor"  # a neighbor of the owner


class DaemonContractError(RuntimeError):
    """The daemon selected a process that is not enabled."""


class ScheduleError(ValueError):
    """Malformed daemon policy or exhausted script."""


def bot_inc(x):
    """1 + x with the convention 1 + BOT = BOT."""
    return BOT if x is BOT else x + 1


def bot_min(values) -> object:
    """min over the non-BOT values; BOT when none remain."""
    best = BOT
    for x in values:
        if x is BOT:
            continue
        if best is BOT or x < best:
            best = x
    return best


class Eval:
    """Snapshot view of one process and its 1-neighborhood.

    `memo` is scratch space shared by all guard/statement evaluations of this
    process in this step, so derived quantities are computed at most once.
    `shared` is an engine-managed cache that survives across steps; entries
    are dropped whenever a variable of the declared layer changes anywhere in
    the 1-neighborhood, so cached layer results stay snapshot-accurate.
    """

    __slots__ = ("cfg", "pid", "store", "nbr_ids", "memo", "shared", "_children")

    def __init__(
        self,
        cfg: Configuration,
        pid: int,
        nbr_ids: tuple[int, ...],
        shared: Optional[dict] = None,
    ):
        self.cfg = cfg
        self.pid = pid
        self.store = cfg[pid]
        self.nbr_ids = nbr_ids
        self.memo = {}
        self.shared = shared
        self._children = None

    def nbr(self, u: int) -> Store:
        return self.cfg[u]

    def cached(self, layer: str, fn):
        """Memoize fn(self) under the named invalidation layer."""
        shared = self.shared
        if shared is None:
            return fn(self)
        if layer in shared:
            return shared[layer]
        value = fn(self)
        shared[layer] = value
        return value

    def children(self) -> tuple[int, ...]:
        # Children in the current tree: neighbors whose parent pointer is us.
        if self._children is None:
            pid = self.pid
            self._children = tuple(
                u for u in self.nbr_ids if self.cfg[u].get(PARENT) == pid
            )
        return self._children

    def parent(self):
        return self.store.get(PARENT, BOT)


@dataclass(frozen=True)
class Var:
    """Declaration of one per-process variable: name, kind and value range.

    `kind` is "scalar", "set" (a set of identifiers: the domain that keys
    the arrays) or "array" (one entry per identifier in the owner's domain).
    `values` is the range of a scalar, of a set's elements or of an array's
    entries: ID, NEIGHBOR, or a function of the network size n and the bound
    k returning a sequence of values of one type.  With `bot`, BOT is in
    range as well.
    """

    name: str
    kind: str
    values: object
    bot: bool = False


@dataclass(frozen=True)
class Action:
    """One labeled guarded action.

    `evaluate` returns the update map if the action is enabled at the process,
    otherwise None.  Substitution-style actions (guard "current != computed")
    fall out naturally: compute, compare, return None on equality.

    `reads` / `writes` declare the variables the guard may depend on and the
    statement may assign; they drive the static stage checks, not execution.
    """

    label: str
    evaluate: Callable[[Eval], Optional[dict]]
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()


@dataclass(frozen=True)
class AlgorithmSpec:
    """Ordered list of labeled guarded actions (smallest label first).

    `layers` declares cache invalidation sets: (layer name, variables read by
    computations cached under that name).  Purely an execution optimization;
    semantics never depend on it.

    `domain_var` names the per-process set that keys the array variables, if
    any.  Writing it prunes every array to the new key set in the same atomic
    step, so a slot whose key later re-enters the domain comes back undefined
    instead of resurrecting a value from an earlier epoch.
    """

    name: str
    actions: tuple[Action, ...]
    layers: tuple[tuple[str, frozenset], ...] = ()
    domain_var: Optional[str] = None

    @property
    def reads(self) -> frozenset:
        return frozenset().union(*(a.reads for a in self.actions))

    @property
    def writes(self) -> frozenset:
        return frozenset().union(*(a.writes for a in self.actions))

    def first_enabled(self, ev: Eval) -> Optional[tuple[str, dict]]:
        for action in self.actions:
            updates = action.evaluate(ev)
            if updates is not None:
                return action.label, updates
        return None

    def enabled_labels(self, ev: Eval) -> list[str]:
        return [a.label for a in self.actions if a.evaluate(ev) is not None]


def enabled_actions(cfg: Configuration, v: int, alg: AlgorithmSpec, graph: Graph) -> list[str]:
    """Labels of all actions whose guard holds at v, in label order."""
    return alg.enabled_labels(Eval(cfg, v, graph.neighbors_of(v)))


def apply_updates(store: Store, updates: dict, domain_var: Optional[str]) -> Store:
    new = dict(store)
    new.update(updates)
    if domain_var is not None and domain_var in updates:
        dom = new.get(domain_var) or frozenset()
        for name, value in new.items():
            if isinstance(value, dict) and any(u not in dom for u in value):
                new[name] = {u: x for u, x in value.items() if u in dom}
    return new


def step(
    cfg: Configuration,
    selected: Iterable[int],
    alg: AlgorithmSpec,
    graph: Graph,
) -> Configuration:
    """Apply one atomic step: every selected process fires its smallest
    enabled action, all reading the pre-step configuration."""
    new_cfg = dict(cfg)
    for v in sorted(set(selected)):
        ev = Eval(cfg, v, graph.neighbors_of(v))
        hit = alg.first_enabled(ev)
        if hit is None:
            raise DaemonContractError(f"process {v} selected while not enabled")
        _, updates = hit
        new_cfg[v] = apply_updates(cfg[v], updates, alg.domain_var)
    return new_cfg


# ---------------------------------------------------------------------------
# daemons

@dataclass
class DaemonPolicy:
    """Scheduler: synchronous | central | random(p, seed) | scripted.

    With fairness aging, a process continuously enabled for `aging_window`
    steps without being selected is force-included in the next selection;
    this makes weak fairness a hard, testable bound.
    """

    kind: str = "random"
    p: float = 0.5
    seed: int = 0
    script: Optional[list] = None
    fairness_aging: bool = True
    aging_window: Optional[int] = None  # defaults to n at run start

    def validate(self) -> None:
        if self.kind not in ("synchronous", "central", "random", "scripted"):
            raise ScheduleError(f"unknown daemon kind {self.kind!r}")
        if self.kind == "random" and not (0.0 < self.p <= 1.0):
            raise ScheduleError("random daemon needs 0 < p <= 1")
        if self.kind == "scripted" and self.script is None:
            raise ScheduleError("scripted daemon needs a script")


class _Scheduler:
    def __init__(self, policy: DaemonPolicy, n: int):
        policy.validate()
        self.policy = policy
        self.rng = random.Random(policy.seed)
        self.window = policy.aging_window if policy.aging_window is not None else n
        self.ages: dict[int, int] = {}

    def select(self, step_index: int, enabled: set[int]) -> set[int]:
        policy = self.policy
        if policy.kind == "synchronous":
            return set(enabled)
        if policy.kind == "scripted":
            if step_index >= len(policy.script):
                raise ScheduleError("daemon script exhausted")
            return set(policy.script[step_index])
        ordered = sorted(enabled)
        aged = set()
        if policy.fairness_aging:
            aged = {v for v in ordered if self.ages.get(v, 0) >= self.window}
        if policy.kind == "central":
            if aged:
                pick = min(aged, key=lambda v: (-self.ages[v], v))
            else:
                pick = ordered[self.rng.randrange(len(ordered))]
            return {pick}
        # random daemon: each enabled process independently with prob p
        chosen = {v for v in ordered if self.rng.random() < policy.p}
        chosen |= aged
        if not chosen:
            chosen = {ordered[self.rng.randrange(len(ordered))]}
        return chosen

    def after_step(self, enabled_pre: set[int], selected: set[int], enabled_post: set[int]) -> None:
        ages = self.ages
        for v in list(ages):
            if v not in enabled_post:
                del ages[v]
        for v in enabled_post:
            if v in selected or v not in enabled_pre:
                ages[v] = 0
            else:
                ages[v] = ages.get(v, 0) + 1


# ---------------------------------------------------------------------------
# traces and the run loop

@dataclass
class StepRecord:
    selected: tuple[int, ...]
    fired: dict[int, str]


@dataclass
class StepEvent:
    """Passed to observers after each applied step."""

    index: int
    pre_cfg: Configuration
    post_cfg: Configuration
    selected: set[int]
    fired: dict[int, str]
    enabled_pre: set[int]
    enabled_post: set[int]
    round_end: bool


@dataclass
class ExecutionTrace:
    graph: Graph = field(repr=False)
    algorithm: AlgorithmSpec = field(repr=False)
    initial: Configuration = field(repr=False)
    final: Configuration = field(repr=False)
    steps: list[StepRecord]  # empty when the run was not recorded
    round_boundaries: list[int]  # step counts at which each complete round ends
    verdict: str  # "terminated" | "budget_exhausted"
    steps_taken: int = 0

    @property
    def terminated(self) -> bool:
        return self.verdict == "terminated"

    @property
    def num_steps(self) -> int:
        return self.steps_taken

    @property
    def num_rounds(self) -> int:
        return len(self.round_boundaries)


def default_max_steps(graph: Graph, diam: int) -> int:
    return 10_000 * graph.n * (diam + 1)


def run(
    graph: Graph,
    alg: AlgorithmSpec,
    cfg0: Configuration,
    daemon: DaemonPolicy,
    max_steps: int,
    observers: tuple = (),
    record_steps: bool = True,
) -> ExecutionTrace:
    """Drive the daemon until no process is enabled or the budget is hit.

    The trace is reproducible from (cfg0, alg, daemon kind + seed) alone; all
    tie-breaking is over sorted process ids.
    """
    if max_steps <= 0:
        raise ScheduleError("max_steps must be positive")
    if set(cfg0) != set(graph.vertices):
        raise ScheduleError("configuration does not cover the vertex set")

    adj = {v: graph.neighbors_of(v) for v in graph.vertices}
    sched = _Scheduler(daemon, graph.n)

    cfg = {v: dict(cfg0[v]) for v in cfg0}
    shared: Optional[dict] = {v: {} for v in graph.vertices} if alg.layers else None

    def fresh_eval(c, v):
        return Eval(c, v, adj[v], shared[v] if shared is not None else None)

    cache: dict[int, Optional[tuple[str, dict]]] = {}
    for v in graph.vertices:
        cache[v] = alg.first_enabled(fresh_eval(cfg, v))
    enabled = {v for v, hit in cache.items() if hit is not None}

    steps: list[StepRecord] = []
    boundaries: list[int] = []
    pending = set(enabled)
    verdict = "budget_exhausted"
    steps_done = 0

    for i in range(max_steps):
        if not enabled:
            verdict = "terminated"
            break
        selected = sched.select(i, enabled)
        if not selected:
            raise ScheduleError("daemon selected the empty set")
        if not selected <= enabled:
            raise DaemonContractError(
                f"daemon selected non-enabled processes {sorted(selected - enabled)}"
            )

        fired: dict[int, str] = {}
        new_cfg = dict(cfg)
        changed: dict[int, frozenset] = {}
        for v in sorted(selected):
            label, updates = cache[v]
            fired[v] = label
            new_cfg[v] = apply_updates(cfg[v], updates, alg.domain_var)
            changed[v] = frozenset(updates)
            if alg.domain_var in updates:
                # arrays pruned to the new domain changed as well
                old, new = cfg[v], new_cfg[v]
                changed[v] |= {x for x, value in new.items() if value is not old.get(x)}

        dirty = set(selected)
        for v in selected:
            dirty.update(adj[v])
        if shared is not None:
            touched: dict[int, set] = {}
            for v, names in changed.items():
                for w in (v, *adj[v]):
                    touched.setdefault(w, set()).update(names)
            for w, names in touched.items():
                entries = shared[w]
                for layer, watched in alg.layers:
                    if layer in entries and names & watched:
                        del entries[layer]
        new_enabled = set(enabled)
        for v in dirty:
            hit = alg.first_enabled(fresh_eval(new_cfg, v))
            cache[v] = hit
            if hit is None:
                new_enabled.discard(v)
            else:
                new_enabled.add(v)

        # round accounting: a pending process is done once it executes or is
        # neutralized (enabled before the step, not after)
        pending -= selected
        pending -= {v for v in enabled if v not in new_enabled}
        round_end = False
        if not pending:
            boundaries.append(i + 1)
            pending = set(new_enabled)
            round_end = True

        sched.after_step(enabled, selected, new_enabled)

        if record_steps:
            steps.append(StepRecord(tuple(sorted(selected)), fired))
        if observers:
            event = StepEvent(i, cfg, new_cfg, selected, fired, enabled, new_enabled, round_end)
            for obs in observers:
                obs(event)

        cfg = new_cfg
        enabled = new_enabled
        steps_done = i + 1
    else:
        verdict = "budget_exhausted"

    return ExecutionTrace(
        graph=graph,
        algorithm=alg,
        initial=cfg0,
        final=cfg,
        steps=steps,
        round_boundaries=boundaries,
        verdict=verdict,
        steps_taken=steps_done,
    )


def rounds(trace: ExecutionTrace) -> int:
    """Recount complete rounds from the recorded trace.

    Replays the steps against the algorithm, independently of the counters
    maintained by run(): the first round is the minimal prefix in which every
    initially enabled process executes or is neutralized, and so on.
    """
    graph, alg = trace.graph, trace.algorithm
    adj = {v: graph.neighbors_of(v) for v in graph.vertices}

    def enabled_set(cfg):
        return {
            v for v in graph.vertices
            if alg.first_enabled(Eval(cfg, v, adj[v])) is not None
        }

    cfg = trace.initial
    enabled = enabled_set(cfg)
    pending = set(enabled)
    count = 0
    for rec in trace.steps:
        selected = set(rec.selected)
        if not selected <= enabled:
            raise DaemonContractError("trace step selects a non-enabled process")
        cfg = step(cfg, selected, alg, graph)
        new_enabled = enabled_set(cfg)
        pending -= selected
        pending -= {v for v in enabled if v not in new_enabled}
        if not pending:
            count += 1
            pending = set(new_enabled)
        enabled = new_enabled
    return count
