"""Guarded-command execution engine for the locally-shared-memory model.

Composite atomicity: in one step every selected process evaluates its guards
and applies the statement of its smallest enabled action, all against the
same pre-step snapshot of the configuration.  Only a process's own variables
are ever written; guards may read the 1-neighborhood.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .graphs import Graph

# Null value for algorithm variables.  Distinct from the INF distance verdict
# in graphs.py: BOT is a storable value, INF is a metric result.
BOT = None

Store = dict  # variable name -> value; array variables map pid -> value
Configuration = dict  # pid -> Store

_EMPTY: dict = {}
_ABSENT = object()  # no such entry or variable

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

    The owner's store is `store` and a neighbor u's is `cfg[u]`.  `memo` is
    scratch space shared by all guard/statement evaluations of this process
    in this step, so derived quantities are computed at most once.
    `caches` holds what survives across steps (RunCaches): `run` evaluates
    through its own, so cached results stay snapshot-accurate.  A payload
    caches a derived view as an Action whose evaluate returns the view
    (never a dict, which reads as updates).  An Eval built without caches
    gets fresh ones, and whatever is asked through it is evaluated from
    scratch.
    """

    __slots__ = ("cfg", "pid", "store", "nbr_ids", "memo", "caches")

    def __init__(
        self,
        cfg: Configuration,
        pid: int,
        nbr_ids: tuple[int, ...],
        caches: Optional[RunCaches] = None,
    ):
        self.cfg = cfg
        self.pid = pid
        self.store = cfg[pid]
        self.nbr_ids = nbr_ids
        self.memo = {}
        self.caches = RunCaches() if caches is None else caches

    def cached(self, action: Action):
        """action.evaluate(self), memoized until one of its reads changes."""
        results = self.caches.results
        rows = results.get(action)
        if rows is None:
            rows = results[action] = {}
        else:
            value = rows.get(self.pid, _ABSENT)
            if value is not _ABSENT:
                return value
        value = rows[self.pid] = action.evaluate(self)
        return value


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


@dataclass(frozen=True, eq=False)
class Action:
    """One labeled guarded action.

    The guard is `when` and the body, `evaluate`, both holding.  `when`
    maps some of the owner's scalars to the values they may hold (L12's is
    `{color: (0, 2), reset: (0,)}`); without one it always holds.  Where it
    fails, the action is disabled, and no scan calls `evaluate`
    (AlgorithmSpec.first_enabled asks `admits` first), so the body need not
    restate it.  Where it holds, `evaluate` returns the update map if the
    action is enabled at the process, otherwise None.  Substitution-style
    actions (guard "current != computed") fall out naturally: compute,
    compare, return None on equality.

    `reads` declares every variable of the 1-neighborhood that `evaluate` may
    depend on, and `nbr_reads` (a subset, `reads` by default) those it may
    read from a neighbor's store.  A change is a change of value: a write
    of an equal value changes nothing.  One rule decides what is evaluated
    again: a result (Eval.cached) lasts until the process changes one of
    `reads` or a neighbor one of `nbr_reads`, and every scan of a table
    asks its actions through it.  `writes` declares the variables the
    statement may assign.  Actions hash by identity, so a cache lookup
    never hashes their fields.

    `keyed`, for an array substitution, declares its row (see Keyed); the
    row is kept across steps (RunCaches.kept), and `evaluate` defaults to
    keyed_updates of the action, which patches it.  A copy made with
    dataclasses.replace keeps that `evaluate`, so it reaches the same row.
    The array is in `reads` as well as `writes`, since the guard compares
    the row with the stored array.  `when` names only variables of
    `reads`, so a change that can turn it also drops the result.
    """

    label: str
    evaluate: Optional[Callable[[Eval], Optional[dict]]] = None
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    nbr_reads: Optional[frozenset] = None
    keyed: Optional[Keyed] = None
    when: Optional[dict] = None

    def __post_init__(self):
        if self.nbr_reads is None:
            object.__setattr__(self, "nbr_reads", self.reads)
        elif not self.nbr_reads <= self.reads:
            raise ValueError(
                f"{self.label}: neighbor reads {sorted(self.nbr_reads - self.reads)}"
                " are not declared in reads")
        keyed = self.keyed
        if keyed is not None:
            if keyed.array not in self.writes:
                raise ValueError(
                    f"{self.label}: keyed array {keyed.array!r} is not written")
            if keyed.array not in self.reads:
                raise ValueError(
                    f"{self.label}: keyed array {keyed.array!r} is not declared in reads")
            outside = keyed.fixed - self.reads
            if outside:
                raise ValueError(
                    f"{self.label}: keyed row declares {sorted(outside)} outside reads")
        if self.when is not None:
            outside = self.when.keys() - self.reads
            if outside:
                raise ValueError(
                    f"{self.label}: when names {sorted(outside)} outside reads")
            empty = [x for x, values in self.when.items() if not values]
            if empty:
                raise ValueError(f"{self.label}: when allows no value of {empty}")
        if keyed is not None and keyed.marks is None:
            # Without marks, no change of such a read would reach the row.
            unreached = self.reads - keyed.fixed - {keyed.array}
            if unreached:
                raise ValueError(
                    f"{self.label}: keyed row without marks reads {sorted(unreached)}"
                    " outside fixed")
        if self.evaluate is None:
            if keyed is None:
                raise ValueError(f"{self.label}: no evaluate and no keyed row")
            object.__setattr__(self, "evaluate", lambda ev: keyed_updates(ev, self))

    def admits(self, store: Store) -> bool:
        """Whether the owner's `store` meets `when`."""
        when = self.when
        return when is None or all(store[x] in values for x, values in when.items())


@dataclass(frozen=True)
class Keyed:
    """The row of an array substitution, declared once on its Action.

    `array` is the array the action writes, whose whole new value is the
    row: one entry per key of the owner's domain.  `row(ev, keys)` computes
    the row at exactly the domain keys `keys`, or at all of them for None.
    The row is kept across steps (kept_row), and a change reaches it in one
    of three ways.  A change of a `fixed` variable, which the whole row
    depends on, drops it; `fixed` includes the domain variable
    (AlgorithmSpec checks this), so every domain write drops the owner's
    row.  A write of `array`, by a neighbor the action reads it from or by
    the owner with anything but the row itself, queues the keys whose
    value changed: the row's entry at key u reads neighbors' arrays only
    at u, and never reads the owner's.  Any other read reaches the row
    through `marks(ev)`, a dict from keys to the derived values the row
    reads at those keys (a predicate that holds there, a value read at one
    key, or one value every key reads), whose difference from the last
    marks names the keys to recompute; a row without marks declares every
    read but `array` fixed (Action checks this).
    """

    array: str
    row: Callable[[Eval, Optional[Iterable]], dict]
    fixed: frozenset
    marks: Optional[Callable[[Eval], dict]] = None


class Kept:
    """The last row of a keyed action at one process (see kept_row).

    `diff` holds the keys where `row` disagrees with the stored array,
    `waiting` the keys whose array entries changed since the row was last
    patched, and `marks` the row's derived per-key inputs as they were then
    (None without marks).  Once the row is handed out as updates
    (`handed`) it may be stored in a configuration, so it is copied before
    it is patched again.
    """

    __slots__ = ("row", "diff", "waiting", "marks", "handed")

    def __init__(self, row: dict, diff: set, marks):
        self.row = row
        self.diff = diff
        self.waiting = set()
        self.marks = marks
        self.handed = False


class RunCaches:
    """What Evals keep across steps, and what a change reaches in it.

    `results` is the layer cache (Eval.cached) and `kept` the kept rows of
    keyed actions (kept_row), each per Action, per process.  `changed`
    applies one process's step to both.
    """

    __slots__ = ("results", "kept", "_reach")

    def __init__(self):
        self.results: dict[Action, dict[int, object]] = {}
        self.kept: dict[Action, dict[int, Kept]] = {}
        self._reach: dict[frozenset, tuple] = {}  # changed names -> what they reach

    def _reach_of(self, names: frozenset, reads: Callable[[Action], frozenset]) -> tuple:
        # What `names` reach at the processes that read them through
        # `reads`: the per-process dicts to drop (results, and kept rows
        # whose fixed reads they meet), and the kept rows whose array they
        # write, each with that array.
        drop = [rows for a, rows in self.results.items() if not names.isdisjoint(reads(a))]
        patch = []
        for a, rows in self.kept.items():
            met = names & reads(a)
            if not met.isdisjoint(a.keyed.fixed):
                drop.append(rows)
            elif a.keyed.array in met:
                patch.append((rows, a.keyed.array))
        return tuple(drop), tuple(patch)

    def changed(self, v: int, names: frozenset, old: Store, new: Store,
                nbrs: tuple[int, ...]) -> None:
        """Process v's store went from old to new, changing `names`; v's
        neighbors are `nbrs`.

        The change reaches v's entries of the actions whose `reads` meet
        `names` and the neighbors' entries of those whose `nbr_reads` do:
        it drops the results and the kept rows whose `fixed` reads it
        meets, and a write of a kept row's array queues the keys that
        changed (see Keyed).  A kept row is asked only by its action's
        `evaluate`, which asks the marks again (kept_row)."""
        size = len(self.results) + len(self.kept)
        reach = self._reach.get(names)
        if reach is None or reach[0] != size:
            reach = self._reach[names] = (
                size, *self._reach_of(names, _reads), *self._reach_of(names, _nbr_reads))
        _, own_drop, own_patch, nbr_drop, nbr_patch = reach
        for rows in own_drop:
            rows.pop(v, None)
        for rows in nbr_drop:
            for w in nbrs:
                rows.pop(w, None)
        if not own_patch and not nbr_patch:
            return

        written = {}  # array -> the keys v's write changed, computed once
        for rows, array in own_patch:
            state = rows.get(v)
            if state is None:
                continue
            if new[array] is state.row:
                # v stored the row: the keys it changed are where the row
                # disagreed (keys outside v's domain, which no row reads
                # from v, are not counted)
                written[array], state.diff = state.diff, set()
            else:
                state.waiting |= _written(written, array, old, new)
        for rows, array in nbr_patch:
            keys = _written(written, array, old, new)
            for w in nbrs:
                state = rows.get(w)
                if state is not None:
                    state.waiting |= keys


_reads = operator.attrgetter("reads")
_nbr_reads = operator.attrgetter("nbr_reads")


def _written(written: dict, array: str, old: Store, new: Store) -> set:
    keys = written.get(array)
    if keys is None:
        keys = written[array] = changed_keys(old.get(array), new[array])
    return keys


def kept_row(ev: Eval, action: Action) -> Kept:
    """The row of the keyed `action` (see Keyed) at ev's snapshot, as a
    Kept with its disagreement set, kept in ev's caches.

    The first evaluation computes the full row, whose keys are the owner's
    domain, and its marks; later ones recompute the waiting keys and the
    keys whose marks differ from the last ones (added, removed or changed),
    and update the disagreement set at those keys only.  Only the action's
    own `evaluate` (keyed_updates) asks for its row: no rule reads another
    action's row.
    """
    keyed = action.keyed
    kept = ev.caches.kept
    rows = kept.get(action)
    if rows is None:
        rows = kept[action] = {}
    state = rows.get(ev.pid)
    if state is None:
        stored = ev.store.get(keyed.array) or _EMPTY
        row = keyed.row(ev, None)
        state = rows[ev.pid] = Kept(
            row, {u for u, x in row.items() if stored.get(u, BOT) != x},
            keyed.marks(ev) if keyed.marks else None)
    else:
        todo = state.waiting
        if state.marks is not None:
            new_marks = keyed.marks(ev)
            if new_marks != state.marks:
                todo.update(u for u, _ in new_marks.items() ^ state.marks.items())
                state.marks = new_marks
        if todo:
            todo &= state.row.keys()  # the domain: a domain write drops the row
            state.waiting = set()
        if todo:
            stored = ev.store.get(keyed.array) or _EMPTY
            row, diff = state.row, state.diff
            for u, x in keyed.row(ev, todo).items():
                if row[u] != x:
                    if state.handed:
                        row = state.row = dict(row)
                        state.handed = False
                    row[u] = x
                if stored.get(u, BOT) != x:
                    diff.add(u)
                else:
                    diff.discard(u)
    return state


def keyed_updates(ev: Eval, action: Action) -> Optional[dict]:
    """Evaluate the keyed `action` from its kept row (kept_row): enabled iff
    the row disagrees with the stored array at some key; the updates write
    the row."""
    state = kept_row(ev, action)
    if not state.diff:
        return None
    state.handed = True
    return {action.keyed.array: state.row}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Ordered list of labeled guarded actions (smallest label first).

    `domain_var` names the per-process set that keys the array variables, if
    any.  Writing it prunes every array to the new key set in the same atomic
    step, so a slot whose key later re-enters the domain comes back undefined
    instead of resurrecting a value from an earlier epoch.
    """

    actions: tuple[Action, ...]
    domain_var: Optional[str] = None

    def __post_init__(self):
        # A keyed row's keys are the domain, so a domain write must drop it.
        for a in self.actions:
            if (a.keyed is not None and self.domain_var is not None
                    and self.domain_var not in a.keyed.fixed):
                raise ValueError(
                    f"{a.label}: a keyed row must be fixed on {self.domain_var!r}")

    @property
    def reads(self) -> frozenset:
        return frozenset().union(*(a.reads for a in self.actions))

    @property
    def nbr_reads(self) -> frozenset:
        return frozenset().union(*(a.nbr_reads for a in self.actions))

    @property
    def writes(self) -> frozenset:
        return frozenset().union(*(a.writes for a in self.actions))

    @cached_property
    def _dispatch(self) -> tuple:
        # (key, scans): `key(store)` reads the owner's values of the names
        # some `when` declares, and scans[key(store)] holds the (position,
        # action) pairs whose `when` admits such an owner.  Built per
        # instance, so a copy made with dataclasses.replace dispatches to
        # its own actions; an owner state gets its entry when first met.
        names = sorted({x for a in self.actions if a.when is not None for x in a.when})
        key = operator.itemgetter(*names) if names else _no_names
        return key, {}

    def _scans(self, store: Store) -> tuple:
        key, scans = self._dispatch
        entry = scans[key(store)] = tuple(
            (i, a) for i, a in enumerate(self.actions) if a.admits(store))
        return entry

    def first_enabled(self, ev: Eval) -> Optional[tuple[int, dict]]:
        """(position, updates) of the first enabled action of the table, or
        None.  An action is enabled where its `when` admits the owner and
        its `evaluate` returns updates; the scan asks only the actions whose
        `when` admits the owner's state, each through ev's layer cache."""
        key, scans = self._dispatch
        entry = scans.get(key(ev.store))
        if entry is None:
            entry = self._scans(ev.store)
        results, pid = ev.caches.results, ev.pid
        for i, a in entry:
            # Eval.cached, inlined: a call per action costs about 6% of a
            # run's steps per second.
            rows = results.get(a)
            if rows is None:
                rows = results[a] = {}
                value = _ABSENT
            else:
                value = rows.get(pid, _ABSENT)
            if value is _ABSENT:
                value = rows[pid] = a.evaluate(ev)
            if value is not None:
                return i, value
        return None


def _no_names(store: Store) -> tuple:
    return ()


def plain_evals(cfg: Configuration, graph: Graph) -> list[Eval]:
    """One Eval per process of `cfg`, on fresh caches shared by them all:
    whatever is asked through them is evaluated from scratch."""
    caches = RunCaches()
    return [Eval(cfg, v, graph.neighbors_of(v), caches) for v in graph.vertices]


def enabled_actions(cfg: Configuration, v: int, alg: AlgorithmSpec, graph: Graph) -> list[str]:
    """Labels of all actions whose guard (`when` and the body) holds at v,
    in label order, evaluated from scratch: the reference that the
    differential tests compare `run`'s guard scans against."""
    ev = Eval(cfg, v, graph.neighbors_of(v))
    return [a.label for a in alg.actions
            if a.admits(ev.store) and ev.cached(a) is not None]


def apply_updates(store: Store, updates: dict,
                  domain_var: Optional[str]) -> tuple[Store, frozenset]:
    """The store after `updates`, and the names whose value changed: a
    write of an equal value changes nothing, and a domain write also
    changes the arrays it prunes to the new domain."""
    new = dict(store)
    new.update(updates)
    names = list(updates)
    if domain_var is not None and domain_var in updates:
        dom = new.get(domain_var) or frozenset()
        for name, value in new.items():
            if type(value) is dict and not value.keys() <= dom:
                new[name] = {u: x for u, x in value.items() if u in dom}
                names.append(name)
    changed = []
    for x in names:
        value, was = new[x], store.get(x, _ABSENT)
        if value is not was and value != was:
            changed.append(x)
    return new, frozenset(changed)


def changed_keys(old: Optional[dict], new: Optional[dict]) -> set:
    """The keys whose entry differs between two values of an array; a
    missing key reads as BOT."""
    if old is new:
        return set()
    old = old or _EMPTY
    new = new or _EMPTY
    keys = {u for u, x in new.items() if old.get(u, BOT) != x}
    if not old.keys() <= new.keys():
        keys.update(u for u in old.keys() - new.keys() if old[u] is not BOT)
    return keys


def step(
    cfg: Configuration,
    selected: Iterable[int],
    alg: AlgorithmSpec,
    graph: Graph,
) -> Configuration:
    """Apply one atomic step: every selected process fires its smallest
    enabled action, all reading the pre-step configuration: the uncached
    reference that the differential tests replay `run`'s traces through."""
    new_cfg = dict(cfg)
    for v in sorted(set(selected)):
        ev = Eval(cfg, v, graph.neighbors_of(v))
        hit = alg.first_enabled(ev)
        if hit is None:
            raise DaemonContractError(f"process {v} selected while not enabled")
        _, updates = hit
        new_cfg[v], _ = apply_updates(cfg[v], updates, alg.domain_var)
    return new_cfg


# ---------------------------------------------------------------------------
# daemons

@dataclass(frozen=True)
class DaemonPolicy:
    """Scheduler: synchronous | central | random(p, seed) | scripted.

    With fairness aging, a process continuously enabled for n steps (the
    network size) without being selected is force-included in the next
    selection; this makes weak fairness a hard, testable bound.
    """

    kind: str = "random"
    p: float = 0.5
    seed: int = 0
    script: Optional[list] = None
    fairness_aging: bool = True

    def __post_init__(self):
        if self.kind not in ("synchronous", "central", "random", "scripted"):
            raise ScheduleError(f"unknown daemon kind {self.kind!r}")
        if self.kind == "random" and not (0.0 < self.p <= 1.0):
            raise ScheduleError("random daemon needs 0 < p <= 1")
        if self.kind == "scripted" and self.script is None:
            raise ScheduleError("scripted daemon needs a script")


class _Scheduler:
    def __init__(self, policy: DaemonPolicy, n: int):
        self.policy = policy
        self.rng = random.Random(policy.seed)
        self.window = n
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
    fired: dict[int, str]  # each selected process and the label it fired

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(sorted(self.fired))


@dataclass
class StepEvent:
    """Passed to observers at each step, before the step is applied.

    `enabled` is the set the daemon selected from, the processes enabled at
    `pre_cfg`; `fired` maps each selected process to the label it fires.
    No store of `pre_cfg` is changed later, so an observer may keep them.
    """

    index: int
    pre_cfg: Configuration
    fired: dict[int, str]
    enabled: set[int]


@dataclass
class ExecutionTrace:
    graph: Graph = field(repr=False)
    algorithm: AlgorithmSpec = field(repr=False)
    initial: Configuration = field(repr=False)
    final: Configuration = field(repr=False)
    steps: list[StepRecord]
    round_boundaries: list[int]  # step counts at which each complete round ends
    verdict: str  # "terminated" | "budget_exhausted"

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def terminated(self) -> bool:
        return self.verdict == "terminated"

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
) -> ExecutionTrace:
    """Drive the daemon until no process is enabled or the budget is hit.

    The trace records every step.  It is reproducible from (cfg0, alg,
    daemon kind + seed) alone; all tie-breaking is over sorted process ids.

    Every Eval of the run shares one RunCaches, and each fired process
    that changed something makes one call of its `changed` as its updates
    are applied.  After the step, every process in the closed neighborhood
    of a changed one scans its table again, through the layer cache, so it
    evaluates only the actions a change reached (see Action).

    Observers see each step before it is applied (see StepEvent): its
    pre-step configuration and what each selected process fires.
    """
    if max_steps <= 0:
        raise ScheduleError("max_steps must be positive")
    if set(cfg0) != set(graph.vertices):
        raise ScheduleError("configuration does not cover the vertex set")

    adj = {v: graph.neighbors_of(v) for v in graph.vertices}
    sched = _Scheduler(daemon, graph.n)
    labels = [a.label for a in alg.actions]
    domain_var = alg.domain_var

    cfg = {v: dict(cfg0[v]) for v in cfg0}
    caches = RunCaches()

    # per process: (position, updates) of its first enabled action, or None
    cache: dict[int, Optional[tuple[int, dict]]] = {}
    for v in graph.vertices:
        cache[v] = alg.first_enabled(Eval(cfg, v, adj[v], caches))
    enabled = {v for v, hit in cache.items() if hit is not None}

    steps: list[StepRecord] = []
    boundaries: list[int] = []
    pending = set(enabled)
    verdict = "budget_exhausted"

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

        order = sorted(selected)
        fired = {v: labels[cache[v][0]] for v in order}
        if observers:
            event = StepEvent(i, cfg, fired, enabled)
            for obs in observers:
                obs(event)

        new_cfg = dict(cfg)
        reached = set()  # the closed neighborhoods of the changed processes
        for v in order:
            old = cfg[v]
            new, names = apply_updates(old, cache[v][1], domain_var)
            new_cfg[v] = new
            if names:
                caches.changed(v, names, old, new, adj[v])
                reached.add(v)
                reached.update(adj[v])
        new_enabled = set(enabled)
        for v in reached:
            hit = cache[v] = alg.first_enabled(Eval(new_cfg, v, adj[v], caches))
            if hit is None:
                new_enabled.discard(v)
            else:
                new_enabled.add(v)

        # round accounting: a pending process is done once it executes or is
        # neutralized (enabled before the step, not after)
        pending -= selected
        pending -= {v for v in enabled if v not in new_enabled}
        if not pending:
            boundaries.append(i + 1)
            pending = set(new_enabled)

        sched.after_step(enabled, selected, new_enabled)

        steps.append(StepRecord(fired))
        cfg = new_cfg
        enabled = new_enabled

    return ExecutionTrace(
        graph=graph,
        algorithm=alg,
        initial=cfg0,
        final=cfg,
        steps=steps,
        round_boundaries=boundaries,
        verdict=verdict,
    )


def rounds(trace: ExecutionTrace) -> int:
    """Recount complete rounds from the recorded trace.

    The uncached reference for run()'s round count: replays the steps
    through `step` and fresh Evals, independently of run()'s counters and
    caches.  The first round is the minimal prefix in which every initially
    enabled process executes or is neutralized, and so on.
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
