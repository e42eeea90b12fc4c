"""Loop composition: run a base algorithm repeatedly over a spanning tree.

Given a base algorithm, an error predicate, and an initializer, the
combinator emits one flat action table.  A five-valued color wave cycles
through the tree to detect termination of each base execution; when an
execution ends with some output variable differing from its input-side copy,
every process shifts outputs into the copies and a fresh execution starts.
Reset flags force the wave back to the root whenever any process still makes
progress, and a table of illegal parent/child color pairs scrubs incoherent
initial colorings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .graphs import Graph
from .runtime import Action, AlgorithmSpec, BOT, Configuration, Eval, Var
from .bfs import PARENT, bfs_actions

COLOR = "color"
MODE = "mode"
RESET = "reset"

MODE_BASE = "A"
MODE_INIT = "P"

# The labels that start a base execution: the copy shift and the hand-off.
SHIFT = "L14"
HANDOFF = "L15"

VARS = (
    Var(COLOR, "scalar", lambda n, k: range(5)),
    Var(MODE, "scalar", lambda n, k: (MODE_BASE, MODE_INIT)),
    Var(RESET, "scalar", lambda n, k: range(2)),
)

# Parent/child color pairs that cannot occur in any legal wave.
ILLEGAL_PAIRS = frozenset(
    {(1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (4, 1), (4, 2)}
)


class CompositionError(ValueError):
    """Malformed base/initializer binding."""


@dataclass(frozen=True)
class BaseAlgorithmBinding:
    """Pluggable pieces the combinator composes.

    `outputs` pairs every copied output variable with its input-side copy.
    `variables` declares the base and initializer variables; outputs declared
    as arrays are copied and compared key-wise over the process's current
    domain, the one variable declared as a set.  The write sets of the base
    and the initializer are those their actions declare.  The error predicate
    must read only input-side copies and initializer inputs and outputs of
    the 1-neighborhood (`error_check.reads`).  Within them it may ask the
    initializer's actions through Eval.cached, as the grouping payload's
    does; a copy of the binding with another `init` keeps asking the
    actions its `error` was built with.
    """

    base: AlgorithmSpec
    init: AlgorithmSpec
    error: Callable[[Eval], bool]
    outputs: tuple[tuple[str, str], ...]  # (output, copy) pairs
    variables: tuple[Var, ...] = ()

    @cached_property
    def domain_var(self) -> Optional[str]:
        """The declared set variable, whose identifiers key the arrays."""
        return next((var.name for var in self.variables if var.kind == "set"), None)

    @cached_property
    def arrays(self) -> frozenset:
        """The declared array variables, copied and compared key-wise."""
        return frozenset(var.name for var in self.variables if var.kind == "array")

    @cached_property
    def error_check(self) -> Action:
        """The error predicate as an action whose evaluate returns the
        verdict (label E): one object, so L5's cache entries and the ones
        the boundary qualification reads are the same entries.  It reads the
        copies and the initializer's inputs and outputs."""
        copies = frozenset(c for _, c in self.outputs)
        return Action("E", self.error, self.init.reads | copies | self.init.writes)

    def validate(self) -> None:
        outs = [x for x, _ in self.outputs]
        copies = [c for _, c in self.outputs]
        if len(set(outs)) != len(outs) or len(set(copies)) != len(copies):
            raise CompositionError("duplicate names in output/copy pairs")
        if set(outs) & set(copies):
            raise CompositionError("an output variable doubles as a copy")
        base_writes = self.base.writes
        if base_writes & self.init.writes:
            raise CompositionError("base and initializer write sets overlap")
        if set(copies) & base_writes:
            raise CompositionError("base algorithm writes a copy variable")
        missing = set(outs) - base_writes
        if base_writes and missing:
            raise CompositionError(f"outputs not written by base: {sorted(missing)}")
        kinds = {var.name: var.kind for var in self.variables}
        if any(kinds.get(x) != kinds.get(c) for x, c in self.outputs):
            raise CompositionError("an output and its copy differ in kind")
        if list(kinds.values()).count("set") > 1:
            raise CompositionError("more than one set variable to key the arrays")


def _copies_match(binding: BaseAlgorithmBinding, store: dict) -> bool:
    dom = store.get(binding.domain_var) or ()
    for x, in_x in binding.outputs:
        if x in binding.arrays:
            ax = store.get(x) or {}
            ac = store.get(in_x) or {}
            for u in dom:
                if ax.get(u, BOT) != ac.get(u, BOT):
                    return False
        else:
            if store.get(x, BOT) != store.get(in_x, BOT):
                return False
    return True


def _copy_updates(binding: BaseAlgorithmBinding, store: dict) -> dict:
    dom = store.get(binding.domain_var) or ()
    updates = {}
    for x, in_x in binding.outputs:
        if x in binding.arrays:
            ax = store.get(x) or {}
            # Shared, not copied, when keyed by the domain: no value is mutated.
            updates[in_x] = ax if ax.keys() == dom else {u: ax.get(u, BOT) for u in dom}
        else:
            updates[in_x] = store.get(x, BOT)
    return updates


def copy_shift(cfg: Configuration, binding: BaseAlgorithmBinding) -> Configuration:
    """Overwrite every input-side copy with its output, everywhere at once.

    Test/verdict utility mirroring what the color-4 wave achieves process by
    process during a run.
    """
    out = {}
    for v, store in cfg.items():
        s = dict(store)
        s.update(_copy_updates(binding, store))
        out[v] = s
    return out


def compose(binding: BaseAlgorithmBinding, graph: Graph) -> AlgorithmSpec:
    """Emit the full composed action table (tree layer + wave + base/init)."""
    binding.validate()
    base, init, error_check = binding.base, binding.init, binding.error_check

    def wave_ok(ev: Eval, parent_color, child_color) -> bool:
        # The parent (if any) shows parent_color, every child child_color.
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[COLOR] != parent_color:
            return False
        return all(ev.nbr(u)[COLOR] == child_color for u in ev.children())

    def in_base_off4(ev: Eval) -> bool:
        # Where L5 and L6 may hand the process over to the initializer.
        s = ev.store
        return s[MODE] == MODE_BASE and s[COLOR] != 4

    def done_below(ev: Eval, mode) -> bool:
        # Color 3 in `mode` with no child still at color 2.
        s = ev.store
        if s[COLOR] != 3 or s[MODE] != mode:
            return False
        return not any(ev.nbr(u)[COLOR] == 2 for u in ev.children())

    def color_reset(ev: Eval):
        s = ev.store
        if s[COLOR] not in (0, 3, 4) and s[RESET] == 1:
            return {COLOR: 0}
        return None

    def restart_below(colors, updates):
        # The parent went back to color 0: so does a process at `colors`.
        def evaluate(ev: Eval):
            if ev.store[COLOR] not in colors:
                return None
            p = ev.parent()
            if p is not BOT and ev.nbr(p)[COLOR] == 0:
                return dict(updates)
            return None

        return evaluate

    def error_to_init(ev: Eval):
        if not in_base_off4(ev):
            return None
        if any(ev.nbr(u)[COLOR] == 4 for u in ev.nbr_ids):
            return None
        if ev.cached(error_check):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def follow_to_init(ev: Eval):
        if not in_base_off4(ev):
            return None
        if any(ev.nbr(u)[MODE] == MODE_INIT for u in ev.nbr_ids):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def run_module(alg: AlgorithmSpec, mode):
        # Where the closed neighborhood is in `mode` and off color 4, fire
        # the first enabled action of `alg` and raise the reset flag.
        def evaluate(ev: Eval):
            cfg = ev.cfg
            for u in (ev.pid, *ev.nbr_ids):
                s = cfg[u]
                if s[MODE] != mode or s[COLOR] == 4:
                    return None
            for action in alg.actions:
                updates = ev.cached(action)
                if updates is not None:
                    return {**updates, RESET: 1}
            return None

        return evaluate

    def illegal(ev: Eval):
        cl = ev.store[COLOR]
        for u in ev.children():
            if (cl, ev.nbr(u)[COLOR]) in ILLEGAL_PAIRS:
                return {COLOR: 0, RESET: 1}
        return None

    def propagate_reset(ev: Eval):
        if ev.store[RESET] != 0:
            return None
        if any(ev.nbr(u)[RESET] == 1 for u in ev.children()):
            return {RESET: 1}
        return None

    def del_reset(ev: Eval):
        if ev.store[RESET] != 1:
            return None
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[RESET] != 1:
            return None
        if any(ev.nbr(u)[RESET] != 0 for u in ev.children()):
            return None
        return {RESET: 0}

    def down(ev: Eval):
        s = ev.store
        cl = s[COLOR]
        if cl in (0, 2) and s[RESET] == 0 and wave_ok(ev, cl + 1, cl):
            return {COLOR: cl + 1}
        return None

    def to2(ev: Eval):
        if ev.store[COLOR] == 1 and wave_ok(ev, 1, 2):
            return {COLOR: 2}
        return None

    def to4_base(ev: Eval):
        if not done_below(ev, MODE_BASE):
            return None
        in_sync = ev.cached(sync_check)
        if in_sync and not any(ev.nbr(u)[COLOR] == 4 for u in ev.nbr_ids):
            return None
        updates = _copy_updates(binding, ev.store)
        updates[COLOR] = 4
        return updates

    def to4_init(ev: Eval):
        if not done_below(ev, MODE_INIT):
            return None
        return {COLOR: 4, MODE: MODE_BASE}

    def to0(ev: Eval):
        if ev.store[COLOR] != 4 or not wave_ok(ev, 4, 0):
            return None
        if any(ev.nbr(u)[COLOR] not in (0, 4) for u in ev.nbr_ids):
            return None
        return {COLOR: 0}

    (tree,) = bfs_actions(graph).actions
    copy_names = frozenset(c for _, c in binding.outputs)
    out_names = frozenset(x for x, _ in binding.outputs)
    domain = frozenset((binding.domain_var,)) - {None}
    # The check L14 caches, as an action whose evaluate returns a verdict
    # instead of updates (like L5's error check): whether the outputs equal
    # their copies (the owner's store alone).
    sync_check = Action("sync", lambda ev: _copies_match(binding, ev.store),
                        out_names | copy_names | domain, nbr_reads=frozenset())

    # Each action declares only what it reads: `reads` in the closed
    # neighborhood, `nbr_reads` in the neighbors' stores.  A walk reads the
    # parent's and the children's `x`, finding them by the parent pointers.
    color, mode, reset = frozenset((COLOR,)), frozenset((MODE,)), frozenset((RESET,))
    color_walk, reset_walk = color | {PARENT}, reset | {PARENT}
    in_mode = color | mode  # run_module's test of the closed neighborhood

    actions = (
        Action("L1", tree.evaluate, tree.reads, tree.writes, tree.nbr_reads),
        Action("L2", color_reset, color | reset, color, frozenset()),
        Action("L3", restart_below((1, 2), {COLOR: 0}), color_walk, color, color),
        Action("L4", restart_below((3, 4), {COLOR: 0, RESET: 1}), color_walk,
               color | reset, color),
        Action("L5", error_to_init, in_mode | error_check.reads, mode | reset,
               color | error_check.nbr_reads),
        Action("L6", follow_to_init, in_mode, mode | reset, mode),
        Action("L7", run_module(base, MODE_BASE), in_mode | base.reads,
               base.writes | reset, in_mode | base.nbr_reads),
        Action("L8", run_module(init, MODE_INIT), in_mode | init.reads,
               init.writes | reset, in_mode | init.nbr_reads),
        Action("L9", illegal, color_walk, color | reset, color_walk),
        Action("L10", propagate_reset, reset_walk, reset, reset_walk),
        Action("L11", del_reset, reset_walk, reset, reset_walk),
        Action("L12", down, color_walk | reset, color, color_walk),
        Action("L13", to2, color_walk, color, color_walk),
        Action(SHIFT, to4_base, color_walk | mode | sync_check.reads,
               copy_names | color, color_walk),
        Action(HANDOFF, to4_init, color_walk | mode, color | mode, color_walk),
        Action("L16", to0, color_walk, color, color_walk),
    )
    return AlgorithmSpec(f"loop({base.name},{init.name})", actions,
                         domain_var=binding.domain_var)


# ---------------------------------------------------------------------------
# configuration-level predicates

# Each predicate reads a configuration through `evals`, one Eval per
# process, and asks every action through Eval.cached.  Plain Evals
# (runtime.plain_evals) decide from scratch; Evals on a run's own caches at
# a step's pre-step configuration (StepEvent.evaluate) give the same verdict
# from what the run has already evaluated there.

def disabled_everywhere(evals: Sequence[Eval], alg: AlgorithmSpec) -> bool:
    """No action of `alg` is enabled at any process."""
    return all(all(ev.cached(a) is None for a in alg.actions) for ev in evals)


def error_nowhere(evals: Sequence[Eval], binding: BaseAlgorithmBinding) -> bool:
    """The error predicate is false at every process."""
    error_check = binding.error_check
    return not any(ev.cached(error_check) for ev in evals)


def check_Cgoal(evals: Sequence[Eval], binding: BaseAlgorithmBinding) -> bool:
    """No error anywhere, outputs equal to their copies, base disabled."""
    if not error_nowhere(evals, binding):
        return False
    if not all(_copies_match(binding, ev.store) for ev in evals):
        return False
    return disabled_everywhere(evals, binding.base)


def check_Cfin(evals: Sequence[Eval], binding: BaseAlgorithmBinding) -> bool:
    """Terminal shape: goal condition plus mode A, color 3, reset 0 everywhere."""
    for ev in evals:
        s = ev.store
        if s.get(MODE) != MODE_BASE or s.get(COLOR) != 3 or s.get(RESET) != 0:
            return False
    return check_Cgoal(evals, binding)
