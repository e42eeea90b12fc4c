"""Loop composition: run a base algorithm repeatedly over a spanning tree.

Given a base algorithm, an error predicate, and an initializer, the
combinator emits one flat action table.  A five-valued color wave cycles
through the tree to detect termination of each base execution; when an
execution ends with some output variable differing from its input-side copy,
every process shifts outputs into the copies and a fresh execution starts.
Reset flags force the wave back to the root whenever any process still makes
progress, and a table of illegal parent/child color pairs scrubs incoherent
initial colorings.

Each wave action's guard is its `when`, what it needs of the owner's own
color, mode and reset flag, and its body, which tests the rest: the
neighbors, the tree and the payload.  A scan asks a body only where `when`
holds (runtime.Action), so no body restates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .graphs import Graph
from .runtime import Action, AlgorithmSpec, BOT, Configuration, Eval, Var
from .bfs import PARENT, bfs_actions, children, parent

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
    `error(ev, init)`, handed the binding's own `init`, reads only input-side
    copies and initializer inputs and outputs of the 1-neighborhood
    (`error_check.reads`), and asks the actions of `init` only through
    Eval.cached, and only where their `when` admits the owner, as the
    grouping payload's does (its initializer actions declare none).
    """

    base: AlgorithmSpec
    init: AlgorithmSpec
    error: Callable[[Eval, AlgorithmSpec], bool]
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
        verdict (label E): L5 asks it through the run's caches, and the
        verdicts (loop.error_nowhere) through plain Evals.  It reads the
        copies and the initializer's inputs and outputs."""
        error, init = self.error, self.init
        copies = frozenset(c for _, c in self.outputs)
        return Action("E", lambda ev: error(ev, init), init.reads | copies | init.writes)

    def __post_init__(self):
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

    What the color-4 wave achieves process by process during a run: given
    each process's store at its own L14, the result is the post-shift cut,
    every process's input to the next base execution.
    """
    out = {}
    for v, store in cfg.items():
        s = dict(store)
        s.update(_copy_updates(binding, store))
        out[v] = s
    return out


def compose(binding: BaseAlgorithmBinding, graph: Graph) -> AlgorithmSpec:
    """Emit the full composed action table (tree layer + wave + base/init)."""
    base, init, error_check = binding.base, binding.init, binding.error_check

    def wave_ok(ev: Eval, parent_color, child_color) -> bool:
        # The parent (if any) shows parent_color, every child child_color.
        p = parent(ev)
        if p is not BOT and ev.cfg[p][COLOR] != parent_color:
            return False
        return all(ev.cfg[u][COLOR] == child_color for u in children(ev))

    def done_below(ev: Eval) -> bool:
        # No child still at color 2.
        return not any(ev.cfg[u][COLOR] == 2 for u in children(ev))

    def restart_below(updates):
        # The parent went back to color 0: so does the process.
        def evaluate(ev: Eval):
            p = parent(ev)
            if p is not BOT and ev.cfg[p][COLOR] == 0:
                return dict(updates)
            return None

        return evaluate

    def error_to_init(ev: Eval):
        if any(ev.cfg[u][COLOR] == 4 for u in ev.nbr_ids):
            return None
        if ev.cached(error_check):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def follow_to_init(ev: Eval):
        if any(ev.cfg[u][MODE] == MODE_INIT for u in ev.nbr_ids):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def run_module(alg: AlgorithmSpec, mode):
        # Where every neighbor is, like the owner (`when`), in `mode` and
        # off color 4, fire the first enabled action of `alg` and raise the
        # reset flag.
        def evaluate(ev: Eval):
            cfg = ev.cfg
            for u in ev.nbr_ids:
                s = cfg[u]
                if s[MODE] != mode or s[COLOR] == 4:
                    return None
            hit = alg.first_enabled(ev)
            if hit is None:
                return None
            return {**hit[1], RESET: 1}

        return evaluate

    def illegal(ev: Eval):
        cl = ev.store[COLOR]
        for u in children(ev):
            if (cl, ev.cfg[u][COLOR]) in ILLEGAL_PAIRS:
                return {COLOR: 0, RESET: 1}
        return None

    def propagate_reset(ev: Eval):
        if any(ev.cfg[u][RESET] == 1 for u in children(ev)):
            return {RESET: 1}
        return None

    def del_reset(ev: Eval):
        p = parent(ev)
        if p is not BOT and ev.cfg[p][RESET] != 1:
            return None
        if any(ev.cfg[u][RESET] != 0 for u in children(ev)):
            return None
        return {RESET: 0}

    def down(ev: Eval):
        cl = ev.store[COLOR]
        if wave_ok(ev, cl + 1, cl):
            return {COLOR: cl + 1}
        return None

    def to2(ev: Eval):
        if wave_ok(ev, 1, 2):
            return {COLOR: 2}
        return None

    def to4_base(ev: Eval):
        if not done_below(ev):
            return None
        if (not any(ev.cfg[u][COLOR] == 4 for u in ev.nbr_ids)
                and _copies_match(binding, ev.store)):
            return None
        updates = _copy_updates(binding, ev.store)
        updates[COLOR] = 4
        return updates

    def to4_init(ev: Eval):
        if not done_below(ev):
            return None
        return {COLOR: 4, MODE: MODE_BASE}

    def to0(ev: Eval):
        if not wave_ok(ev, 4, 0):
            return None
        if any(ev.cfg[u][COLOR] not in (0, 4) for u in ev.nbr_ids):
            return None
        return {COLOR: 0}

    (tree,) = bfs_actions(graph).actions
    copy_names = frozenset(c for _, c in binding.outputs)
    out_names = frozenset(x for x, _ in binding.outputs)
    domain = frozenset((binding.domain_var,)) - {None}

    # A walk reads the parent's and the children's `x`, finding them by the
    # parent pointers.
    color, mode, reset = frozenset((COLOR,)), frozenset((MODE,)), frozenset((RESET,))
    color_walk, reset_walk = color | {PARENT}, reset | {PARENT}
    in_mode = color | mode  # run_module's test of the closed neighborhood

    # In base (initializer) mode and off color 4: where L5-L7 (L8) may act.
    base_off4 = {MODE: (MODE_BASE,), COLOR: (0, 1, 2, 3)}
    init_off4 = {MODE: (MODE_INIT,), COLOR: (0, 1, 2, 3)}

    actions = (
        Action("L1", tree.evaluate, tree.reads, tree.writes, tree.nbr_reads),
        Action("L2", lambda ev: {COLOR: 0}, color | reset, color, frozenset(),
               when={COLOR: (1, 2), RESET: (1,)}),
        Action("L3", restart_below({COLOR: 0}), color_walk, color, color,
               when={COLOR: (1, 2)}),
        Action("L4", restart_below({COLOR: 0, RESET: 1}), color_walk,
               color | reset, color, when={COLOR: (3, 4)}),
        Action("L5", error_to_init, in_mode | error_check.reads, mode | reset,
               color | error_check.nbr_reads, when=base_off4),
        Action("L6", follow_to_init, in_mode, mode | reset, mode, when=base_off4),
        Action("L7", run_module(base, MODE_BASE), in_mode | base.reads,
               base.writes | reset, in_mode | base.nbr_reads, when=base_off4),
        Action("L8", run_module(init, MODE_INIT), in_mode | init.reads,
               init.writes | reset, in_mode | init.nbr_reads, when=init_off4),
        Action("L9", illegal, color_walk, color | reset, color_walk,
               when={COLOR: tuple(sorted({cl for cl, _ in ILLEGAL_PAIRS}))}),
        Action("L10", propagate_reset, reset_walk, reset, reset_walk, when={RESET: (0,)}),
        Action("L11", del_reset, reset_walk, reset, reset_walk, when={RESET: (1,)}),
        Action("L12", down, color_walk | reset, color, color_walk,
               when={COLOR: (0, 2), RESET: (0,)}),
        Action("L13", to2, color_walk, color, color_walk, when={COLOR: (1,)}),
        Action(SHIFT, to4_base, color_walk | mode | out_names | copy_names | domain,
               copy_names | color, color_walk, when={COLOR: (3,), MODE: (MODE_BASE,)}),
        Action(HANDOFF, to4_init, color_walk | mode, color | mode, color_walk,
               when={COLOR: (3,), MODE: (MODE_INIT,)}),
        Action("L16", to0, color_walk, color, color_walk, when={COLOR: (4,)}),
    )
    return AlgorithmSpec(actions, domain_var=binding.domain_var)


# ---------------------------------------------------------------------------
# configuration-level predicates

# Each predicate reads a configuration through `evals`, one Eval per
# process, and asks every action through the Evals' layer cache, so evals
# that share one set of caches (runtime.plain_evals) evaluate each action
# once per process, from scratch.

def disabled_everywhere(evals: Sequence[Eval], alg: AlgorithmSpec) -> bool:
    """No action of `alg` is enabled at any process."""
    return all(alg.first_enabled(ev) is None for ev in evals)


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
