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
from typing import Callable

from .graphs import Graph
from .runtime import Action, AlgorithmSpec, BOT, Configuration, Eval, Var
from .bfs import PARENT, bfs_actions

COLOR = "color"
MODE = "mode"
RESET = "reset"

MODE_BASE = "A"
MODE_INIT = "P"

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
    `domain_var`.  The write sets of the base and the initializer are those
    their actions declare.  The error predicate must read only input-side
    copies and initializer outputs of the 1-neighborhood.
    """

    base: AlgorithmSpec
    init: AlgorithmSpec
    error: Callable[[Eval], bool]
    outputs: tuple[tuple[str, str], ...]  # (output, copy) pairs
    variables: tuple[Var, ...] = ()
    domain_var: str = "domain"

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


def _array_names(binding: BaseAlgorithmBinding) -> frozenset:
    return frozenset(var.name for var in binding.variables if var.kind == "array")


def _copies_match(binding: BaseAlgorithmBinding, arrays: frozenset, store: dict) -> bool:
    dom = store.get(binding.domain_var) or ()
    for x, in_x in binding.outputs:
        if x in arrays:
            ax = store.get(x) or {}
            ac = store.get(in_x) or {}
            for u in dom:
                if ax.get(u, BOT) != ac.get(u, BOT):
                    return False
        else:
            if store.get(x, BOT) != store.get(in_x, BOT):
                return False
    return True


def _copy_updates(binding: BaseAlgorithmBinding, arrays: frozenset, store: dict) -> dict:
    dom = store.get(binding.domain_var) or ()
    updates = {}
    for x, in_x in binding.outputs:
        if x in arrays:
            ax = store.get(x) or {}
            updates[in_x] = {u: ax.get(u, BOT) for u in dom}
        else:
            updates[in_x] = store.get(x, BOT)
    return updates


def copy_shift(cfg: Configuration, binding: BaseAlgorithmBinding) -> Configuration:
    """Overwrite every input-side copy with its output, everywhere at once.

    Test/verdict utility mirroring what the color-4 wave achieves process by
    process during a run.
    """
    arrays = _array_names(binding)
    out = {}
    for v, store in cfg.items():
        s = dict(store)
        s.update(_copy_updates(binding, arrays, store))
        out[v] = s
    return out


def compose(binding: BaseAlgorithmBinding, graph: Graph) -> AlgorithmSpec:
    """Emit the full composed action table (tree layer + wave + base/init)."""
    binding.validate()
    base, init, error = binding.base, binding.init, binding.error
    arrays = _array_names(binding)

    def down_ok(ev: Eval) -> bool:
        cl = ev.store[COLOR]
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[COLOR] != cl + 1:
            return False
        return all(ev.nbr(u)[COLOR] == cl for u in ev.children())

    def up_ok(ev: Eval) -> bool:
        cl = ev.store[COLOR]
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[COLOR] != cl:
            return False
        succ = (cl + 1) % 5
        return all(ev.nbr(u)[COLOR] == succ for u in ev.children())

    def color_reset(ev: Eval):
        s = ev.store
        if s[COLOR] not in (0, 3, 4) and s[RESET] == 1:
            return {COLOR: 0}
        return None

    def color_init(ev: Eval):
        s = ev.store
        if s[COLOR] not in (1, 2):
            return None
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[COLOR] == 0:
            return {COLOR: 0}
        return None

    def color_init34(ev: Eval):
        s = ev.store
        if s[COLOR] not in (3, 4):
            return None
        p = ev.parent()
        if p is not BOT and ev.nbr(p)[COLOR] == 0:
            return {COLOR: 0, RESET: 1}
        return None

    def error_to_init(ev: Eval):
        s = ev.store
        if s[MODE] != MODE_BASE or s[COLOR] == 4:
            return None
        if any(ev.nbr(u)[COLOR] == 4 for u in ev.nbr_ids):
            return None
        if ev.cached("error", error):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def follow_to_init(ev: Eval):
        s = ev.store
        if s[MODE] != MODE_BASE or s[COLOR] == 4:
            return None
        if any(ev.nbr(u)[MODE] == MODE_INIT for u in ev.nbr_ids):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def _module_gate(ev: Eval, mode) -> bool:
        s = ev.store
        if s[MODE] != mode or s[COLOR] == 4:
            return False
        for u in ev.nbr_ids:
            ns = ev.nbr(u)
            if ns[MODE] != mode or ns[COLOR] == 4:
                return False
        return True

    def scan_module(ev: Eval, alg: AlgorithmSpec, prefix: str):
        # Per-action caching: an action's verdict stays valid until one of
        # its declared reads changes in the 1-neighborhood.
        for action in alg.actions:
            updates = ev.cached(prefix + action.label, action.evaluate)
            if updates is not None:
                return updates
        return None

    def run_base(ev: Eval):
        if not _module_gate(ev, MODE_BASE):
            return None
        hit = scan_module(ev, base, "A/")
        if hit is None:
            return None
        updates = dict(hit)
        updates[RESET] = 1
        return updates

    def run_init(ev: Eval):
        if not _module_gate(ev, MODE_INIT):
            return None
        hit = scan_module(ev, init, "P/")
        if hit is None:
            return None
        updates = dict(hit)
        updates[RESET] = 1
        return updates

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
        if s[COLOR] in (0, 2) and s[RESET] == 0 and down_ok(ev):
            return {COLOR: s[COLOR] + 1}
        return None

    def to2(ev: Eval):
        if ev.store[COLOR] == 1 and up_ok(ev):
            return {COLOR: 2}
        return None

    def to4_base(ev: Eval):
        s = ev.store
        if s[COLOR] != 3 or s[MODE] != MODE_BASE:
            return None
        if any(ev.nbr(u)[COLOR] == 2 for u in ev.children()):
            return None
        in_sync = ev.cached("shift", lambda e: _copies_match(binding, arrays, e.store))
        if in_sync and not any(ev.nbr(u)[COLOR] == 4 for u in ev.nbr_ids):
            return None
        updates = _copy_updates(binding, arrays, s)
        updates[COLOR] = 4
        return updates

    def to4_init(ev: Eval):
        s = ev.store
        if s[COLOR] != 3 or s[MODE] != MODE_INIT:
            return None
        if any(ev.nbr(u)[COLOR] == 2 for u in ev.children()):
            return None
        return {COLOR: 4, MODE: MODE_BASE}

    def to0(ev: Eval):
        if ev.store[COLOR] != 4 or not up_ok(ev):
            return None
        if any(ev.nbr(u)[COLOR] not in (0, 4) for u in ev.nbr_ids):
            return None
        return {COLOR: 0}

    tree = bfs_actions(graph)
    tree_reads = tree.actions[0].reads
    tree_writes = tree.actions[0].writes

    def run_tree(ev: Eval):
        hit = tree.first_enabled(ev)
        return None if hit is None else hit[1]

    loop_reads = frozenset((COLOR, MODE, RESET, PARENT))
    copy_names = frozenset(c for _, c in binding.outputs)
    out_names = frozenset(x for x, _ in binding.outputs)

    actions = (
        Action("L1", run_tree, tree_reads, tree_writes),
        Action("L2", color_reset, loop_reads, frozenset((COLOR,))),
        Action("L3", color_init, loop_reads, frozenset((COLOR,))),
        Action("L4", color_init34, loop_reads, frozenset((COLOR, RESET))),
        Action("L5", error_to_init, loop_reads | copy_names | init.writes,
               frozenset((MODE, RESET))),
        Action("L6", follow_to_init, loop_reads, frozenset((MODE, RESET))),
        Action("L7", run_base, loop_reads | base.reads, base.writes | frozenset((RESET,))),
        Action("L8", run_init, loop_reads | init.reads, init.writes | frozenset((RESET,))),
        Action("L9", illegal, loop_reads, frozenset((COLOR, RESET))),
        Action("L10", propagate_reset, loop_reads, frozenset((RESET,))),
        Action("L11", del_reset, loop_reads, frozenset((RESET,))),
        Action("L12", down, loop_reads, frozenset((COLOR,))),
        Action("L13", to2, loop_reads, frozenset((COLOR,))),
        Action("L14", to4_base, loop_reads | out_names | copy_names,
               copy_names | frozenset((COLOR,))),
        Action("L15", to4_init, loop_reads, frozenset((COLOR, MODE))),
        Action("L16", to0, loop_reads, frozenset((COLOR,))),
    )
    layers = (
        tuple(("A/" + a.label, a.reads) for a in base.actions)
        + tuple(("P/" + a.label, a.reads) for a in init.actions)
        + (
            ("error", init.reads | copy_names | init.writes),
            ("shift", out_names | copy_names | frozenset((binding.domain_var,))),
        )
    )
    return AlgorithmSpec(f"loop({base.name},{init.name})", actions, layers,
                         domain_var=binding.domain_var)


# ---------------------------------------------------------------------------
# configuration-level predicates

def disabled_everywhere(cfg: Configuration, alg: AlgorithmSpec, graph: Graph) -> bool:
    """No action of `alg` is enabled at any process."""
    return all(
        alg.first_enabled(Eval(cfg, v, graph.neighbors_of(v))) is None
        for v in graph.vertices
    )


def error_nowhere(cfg: Configuration, binding: BaseAlgorithmBinding, graph: Graph) -> bool:
    for v in graph.vertices:
        ev = Eval(cfg, v, graph.neighbors_of(v))
        if binding.error(ev):
            return False
    return True


def check_Cgoal(cfg: Configuration, binding: BaseAlgorithmBinding, graph: Graph) -> bool:
    """No error anywhere, outputs equal to their copies, base disabled."""
    if not error_nowhere(cfg, binding, graph):
        return False
    arrays = _array_names(binding)
    if not all(_copies_match(binding, arrays, cfg[v]) for v in graph.vertices):
        return False
    return disabled_everywhere(cfg, binding.base, graph)


def check_Cfin(cfg: Configuration, binding: BaseAlgorithmBinding, graph: Graph) -> bool:
    """Terminal shape: goal condition plus mode A, color 3, reset 0 everywhere."""
    for v in graph.vertices:
        s = cfg[v]
        if s.get(MODE) != MODE_BASE or s.get(COLOR) != 3 or s.get(RESET) != 0:
            return False
    return check_Cgoal(cfg, binding, graph)
