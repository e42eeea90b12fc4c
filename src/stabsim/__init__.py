"""Simulator for silent self-stabilizing algorithms in the locally shared
memory model, with a loop-composition combinator and a diameter-bounded
minimal grouping payload, plus brute-force verdict oracles."""

from .graphs import (
    Graph,
    GraphError,
    INF,
    cycle_graph,
    dist,
    grid_graph,
    induced_diameter,
    k_neighborhood,
    load_graph,
    make_graph,
    path_graph,
    random_connected_graph,
)
from .runtime import (
    BOT,
    Action,
    AlgorithmSpec,
    DaemonContractError,
    DaemonPolicy,
    ExecutionTrace,
    enabled_actions,
    rounds,
    run,
    step,
)
from .bfs import bfs_actions
from .loop import (
    BaseAlgorithmBinding,
    CompositionError,
    check_Cfin,
    check_Cgoal,
    compose,
    copy_shift,
)
from .kgrouping import (
    eval_E,
    init_actions,
    kgrouping_binding,
    merge_actions,
)
from .oracle import (
    GroupingReport,
    check_Lk,
    exhaustive_min_groups,
    mergeable,
    near,
    potential,
)
from .experiments import (
    RunDescriptor,
    RunResult,
    judge,
    run_descriptor,
    run_grouping,
)

__all__ = [name for name in dir() if not name.startswith("_")]
