"""Instrumented experiment drivers: single runs, corruption campaigns, sweeps.

A run boundary is recorded whenever the tree root leaves color 3: toward the
next base execution (shift wave) or out of initializer mode.  Boundary
snapshots feed the per-iteration verdicts (error-freedom after the shift,
stamp soundness, potential accounting) and the per-execution round
measurements.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .configs import (
    ConfigError,
    config_from_json,
    corrupt_config,
    random_config,
    zeroed_config,
)
from .graphs import (
    Graph,
    cycle_graph,
    diameter,
    grid_graph,
    load_graph,
    path_graph,
    random_connected_graph,
)
from .kgrouping import check_k, kgrouping_binding, merge_actions
from .loop import (
    BaseAlgorithmBinding,
    check_Cfin,
    compose,
    copy_shift,
    disabled_everywhere,
    error_nowhere,
)
from .oracle import GroupingReport, check_Lk, potential, stamp_soundness_violations
from .runtime import (
    AlgorithmSpec,
    Configuration,
    DaemonPolicy,
    ExecutionTrace,
    default_max_steps,
    run,
)


@dataclass
class Boundary:
    step: int
    kind: str  # "shift" (next base execution) | "handoff" (initializer done)
    cfg: Configuration = field(repr=False)
    error_free: bool = False
    module_quiet: bool = False

    @property
    def qualifying(self) -> bool:
        # The per-iteration lemma checks only apply to boundaries of complete
        # executions started error-free; early boundaries fired out of a
        # corrupted initial coloring are repaired, not checked.
        return self.error_free and self.module_quiet


@dataclass
class RunResult:
    graph: Graph
    k: int
    binding: BaseAlgorithmBinding = field(repr=False)
    algorithm: AlgorithmSpec = field(repr=False)
    trace: ExecutionTrace = field(repr=False)
    report: GroupingReport
    boundaries: list[Boundary] = field(repr=False)

    @property
    def verdict(self) -> str:
        return self.trace.verdict

    @property
    def rounds(self) -> int:
        return self.trace.num_rounds

    @property
    def steps(self) -> int:
        return self.trace.num_steps

    @property
    def iterations(self) -> int:
        return sum(1 for b in self.boundaries if b.kind == "shift")

    @property
    def ok(self) -> bool:
        return self.trace.terminated and self.report.verdict


def run_grouping(
    graph: Graph,
    k: int,
    daemon: DaemonPolicy,
    cfg0: Configuration,
    max_steps: Optional[int] = None,
    record_steps: bool = True,
) -> RunResult:
    """One full composed run plus the oracle verdict on its final state."""
    check_k(k)
    binding = kgrouping_binding(k)
    alg = compose(binding, graph)
    root = min(graph.vertices)
    if max_steps is None:
        max_steps = default_max_steps(graph, diameter(graph))

    boundaries: list[Boundary] = []

    def observe(event):
        fired = event.fired.get(root)
        if fired == "L14":
            boundaries.append(Boundary(event.index, "shift", event.pre_cfg))
        elif fired == "L15":
            boundaries.append(Boundary(event.index, "handoff", event.pre_cfg))

    trace = run(
        graph, alg, cfg0, daemon, max_steps,
        observers=(observe,), record_steps=record_steps,
    )
    for b in boundaries:
        b.error_free = error_nowhere(b.cfg, binding, graph)
        module = binding.base if b.kind == "shift" else binding.init
        b.module_quiet = disabled_everywhere(b.cfg, module, graph)

    report = check_Lk(trace.final, graph, k)
    return RunResult(graph, k, binding, alg, trace, report, boundaries)


@dataclass
class BoundaryCheck:
    step: int
    kind: str
    qualifying: bool
    shift_error_free: Optional[bool] = None
    stamp_violations: list[str] = field(default_factory=list)
    potential: Optional[tuple[int, int, int, int]] = None


def boundary_checks(result: RunResult) -> list[BoundaryCheck]:
    """Per-boundary verdicts: error-freedom across the shift, stamp
    soundness, and the merge-progress potential, on qualifying boundaries."""
    out = []
    for b in result.boundaries:
        check = BoundaryCheck(b.step, b.kind, b.qualifying)
        if b.qualifying:
            if b.kind == "shift":
                shifted = copy_shift(b.cfg, result.binding)
            else:
                shifted = b.cfg  # initializer hand-off copies nothing
            check.shift_error_free = error_nowhere(shifted, result.binding, result.graph)
            check.stamp_violations = stamp_soundness_violations(
                shifted, result.graph, result.k
            )
            check.potential = potential(shifted, result.graph, result.k)
        out.append(check)
    return out


def merge_segment_rounds(result: RunResult, max_steps: int = 200_000) -> list[int]:
    """Rounds of each base execution, replayed in isolation.

    Every qualifying boundary configuration (shifted when appropriate) is the
    start of a maximal pure merge execution; re-running it standalone under
    the synchronous daemon measures that execution's round count directly.
    """
    merge = merge_actions(result.k)
    sync = DaemonPolicy(kind="synchronous")
    out = []
    for b in result.boundaries:
        if not b.qualifying:
            continue
        start = copy_shift(b.cfg, result.binding) if b.kind == "shift" else b.cfg
        trace = run(result.graph, merge, start, sync, max_steps, record_steps=False)
        if not trace.terminated:
            raise RuntimeError("isolated merge execution did not terminate")
        out.append(trace.num_rounds)
    return out


def closure_check(result: RunResult) -> bool:
    """Re-running from the final configuration must do nothing at all."""
    if not result.trace.terminated:
        return False
    again = run(
        result.graph, result.algorithm, result.trace.final,
        DaemonPolicy(kind="synchronous"), max_steps=10, record_steps=False,
    )
    return (
        again.terminated
        and again.num_steps == 0
        and check_Cfin(result.trace.final, result.binding, result.graph)
    )


# ---------------------------------------------------------------------------
# descriptors

FAMILIES = {
    "path": lambda n, seed: path_graph(n),
    "cycle": lambda n, seed: cycle_graph(n),
    "grid": lambda n, seed: _grid_near(n),
    "random-gnp": lambda n, seed: random_connected_graph(n, 0.2, seed),
}


def _grid_near(n: int) -> Graph:
    rows = max(2, int(n**0.5))
    cols = max(2, (n + rows - 1) // rows)
    return grid_graph(rows, cols)


class DescriptorError(ValueError):
    pass


ALGORITHMS = ("kgrouping",)


@dataclass
class RunDescriptor:
    graph: Graph
    k: int
    daemon: DaemonPolicy
    max_steps: Optional[int]
    init_mode: str  # "zeroed" | "random" | "adversarial-file"
    init_seed: int = 0
    n_false: int = 3
    init_path: Optional[str] = None
    algorithm: str = "kgrouping"

    def initial_configuration(self) -> Configuration:
        if self.init_mode == "zeroed":
            return zeroed_config(self.graph, self.k)
        if self.init_mode == "random":
            return random_config(self.graph, self.k, self.init_seed, self.n_false)
        if self.init_mode == "adversarial-file":
            with open(self.init_path, "r", encoding="utf-8") as f:
                payload = json.load(f)
            return config_from_json(payload, self.graph, self.k)
        raise DescriptorError(f"unknown init mode {self.init_mode!r}")


def load_descriptor(path: str) -> RunDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc}") from exc
    return parse_descriptor(payload)


def parse_descriptor(payload: dict) -> RunDescriptor:
    try:
        graph = load_graph(payload["graph"])
        k = check_k(payload["k"])
        d = payload.get("daemon", {})
        daemon = DaemonPolicy(
            kind=d.get("kind", "random"),
            p=d.get("p", 0.5),
            seed=d.get("seed", 0),
            fairness_aging=d.get("fairness_aging", True),
        )
        daemon.validate()
        init = payload.get("init", {"mode": "zeroed"})
        mode = init.get("mode", "zeroed")
        desc = RunDescriptor(
            graph=graph,
            k=k,
            daemon=daemon,
            max_steps=payload.get("max_steps"),
            init_mode=mode,
            init_seed=init.get("seed", 0),
            n_false=init.get("n_false", 3),
            init_path=init.get("path"),
            algorithm=payload.get("algorithm", "kgrouping"),
        )
    except DescriptorError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor: {exc}") from exc
    if desc.algorithm not in ALGORITHMS:
        raise DescriptorError(f"unknown algorithm {desc.algorithm!r}")
    if desc.init_mode not in ("zeroed", "random", "adversarial-file"):
        raise DescriptorError(f"unknown init mode {desc.init_mode!r}")
    if desc.init_mode == "adversarial-file" and not desc.init_path:
        raise DescriptorError("adversarial-file init needs a path")
    return desc


def run_descriptor(desc: RunDescriptor) -> RunResult:
    try:
        cfg0 = desc.initial_configuration()
    except (OSError, ConfigError, json.JSONDecodeError) as exc:
        raise DescriptorError(f"bad initial configuration: {exc}") from exc
    return run_grouping(desc.graph, desc.k, desc.daemon, cfg0, desc.max_steps)


def run_with_corruption(
    desc: RunDescriptor,
    variables: tuple[str, ...],
    count: int,
    seed: int,
    at_step: int,
) -> RunResult:
    """Run to `at_step`, corrupt, then continue to silence and re-verify.

    With zero corruptions this is exactly the plain run.
    """
    if count <= 0:
        return run_descriptor(desc)
    cfg0 = desc.initial_configuration()
    binding = kgrouping_binding(desc.k)
    alg = compose(binding, desc.graph)
    budget = desc.max_steps or default_max_steps(desc.graph, diameter(desc.graph))
    prefix = run(
        desc.graph, alg, cfg0, desc.daemon, max_steps=max(1, at_step),
        record_steps=False,
    )
    resume = corrupt_config(
        prefix.final, desc.graph, desc.k, variables, count, seed, desc.n_false
    )
    daemon2 = DaemonPolicy(
        kind=desc.daemon.kind, p=desc.daemon.p, seed=desc.daemon.seed + 1,
        fairness_aging=desc.daemon.fairness_aging,
    )
    return run_grouping(desc.graph, desc.k, daemon2, resume, budget)


# ---------------------------------------------------------------------------
# artifacts

def trace_jsonl(result: RunResult) -> str:
    lines = []
    bounds = set(result.trace.round_boundaries)
    for i, rec in enumerate(result.trace.steps):
        record = {
            "step": i,
            "selected": list(rec.selected),
            "fired": {str(v): lbl for v, lbl in sorted(rec.fired.items())},
        }
        if i + 1 in bounds:
            record["round_end"] = True
        lines.append(json.dumps(record, sort_keys=True))
    lines.append(json.dumps(summary_record(result), sort_keys=True))
    return "\n".join(lines) + "\n"


def summary_record(result: RunResult) -> dict:
    groups = {str(g): sorted(m) for g, m in sorted(result.report.groups.items())}
    step_digest = hashlib.sha256()
    for rec in result.trace.steps:
        step_digest.update(repr((rec.selected, sorted(rec.fired.items()))).encode())
    return {
        "summary": True,
        "verdict": result.verdict,
        "grouping_ok": result.report.verdict,
        "steps": result.steps,
        "rounds": result.rounds,
        "iterations": result.iterations,
        "group_count": result.report.group_count,
        "groups": groups,
        "trace_sha256": step_digest.hexdigest(),
    }


def summary_bytes(result: RunResult) -> bytes:
    return json.dumps(summary_record(result), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# sweeps and scaling fits

SWEEP_COLUMNS = ("family", "n", "D", "k", "seed", "rounds", "iterations",
                 "groups", "verdict")


def sweep_rows(family: str, ns, ks, seeds, max_steps=None) -> list[dict]:
    if family not in FAMILIES:
        raise DescriptorError(f"unknown family {family!r}")
    rows = []
    for n in ns:
        graph = None
        for k in ks:
            for seed in seeds:
                if graph is None or family == "random-gnp":
                    graph = FAMILIES[family](n, seed)
                daemon = DaemonPolicy(kind="random", p=0.5, seed=seed)
                cfg0 = random_config(graph, k, seed=seed * 7919 + 13)
                result = run_grouping(
                    graph, k, daemon, cfg0, max_steps, record_steps=False
                )
                rows.append({
                    "family": family,
                    "n": graph.n,
                    "D": diameter(graph),
                    "k": k,
                    "seed": seed,
                    "rounds": result.rounds,
                    "iterations": result.iterations,
                    "groups": result.report.group_count,
                    "verdict": "ok" if result.ok else "FAIL",
                })
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def fit_and_validate(samples: list[tuple[float, float, float]], headroom: float = 2.0):
    """Fit c = max(measure/bound) on the smaller half of the instances
    (by size key), then check measure <= headroom * c * bound on the rest.

    Returns (c, ok, worst_ratio_on_validation).
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to fit and validate")
    ordered = sorted(samples, key=lambda s: s[0])
    half = len(ordered) // 2
    fit, hold = ordered[:half], ordered[half:]
    c = max(m / b for _, b, m in fit)
    if c == 0:
        c = 1.0
    worst = max(m / (c * b) for _, b, m in hold)
    return c, worst <= headroom, worst
