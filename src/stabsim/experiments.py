"""Instrumented experiment drivers: single runs, corruption campaigns, sweeps.

A boundary is where the root starts the next base execution, by the copy
shift or by the initializer's hand-off; it records that execution's start
configuration.  Each process starts an execution from the copies it shifts
in at its own L14, so a shift's start is the post-shift cut (Boundary).
Judged boundaries feed the per-execution verdicts (error-freedom, stamp
soundness, potential accounting) and the isolated round measurements.  The
verdicts (`boundary_checks`, `closure_check`) are computed from scratch, an
independent referee of what the run's caches hold.  `judge` is the one
place that decides whether a run met the paper's claims; the CLI, the
sweeps and the acceptance suite all ask it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional, TextIO

from .configs import (
    ConfigError,
    config_from_json,
    corrupt_config,
    random_config,
    stored_keys,
    zeroed_config,
)
from .graphs import (
    Graph,
    GraphError,
    _is_int,
    cycle_graph,
    diameter,
    grid_graph,
    load_graph,
    path_graph,
    random_connected_graph,
)
from .kgrouping import DOMAIN, check_k, kgrouping_binding
from .loop import (
    HANDOFF,
    SHIFT,
    BaseAlgorithmBinding,
    check_Cfin,
    compose,
    copy_shift,
    disabled_everywhere,
    error_nowhere,
)
from .oracle import (
    GroupingReport,
    ball_violations,
    check_Lk,
    potential,
    stamp_soundness_violations,
)
from .runtime import (
    Configuration,
    DaemonPolicy,
    ExecutionTrace,
    default_max_steps,
    plain_evals,
    run,
)


@dataclass(frozen=True)
class Boundary:
    """Where the next base execution starts: `start` is its first
    configuration.  The root's hand-offs split a run into segments; root
    shift j of one starts from the post-shift cut, copy_shift of every
    process's store at its own j-th L14 there.  The cut is None where some
    process shifted a different number of times in the segment than the
    root.  A hand-off starts from the configuration the root's L15 fires
    in."""

    step: int
    kind: str  # "shift" (next base execution) | "handoff" (initializer done)
    start: Optional[Configuration] = field(repr=False)


@dataclass
class RunResult:
    graph: Graph
    k: int
    binding: BaseAlgorithmBinding = field(repr=False)
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


def run_grouping(
    graph: Graph,
    k: int,
    daemon: DaemonPolicy,
    cfg0: Configuration,
    max_steps: Optional[int] = None,
) -> RunResult:
    """One full composed run plus the oracle verdict on its final state.

    The observer records each process's stores at its L14 steps, anew at
    each root hand-off, and the root's L14 and L15 steps (see Boundary).
    """
    binding = kgrouping_binding(k)
    alg = compose(binding, graph)
    root = min(graph.vertices)
    if max_steps is None:
        max_steps = default_max_steps(graph, diameter(graph))

    segment = {v: [] for v in graph.vertices}  # each process's stores at its L14s
    seen = []  # (step, segment, j) of root shift j; (step, None, pre_cfg) of a hand-off

    def observe(event):
        nonlocal segment
        for v, label in event.fired.items():
            if label == SHIFT:
                segment[v].append(event.pre_cfg[v])
        label = event.fired.get(root)
        if label == SHIFT:
            seen.append((event.index, segment, len(segment[root]) - 1))
        elif label == HANDOFF:
            seen.append((event.index, None, event.pre_cfg))
            segment = {v: [] for v in graph.vertices}

    def cut(stores, j):
        if any(len(s) != len(stores[root]) for s in stores.values()):
            return None
        return copy_shift({v: s[j] for v, s in stores.items()}, binding)

    trace = run(graph, alg, cfg0, daemon, max_steps, observers=(observe,))
    boundaries = [Boundary(i, "handoff", x) if stores is None
                  else Boundary(i, "shift", cut(stores, x)) for i, stores, x in seen]

    report = check_Lk(trace.final, graph, k)
    return RunResult(graph, k, binding, trace, report, boundaries)


@dataclass
class BoundaryCheck:
    step: int
    kind: str
    qualifying: bool  # judged (decided by `boundary_checks` alone)
    shift_error_free: Optional[bool] = None
    stamp_violations: list[str] = field(default_factory=list)
    potential: Optional[tuple[int, int, int, int]] = None  # judged shifts only


def boundary_checks(result: RunResult) -> list[BoundaryCheck]:
    """Per-boundary verdicts, and the one place that decides which
    boundaries are judged: a shift whose cut is defined, and a hand-off
    where the initializer is disabled everywhere at its start.  A judged
    boundary gets error-freedom across the shift, stamp soundness and, at
    shifts, the merge-progress potential.  Each start is evaluated from
    scratch on one set of plain Evals, so at a hand-off the error
    predicate's asks of the initializer hit what judging it evaluated."""
    out = []
    for b in result.boundaries:
        check = BoundaryCheck(b.step, b.kind, False)
        if b.start is not None:
            evals = plain_evals(b.start, result.graph)
            check.qualifying = (b.kind == "shift"
                                or disabled_everywhere(evals, result.binding.init))
        if check.qualifying:
            check.shift_error_free = error_nowhere(evals, result.binding)
            check.stamp_violations = stamp_soundness_violations(
                b.start, result.graph, result.k
            )
            if b.kind == "shift":
                check.potential = potential(b.start, result.graph, result.k)
        out.append(check)
    return out


SEGMENT_MAX_STEPS = 200_000  # per isolated merge execution


def merge_segment_rounds(result: RunResult,
                         checks: tuple[BoundaryCheck, ...]) -> list[int]:
    """Rounds of each base execution, replayed in isolation.

    Every boundary whose check in `checks` (`boundary_checks(result)`, as
    `judge` returns them) is qualifying starts a maximal pure merge
    execution; re-running it standalone from the boundary's start with the
    run's own merge table under the synchronous daemon measures that
    execution's round count directly.
    """
    sync = DaemonPolicy(kind="synchronous")
    out = []
    for b, check in zip(result.boundaries, checks, strict=True):
        if not check.qualifying:
            continue
        trace = run(result.graph, result.binding.base, b.start, sync, SEGMENT_MAX_STEPS)
        if not trace.terminated:
            raise RuntimeError("isolated merge execution did not terminate")
        out.append(trace.num_rounds)
    return out


def closure_check(result: RunResult) -> bool:
    """Nothing is enabled in the final configuration, of shape C_fin.  Both
    checks ask one set of plain Evals, so each process evaluates the error
    predicate and the merge table once."""
    evals = plain_evals(result.trace.final, result.graph)
    return (
        result.trace.terminated
        and disabled_everywhere(evals, result.trace.algorithm)
        and check_Cfin(evals, result.binding)
    )


def potential_sequences(checks: tuple[BoundaryCheck, ...]) -> list[list[int]]:
    """The potential (2g + p + b) at successive judged shift boundaries,
    one sequence per initializer hand-off: re-initialization resets the
    accounting."""
    sequences: list[list[int]] = [[]]
    for c in checks:
        if c.kind == "handoff":
            sequences.append([])
        elif c.qualifying:
            sequences[-1].append(c.potential[3])
    return [seq for seq in sequences if seq]


@dataclass(frozen=True)
class Judgement:
    """The per-run verdict: `failures` holds (criterion, message) pairs and
    is empty when the run passed; `checks` are the boundary checks it was
    judged from."""

    failures: tuple[tuple[str, str], ...]
    checks: tuple[BoundaryCheck, ...]


def judge(result: RunResult) -> Judgement:
    """Every per-run claim of the paper, checked on one run.

    Criteria: "1" silent convergence to a minimal diameter-k grouping; "1+"
    each final domain is the process's (k+1)-ball (`oracle.ball_violations`,
    so no false identifier survived) and a process stores at most
    1 + len(binding.arrays) keys per domain entry (the domain plus one key
    per declared array: 21 for the grouping payload); "2" at most 2n/k+1
    groups; "5" the error predicate false at every post-shift cut and at
    every hand-off where the initializer is disabled everywhere; "6" sound
    stamps there; "potential" non-increasing at successive post-shift cuts
    and strictly lower after two; "8" the final configuration is terminal
    and no action is enabled in it.
    """
    graph, k, final = result.graph, result.k, result.trace.final
    checks = tuple(boundary_checks(result))
    failures = []
    if not result.trace.terminated:
        failures.append(("1", f"run ended with {result.verdict}"))
    elif not result.report.verdict:
        failures.append(("1", f"check_Lk: {result.report.violations[:2]}"))
    failures += [("1+", message) for message in ball_violations(final, graph, k)]
    bound = 1 + len(result.binding.arrays)
    keys = stored_keys(final)
    for v in sorted(graph.vertices):
        size = len(final[v][DOMAIN])
        if keys[v] > bound * size:
            failures.append(("1+", f"process {v} stores {keys[v]} keys > {bound}*{size}"))
    if result.report.group_count > 2 * graph.n / k + 1:
        failures.append(("2", f"{result.report.group_count} groups > 2n/k+1"))
    for c in checks:
        if not c.qualifying:
            continue
        if not c.shift_error_free:
            failures.append(("5", f"error predicate true after the {c.kind} "
                             f"at step {c.step}"))
        if c.stamp_violations:
            failures.append(("6", f"unsound stamps at step {c.step}: "
                             f"{c.stamp_violations[:2]}"))
    for seq in potential_sequences(checks):
        if any(b > a for a, b in zip(seq, seq[1:])):
            failures.append(("potential", f"increased: {seq}"))
        if any(b >= a for a, b in zip(seq, seq[2:])):
            failures.append(("potential", f"no strict decrease over two "
                             f"iterations: {seq}"))
    if not closure_check(result):
        failures.append(("8", "final configuration is not silent and terminal"))
    return Judgement(tuple(failures), checks)


# ---------------------------------------------------------------------------
# descriptors

FAMILIES = {
    "path": lambda n, seed: path_graph(n),
    "cycle": lambda n, seed: cycle_graph(n),
    "grid": lambda n, seed: _grid_near(n),
    "random-gnp": lambda n, seed: random_connected_graph(n, 0.2, seed),
}


def _grid_near(n: int) -> Graph:
    if n < 2:
        raise GraphError("need at least two processes")
    rows = max(2, int(n**0.5))
    cols = max(2, (n + rows - 1) // rows)
    return grid_graph(rows, cols)


class DescriptorError(ValueError):
    pass


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

    def initial_configuration(self) -> Configuration:
        try:
            if self.init_mode == "zeroed":
                return zeroed_config(self.graph, self.k)
            if self.init_mode == "random":
                return random_config(self.graph, self.k, self.init_seed, self.n_false)
            if self.init_mode == "adversarial-file":
                with open(self.init_path, "r", encoding="utf-8") as f:
                    payload = json.load(f)
                return config_from_json(payload, self.graph, self.k)
        except (OSError, ConfigError, json.JSONDecodeError) as exc:
            raise DescriptorError(f"bad initial configuration: {exc}") from exc
        raise DescriptorError(f"unknown init mode {self.init_mode!r}")


def load_descriptor(path: str) -> RunDescriptor:
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise DescriptorError(f"cannot read descriptor {path}: {exc}") from exc
    return parse_descriptor(payload)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _field(obj: dict, key: str, default, ok, what: str):
    """obj[key], or `default` when absent; it must pass `ok`."""
    value = obj.get(key, default)
    if not ok(value):
        raise DescriptorError(f"{key!r} must be {what}, got {value!r}")
    return value


def parse_descriptor(payload: dict) -> RunDescriptor:
    if not _is_object(payload):
        raise DescriptorError("a run descriptor must be a JSON object")
    algorithm = payload.get("algorithm", "kgrouping")
    if algorithm != "kgrouping":
        raise DescriptorError(f"unknown algorithm {algorithm!r}")
    d = _field(payload, "daemon", {}, _is_object, "an object")
    init = _field(payload, "init", {"mode": "zeroed"}, _is_object, "an object")
    try:
        graph = load_graph(
            _field(payload, "graph", None, lambda x: isinstance(x, str), "a file path"))
        k = check_k(payload["k"])
        daemon = DaemonPolicy(
            kind=d.get("kind", "random"),
            p=_field(d, "p", 0.5, _is_number, "a number"),
            seed=_field(d, "seed", 0, _is_int, "an integer"),
            fairness_aging=_field(d, "fairness_aging", True,
                                  lambda x: isinstance(x, bool), "true or false"),
        )
        daemon.validate()
        desc = RunDescriptor(
            graph=graph,
            k=k,
            daemon=daemon,
            max_steps=_field(payload, "max_steps", None,
                             lambda x: x is None or (_is_int(x) and x > 0),
                             "a positive integer"),
            init_mode=_field(init, "mode", "zeroed",
                             lambda x: x in ("zeroed", "random", "adversarial-file"),
                             "zeroed, random or adversarial-file"),
            init_seed=_field(init, "seed", 0, _is_int, "an integer"),
            n_false=_field(init, "n_false", 3, lambda x: _is_int(x) and x >= 0,
                           "an integer >= 0"),
            init_path=_field(init, "path", None,
                             lambda x: x is None or isinstance(x, str), "a file path"),
        )
    except (DescriptorError, GraphError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor: {exc}") from exc
    if desc.init_mode == "adversarial-file" and not desc.init_path:
        raise DescriptorError("adversarial-file init needs a path")
    return desc


def run_descriptor(desc: RunDescriptor) -> RunResult:
    return run_grouping(desc.graph, desc.k, desc.daemon, desc.initial_configuration(),
                        desc.max_steps)


def run_with_corruption(
    desc: RunDescriptor,
    variables: tuple[str, ...],
    count: int,
    seed: int,
    at_step: int,
) -> RunResult:
    """Run to `at_step`, corrupt, then continue to silence and re-verify.

    Both parts are run_grouping runs, the second on the next daemon seed.
    With zero corruptions this is exactly the plain run, though unknown
    variable names are still refused; at step 0 the corruption hits the
    initial configuration itself.
    """
    cfg, daemon = desc.initial_configuration(), desc.daemon
    if count > 0 and at_step > 0:
        cfg = run_grouping(desc.graph, desc.k, daemon, cfg, at_step).trace.final
    cfg = corrupt_config(cfg, desc.graph, desc.k, variables, count, seed, desc.n_false)
    if count > 0:
        daemon = replace(daemon, seed=daemon.seed + 1)
    return run_grouping(desc.graph, desc.k, daemon, cfg, desc.max_steps)


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
    """The run's summary line: its counts, groups and the sha256 of its steps."""
    groups = {str(g): sorted(m) for g, m in sorted(result.report.groups.items())}
    step_digest = hashlib.sha256()
    for rec in result.trace.steps:
        fired = sorted(rec.fired.items())  # by process: selected is its keys
        step_digest.update(repr((tuple([v for v, _ in fired]), fired)).encode())
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
                result = run_grouping(graph, k, daemon, cfg0, max_steps)
                rows.append({
                    "family": family,
                    "n": graph.n,
                    "D": diameter(graph),
                    "k": k,
                    "seed": seed,
                    "rounds": result.rounds,
                    "iterations": result.iterations,
                    "groups": result.report.group_count,
                    "verdict": ("budget" if not result.trace.terminated
                                else "FAIL" if judge(result).failures else "ok"),
                })
    return rows


def write_sweep_csv(rows: list[dict], stream: TextIO) -> None:
    writer = csv.DictWriter(stream, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


FIT_HEADROOM = 2.0  # how far past the fitted constant a held-out instance may go


def fit_and_validate(samples: list[tuple[float, float, float]]):
    """Fit c = max(measure/bound) on the smaller half of the instances
    (by size key), then check measure <= FIT_HEADROOM * c * bound on the rest.

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
    return c, worst <= FIT_HEADROOM, worst
