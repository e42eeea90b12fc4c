"""Benchmark workloads and the verified run every workload is made of.

A workload is a fixed list of networks (family, size, k, density, graph
seed).  The benchmark seed draws one random start configuration and one
daemon schedule per network; that block of instances is the gate, whose
summaries are folded into the workload digest.  Keeping the networks fixed
is deliberate: with a fresh graph per seed, the work in a campaign block
varied by about 10% between seeds, with fixed graphs by about 1%.

Everything here goes through the public stabsim API; the traced run wraps
the names imported below from the benchmark's side.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from stabsim.configs import false_ids, random_config, stored_keys
from stabsim.experiments import (
    boundary_checks,
    closure_check,
    run_grouping,
    summary_bytes,
)
from stabsim.graphs import (
    cycle_graph,
    diameter,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from stabsim.kgrouping import DOMAIN, kgrouping_binding
from stabsim.loop import compose
from stabsim.runtime import DaemonPolicy

N_FALSE = 3  # false identifiers mixed into every random start, as in batch300
DAEMON_P = 0.5

# Latin-hypercube strata of the acceptance batch300 generator (n uniform on
# 4..30, k on 1..6, gnp density on 0.08..0.48).  Each of twelve equal n-bins
# and density-bins is used once and each k twice, so the run-time mix does
# not depend on the seed.
CAMPAIGN = tuple(
    ("gnp", n, k, p, graph_seed) for graph_seed, (n, k, p) in enumerate((
        (5, 3, 0.33), (7, 6, 0.16), (9, 1, 0.43), (11, 4, 0.23),
        (14, 2, 0.10), (16, 5, 0.46), (18, 6, 0.36), (20, 2, 0.26),
        (23, 3, 0.13), (25, 1, 0.40), (27, 4, 0.20), (29, 5, 0.30),
    ), start=1)
)

WORKLOADS = {
    "campaign": CAMPAIGN,
    # Merge-heavy: long merge phases, share rows dominate the payload.
    "grid-merge": (("grid", 64, 3, 0.0, 0), ("gnp", 30, 3, 0.2, 1)),
    # Deep trees of degree <= 2: initializer, BFS and wave glue dominate.
    # Three random starts each: how long false root ids survive on a path
    # varies the work of one start by up to 2x.
    "path-init": (("path", 96, 4, 0.0, 0), ("cycle", 48, 4, 0.0, 0)) * 3,
    # Tiny campaign for the benchmark's self-test; not a measured workload.
    "smoke": (("gnp", 4, 1, 0.3, 1), ("gnp", 5, 2, 0.4, 2), ("gnp", 6, 1, 0.2, 3),
              ("gnp", 7, 2, 0.3, 4)),
}


@dataclass(frozen=True)
class Instance:
    family: str  # "gnp" | "grid" (n = side^2) | "path" | "cycle"
    n: int
    k: int
    density: float
    graph_seed: int
    config_seed: int
    daemon_seed: int


def block(workload: str, seed: int) -> list[Instance]:
    # A str seed goes through sha512, so blocks do not depend on PYTHONHASHSEED.
    rng = random.Random(f"{workload}/{seed}")
    return [
        Instance(family, n, k, p, graph_seed, rng.randrange(2**31), rng.randrange(2**31))
        for family, n, k, p, graph_seed in WORKLOADS[workload]
    ]


def build_graph(inst: Instance):
    if inst.family == "gnp":
        return random_connected_graph(inst.n, inst.density, inst.graph_seed)
    if inst.family == "grid":
        side = math.isqrt(inst.n)
        return grid_graph(side, side)
    if inst.family == "path":
        return path_graph(inst.n)
    if inst.family == "cycle":
        return cycle_graph(inst.n)
    raise ValueError(f"unknown family {inst.family!r}")


def prepare(instances: list[Instance]) -> None:
    """Everything a run does before its first step: instance generation,
    the start configuration, the binding, `compose` and the step budget."""
    for inst in instances:
        graph = build_graph(inst)
        random_config(graph, inst.k, seed=inst.config_seed, n_false=N_FALSE)
        compose(kgrouping_binding(inst.k), graph)
        diameter(graph)


@dataclass
class Outcome:
    instance: Instance
    wall_s: float  # generation + run + verdicts + summary
    sim_s: float  # run_grouping alone
    steps: int
    rounds: int
    iterations: int
    group_count: int
    fires: Counter
    summary: bytes = field(repr=False)
    failures: list[str]


def verified_run(inst: Instance) -> Outcome:
    """One fully verified run: generate, run to silence, judge, summarize."""
    t0 = time.perf_counter()
    graph = build_graph(inst)
    cfg0 = random_config(graph, inst.k, seed=inst.config_seed, n_false=N_FALSE)
    daemon = DaemonPolicy(kind="random", p=DAEMON_P, seed=inst.daemon_seed)
    t1 = time.perf_counter()
    result = run_grouping(graph, inst.k, daemon, cfg0)
    t2 = time.perf_counter()
    failures = verdict_failures(result, boundary_checks(result), closure_check(result))
    summary = summary_bytes(result)
    t3 = time.perf_counter()
    fires = Counter(lbl for rec in result.trace.steps for lbl in rec.fired.values())
    return Outcome(inst, t3 - t0, t2 - t1, result.steps, result.rounds,
                   result.iterations, result.report.group_count, fires,
                   summary, failures)


def verdict_failures(result, checks, closure_ok: bool) -> list[str]:
    """The acceptance suite's per-run verdicts, applied to one run."""
    g, k, final = result.graph, result.k, result.trace.final
    out = []
    if not result.trace.terminated:
        out.append(f"run ended with {result.verdict}")
    elif not result.report.verdict:
        out.append(f"check_Lk: {result.report.violations[:2]}")
    if result.report.group_count > 2 * g.n / k + 1:
        out.append(f"{result.report.group_count} groups > 2n/k+1")
    bound = 21 * (g.n + N_FALSE)
    if any(count > bound for count in stored_keys(final).values()):
        out.append(f"a process stores more than {bound} keys")
    fakes = set(false_ids(g, N_FALSE))
    if any(final[v][DOMAIN] & fakes for v in g.vertices):
        out.append("a false identifier survived")
    potentials: list[int] = []
    for c in checks:
        if c.kind == "handoff":
            potentials = []  # re-initialization resets the accounting
        if not c.qualifying:
            continue
        if not c.shift_error_free:
            out.append(f"error predicate true after the {c.kind} at step {c.step}")
        if c.stamp_violations:
            out.append(f"unsound stamps at step {c.step}: {c.stamp_violations[:2]}")
        if c.kind == "shift" and c.potential is not None:
            potentials.append(c.potential[3])
            if len(potentials) >= 2 and potentials[-1] > potentials[-2]:
                out.append(f"potential increased at step {c.step}")
            if len(potentials) >= 3 and potentials[-1] >= potentials[-3]:
                out.append(f"potential flat over two iterations at step {c.step}")
    if not closure_ok:
        out.append("final configuration is not silent and terminal")
    return out


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.summary)
    return h.hexdigest()
