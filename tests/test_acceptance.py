"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy batches (the 300 randomized runs, the path/cycle sweep, the
exhaustive small-graph enumeration) are module-scoped fixtures shared by the
criteria that consume them.  Each fixture keeps of a run only what its
criteria read, never the run itself.  Every per-run verdict comes from
`experiments.judge`; a criterion asserts over the failures carrying its tag
and counts from the judgement's boundary checks that it is not vacuous.
"""

from __future__ import annotations

import random
import statistics
from typing import NamedTuple

import pytest

from stabsim.configs import random_config, zeroed_config
from stabsim.experiments import (
    fit_and_validate,
    judge,
    merge_segment_rounds,
    potential_sequences,
    run_grouping,
    run_with_corruption,
    summary_bytes,
    RunDescriptor,
)
from stabsim.graphs import (
    Graph,
    cycle_graph,
    diameter,
    make_graph,
    path_graph,
    random_connected_graph,
)
from stabsim.oracle import exhaustive_min_groups
from stabsim.runtime import DaemonPolicy

N_RANDOM_RUNS = 300
N_FALSE = 3
N_INJECTIONS = 100


def _random_instance(index: int):
    rng = random.Random(1_000_003 * index + 17)
    n = rng.randrange(4, 31)
    k = rng.randrange(1, 7)
    g = random_connected_graph(n, 0.08 + 0.4 * rng.random(), index)
    return g, k, rng.randrange(2**31)


class SweepRun(NamedTuple):
    n: int
    d: int
    k: int
    failures: tuple
    rounds: int
    iterations: int
    segment_rounds: list[int]  # empty outside criterion 4's subset


class AtlasRun(NamedTuple):
    index: int
    k: int
    graph: Graph
    failures: tuple
    group_count: int


def _failed(judgements, criterion):
    """(index, message) of every failure tagged `criterion`."""
    return [(i, message) for i, j in enumerate(judgements)
            for tag, message in j.failures if tag == criterion]


@pytest.fixture(scope="module")
def batch300():
    """The judgements of 300 randomized runs."""
    judgements = []
    for i in range(N_RANDOM_RUNS):
        g, k, seed = _random_instance(i)
        cfg0 = random_config(g, k, seed=seed, n_false=N_FALSE)
        daemon = DaemonPolicy(kind="random", p=0.5, seed=seed ^ 0x5A5A)
        judgements.append(judge(run_grouping(g, k, daemon, cfg0)))
    return judgements


@pytest.fixture(scope="module")
def sweep_results():
    out = []
    for build in (path_graph, cycle_graph):
        for n in range(6, 49, 6):
            g = build(n)
            d = diameter(g)
            for k in (2, 4):
                for seed in range(5):
                    cfg0 = random_config(g, k, seed=seed * 31 + n)
                    daemon = DaemonPolicy(kind="random", p=0.5, seed=seed)
                    res = run_grouping(g, k, daemon, cfg0)
                    # criterion 4 replays the merge executions of a subset
                    segments = merge_segment_rounds(res) if n <= 24 and seed <= 1 else []
                    out.append(SweepRun(n, d, k, judge(res).failures, res.rounds,
                                        res.iterations, segments))
    return out


@pytest.fixture(scope="module")
def atlas_runs():
    nx = pytest.importorskip("networkx")
    runs = []
    for i, ag in enumerate(nx.graph_atlas_g()):
        n = ag.number_of_nodes()
        if not (2 <= n <= 7) or not nx.is_connected(ag):
            continue
        g = make_graph(
            [v + 1 for v in ag.nodes], [(u + 1, v + 1) for u, v in ag.edges]
        )
        for k in (1, 2):
            res = run_grouping(
                g, k, DaemonPolicy(kind="random", p=0.5, seed=i), zeroed_config(g, k)
            )
            runs.append(AtlasRun(i, k, g, judge(res).failures, res.report.group_count))
    return runs


def test_criterion_1_self_stabilization(batch300):
    failures = _failed(batch300, "1")
    assert not failures, failures[:10]
    print(f"\n[criterion 1] PASS: {len(batch300)} randomized runs all "
          f"terminated with a valid minimal grouping")


def test_criterion_1_memory_and_false_ids(batch300):
    failures = _failed(batch300, "1+")
    assert not failures, failures[:10]
    print(f"\n[criterion 1+] PASS: every final domain is the process's "
          f"(k+1)-ball, so no false identifier survived; stored keys within "
          f"21*|domain| at every process of {len(batch300)} runs")


def test_criterion_2_group_count_bounds(batch300, sweep_results, atlas_runs):
    failures = _failed(batch300, "2")
    assert not failures, failures[:10]
    failures = _failed(sweep_results, "2")
    assert not failures, failures[:10]
    ratios = []
    for i, k, g, failures, group_count in atlas_runs:
        assert not failures, f"atlas graph {i} k={k}: {failures[:2]}"
        best = exhaustive_min_groups(g, k)
        assert group_count >= best, f"atlas {i} k={k}"
        ratios.append(group_count / best)
    print(f"\n[criterion 2] PASS: group count <= 2n/k+1 on every run; "
          f"{len(ratios)} exhaustive small-graph comparisons (n <= 7, k in 1..2), "
          f"group_count/optimum highest {max(ratios):.2f}, "
          f"mean {statistics.mean(ratios):.3f}")


def test_criterion_3_round_scaling(sweep_results):
    samples = [(r.n, r.n * r.d / r.k + r.n, r.rounds) for r in sweep_results]
    c, ok, worst = fit_and_validate(samples)
    assert ok, f"validation ratio {worst:.2f} with c={c:.2f}"
    print(f"\n[criterion 3] PASS: rounds <= c*(nD/k + n) with c={c:.2f} "
          f"fitted on the small half; worst validation ratio {worst:.2f} <= 2")


def test_criterion_4_iteration_bounds(sweep_results):
    samples = [(r.n, r.n / r.k, r.iterations) for r in sweep_results]
    c1, ok, worst = fit_and_validate(samples)
    assert ok, f"iteration validation ratio {worst:.2f} (c'={c1:.2f})"

    segment_samples = [(r.n, r.k, rounds) for r in sweep_results
                       for rounds in r.segment_rounds]
    assert len(segment_samples) >= 50  # the fit must not be vacuous
    c2, ok2, worst2 = fit_and_validate(segment_samples)
    assert ok2, f"segment validation ratio {worst2:.2f} (c''={c2:.2f})"
    print(f"\n[criterion 4] PASS: iterations <= c'*n/k with c'={c1:.2f} "
          f"(worst ratio {worst:.2f}); isolated merge executions within "
          f"c''*k rounds, c''={c2:.2f} over {len(segment_samples)} isolated "
          f"replays from judged cuts and hand-offs")


def _judged(judgements, kind):
    """How many boundaries of `kind` the judgements judged."""
    return sum(c.kind == kind and c.qualifying for j in judgements for c in j.checks)


def test_criterion_5_shiftable_convergence(batch300):
    failures = _failed(batch300, "5")
    assert not failures, failures[:10]
    cuts, handoffs = _judged(batch300, "shift"), _judged(batch300, "handoff")
    assert cuts >= 900 and handoffs >= 100  # the check must not be vacuous
    print(f"\n[criterion 5] PASS: error predicate false everywhere at "
          f"{cuts} post-shift cuts and at {handoffs} completed initializer "
          f"hand-offs")


def test_criterion_6_stamp_soundness(batch300):
    failures = _failed(batch300, "6")
    assert not failures, failures[:10]
    cuts, handoffs = _judged(batch300, "shift"), _judged(batch300, "handoff")
    print(f"\n[criterion 6] PASS: every active stamp at {cuts} post-shift "
          f"cuts and {handoffs} hand-offs certifies a non-mergeable near pair")


def test_potential_monotone_and_strictly_decreasing(batch300):
    failures = _failed(batch300, "potential")
    assert not failures, failures[:10]
    sequences = [seq for j in batch300 for seq in potential_sequences(j.checks)]
    monotone_pairs = sum(len(seq) - 1 for seq in sequences)
    strict_pairs = sum(max(0, len(seq) - 2) for seq in sequences)
    assert monotone_pairs >= 500
    print(f"\n[invariant] PASS: merge-progress potential at "
          f"{sum(map(len, sequences))} post-shift cuts, non-increasing over "
          f"{monotone_pairs} successive pairs, strictly decreasing over "
          f"{strict_pairs} two-iteration windows")


def test_criterion_7_fault_injection():
    failures = []
    for i in range(N_INJECTIONS):
        rng = random.Random(7_777_7 * i + 5)
        n = rng.randrange(4, 17)
        g = random_connected_graph(n, 0.3, i)
        k = rng.randrange(1, 5)
        desc = RunDescriptor(
            graph=g, k=k,
            daemon=DaemonPolicy(kind="random", p=0.5, seed=i),
            max_steps=None, init_mode="random", init_seed=i, n_false=N_FALSE,
        )
        variables = ("color", "mode", "reset", "in_group", "in_group_of",
                     "in_group_dist", "in_stamp_on", "in_prior",
                     "in_stamp1", "in_stamp2", "in_stamp_dist")
        count = max(1, int(0.25 * n * len(variables)))
        res = run_with_corruption(desc, variables, count, seed=i * 13,
                                  at_step=rng.randrange(20, 120))
        failures += [(i, failure) for failure in judge(res).failures]
    assert not failures, failures[:5]
    print(f"\n[criterion 7] PASS: {N_INJECTIONS} mid-run corruption campaigns "
          f"(<= 25% of variables) all re-converged and passed every per-run "
          f"verdict")


def test_criterion_8_closure_and_silence(batch300):
    failures = _failed(batch300, "8")
    assert not failures, failures[:10]
    print(f"\n[criterion 8] PASS: every final configuration is silent "
          f"(no action enabled) and satisfies the terminal predicate")


def test_criterion_9_deterministic_replay():
    blobs = []
    for trial in range(6):
        g = random_connected_graph(5 + trial * 3, 0.3, trial)
        k = 1 + trial % 3
        cfg0 = random_config(g, k, seed=trial)
        daemon = DaemonPolicy(kind="random", p=0.5, seed=trial)
        a = run_grouping(g, k, daemon, cfg0)
        b = run_grouping(g, k, daemon, cfg0)
        assert summary_bytes(a) == summary_bytes(b), f"trial {trial} diverged"
        blobs.append(summary_bytes(a))
    assert len(set(blobs)) == len(blobs)  # different instances do differ
    print("\n[criterion 9] PASS: byte-identical trace summaries on replay")


def test_criterion_10_named_small_instances():
    p5 = path_graph(5)
    res = run_grouping(p5, 2, DaemonPolicy(kind="random", p=0.5, seed=1),
                       zeroed_config(p5, 2))
    assert not judge(res).failures
    groups = {gid: set(m) for gid, m in res.report.groups.items()}
    assert groups == {1: {1, 2, 3}, 4: {4, 5}}

    # The tree bands on a 6-cycle with k=2 are three adjacent pairs; every
    # pair of pairs has union diameter 3 > 2, so nothing merges.  (Derived by
    # evaluating the height/band functions on the stabilized tree and
    # confirmed by the oracle; a two-arc split is another valid minimal
    # grouping but is not the one this algorithm computes from a clean
    # start.)
    c6 = cycle_graph(6)
    res = run_grouping(c6, 2, DaemonPolicy(kind="random", p=0.5, seed=1),
                       zeroed_config(c6, 2))
    assert not judge(res).failures
    groups = {gid: set(m) for gid, m in res.report.groups.items()}
    assert groups == {1: {1, 2}, 3: {3, 4}, 6: {5, 6}}
    for seed in range(2, 8):
        res = run_grouping(c6, 2, DaemonPolicy(kind="random", p=0.5, seed=seed),
                           random_config(c6, 2, seed=seed))
        assert not judge(res).failures
        assert all(len(m) <= 3 for m in res.report.groups.values())
    print("\n[criterion 10] PASS: named instances match their derived "
          "groupings (P5/k=2 -> {1,2,3},{4,5}; C6/k=2 -> three adjacent "
          "pairs from a clean start)")
