"""Cross-cutting property tests: row forms agree with the reference macros,
fired labels respect priority under the cached engine, actions touch only
their declared variables, the round recount matches the engine, pinned
runs keep their summaries, boundaries record where each execution starts
and qualify as an uncached check says, and the judge catches a tampered
final state or an error left at a boundary."""

import dataclasses
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stabsim import experiments
from stabsim.configs import corrupt_config, false_ids, random_config, zeroed_config
from stabsim.experiments import (
    RunDescriptor,
    judge,
    run_grouping,
    run_with_corruption,
    summary_bytes,
)
from stabsim.graphs import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from stabsim.kgrouping import (
    BORDER,
    DOMAIN,
    GROUP_OF,
    IN_GROUP,
    IN_GROUP_DIST,
    _distance_row,
    _min_row,
    _nbrs_by_group,
    _share_row,
    distance_macro,
    min_macro,
    same_group_nbrs,
    share,
)
from stabsim.loop import COLOR, HANDOFF, SHIFT, compose, copy_shift, disabled_everywhere
from stabsim.kgrouping import kgrouping_binding
from stabsim.runtime import (
    BOT, DaemonPolicy, Eval, enabled_actions, plain_evals, rounds, run, step,
)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 10_000_000))
def test_row_forms_match_reference_macros(case):
    rng = random.Random(case)
    n = rng.randrange(2, 10)
    g = random_connected_graph(n, 0.35, case)
    k = rng.randrange(1, 4)
    cfg = random_config(g, k, seed=case, n_false=2)
    v = rng.choice(sorted(g.vertices))
    ev = Eval(cfg, v, g.neighbors_of(v))
    dom = cfg[v][DOMAIN]

    share_row = _share_row(ev, GROUP_OF, cfg[v].get(IN_GROUP, BOT))
    for u in dom:
        assert share_row[u] == share(ev, u, GROUP_OF, cfg[v].get(IN_GROUP, BOT))

    by_group = _nbrs_by_group(ev)
    q_keys = {u for u in dom if by_group.get(u)}
    min_row = _min_row(ev, BORDER, q_keys)
    for u in dom:
        assert min_row[u] == min_macro(ev, BORDER, u, u in q_keys)

    sources = same_group_nbrs(ev)
    dist_row = _distance_row(ev, IN_GROUP_DIST, sources, dom, k)
    for u in dom:
        raw = distance_macro(ev, u, IN_GROUP_DIST, sources)
        clamped = raw if (raw is BOT or 0 <= raw <= 2 * k) else BOT
        assert dist_row[u] == clamped


# (network, k) per instance; the seed also draws the gnp network.
INSTANCES = {
    "path6-k2": (lambda seed: path_graph(6), 2),
    "cycle6-k1": (lambda seed: cycle_graph(6), 1),
    "path7-k1": (lambda seed: path_graph(7), 1),
    "grid3x3-k2": (lambda seed: grid_graph(3, 3), 2),
    "gnp10-k3": (lambda seed: random_connected_graph(10, 0.3, seed), 3),
}

DAEMONS = {
    "random": DaemonPolicy(kind="random", p=0.5, seed=4),
    "synchronous": DaemonPolicy(kind="synchronous"),
    "central": DaemonPolicy(kind="central", seed=4),
}


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
@pytest.mark.parametrize("instance", ["path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"])
def test_fired_label_is_smallest_enabled(instance, daemon):
    # Differential: the cached run() against the uncached enabled_actions()
    # and step() replay of the same schedule.
    make, k = INSTANCES[instance]
    g = make(0)
    alg = compose(kgrouping_binding(k), g)
    cfg = random_config(g, k, seed=77)
    trace = run(g, alg, cfg, DAEMONS[daemon], max_steps=100_000)
    assert trace.terminated
    current = trace.initial
    for rec in trace.steps:
        for v, label in rec.fired.items():
            labels = enabled_actions(current, v, alg, g)
            assert labels and labels[0] == label
        current = step(current, set(rec.selected), alg, g)
    assert current == trace.final


SCAN_DAEMONS = {
    **DAEMONS,
    "no-aging": DaemonPolicy(kind="random", p=0.5, seed=4, fairness_aging=False),
}


@pytest.mark.parametrize("daemon", sorted(SCAN_DAEMONS))
@pytest.mark.parametrize("instance", ["grid3x3-k2", "gnp10-k3", "path7-k1"])
def test_resumed_guard_scans_match_full_scans(instance, daemon):
    # Differential: run() re-evaluates a process only from the first action
    # a step's changes can reach and keeps its first enabled action while
    # none does.  At every step, the set the daemon selects from must equal
    # that of uncached full scans of the step's configuration, each fired
    # label must be the first enabled, and nothing is enabled at the end.
    # E read through the run's caches (StepEvent.evaluate) must equal E on
    # plain Evals at every process, including those whose L5 gate is closed
    # (mode P, color 4), which no scan asks.
    make, k = INSTANCES[instance]
    g = make(0)
    binding = kgrouping_binding(k)
    alg = compose(binding, g)
    error_check = binding.error_check

    def full_scan(cfg):
        return {v: enabled_actions(cfg, v, alg, g) for v in g.vertices}

    for seed in range(4):
        steps = []

        def observe(event):
            pre = full_scan(event.pre_cfg)
            assert event.enabled == {v for v, labels in pre.items() if labels}, (
                event.index)
            for v, label in event.fired.items():
                assert pre[v][:1] == [label], (event.index, v)
            plain = [ev.cached(error_check) for ev in plain_evals(event.pre_cfg, g)]
            assert [event.evaluate(v).cached(error_check) for v in g.vertices] == plain, (
                event.index)
            steps.append(event.index)

        trace = run(g, alg, random_config(g, k, seed=seed), SCAN_DAEMONS[daemon],
                    max_steps=100_000, observers=(observe,))
        assert trace.terminated and len(steps) == trace.num_steps > 0
        # the last configuration, which no step starts from
        assert not any(full_scan(trace.final).values())


class _RecordingStore(dict):
    """A process's store that records every variable name looked up in it."""

    def __init__(self, store, seen):
        super().__init__(store)
        self.seen = seen

    def get(self, name, default=None):
        self.seen.add(name)
        return super().get(name, default)

    def __getitem__(self, name):
        self.seen.add(name)
        return super().__getitem__(name)

    def __contains__(self, name):
        self.seen.add(name)
        return super().__contains__(name)


def _audit(action, ev):
    """Evaluate `action` afresh on a recording copy of ev's snapshot.

    The copy holds the closed neighborhood only, and the new Eval has an
    empty memo, so values memoized by an earlier action hide no reads.
    Reads are recorded per store: the owner's must lie in `reads`, each
    neighbor's in `nbr_reads`.
    """
    seen = {u: set() for u in (ev.pid, *ev.nbr_ids)}
    view = {u: _RecordingStore(ev.cfg[u], names) for u, names in seen.items()}
    updates = action.evaluate(Eval(view, ev.pid, ev.nbr_ids))
    own = seen.pop(ev.pid)
    assert own <= action.reads, (action.label, sorted(own - action.reads))
    for u, names in seen.items():
        assert names <= action.nbr_reads, (
            action.label, u, sorted(names - action.nbr_reads))
    if isinstance(updates, dict):
        assert set(updates) <= action.writes, (
            action.label, sorted(set(updates) - action.writes))


@pytest.mark.parametrize("instance", ["grid3x3-k2", "gnp10-k3", "path7-k1"])
def test_actions_touch_only_declared_variables(instance, monkeypatch):
    # Read and write audit of every action of the composed, merge and init
    # tables, on random configurations and on the configurations each
    # execution of a run starts from.  The checks that compose caches privately (error predicate,
    # copies in sync) and the payload's cached views (the dist gradient, the
    # target) are reached by auditing every cache miss of the runs.  M6 and
    # M7 read the stamp1 and stamp_dist rows as M5's and M6's rows, so their
    # audits include those reads.
    make, k = INSTANCES[instance]
    real_cached = Eval.cached
    audited = set()

    def audited_cached(ev, action):
        if ev.pid not in ev.caches.results.get(action, ()):
            _audit(action, ev)
            audited.add(action.label)
        return real_cached(ev, action)

    for seed in range(6):
        g = make(seed)
        binding = kgrouping_binding(k)
        tables = (compose(binding, g), binding.base, binding.init)
        cfg0 = random_config(g, k, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(Eval, "cached", audited_cached)
            result = run_grouping(g, k, DaemonPolicy(kind="random", p=0.5, seed=seed), cfg0)
        assert not judge(result).failures
        for cfg in (cfg0, *(b.start for b in result.boundaries), result.trace.final):
            for v in g.vertices:
                ev = Eval(cfg, v, g.neighbors_of(v))
                for table in tables:
                    for action in table.actions:
                        _audit(action, ev)
    assert {"E", "sync", "gradient", "target", "M1", "M5", "M6", "M7", "I1"} <= audited


def test_round_recount_matches_engine():
    g = path_graph(5)
    k = 2
    alg = compose(kgrouping_binding(k), g)
    cfg = random_config(g, k, seed=3)
    trace = run(g, alg, cfg, DaemonPolicy(kind="random", p=0.5, seed=9),
                max_steps=100_000)
    assert trace.terminated
    assert rounds(trace) == trace.num_rounds == len(trace.round_boundaries)


def test_composed_locality():
    # Perturbing a variable two hops away never changes a process's verdict.
    g = path_graph(6)
    k = 2
    alg = compose(kgrouping_binding(k), g)
    cfg = random_config(g, k, seed=21)
    before = alg.first_enabled(Eval(cfg, 1, g.neighbors_of(1)))
    far = {v: dict(s) for v, s in cfg.items()}
    far[4]["color"] = (far[4]["color"] + 1) % 5
    far[4]["in_group"] = 999
    after = alg.first_enabled(Eval(far, 1, g.neighbors_of(1)))
    assert before == after


# Whole runs under every daemon kind and through the corruption path: a
# refactoring of the engine, the wave or the payload must keep each run's
# summary (verdicts, groups, trace sha256) byte for byte.
PINNED_RUNS = {
    "grid3x3-k2-random": (
        lambda: run_grouping(grid_graph(3, 3), 2, DaemonPolicy(kind="random", seed=1),
                             random_config(grid_graph(3, 3), 2, seed=11)),
        "33decbadc637d793009f54b101bcaa7918e0c63b7d265a4c1c0862eb43555983"),
    "path7-k1-synchronous": (
        lambda: run_grouping(path_graph(7), 1, DaemonPolicy(kind="synchronous"),
                             zeroed_config(path_graph(7), 1)),
        "9043fb74cfef07d6c6b90236fa17983fde9e9bc5a1ae98d04b96fe453e8674ad"),
    "gnp10-k3-central": (
        lambda: run_grouping(random_connected_graph(10, 0.3, 2), 3,
                             DaemonPolicy(kind="central", seed=4),
                             random_config(random_connected_graph(10, 0.3, 2), 3, seed=5)),
        "51dc6f15a2500b4801d518370030529a81faef54cb1c6ad2060b62f88df3d7a0"),
    "cycle6-k2-no-aging": (
        lambda: run_grouping(cycle_graph(6), 2,
                             DaemonPolicy(kind="random", seed=3, fairness_aging=False),
                             random_config(cycle_graph(6), 2, seed=7)),
        "4b6566eb22bc1000b7524e89fce3504e6587e54a7a9e32869886193111080de6"),
    "path6-k2-inject": (
        lambda: run_with_corruption(
            RunDescriptor(path_graph(6), 2, DaemonPolicy(kind="random", seed=2), None,
                          "random", init_seed=9),
            ("color", "mode", "in_group"), 4, 5, 30),
        "8fda0a1a720cbc0ec79b565bb69017e6b3c356e2e5bfd1c59128d6f8a0e9ae9f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_summary_digest_pinned(name):
    make, digest = PINNED_RUNS[name]
    result = make()
    assert judge(result).failures == ()
    assert hashlib.sha256(summary_bytes(result)).hexdigest() == digest


def test_corruption_at_step_0_hits_the_initial_configuration():
    g, k = path_graph(6), 2
    desc = RunDescriptor(g, k, DaemonPolicy(kind="random", seed=2), None,
                         "random", init_seed=9)
    variables = ("color", "mode", "in_group")
    result = run_with_corruption(desc, variables, 4, 5, at_step=0)
    start = corrupt_config(desc.initial_configuration(), g, k, variables, 4, 5,
                           desc.n_false)
    direct = run_grouping(g, k, DaemonPolicy(kind="random", seed=3), start)
    assert summary_bytes(result) == summary_bytes(direct)
    assert summary_bytes(result) != summary_bytes(
        run_with_corruption(desc, variables, 4, 5, at_step=1))


def test_judge_flags_a_tampered_final_configuration():
    g, k = grid_graph(3, 3), 2
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    assert judge(result).failures == ()

    def tampered(v, name, value):
        final = {u: dict(store) for u, store in result.trace.final.items()}
        final[v][name] = value
        return dataclasses.replace(
            result, trace=dataclasses.replace(result.trace, final=final))

    fake = false_ids(g, 1)[0]
    with_fake = tampered(5, DOMAIN, result.trace.final[5][DOMAIN] | {fake})
    assert "1+" in {tag for tag, _ in judge(with_fake).failures}
    recolored = tampered(5, COLOR, 0)
    assert "8" in {tag for tag, _ in judge(recolored).failures}


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_boundaries_record_where_each_execution_starts(daemon):
    # A shift boundary starts from the shifted configuration, so shifting
    # again changes nothing; a qualifying hand-off starts where the
    # initializer is disabled everywhere.
    shifts = handoffs = 0
    for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
        make, k = INSTANCES[instance]
        for seed in range(3):
            g = make(seed)
            result = run_grouping(g, k, DAEMONS[daemon], random_config(g, k, seed=seed))
            for b in result.boundaries:
                if b.kind == "shift":
                    assert copy_shift(b.start, result.binding) == b.start
                    shifts += 1
                elif b.qualifying:
                    assert disabled_everywhere(plain_evals(b.start, g), result.binding.init)
                    handoffs += 1
    assert shifts and handoffs  # neither check is vacuous


# Both verdicts of both boundary kinds: no part of a check is vacuous.
EVERY_VERDICT = {(kind, ok) for kind in ("shift", "handoff") for ok in (True, False)}


def _record_root_starts(monkeypatch):
    """Make run_grouping's run also record, at each step where the root
    fires SHIFT or HANDOFF, (step, pre-step configuration), and the run's
    layer cache; the list is cleared at each run."""
    seen, caches = [], []
    real_run = experiments.run

    def recording_run(graph, alg, cfg0, daemon, max_steps, observers=(), **kwargs):
        if not observers:  # run_with_corruption's run up to the corruption
            return real_run(graph, alg, cfg0, daemon, max_steps, **kwargs)
        root = min(graph.vertices)
        seen.clear()
        caches.clear()

        def observe(event):
            if event.fired.get(root) in (SHIFT, HANDOFF):
                seen.append((event.index, event.pre_cfg))
            if not caches:
                caches.append(event.evaluate(root).caches.results)

        return real_run(graph, alg, cfg0, daemon, max_steps,
                        observers=(*observers, observe), **kwargs)

    monkeypatch.setattr(experiments, "run", recording_run)
    return seen, caches


def _check_qualification(result, seen, caches):
    # Differential: the qualification run_grouping took from the run's caches
    # against an uncached reference on the pre-step configuration, which
    # scans every action with enabled_actions and calls the error predicate
    # itself.  L5 and the qualification share one E action, the binding's.
    g, binding = result.graph, result.binding
    assert [b.step for b in result.boundaries] == [i for i, _ in seen]
    counts = Counter()
    for b, (_, pre) in zip(result.boundaries, seen):
        module = binding.base if b.kind == "shift" else binding.init
        want = all(not enabled_actions(pre, v, module, g) for v in g.vertices)
        if b.kind == "shift":
            want = want and not any(
                binding.error(Eval(pre, v, g.neighbors_of(v))) for v in g.vertices)
        assert b.qualifying == want, (b.step, b.kind)
        counts[b.kind, want] += 1
    assert [a for a in caches[0] if a.label == "E"] == [binding.error_check]
    return counts


def test_boundary_qualification_matches_an_uncached_check(monkeypatch):
    seen, caches = _record_root_starts(monkeypatch)
    counts = Counter()
    for daemon in DAEMONS.values():
        for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
            make, k = INSTANCES[instance]
            # seeds 4 and 5 start some instances where a hand-off fails to
            # qualify; shifts that fail to qualify are common
            for seed in (0, 4, 5):
                g = make(seed)
                result = run_grouping(g, k, daemon, random_config(g, k, seed=seed))
                counts += _check_qualification(result, seen, caches)
    assert set(counts) == EVERY_VERDICT


def test_boundary_qualification_at_step_0_matches_an_uncached_check(monkeypatch):
    # Runs started where the root fires SHIFT or HANDOFF first: the boundary
    # at step 0 is qualified from the caches of the run's initial guard scans.
    seen, caches = _record_root_starts(monkeypatch)
    starts = []
    for instance, seed in (("cycle6-k1", 0), ("path6-k2", 5)):
        make, k = INSTANCES[instance]
        g = make(seed)
        run_grouping(g, k, DAEMONS["random"], random_config(g, k, seed=seed))
        starts += [(g, k, pre) for _, pre in seen]
    counts = Counter()
    for g, k, pre in starts:
        result = run_grouping(g, k, DAEMONS["synchronous"], pre)
        assert result.boundaries[0].step == 0
        counts += _check_qualification(result, seen, caches)
    assert set(counts) == EVERY_VERDICT


def test_boundary_qualification_after_a_corruption_matches_an_uncached_check(monkeypatch):
    seen, caches = _record_root_starts(monkeypatch)
    g, k = grid_graph(3, 3), 2
    desc = RunDescriptor(g, k, DaemonPolicy(kind="random", seed=2), None, "random",
                         init_seed=9)
    result = run_with_corruption(desc, ("color", "mode", "in_group", "stamp_on"),
                                 5, 3, at_step=400)
    counts = _check_qualification(result, seen, caches)
    assert set(counts) == EVERY_VERDICT


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_each_boundary_is_qualified_once(daemon, monkeypatch):
    # run_grouping asks `qualifies` at the steps where the root fires SHIFT
    # or HANDOFF and at no other: one call per boundary, in step order.
    calls = []
    real_qualifies = experiments.qualifies

    def counting(label, evals, binding):
        calls.append(label)
        return real_qualifies(label, evals, binding)

    monkeypatch.setattr(experiments, "qualifies", counting)
    total = 0
    for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
        make, k = INSTANCES[instance]
        for seed in range(3):
            g = make(seed)
            calls.clear()
            result = run_grouping(g, k, DAEMONS[daemon], random_config(g, k, seed=seed))
            assert calls == [SHIFT if b.kind == "shift" else HANDOFF
                             for b in result.boundaries], (instance, seed)
            total += len(calls)
    assert total


def test_judge_flags_an_error_left_at_a_handoff(monkeypatch):
    # Criterion 5 is checked, not assumed, where the initializer hands off:
    # an error predicate reporting an error everywhere must be flagged there.
    g, k = grid_graph(3, 3), 2
    monkeypatch.setattr(experiments, "error_nowhere", lambda evals, binding: False)
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    flagged = [message for tag, message in judge(result).failures if tag == "5"]
    assert flagged and all("handoff" in message for message in flagged)
