"""Cross-cutting property tests: row forms agree with the reference macros,
fired labels respect priority under the cached engine, actions touch only
their declared variables, the round recount matches the engine, pinned
runs keep their summaries, boundaries record where each execution starts,
every post-shift cut is judged and is each process's input to the next
execution, and the judge catches a tampered final state or report, a
potential that does not fall, or an error left at a boundary."""

import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stabsim import experiments
from stabsim.configs import corrupt_config, false_ids, random_config, zeroed_config
from stabsim.experiments import (
    RunDescriptor,
    boundary_checks,
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
    DIST,
    DOMAIN,
    GROUP_OF,
    IN_GROUP,
    IN_GROUP_DIST,
    _distance_row,
    _min_row,
    _nbrs_by_group,
    _share_row,
    distance_macro,
    init_actions,
    min_macro,
    same_group_nbrs,
    share,
)
from stabsim.loop import (
    COLOR, HANDOFF, SHIFT, compose, copy_shift, disabled_everywhere, error_nowhere,
)
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

    # The initializer's I1 and I2 against the macro over all neighbors on dist.
    init = {a.label: a for a in init_actions(k).actions}
    everyone = [(w, cfg[w]) for w in g.neighbors_of(v)]
    i2_row = init["I2"].keyed.row(ev, None)
    assert set(i2_row) == set(dom)
    for u in dom:
        raw = distance_macro(ev, u, DIST, everyone)
        assert i2_row[u] == (raw if (raw is BOT or 0 <= raw <= 2 * k) else BOT)
    heard = {u for _, ws in everyone for u in ws[DOMAIN]}
    ball = {v} | {u for u in heard
                  if (d := distance_macro(ev, u, DIST, everyone)) is not BOT and d <= k + 1}
    proposed = (init["I1"].evaluate(ev) or {DOMAIN: dom})[DOMAIN]
    assert proposed == ball


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
    make, k = INSTANCES[instance]
    g = make(0)
    alg = compose(kgrouping_binding(k), g)

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
    # execution of a run starts from.  The check that compose caches
    # privately (the error predicate) and the cached views (the children,
    # the dist gradient, the target) are reached by auditing every cache miss
    # of the runs.  M6 and
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
    assert {"E", "children", "gradient", "target", "M1", "M5", "M6", "M7", "I1"} <= audited


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


def _grid_run():
    g, k = grid_graph(3, 3), 2
    return run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                        random_config(g, k, seed=11))


def _tampered(result, v, name, value):
    """`result` with process v's final `name` set to `value`."""
    final = {u: dict(store) for u, store in result.trace.final.items()}
    final[v][name] = value
    return dataclasses.replace(
        result, trace=dataclasses.replace(result.trace, final=final))


def test_judge_flags_a_tampered_final_configuration():
    result = _grid_run()
    assert judge(result).failures == ()
    fake = false_ids(result.graph, 1)[0]
    with_fake = _tampered(result, 5, DOMAIN, result.trace.final[5][DOMAIN] | {fake})
    assert "1+" in {tag for tag, _ in judge(with_fake).failures}
    recolored = _tampered(result, 5, COLOR, 0)
    assert "8" in {tag for tag, _ in judge(recolored).failures}


def test_judge_flags_a_failed_grouping_report():
    result = _grid_run()
    report = dataclasses.replace(result.report, verdict=False, violations=["tampered"])
    assert judge(dataclasses.replace(result, report=report)).failures == (
        ("1", "check_Lk: ['tampered']"),)


def test_judge_flags_more_keys_than_the_declared_arrays_allow():
    # Keys outside the domain are stale, so only the key bound sees them:
    # one key per domain entry for the domain and for each declared array.
    result = _grid_run()
    bound = 1 + len(result.binding.arrays)
    size = len(result.trace.final[5][DOMAIN])
    stale = dict.fromkeys(range(10**6, 10**6 + bound * size + 1), 0)
    crowded = _tampered(result, 5, IN_GROUP_DIST,
                        {**result.trace.final[5][IN_GROUP_DIST], **stale})
    [(tag, message)] = judge(crowded).failures
    assert tag == "1+" and message.endswith(f" keys > {bound}*{size}"), message


def test_judge_flags_too_many_groups():
    result = _grid_run()
    too_many = 2 * result.graph.n // result.k + 2  # 11 > 2n/k+1 = 10
    report = dataclasses.replace(result.report, group_count=too_many)
    assert judge(dataclasses.replace(result, report=report)).failures == (
        ("2", f"{too_many} groups > 2n/k+1"),)


@pytest.mark.parametrize("values, flagged", [
    (lambda: itertools.chain([2, 3], itertools.count(1, -1)), "increased: "),
    (lambda: itertools.repeat(7), "no strict decrease over two iterations: "),
], ids=["rise", "flat"])
def test_judge_flags_a_potential_that_does_not_fall(monkeypatch, values, flagged):
    result, values = _grid_run(), values()
    monkeypatch.setattr(experiments, "potential",
                        lambda cfg, graph, k: (0, 0, 0, next(values)))
    judgement = judge(result)
    assert max(map(len, experiments.potential_sequences(judgement.checks))) >= 3
    messages = [message for tag, message in judgement.failures if tag == "potential"]
    assert messages and all(m.startswith(flagged) for m in messages), messages


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_boundaries_record_where_each_execution_starts(daemon):
    # The boundaries are the steps where the root fires L14 or L15, in
    # order.  A shift boundary with a defined cut starts from a shifted
    # configuration, so shifting again changes nothing; a hand-off starts
    # where the root's first enabled action is L15.
    shifts = handoffs = 0
    for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
        make, k = INSTANCES[instance]
        for seed in range(3):
            g = make(seed)
            root = min(g.vertices)
            result = run_grouping(g, k, DAEMONS[daemon], random_config(g, k, seed=seed))
            assert [(b.step, b.kind) for b in result.boundaries] == [
                (i, "shift" if rec.fired[root] == SHIFT else "handoff")
                for i, rec in enumerate(result.trace.steps)
                if rec.fired.get(root) in (SHIFT, HANDOFF)]
            for b, check in zip(result.boundaries, boundary_checks(result), strict=True):
                if b.kind == "handoff":
                    assert enabled_actions(b.start, root, result.trace.algorithm,
                                           g)[:1] == [HANDOFF]
                    handoffs += check.qualifying
                elif b.start is not None:
                    assert copy_shift(b.start, result.binding) == b.start
                    shifts += 1
    assert shifts and handoffs  # neither check is vacuous


def _after_last_handoff(checks):
    """The shift checks after the last hand-off, or None without one."""
    last = max((i for i, c in enumerate(checks) if c.kind == "handoff"), default=None)
    return None if last is None else checks[last + 1:]


def test_every_shift_with_a_defined_cut_is_judged():
    # Criteria 5 and 6 and the potential judge every shift whose post-shift
    # cut is defined, and after the last hand-off every process shifts as
    # often as the root, so every cut there is defined.
    judged_shifts = 0
    for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
        make, k = INSTANCES[instance]
        for seed in range(4):
            g = make(seed)
            result = run_grouping(g, k, DAEMONS["random"], random_config(g, k, seed=seed))
            checks = judge(result).checks
            assert sum(c.kind == "shift" for c in checks) == result.iterations
            late = _after_last_handoff(checks)
            if late is None:
                continue
            assert all(c.qualifying and c.potential is not None for c in late), (
                instance, seed)
            assert all(c.potential is None for c in checks if c.kind == "handoff")
            judged_shifts += len(late)
    assert judged_shifts >= 20


def _record_shift_stores(monkeypatch):
    """Make run_grouping's run also record each process's store at each of
    its L14 steps since the root's last hand-off; cleared at each run."""
    stores = {}
    real_run = experiments.run

    def recording_run(graph, alg, cfg0, daemon, max_steps, observers=()):
        root = min(graph.vertices)
        stores.clear()
        stores.update({v: [] for v in graph.vertices})

        def observe(event):
            for v, label in event.fired.items():
                if label == SHIFT:
                    stores[v].append(event.pre_cfg[v])
            if event.fired.get(root) == HANDOFF:
                for recorded in stores.values():
                    recorded.clear()

        return real_run(graph, alg, cfg0, daemon, max_steps,
                        observers=(*observers, observe))

    monkeypatch.setattr(experiments, "run", recording_run)
    return stores


@pytest.mark.parametrize("daemon", sorted(DAEMONS))
def test_each_cut_is_every_process_input_to_the_next_execution(daemon, monkeypatch):
    # After the last hand-off: (a) every process fires L14 as often as the
    # root; (b) the copies of v in post-shift cut j are its copies at its
    # next L14, or in the final configuration after the last; (c) every
    # pre-shift cut qualifies on plain Evals: the merge table is disabled
    # everywhere and the error predicate false everywhere.
    stores = _record_shift_stores(monkeypatch)
    cuts = 0
    for instance in ("path6-k2", "cycle6-k1", "grid3x3-k2", "gnp10-k3"):
        make, k = INSTANCES[instance]
        for seed in range(3):
            g = make(seed)
            root = min(g.vertices)
            result = run_grouping(g, k, DAEMONS[daemon], random_config(g, k, seed=seed))
            binding = result.binding
            copies = [c for _, c in binding.outputs]
            handoff_steps = [b.step for b in result.boundaries if b.kind == "handoff"]
            if not handoff_steps:
                continue
            fires = Counter(v for rec in result.trace.steps[handoff_steps[-1] + 1:]
                            for v, label in rec.fired.items() if label == SHIFT)
            assert all(fires[v] == fires[root] for v in g.vertices), (instance, seed)
            late = [b for b in result.boundaries
                    if b.kind == "shift" and b.step > handoff_steps[-1]]
            assert len(late) == fires[root]
            for j, b in enumerate(late):
                for v in g.vertices:
                    nxt = (stores[v][j + 1] if j + 1 < len(late)
                           else result.trace.final[v])
                    assert all(b.start[v][c] == nxt[c] for c in copies), (instance, seed, j, v)
                evals = plain_evals({v: stores[v][j] for v in g.vertices}, g)
                assert disabled_everywhere(evals, binding.base)
                assert error_nowhere(evals, binding)
                cuts += 1
    assert cuts >= 20


def test_judge_flags_an_error_left_at_a_handoff(monkeypatch):
    # Criterion 5 is checked, not assumed, at post-shift cuts and where the
    # initializer hands off: an error predicate reporting an error everywhere
    # must be flagged at both.
    g, k = grid_graph(3, 3), 2
    monkeypatch.setattr(experiments, "error_nowhere", lambda evals, binding: False)
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    flagged = [message for tag, message in judge(result).failures if tag == "5"]
    assert any("after the handoff" in message for message in flagged)
    assert any("after the shift" in message for message in flagged)
