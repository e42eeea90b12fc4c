import dataclasses
import random
from collections import Counter

import pytest

from stabsim import kgrouping, runtime
from stabsim.bfs import LEVEL, PARENT, ROOT, children
from stabsim.configs import random_config, zeroed_config
from stabsim.graphs import (
    cycle_graph,
    dist,
    grid_graph,
    make_graph,
    path_graph,
    random_connected_graph,
)
from stabsim.kgrouping import (
    BORDER,
    DIST,
    DOMAIN,
    FAR,
    GROUP,
    HEIGHT,
    IN_GROUP,
    IN_GROUP_DIST,
    IN_GROUP_OF,
    IN_PRIOR,
    IN_STAMP_ON,
    INIT_GROUP,
    STAMP_DIST,
    TARGET,
    check_k,
    eval_E,
    init_actions,
    kgrouping_binding,
    merge_actions,
    min_macro,
    share,
)
from stabsim.loop import check_Cfin, compose
from stabsim.runtime import BOT, DaemonPolicy, Eval, RunCaches, plain_evals, run


def tree_state(graph):
    """Stable spanning-tree fields: min-id root, exact levels, min-id parents."""
    r = min(graph.vertices)
    state = {}
    for v in graph.vertices:
        lvl = dist(graph, r, v)
        parent = BOT
        if v != r:
            parent = min(u for u in graph.neighbors_of(v)
                         if dist(graph, r, u) == lvl - 1)
        state[v] = {ROOT: r, LEVEL: lvl, PARENT: parent}
    return state


def init_silent_cfg(graph, k, seed=0):
    """Run the initializer alone (on a stable tree) to silence."""
    cfg = zeroed_config(graph, k)
    for v, overlay in tree_state(graph).items():
        cfg[v].update(overlay)
    trace = run(graph, init_actions(k), cfg,
                DaemonPolicy(kind="random", p=0.6, seed=seed), max_steps=100_000)
    assert trace.terminated
    return trace.final


def test_k_validation():
    with pytest.raises(ValueError):
        check_k(0)
    with pytest.raises(ValueError):
        init_actions(0)
    with pytest.raises(ValueError):
        merge_actions(-1)
    assert check_k(1) == 1


# ---------------------------------------------------------------------------
# macros

def test_share_self_case(p3):
    cfg = init_silent_cfg(p3, 2)
    ev = Eval(cfg, 2, p3.neighbors_of(2))
    assert share(ev, 2, IN_GROUP_OF, "own-value") == "own-value"


def test_share_no_closer_neighbor_gives_bot(p3):
    cfg = init_silent_cfg(p3, 2)
    cfg = {v: dict(s) for v, s in cfg.items()}
    # All neighbor distance entries for key 3 removed: no gradient edge.
    for v in p3.vertices:
        cfg[v][DIST] = {u: d for u, d in cfg[v][DIST].items() if u != 3}
    ev = Eval(cfg, 1, p3.neighbors_of(1))
    assert share(ev, 3, IN_GROUP_OF, BOT) is BOT


def test_share_propagates_along_path(p3):
    # After initialization on 1-2-3 with k=2, process 1 knows process 3's
    # group through process 2.
    cfg = init_silent_cfg(p3, 2)
    assert cfg[3][IN_GROUP] == 2  # 3 joined the band headed by 2
    assert cfg[1][IN_GROUP_OF][3] == 2
    ev = Eval(cfg, 1, p3.neighbors_of(1))
    assert share(ev, 3, IN_GROUP_OF, cfg[1][IN_GROUP]) == 2


def min_macro_fixpoint(graph, cfg, name, q_of):
    """Iterate the substitution x[key] <- Min(v, x[key], Q(v)) to silence."""
    key = min(graph.vertices)  # arrays are keyed by domain identifiers
    for v in graph.vertices:
        cfg[v][name] = {key: BOT}
    for _ in range(graph.n + 2):
        new = {}
        for v in graph.vertices:
            ev = Eval(cfg, v, graph.neighbors_of(v))
            new[v] = min_macro(ev, name, key, q_of(v))
        for v in graph.vertices:
            cfg[v][name] = {key: new[v]}
    return {v: cfg[v][name][key] for v in graph.vertices}


def two_member_group_cfg():
    g = make_graph([3, 7], [(3, 7)])
    cfg = {
        3: {DOMAIN: frozenset({3, 7}), IN_GROUP: 3,
            DIST: {3: 0, 7: 1}, IN_GROUP_DIST: {3: 0, 7: 1}},
        7: {DOMAIN: frozenset({3, 7}), IN_GROUP: 3,
            DIST: {3: 1, 7: 0}, IN_GROUP_DIST: {3: 1, 7: 0}},
    }
    return g, cfg


def test_min_macro_singleton_cases():
    g, cfg = two_member_group_cfg()
    cfg[7][IN_GROUP] = 99  # isolate process 3 in its own group
    ev = Eval(cfg, 3, g.neighbors_of(3))
    assert min_macro(ev, "probe_x", 3, True) == 3   # min{v, bot} = v
    assert min_macro(ev, "probe_x", 3, False) is BOT


def test_min_macro_two_member_group_converges_to_satisfier():
    g, cfg = two_member_group_cfg()
    values = min_macro_fixpoint(g, cfg, "probe_arr", q_of=lambda v: v == 7)
    assert values == {3: 7, 7: 7}


def test_min_macro_picks_minimum_of_satisfiers():
    g, cfg = two_member_group_cfg()
    values = min_macro_fixpoint(g, cfg, "probe_arr", q_of=lambda v: True)
    assert values == {3: 3, 7: 3}


def test_distance_macro_via_init_group_distances(p5):
    # At the initializer's fixed point, same-group distance entries equal
    # distances inside the member set (independent induced-BFS check).
    cfg = init_silent_cfg(p5, 2)
    groups = {}
    for v in p5.vertices:
        groups.setdefault(cfg[v][IN_GROUP], set()).add(v)
    for members in groups.values():
        for v in members:
            for u in members:
                expected = _induced_dist(p5, members, v, u)
                assert cfg[v][IN_GROUP_DIST][u] == expected


def _induced_dist(graph, allowed, src, dst):
    frontier, seen, d = {src}, {src}, 0
    while frontier:
        if dst in frontier:
            return d
        nxt = set()
        for w in frontier:
            for x in graph.neighbors_of(w):
                if x in allowed and x not in seen:
                    seen.add(x)
                    nxt.add(x)
        frontier = nxt
        d += 1
    return BOT


# ---------------------------------------------------------------------------
# initializer

def test_init_p5_heights_and_bands(p5):
    cfg = init_silent_cfg(p5, 2)
    assert [cfg[v][HEIGHT] for v in (1, 2, 3, 4, 5)] == [0, 1, 0, 1, 0]
    assert [cfg[v][INIT_GROUP] for v in (1, 2, 3, 4, 5)] == [1, 2, 2, 4, 4]
    assert [cfg[v][IN_GROUP] for v in (1, 2, 3, 4, 5)] == [1, 2, 2, 4, 4]
    for v in p5.vertices:
        assert cfg[v][DOMAIN] == frozenset(
            u for u in p5.vertices if dist(p5, v, u) <= 3
        )
        for u in cfg[v][DOMAIN]:
            assert cfg[v][DIST][u] == dist(p5, v, u)
        assert all(not f for f in cfg[v][IN_STAMP_ON].values())
        assert all(not f for f in cfg[v][IN_PRIOR].values())


def test_init_single_edge_one_band():
    g = make_graph([1, 2], [(1, 2)])
    cfg = init_silent_cfg(g, 2)
    # Height of the root reaches k/2, so the root heads the band and its
    # child inherits it: one group {1, 2}.
    assert cfg[1][HEIGHT] == 1
    assert cfg[1][INIT_GROUP] == 1 and cfg[2][INIT_GROUP] == 1


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (7, 2), (8, 3), (9, 4)])
def test_init_group_count_bound(n, k):
    cfg = init_silent_cfg(path_graph(n), k, seed=n)
    groups = {cfg[v][IN_GROUP] for v in cfg}
    assert len(groups) <= 2 * n / k + 1


def test_init_silent_is_error_free(p5, c6):
    for graph, k in ((p5, 2), (c6, 2), (p5, 1)):
        cfg = init_silent_cfg(graph, k)
        assert all(not eval_E(cfg, graph, v, k) for v in graph.vertices)


# ---------------------------------------------------------------------------
# error predicate corruption probes

def test_eval_E_detects_foreign_group(p5):
    cfg = init_silent_cfg(p5, 2)
    cfg = {v: dict(s) for v, s in cfg.items()}
    cfg[3][IN_GROUP] = 4  # 3 defects from band 2
    hood = {3} | set(p5.neighbors_of(3))
    assert any(eval_E(cfg, p5, v, 2) for v in hood)


def test_eval_E_detects_phantom_stamp(p5):
    cfg = init_silent_cfg(p5, 2)
    cfg = {v: dict(s) for v, s in cfg.items()}
    flags = dict(cfg[2][IN_STAMP_ON])
    flags[4] = True  # stamp flag with every stamp field still null
    cfg[2][IN_STAMP_ON] = flags
    assert eval_E(cfg, p5, 2, 2)


def test_eval_E_detects_wrong_distance(p5):
    cfg = init_silent_cfg(p5, 2)
    cfg = {v: dict(s) for v, s in cfg.items()}
    d = dict(cfg[2][DIST])
    d[4] = 0
    cfg[2][DIST] = d
    assert eval_E(cfg, p5, 2, 2)


@pytest.mark.parametrize("label", ["I3", "I4", "I6"])
def test_eval_E_holds_where_an_asked_initializer_action_is_enabled(p5, label):
    # One wrong value (a child's height, process 2's init group, or its
    # group map at a key other than its own group's) enables the action
    # `label` at process 2 and no other check of E there, and E asks it.
    cfg = {v: dict(s) for v, s in init_silent_cfg(p5, 2).items()}
    s = cfg[2]
    if label == "I3":
        (child,) = children(Eval(cfg, 2, p5.neighbors_of(2)))
        cfg[child][HEIGHT] = 1 - cfg[child][HEIGHT]
    elif label == "I4":
        s[INIT_GROUP] = 99
    else:
        key = next(u for u in sorted(s[DOMAIN]) if u != s[IN_GROUP])
        s[IN_GROUP_OF] = {**s[IN_GROUP_OF], key: 99}
    action = next(a for a in init_actions(2).actions if a.label == label)
    assert action.evaluate(Eval(cfg, 2, p5.neighbors_of(2))) is not None
    assert eval_E(cfg, p5, 2, 2)


# ---------------------------------------------------------------------------
# array write convention

def test_array_write_drops_stale_keys_and_clamps(p3):
    cfg = init_silent_cfg(p3, 1)
    cfg = {v: dict(s) for v, s in cfg.items()}
    store = cfg[1]
    d = dict(store[DIST])
    d[99] = 1  # stale key not in the domain
    d[next(iter(store[DOMAIN] - {1}))] = 2  # force a mismatch on a real key
    store[DIST] = d
    alg = init_actions(1)
    ev = Eval(cfg, 1, p3.neighbors_of(1))
    hit = alg.first_enabled(ev)
    assert hit is not None and alg.actions[hit[0]].label == "I2"
    new_dist = hit[1][DIST]
    assert set(new_dist) == set(store[DOMAIN])
    assert 99 not in new_dist


def test_stale_keys_alone_do_not_enable(p3):
    cfg = init_silent_cfg(p3, 1)
    cfg = {v: dict(s) for v, s in cfg.items()}
    store = cfg[1]
    d = dict(store[DIST])
    d[99] = 1  # stale key, all domain keys still correct
    store[DIST] = d
    alg = init_actions(1)
    labels = [a.label for a in alg.actions
              if a.evaluate(Eval(cfg, 1, p3.neighbors_of(1))) is not None]
    assert "I2" not in labels


# ---------------------------------------------------------------------------
# merge-phase structure

def test_staged_convergence_static_check():
    merge = merge_actions(2)
    for i, earlier in enumerate(merge.actions):
        for later in merge.actions[i + 1:]:
            overlap = earlier.reads & later.writes
            assert not overlap, (
                f"{earlier.label} reads {sorted(overlap)} written by {later.label}"
            )


def test_uncached_eval_computes_the_gradient_once(monkeypatch):
    # The share rows of M3, M9, M11, M13 and I6 (which E asks) gather
    # along one gradient; an Eval without the engine cache (as in
    # disabled_everywhere and error_nowhere) must still compute it only once.
    from stabsim import kgrouping
    from stabsim.configs import random_config
    from stabsim.experiments import judge, run_grouping
    from stabsim.graphs import grid_graph
    from stabsim.runtime import Action

    g, k = grid_graph(3, 3), 2
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    assert not judge(result).failures
    gradients, share_rows = [], []
    real_gradient, real_share_row = kgrouping._gradient, kgrouping._share_row

    def counted_gradient(ev):
        gradients.append(ev.pid)
        return real_gradient(ev)

    def counted_share_row(ev, *args):
        share_rows.append(ev.pid)
        return real_share_row(ev, *args)

    monkeypatch.setattr(kgrouping, "GRADIENT",
                        Action("gradient", counted_gradient, kgrouping.GRADIENT.reads))
    monkeypatch.setattr(kgrouping, "_share_row", counted_share_row)
    merge, init = merge_actions(k), init_actions(k)
    for v in g.vertices:
        ev = Eval(result.trace.final, v, g.neighbors_of(v))
        assert merge.first_enabled(ev) is None
        assert not kgrouping.error_predicate(ev, k, init)
    assert gradients == list(g.vertices)
    assert share_rows == [v for v in g.vertices for _ in range(5)]


def test_closure_check_evaluates_the_error_predicate_once_per_process(monkeypatch):
    # closure_check asks the composed table (whose L5 reads the error check)
    # and C_fin through one set of plain Evals, so each process evaluates
    # the error predicate once.
    from stabsim.configs import random_config
    from stabsim.experiments import closure_check, run_grouping
    from stabsim.graphs import grid_graph

    g, k = grid_graph(3, 3), 2
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    calls = []
    real = kgrouping.error_predicate

    def counted(ev, *args):
        calls.append(ev.pid)
        return real(ev, *args)

    monkeypatch.setattr(kgrouping, "error_predicate", counted)
    for _ in range(2):
        calls.clear()
        assert closure_check(result)
        assert sorted(calls) == sorted(g.vertices)


def test_judged_handoff_evaluates_the_initializer_once_per_process(monkeypatch):
    # boundary_checks judges a hand-off on the same plain Evals that its
    # error check then asks, so the error predicate's asks of I2 are cache
    # hits: one full I2 row per process per judged hand-off.
    from stabsim.configs import random_config
    from stabsim.experiments import boundary_checks, run_grouping
    from stabsim.graphs import grid_graph

    g, k = grid_graph(3, 3), 2
    result = run_grouping(g, k, DaemonPolicy(kind="random", seed=1),
                          random_config(g, k, seed=11))
    judged = [b for b, c in zip(result.boundaries, boundary_checks(result), strict=True)
              if c.kind == "handoff" and c.qualifying]
    assert judged
    calls = []
    real = kgrouping._dist_row

    def counted(ev, k, keys=None):
        if keys is None:
            calls.append(ev.pid)
        return real(ev, k, keys)

    monkeypatch.setattr(kgrouping, "_dist_row", counted)
    checks = boundary_checks(dataclasses.replace(result, boundaries=judged))
    assert all(c.qualifying and c.shift_error_free for c in checks)
    assert sorted(calls) == sorted(list(g.vertices) * len(judged))


def test_error_predicate_computes_full_rows_only_for_new_kept_rows(monkeypatch):
    # Inside run(), E asks I2 and I6 through the run's kept rows, which the
    # initializer's scans create first and the copy shift no longer drops,
    # so E never computes a full dist or group-map row (keys=None).
    from stabsim.graphs import grid_graph

    g, k = grid_graph(3, 3), 2
    binding = kgrouping_binding(k)
    i2, i6 = binding.init.actions[1], binding.init.actions[5]
    inside, full, kept_before = [], [], []

    def error(ev):
        kept_before.append(ev.pid in ev.caches.kept.get(i2, {}))
        inside.append(ev)
        try:
            return binding.error(ev)
        finally:
            inside.pop()

    def record(action, ev):
        if inside:
            full.append((action.label, ev.pid, ev.pid in ev.caches.kept.get(action, {})))

    real_dist_row, real_share_row = kgrouping._dist_row, kgrouping._share_row

    def dist_row(ev, k, keys=None):
        if keys is None:
            record(i2, ev)
        return real_dist_row(ev, k, keys)

    def share_row(ev, x_name, own_value, keys=None):
        if keys is None and x_name == IN_GROUP_OF:
            record(i6, ev)
        return real_share_row(ev, x_name, own_value, keys)

    monkeypatch.setattr(kgrouping, "_dist_row", dist_row)
    monkeypatch.setattr(kgrouping, "_share_row", share_row)
    alg = compose(dataclasses.replace(binding, error=error), g)
    for daemon in (DaemonPolicy(kind="random", seed=1), DaemonPolicy(kind="synchronous")):
        trace = run(g, alg, random_config(g, k, seed=11), daemon, max_steps=100_000)
        assert trace.terminated
    assert sum(kept_before) > len(g.vertices)  # E mostly finds the rows kept
    assert not full, full


def test_error_predicate_ignores_merge_working_variables(p5):
    # E reads only the initializer outputs, the copy variables, and the tree;
    # merge working variables must be invisible to it.
    cfg = init_silent_cfg(p5, 2)
    base = {v: eval_E(cfg, p5, v, 2) for v in p5.vertices}
    mutated = {v: dict(s) for v, s in cfg.items()}
    dom = mutated[3][DOMAIN]
    mutated[3]["border"] = {u: 1 for u in dom}
    mutated[3]["target"] = {u: 1 for u in dom}
    mutated[3]["merge_dist"] = {u: 0 for u in dom}
    mutated[3]["group"] = 999
    for v in p5.vertices:
        assert eval_E(mutated, p5, v, 2) == base[v]


def test_synchronous_daemon_flushes_false_identifiers():
    # Lock-step scheduling once sustained a false identifier forever by
    # resurrecting stale distance entries whenever the id re-entered a
    # domain; domain-write pruning must make such runs converge.
    from stabsim.configs import random_config
    from stabsim.experiments import judge, run_grouping
    from stabsim.graphs import random_connected_graph
    from stabsim.runtime import DaemonPolicy

    for i in (0, 3, 15, 26):
        rng = random.Random(991 * i + 3)
        n = rng.randrange(4, 15)
        k = rng.randrange(1, 6)
        g = random_connected_graph(n, 0.35, i)
        res = run_grouping(
            g, k, DaemonPolicy(kind="synchronous", seed=i),
            random_config(g, k, seed=i * 7 + 1),
            max_steps=200_000,
        )
        failures = judge(res).failures
        assert not failures, (i, failures[:2])


# ---------------------------------------------------------------------------
# kept rows against full recomputes

KEYED_LABELS = {"I2", "I6", "I7", "I8", "I9", "M1", "M2", "M3", "M4", "M5", "M6", "M7",
                "M9", "M10", "M11", "M12", "M13"}


DAEMONS = {"random": DaemonPolicy(kind="random", p=0.5, seed=4),
           "synchronous": DaemonPolicy(kind="synchronous"),
           "central": DaemonPolicy(kind="central", seed=4)}


def _check_kept_rows(monkeypatch, daemon):
    """Run three instances under `daemon`, checking every kept row handed
    out, whether patched or current, against the full row of a fresh Eval
    and its disagreement set against that Eval's and against the stored
    array; return the checks counted by (label, "current" | "patched")."""
    real = runtime.kept_row
    checks = Counter()

    def checked(ev, action):
        kept = ev.caches.kept.get(action, {}).get(ev.pid)
        current = kept is not None and kept.current
        state = real(ev, action)
        if kept is not None:
            full = real(Eval(ev.cfg, ev.pid, ev.nbr_ids), action)
            assert (state.row, state.diff) == (full.row, full.diff), action.label
            stored = ev.store.get(action.keyed.array) or {}
            assert state.diff == {u for u in ev.store[DOMAIN]
                                  if stored.get(u, BOT) != state.row[u]}, action.label
            checks[action.label, "current" if current else "patched"] += 1
        return state

    monkeypatch.setattr(runtime, "kept_row", checked)
    monkeypatch.setattr(kgrouping, "kept_row", checked)
    for graph, k in ((grid_graph(3, 3), 2), (random_connected_graph(10, 0.3, 0), 3),
                     (path_graph(7), 1)):
        binding = kgrouping_binding(k)
        trace = run(graph, compose(binding, graph), random_config(graph, k, seed=3, n_false=2),
                    daemon, max_steps=200_000)
        assert trace.terminated and check_Cfin(plain_evals(trace.final, graph), binding)
    return checks


@pytest.mark.parametrize("daemon", list(DAEMONS.values()), ids=list(DAEMONS))
def test_kept_rows_match_full_recomputes(monkeypatch, daemon):
    # Under each daemon, every keyed action hands out kept rows, and each
    # equals a full recompute.
    checks = _check_kept_rows(monkeypatch, daemon)
    assert {a.label for a in (*kgrouping_binding(1).base.actions,
                              *kgrouping_binding(1).init.actions) if a.keyed} == KEYED_LABELS
    assert {label for label, _ in checks} == KEYED_LABELS, sorted(
        KEYED_LABELS - {label for label, _ in checks})


def test_every_kept_row_matches_a_full_recompute(monkeypatch):
    # The rows a run hands out without patching them (current: no read of
    # their action changed since they were last patched) and the rows read
    # by another row (M6 reads M5's, M7 M6's) are among those checked, and
    # equal a full recompute like the patched ones.
    checks = _check_kept_rows(monkeypatch, DAEMONS["random"])
    assert all(checks[label, kind] for label in ("M5", "M6") for kind in ("current", "patched"))
    assert checks["M7", "patched"]


def test_copied_actions_take_the_same_kept_row_paths(monkeypatch):
    # A copy of an Action (dataclasses.replace, as a tracer makes) reaches
    # the original's kept row through _keyed's closure, and the row's
    # `current` flag lives on the row, not on the Action that asks: a run of
    # copies computes as many full rows, patched rows and marks as a run of
    # the originals.
    counts = Counter()

    def counting_keyed(array, row, fixed, marks=None):
        def counted_row(ev, keys):
            counts["full" if keys is None else "patched"] += 1
            return row(ev, keys)

        def counted_marks(ev):
            counts["marks"] += 1
            return marks(ev)

        return runtime.Keyed(array, counted_row, fixed,
                             None if marks is None else counted_marks)

    monkeypatch.setattr(kgrouping, "Keyed", counting_keyed)
    g, k = grid_graph(4, 4), 2
    binding = kgrouping_binding(k)

    def copied(spec):
        return dataclasses.replace(
            spec, actions=tuple(dataclasses.replace(a) for a in spec.actions))

    totals = []
    for b in (binding, dataclasses.replace(binding, base=copied(binding.base),
                                           init=copied(binding.init))):
        counts.clear()
        trace = run(g, compose(b, g), random_config(g, k, seed=3),
                    DaemonPolicy(kind="random", seed=1), max_steps=200_000)
        assert trace.terminated
        totals.append(dict(counts))
    assert totals[0] == totals[1]
    assert set(totals[0]) == {"full", "patched", "marks"}


def test_target_and_toward_writes_patch_only_the_keys_they_reach(monkeypatch, p5):
    # M5 reads the owner's target array at its own key and the elected
    # target at the old and the new target's key; M6 reads a neighbor's
    # stamp_dist at our group id at the key of the neighbor's group.  Each
    # write recomputes just those keys of the kept rows.
    k = 2
    cfg = init_silent_cfg(p5, k)
    m5, m6 = merge_actions(k).actions[4:6]
    caches, computed = RunCaches((m5, m6)), []  # a table's caches keep marks
    for name in ("_stamp1_row", "_stamp_dist_row"):
        def counted(ev, *args, real=getattr(kgrouping, name), name=name):
            if ev.caches is caches:  # not the fresh full recompute
                computed.append((name, None if args[-1] is None else sorted(args[-1])))
            return real(ev, *args)

        monkeypatch.setattr(kgrouping, name, counted)

    def evaluate(action, cfg, v):
        computed.clear()
        action.evaluate(Eval(cfg, v, p5.neighbors_of(v), caches))
        fresh = Eval(cfg, v, p5.neighbors_of(v))
        action.evaluate(fresh)
        assert caches.kept[action][v].row == fresh.caches.kept[action][v].row
        return computed

    def write(cfg, u, name, key, value):
        new = dict(cfg)
        new[u] = dict(cfg[u], **{name: {**cfg[u][name], key: value}})
        caches.changed(u, frozenset((name,)), cfg[u], new[u], p5.neighbors_of(u))
        return new

    v, w = next((v, w) for v in p5.vertices for w in p5.neighbors_of(v)
                if cfg[v][IN_GROUP] != cfg[w][IN_GROUP])
    lv, gid = cfg[v][IN_GROUP], cfg[w][IN_GROUP]
    assert evaluate(m5, cfg, v) == [("_stamp1_row", None)]
    assert evaluate(m6, cfg, v) == [("_stamp_dist_row", None)]
    key = next(u for u in sorted(cfg[v][DOMAIN]) if u != lv)
    assert cfg[v][TARGET].get(key) != lv
    cfg = write(cfg, v, TARGET, key, lv)
    assert evaluate(m5, cfg, v) == [("_stamp1_row", [key])]
    assert lv in cfg[w][DOMAIN] and cfg[w][STAMP_DIST].get(lv) is BOT
    cfg = write(cfg, w, STAMP_DIST, lv, 0)
    assert evaluate(m6, cfg, v) == [("_stamp_dist_row", sorted({lv, gid}))]

    # Process 4 (group 4) borders groups 1 and 2 and elects 1; group 1
    # targets it.  Preferring group 2 moves the target: keys 1 and 2.
    cfg[4] = dict(cfg[4], **{BORDER: {1: 1, 2: 2}, TARGET: {1: 4}})
    assert evaluate(m5, cfg, 4) == [("_stamp1_row", None)]
    assert kgrouping._target(Eval(cfg, 4, p5.neighbors_of(4))) == 1
    cfg = write(cfg, 4, IN_PRIOR, 2, True)
    assert kgrouping._target(Eval(cfg, 4, p5.neighbors_of(4))) == 2
    assert evaluate(m5, cfg, 4) == [("_stamp1_row", [1, 2])]
